//! Adapter from an instrumented [`Cluster`] to Mocket's
//! [`SystemUnderTest`] interface.
//!
//! Protocol crates provide a node type (the application) and an
//! [`ExternalDriver`] (the scripts of §4.1.2: crash, restart, user
//! requests, and the drop/duplicate overriding switches); the adapter
//! wires both to the testbed. The adapter is a plain value: cloning it
//! copies the deployment.

use mocket_core::sut::{int_param, ExecReport, Offer, Snapshot, SutError, SystemUnderTest};
use mocket_obs::causal::Tracer;
use mocket_tla::{ActionInstance, Value};

use crate::cluster::{Cluster, NodeApp, NodeId};

/// The external-action name the adapter handles itself: erase a
/// node's durable storage and restart it. A plain `Restart` recovers
/// whatever the node persisted; `DiskLoss` must not.
pub const DISK_LOSS_ACTION: &str = "DiskLoss";

/// Handles external-fault and user-request actions that nodes cannot
/// offer themselves.
pub trait ExternalDriver<N: NodeApp>: Clone + Send + 'static {
    /// Executes `action` (spec domain) against the cluster.
    fn execute(
        &mut self,
        cluster: &mut Cluster<N>,
        action: &ActionInstance,
    ) -> Result<ExecReport, SutError>;
}

/// The scripts every protocol shares (§4.1.2): `ClientRequest(leader)`
/// — the k-th user request writes datum k through the `client_hook`
/// action of the leader — plus `Restart(n)` and `Crash(n)`.
#[derive(Clone)]
pub struct ScriptDriver {
    client_hook: &'static str,
    client_counter: i64,
}

impl ScriptDriver {
    /// The scripts of a protocol whose client write is `client_hook`.
    pub fn new(client_hook: &'static str) -> Self {
        ScriptDriver {
            client_hook,
            client_counter: 0,
        }
    }
}

impl<N: NodeApp> ExternalDriver<N> for ScriptDriver {
    fn execute(
        &mut self,
        cluster: &mut Cluster<N>,
        action: &ActionInstance,
    ) -> Result<ExecReport, SutError> {
        match action.name.as_str() {
            "ClientRequest" => {
                let leader = member(cluster, action)?;
                self.client_counter += 1;
                let write =
                    ActionInstance::new(self.client_hook, vec![Value::Int(self.client_counter)]);
                let events = cluster.execute(leader, &write)?;
                Ok(ExecReport { msg_events: events })
            }
            "Restart" => {
                cluster.restart(member(cluster, action)?);
                Ok(ExecReport::default())
            }
            "Crash" => {
                cluster.crash(member(cluster, action)?);
                Ok(ExecReport::default())
            }
            other => Err(SutError::External(format!(
                "unknown external action {other}"
            ))),
        }
    }
}

/// A cluster exposed as a system under test.
#[derive(Clone)]
pub struct ClusterSut<N: NodeApp, D = ScriptDriver> {
    cluster: Cluster<N>,
    ids: Vec<NodeId>,
    external: D,
}

impl<N: NodeApp, D: ExternalDriver<N>> ClusterSut<N, D> {
    /// Wraps a cluster. `ids` is the full membership (used for
    /// snapshot aggregation even across crashes).
    pub fn new(cluster: Cluster<N>, ids: Vec<NodeId>, external: D) -> Self {
        ClusterSut {
            cluster,
            ids,
            external,
        }
    }
}

/// The node an external action targets: parameter 0, which must name a
/// deployed node — a fault on any other id would boot a phantom, and a
/// client request would be charged to a node that never existed.
fn member<N: NodeApp>(cluster: &Cluster<N>, action: &ActionInstance) -> Result<NodeId, SutError> {
    let id = int_param(action, 0)?;
    match NodeId::try_from(id) {
        Ok(node) if cluster.is_member(node) => Ok(node),
        _ => Err(SutError::External(format!(
            "{}: node {id} was never deployed",
            action.name
        ))),
    }
}

impl<N: NodeApp, D: ExternalDriver<N>> SystemUnderTest for ClusterSut<N, D> {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.cluster.start(&self.ids);
        Ok(())
    }

    fn teardown(&mut self) {
        self.cluster.shutdown();
    }

    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        Ok(self
            .cluster
            .offers()?
            .into_iter()
            .map(|(node, action)| Offer { node, action })
            .collect())
    }

    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        let events = self.cluster.execute(offer.node, &offer.action)?;
        Ok(ExecReport { msg_events: events })
    }

    fn execute_external(&mut self, action: &ActionInstance) -> Result<ExecReport, SutError> {
        // Disk loss is generic across protocols (crash + wiped
        // storage + restart), so the adapter handles it here instead
        // of every driver reimplementing it.
        if action.name == DISK_LOSS_ACTION {
            let id = member(&self.cluster, action)?;
            self.cluster.crash(id);
            self.cluster.wipe_disk(id);
            self.cluster.restart(id);
            return Ok(ExecReport::default());
        }
        self.external.execute(&mut self.cluster, action)
    }

    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        let vars = self.cluster.aggregate_snapshot(&self.ids);
        Ok(Snapshot { vars })
    }

    fn install_tracer(&mut self, tracer: &Tracer) {
        self.cluster.set_tracer(tracer.clone());
    }

    fn fork(&self) -> Option<Box<dyn SystemUnderTest>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, NodeCx};
    use mocket_core::sut::MsgEvent;
    use mocket_dsnet::Net;

    /// Pings once; `count` is re-read from the node's disk at every
    /// (re)start and written back on each ping.
    #[derive(Clone)]
    struct PingApp {
        pinged: bool,
        count: i64,
    }

    impl NodeApp for PingApp {
        type Msg = u64;
        type Config = ();

        fn boot(_id: NodeId, _config: &(), cx: &mut NodeCx<'_, u64>) -> Self {
            let count = cx.disk.get("count").and_then(Value::as_int).unwrap_or(0);
            PingApp {
                pinged: false,
                count,
            }
        }

        fn enabled(&self, _net: &Net<u64>) -> Vec<ActionInstance> {
            if self.pinged {
                vec![]
            } else {
                vec![ActionInstance::nullary("ping")]
            }
        }

        fn execute(&mut self, _action: &ActionInstance, cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
            self.pinged = true;
            self.count += 1;
            cx.disk.put("count", Value::Int(self.count));
            vec![]
        }

        fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
            visit("pinged", Value::Bool(self.pinged));
            visit("count", Value::Int(self.count));
        }
    }

    fn sut() -> ClusterSut<PingApp> {
        let cluster = Cluster::new((), Net::new([1, 2]), Backend::Threads);
        ClusterSut::new(cluster, vec![1, 2], ScriptDriver::new("ping"))
    }

    fn var_of(s: &mut ClusterSut<PingApp>, var: &str, node: i64) -> Value {
        let snap = s.snapshot().unwrap();
        snap.get(var).unwrap().expect_apply(&Value::Int(node)).clone()
    }

    fn external(name: &str, node: i64) -> ActionInstance {
        ActionInstance::new(name, vec![Value::Int(node)])
    }

    #[test]
    fn full_sut_cycle() {
        let mut s = sut();
        s.deploy().unwrap();
        let offers = s.offers().unwrap();
        assert_eq!(offers.len(), 2);
        s.execute(&offers[0]).unwrap();
        assert_eq!(var_of(&mut s, "pinged", 1), Value::Bool(true));
        assert_eq!(var_of(&mut s, "pinged", 2), Value::Bool(false));
        s.teardown();
    }

    #[test]
    fn external_crash_and_restart() {
        let mut s = sut();
        s.deploy().unwrap();
        let offers = s.offers().unwrap();
        s.execute(offers.iter().find(|o| o.node == 1).unwrap())
            .unwrap();
        s.execute_external(&external("Crash", 1)).unwrap();
        // Crashed node's last value still aggregates.
        assert_eq!(var_of(&mut s, "pinged", 1), Value::Bool(true));
        s.execute_external(&external("Restart", 1)).unwrap();
        // Restart loses volatile state: pinged is false again.
        assert_eq!(var_of(&mut s, "pinged", 1), Value::Bool(false));
        s.teardown();
    }

    #[test]
    fn unknown_external_errors() {
        let mut s = sut();
        s.deploy().unwrap();
        assert!(s
            .execute_external(&ActionInstance::nullary("FlipTable"))
            .is_err());
        s.teardown();
    }

    #[test]
    fn restart_recovers_durable_state_but_disk_loss_does_not() {
        let mut s = sut();
        s.deploy().unwrap();
        let offer = s.offers().unwrap().remove(0);
        s.execute(&offer).unwrap();
        assert_eq!(var_of(&mut s, "count", 1), Value::Int(1));

        // A plain restart recovers what the node persisted.
        s.execute_external(&external("Restart", 1)).unwrap();
        assert_eq!(var_of(&mut s, "count", 1), Value::Int(1), "restart keeps the disk");

        // Disk loss erases durable state: the node comes back empty.
        s.execute_external(&external(DISK_LOSS_ACTION, 1)).unwrap();
        assert_eq!(var_of(&mut s, "count", 1), Value::Int(0), "disk loss wipes it");
        s.teardown();
    }

    /// A fault on a node outside the membership is a typed error, and
    /// boots no phantom node.
    #[test]
    fn faults_on_undeployed_nodes_are_typed_errors() {
        let mut s = sut();
        s.deploy().unwrap();
        for (name, node) in [("Restart", 9), ("Crash", 9), (DISK_LOSS_ACTION, -1)] {
            assert!(
                matches!(s.execute_external(&external(name, node)), Err(SutError::External(_))),
                "{name}({node})"
            );
        }
        let mut offering: Vec<u64> = s.offers().unwrap().iter().map(|o| o.node).collect();
        offering.dedup();
        assert_eq!(offering, [1, 2], "only deployed nodes offer actions");
        s.teardown();
    }

    /// A client request to a node outside the membership fails before
    /// it is counted or reaches the cluster; one to a crashed member
    /// still reaches it and fails there.
    #[test]
    fn client_requests_to_undeployed_nodes_are_typed_errors() {
        let mut s = sut();
        s.deploy().unwrap();
        for node in [-1, 9] {
            match s.execute_external(&external("ClientRequest", node)) {
                Err(SutError::External(msg)) => assert!(msg.ends_with("never deployed"), "{msg}"),
                other => panic!("ClientRequest({node}): {other:?}"),
            }
        }
        assert_eq!(
            s.external.client_counter, 0,
            "a refused request is not counted"
        );
        s.execute_external(&external("ClientRequest", 1)).unwrap();
        assert_eq!(var_of(&mut s, "count", 1), Value::Int(1));
        s.execute_external(&external("Crash", 2)).unwrap();
        assert!(matches!(
            s.execute_external(&external("ClientRequest", 2)),
            Err(SutError::NodeFailure { node: 2, .. })
        ));
        s.teardown();
    }

    #[test]
    fn disk_loss_without_node_id_is_a_typed_error() {
        let mut s = sut();
        s.deploy().unwrap();
        assert!(matches!(
            s.execute_external(&ActionInstance::nullary(DISK_LOSS_ACTION)),
            Err(SutError::External(_))
        ));
        s.teardown();
    }
}
