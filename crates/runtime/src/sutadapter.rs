//! Adapter from an instrumented [`Cluster`] to Mocket's
//! [`SystemUnderTest`] interface.
//!
//! Protocol crates provide a node factory (the application) and an
//! [`ExternalDriver`] (the scripts of §4.1.2: crash, restart, user
//! requests, and the drop/duplicate overriding switches); the adapter
//! wires both to the testbed.

use mocket_core::sut::{int_param, ExecReport, Offer, Snapshot, SutError, SystemUnderTest};
use mocket_obs::causal::Tracer;
use mocket_tla::{ActionInstance, Value};

use crate::cluster::{Cluster, ClusterError, NodeId};

/// The external-action name the adapter handles itself: erase a
/// node's durable storage and restart it. A plain `Restart` recovers
/// whatever the node persisted; `DiskLoss` must not.
pub const DISK_LOSS_ACTION: &str = "DiskLoss";

/// Handles external-fault and user-request actions that nodes cannot
/// offer themselves.
pub trait ExternalDriver: Send {
    /// Executes `action` (spec domain) against the cluster.
    fn execute(
        &mut self,
        cluster: &mut Cluster,
        action: &ActionInstance,
    ) -> Result<ExecReport, SutError>;
}

/// The scripts every protocol shares (§4.1.2): `ClientRequest(leader)`
/// — the k-th user request writes datum k through the `client_hook`
/// action of the leader — plus `Restart(n)` and `Crash(n)`.
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

impl ExternalDriver for ScriptDriver {
    fn execute(
        &mut self,
        cluster: &mut Cluster,
        action: &ActionInstance,
    ) -> Result<ExecReport, SutError> {
        match action.name.as_str() {
            "ClientRequest" => {
                let leader = int_param(action, 0)? as NodeId;
                self.client_counter += 1;
                let write =
                    ActionInstance::new(self.client_hook, vec![Value::Int(self.client_counter)]);
                let events = cluster
                    .execute(leader, &write)
                    .map_err(|e| SutError::External(e.to_string()))?;
                Ok(ExecReport { msg_events: events })
            }
            "Restart" => {
                cluster.restart(int_param(action, 0)? as NodeId);
                Ok(ExecReport::default())
            }
            "Crash" => {
                cluster.crash(int_param(action, 0)? as NodeId);
                Ok(ExecReport::default())
            }
            other => Err(SutError::External(format!(
                "unknown external action {other}"
            ))),
        }
    }
}

/// A cluster exposed as a system under test.
pub struct ClusterSut {
    cluster: Cluster,
    ids: Vec<NodeId>,
    external: Box<dyn ExternalDriver>,
    /// Extra tracer plumbing beyond the cluster itself — protocol
    /// factories register their wire network here so message-level
    /// events reach the same trace.
    tracer_hook: Option<Box<dyn Fn(&Tracer) + Send>>,
}

impl ClusterSut {
    /// Wraps a cluster. `ids` is the full membership (used for
    /// snapshot aggregation even across crashes).
    pub fn new(cluster: Cluster, ids: Vec<NodeId>, external: Box<dyn ExternalDriver>) -> Self {
        ClusterSut {
            cluster,
            ids,
            external,
            tracer_hook: None,
        }
    }

    /// Registers a hook run on every [`install_tracer`] call, after
    /// the cluster itself is wired (builder form). Protocol factories
    /// use it to hand the tracer to their `dsnet::Net`.
    ///
    /// [`install_tracer`]: SystemUnderTest::install_tracer
    pub fn with_tracer_hook(mut self, hook: Box<dyn Fn(&Tracer) + Send>) -> Self {
        self.tracer_hook = Some(hook);
        self
    }

    /// Access to the underlying cluster (tests, drivers).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
}

fn convert(err: ClusterError) -> SutError {
    match err {
        ClusterError::NotRunning(n) => SutError::NodeFailure {
            node: n,
            message: "not running".into(),
        },
        ClusterError::Unresponsive(n) => SutError::NodeFailure {
            node: n,
            message: "unresponsive".into(),
        },
        ClusterError::Died { node, reason } => SutError::NodeDeath { node, reason },
    }
}

impl SystemUnderTest for ClusterSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        let ids = self.ids.clone();
        self.cluster.start(&ids);
        Ok(())
    }

    fn teardown(&mut self) {
        self.cluster.shutdown();
    }

    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        Ok(self
            .cluster
            .offers()
            .map_err(convert)?
            .into_iter()
            .map(|(node, action)| Offer { node, action })
            .collect())
    }

    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        let events = self
            .cluster
            .execute(offer.node, &offer.action)
            .map_err(convert)?;
        Ok(ExecReport { msg_events: events })
    }

    fn execute_external(&mut self, action: &ActionInstance) -> Result<ExecReport, SutError> {
        // Disk loss is generic across protocols (crash + wiped
        // storage + restart), so the adapter handles it here instead
        // of every driver reimplementing it.
        if action.name == DISK_LOSS_ACTION {
            let Some(&Value::Int(id)) = action.params.first() else {
                return Err(SutError::External(
                    "DiskLoss requires a node-id parameter".into(),
                ));
            };
            let id = id as NodeId;
            self.cluster.crash(id);
            if !self.cluster.wipe_disk(id) {
                return Err(SutError::External(
                    "DiskLoss: no disk wiper installed on this cluster".into(),
                ));
            }
            self.cluster.restart(id);
            return Ok(ExecReport::default());
        }
        self.external.execute(&mut self.cluster, action)
    }

    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        let vars = self
            .cluster
            .aggregate_snapshot(&self.ids)
            .map_err(convert)?;
        Ok(Snapshot { vars })
    }

    fn install_tracer(&mut self, tracer: &Tracer) {
        self.cluster.set_tracer(tracer.clone());
        if let Some(hook) = &self.tracer_hook {
            hook(tracer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Backend, NodeApp, NodeFactory};
    use crate::registry::{Shadow, VarRegistry};
    use mocket_core::sut::MsgEvent;
    use mocket_tla::Value;
    use std::sync::Arc;

    struct PingApp {
        registry: Arc<VarRegistry>,
        pinged: Shadow<bool>,
    }

    impl NodeApp for PingApp {
        fn enabled(&mut self) -> Vec<ActionInstance> {
            if *self.pinged.get() {
                vec![]
            } else {
                vec![ActionInstance::nullary("ping")]
            }
        }
        fn execute(&mut self, _action: &ActionInstance) -> Vec<MsgEvent> {
            self.pinged.set(true);
            vec![]
        }
        fn registry(&self) -> Arc<VarRegistry> {
            self.registry.clone()
        }
    }

    fn sut() -> ClusterSut {
        let factory: NodeFactory = Box::new(|_id| {
            let registry = VarRegistry::new();
            let pinged = Shadow::new("pinged", false, registry.clone());
            Box::new(PingApp { registry, pinged }) as Box<dyn NodeApp>
        });
        let cluster = Cluster::new(factory, Backend::Threads);
        ClusterSut::new(cluster, vec![1, 2], Box::new(ScriptDriver::new("ping")))
    }

    #[test]
    fn full_sut_cycle() {
        let mut s = sut();
        s.deploy().unwrap();
        let offers = s.offers().unwrap();
        assert_eq!(offers.len(), 2);
        s.execute(&offers[0]).unwrap();
        let snap = s.snapshot().unwrap();
        let pinged = snap.get("pinged").unwrap();
        assert_eq!(pinged.expect_apply(&Value::Int(1)), &Value::Bool(true));
        assert_eq!(pinged.expect_apply(&Value::Int(2)), &Value::Bool(false));
        s.teardown();
    }

    #[test]
    fn external_crash_and_restart() {
        let mut s = sut();
        s.deploy().unwrap();
        let offers = s.offers().unwrap();
        s.execute(offers.iter().find(|o| o.node == 1).unwrap())
            .unwrap();
        s.execute_external(&ActionInstance::new("Crash", vec![Value::Int(1)]))
            .unwrap();
        // Crashed node's frozen value still aggregates.
        let snap = s.snapshot().unwrap();
        assert_eq!(
            snap.get("pinged").unwrap().expect_apply(&Value::Int(1)),
            &Value::Bool(true)
        );
        s.execute_external(&ActionInstance::new("Restart", vec![Value::Int(1)]))
            .unwrap();
        // Restart loses volatile state: pinged is false again.
        let snap = s.snapshot().unwrap();
        assert_eq!(
            snap.get("pinged").unwrap().expect_apply(&Value::Int(1)),
            &Value::Bool(false)
        );
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

    /// A node app with durable state: `count` is re-read from a
    /// shared "disk" at every (re)start, and written back on bump.
    struct DurableApp {
        id: NodeId,
        disk: Arc<std::sync::Mutex<std::collections::BTreeMap<NodeId, i64>>>,
        registry: Arc<VarRegistry>,
        count: Shadow<i64>,
    }

    impl NodeApp for DurableApp {
        fn enabled(&mut self) -> Vec<ActionInstance> {
            vec![ActionInstance::nullary("bump")]
        }
        fn execute(&mut self, _action: &ActionInstance) -> Vec<MsgEvent> {
            self.count.update(|c| c + 1);
            self.disk.lock().unwrap().insert(self.id, *self.count.get());
            vec![]
        }
        fn registry(&self) -> Arc<VarRegistry> {
            self.registry.clone()
        }
    }

    fn durable_sut() -> ClusterSut {
        let disk = Arc::new(std::sync::Mutex::new(
            std::collections::BTreeMap::<NodeId, i64>::new(),
        ));
        let factory_disk = disk.clone();
        let factory: NodeFactory = Box::new(move |id| {
            let registry = VarRegistry::new();
            let recovered = factory_disk.lock().unwrap().get(&id).copied().unwrap_or(0);
            let count = Shadow::new("count", recovered, registry.clone());
            Box::new(DurableApp {
                id,
                disk: factory_disk.clone(),
                registry,
                count,
            }) as Box<dyn NodeApp>
        });
        let cluster =
            Cluster::new(factory, Backend::Threads).with_disk_wiper(Box::new(move |id| {
                disk.lock().unwrap().remove(&id);
            }));
        ClusterSut::new(cluster, vec![1], Box::new(ScriptDriver::new("ping")))
    }

    fn count_of(s: &mut ClusterSut, node: i64) -> Value {
        s.snapshot()
            .unwrap()
            .get("count")
            .unwrap()
            .expect_apply(&Value::Int(node))
            .clone()
    }

    #[test]
    fn restart_recovers_durable_state_but_disk_loss_does_not() {
        let mut s = durable_sut();
        s.deploy().unwrap();
        let offer = s.offers().unwrap().remove(0);
        s.execute(&offer).unwrap();
        assert_eq!(count_of(&mut s, 1), Value::Int(1));

        // A plain restart recovers what the node persisted.
        s.execute_external(&ActionInstance::new("Restart", vec![Value::Int(1)]))
            .unwrap();
        assert_eq!(count_of(&mut s, 1), Value::Int(1), "restart keeps the disk");

        // Disk loss erases durable state: the node comes back empty.
        s.execute_external(&ActionInstance::new(
            DISK_LOSS_ACTION,
            vec![Value::Int(1)],
        ))
        .unwrap();
        assert_eq!(count_of(&mut s, 1), Value::Int(0), "disk loss wipes it");
        s.teardown();
    }

    #[test]
    fn disk_loss_without_wiper_or_node_id_is_a_typed_error() {
        let mut s = durable_sut();
        s.deploy().unwrap();
        assert!(matches!(
            s.execute_external(&ActionInstance::nullary(DISK_LOSS_ACTION)),
            Err(SutError::External(_))
        ));
        // A cluster without a wiper reports the misconfiguration
        // instead of silently degrading DiskLoss into Restart.
        let mut plain = sut();
        plain.deploy().unwrap();
        assert!(matches!(
            plain.execute_external(&ActionInstance::new(
                DISK_LOSS_ACTION,
                vec![Value::Int(1)]
            )),
            Err(SutError::External(_))
        ));
        s.teardown();
        plain.teardown();
    }
}
