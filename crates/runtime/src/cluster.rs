//! The instrumented cluster: direct in-process nodes, one hosting path.
//!
//! The paper's testbed (§4.3, §6.2) drives a deployed cluster one
//! action at a time: ask every node for the actions it is blocked on
//! (`notifyAndBlock`), release one (`Execute`), read its shadow
//! variables (`checkAllStates`). Nothing in that protocol runs two
//! nodes at once, so the cluster owns each [`NodeApp`] as a plain
//! object and calls it directly. Crash drops the object; restart
//! builds a fresh incarnation from the factory — whatever the
//! application persisted in its `dsnet::Storage` survives, nothing
//! else does.
//!
//! **One step, one dispatch.** Every control step is a typed closure
//! run by [`dispatch`] under `catch_unwind`. Observation hooks (offer
//! collection, snapshots) run inline on the harness thread: they are
//! the step-dense hot path — one per node per offer poll. A snapshot
//! reads each live node's registry under its lock straight into the
//! aggregate, one clone per shadow value; only a crashed or dead node
//! keeps a frozen copy of its values. *Execution*
//! steps, the only place the harness runs open-ended application
//! code, run on a single lazily spawned *sandbox* thread (one per
//! cluster, reused across steps and nodes) so the harness can bound
//! them with the reply timeout.
//!
//! **Panic isolation.** A node panicking inside application code must
//! not tear the harness down: the unwind is caught and reported as a
//! structured [`ClusterError::Died`], the node is deregistered with
//! its shadow variables frozen (the registry uses non-poisoning locks,
//! so it stays readable after a panic), and the rest of the cluster
//! keeps answering.
//!
//! **Watchdog.** An execution step that outlives the reply timeout is
//! abandoned together with the sandbox thread it is stuck on — never
//! joined, its channels dropped so a late reply cannot answer a later
//! request — and the node is deregistered →
//! [`ClusterError::Unresponsive`]. The next execution step spawns a
//! fresh sandbox, so a stuck `execute` stalls one request but not the
//! campaign.
//!
//! **Backends.** A [`Backend`] only chooses the clock the steps are
//! accounted on. [`Backend::Threads`] is the wall clock: steps cost
//! what they cost, and trace timestamps stay 0 so wall time never
//! leaks into a trace. [`Backend::Sim`] charges the same steps to the
//! run's shared [`mocket_sim::SimClock`]: each costs a seeded slice of
//! virtual time, and a hung step advances the virtual clock by exactly
//! the reply timeout, so timings, traces and watchdog verdicts are
//! byte-reproducible per seed. Verdict parity between the two holds
//! by construction — they share every line below except those clock
//! reads. (The variant names are pinned by the benchmark adapter in
//! `perfbench/`.)

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use mocket_core::sut::MsgEvent;
use mocket_obs::causal::Tracer;
use mocket_sim::{SimClock, SimHandle, SimRng};
use mocket_tla::{ActionInstance, Value};

use crate::registry::VarRegistry;

/// A node identifier (matches `dsnet::NodeId`).
pub type NodeId = u64;

/// The application logic of one node.
///
/// Implementations are the real protocol code (Raft, ZAB): `enabled`
/// is the set of actions the node's threads are currently blocked on;
/// `execute` runs one of them to completion; the registry holds the
/// shadow variables.
pub trait NodeApp: Send + 'static {
    /// The actions this node is currently blocked on (implementation
    /// domain: hook names + collected parameters).
    fn enabled(&mut self) -> Vec<ActionInstance>;

    /// Executes one action, returning the reported message events.
    fn execute(&mut self, action: &ActionInstance) -> Vec<MsgEvent>;

    /// The node's shadow-variable registry.
    fn registry(&self) -> Arc<VarRegistry>;
}

/// Builds node applications; called at deploy and again at restart.
pub type NodeFactory = Box<dyn FnMut(NodeId) -> Box<dyn NodeApp> + Send>;

/// A running node. The registry handle is kept beside the app so a
/// panicked or hung node's last state stays readable.
struct Node {
    app: Box<dyn NodeApp>,
    registry: Arc<VarRegistry>,
}

/// Errors from cluster control.
#[derive(Debug, Clone)]
pub enum ClusterError {
    /// The node is not running.
    NotRunning(NodeId),
    /// The node did not answer within the timeout. The node is
    /// deregistered and the thread running its step detached: a late
    /// reply must never desynchronise the request/reply protocol.
    Unresponsive(NodeId),
    /// The node's application code panicked (or its channels closed
    /// unexpectedly). The harness survives; the node is gone.
    Died {
        /// The dead node.
        node: NodeId,
        /// Panic message or channel diagnosis.
        reason: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NotRunning(n) => write!(f, "node {n} is not running"),
            ClusterError::Unresponsive(n) => write!(f, "node {n} is unresponsive"),
            ClusterError::Died { node, reason } => {
                write!(f, "node {node} died: {reason}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

thread_local! {
    /// True while this thread is executing application code on behalf
    /// of a node, so the panic hook can tell a caught node fault from
    /// a genuine harness panic.
    static IN_NODE_STEP: Cell<bool> = const { Cell::new(false) };
}

/// Suppresses default panic output from node code: node panics are
/// caught, reported as [`ClusterError::Died`] and classified by the
/// test runner, so the default stderr backtrace is just noise. Node
/// code is recognised by the [`IN_NODE_STEP`] marker [`dispatch`]
/// sets. Panics anywhere else keep the previous hook's behaviour.
fn install_node_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_NODE_STEP.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one control step — `hook` — on `app`. Application code runs
/// inside `catch_unwind` so a protocol bug (or an injected fault
/// tripping an assertion) becomes a structured death report — `Err`
/// carries the panic message — instead of a harness teardown.
fn dispatch<T>(
    app: &mut dyn NodeApp,
    hook: impl FnOnce(&mut dyn NodeApp) -> T,
) -> Result<T, String> {
    IN_NODE_STEP.with(|flag| {
        flag.set(true);
        let result = catch_unwind(AssertUnwindSafe(|| hook(app)));
        flag.set(false);
        result.map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// Erases one node's durable storage (disk-loss fault). Protocol
/// crates wire this to their storage substrate (e.g. wiping the
/// node's `dsnet::Storage`); the cluster itself stays
/// storage-agnostic.
pub type DiskWiper = Box<dyn Fn(NodeId) + Send>;

/// The clock a cluster's control steps are accounted on. Node hosting
/// is the same either way (see the module docs).
#[derive(Clone)]
pub enum Backend {
    /// The wall clock: steps take the real time they take. The name
    /// predates the single hosting path and is pinned by the benchmark
    /// adapter.
    Threads,
    /// The simulation's shared virtual clock: seeded per-step cost,
    /// zero sleeps, deterministic.
    Sim(SimHandle),
}

/// Virtual cost of one control step (offer poll, execute, snapshot)
/// under the simulation backend. Small but non-zero, so virtual time
/// progresses and per-action watchdogs stay meaningful.
const SIM_STEP_COST: Duration = Duration::from_micros(50);

/// Bound on the seeded per-step jitter the simulation adds on top of
/// [`SIM_STEP_COST`] — virtual timings vary by seed (exercising
/// time-dependent paths) while staying bit-reproducible per seed.
const SIM_STEP_JITTER: Duration = Duration::from_micros(20);

/// One execution step in flight: the app travels to the sandbox with
/// the action to release and comes back with the outcome.
type SandboxStep = (Box<dyn NodeApp>, ActionInstance);
type SandboxReply = (Box<dyn NodeApp>, Result<Vec<MsgEvent>, String>);

/// A single reusable worker thread that runs execution steps so the
/// harness thread can bound each one with the reply timeout.
/// Abandoned wholesale — channels dropped, thread never joined — when
/// a step hangs; the next step lazily respawns it.
struct Sandbox {
    step_tx: Sender<SandboxStep>,
    reply_rx: Receiver<SandboxReply>,
}

/// Yield-loop iterations before parking on the OS. An execution step
/// is typically a few microseconds of application code, so a short
/// `yield_now` loop on both sides of the sandbox channels hands the
/// CPU straight to the peer thread instead of paying a futex
/// park/unpark round-trip per step, and (unlike a busy spin) is safe
/// on a single-CPU host, where spinning would stall the peer for a
/// full scheduler timeslice. A hung step still parks: the loop gives
/// up long before the watchdog grace and falls back to a blocking
/// wait.
const SANDBOX_SPIN: u32 = 64;

impl Sandbox {
    fn spawn() -> Sandbox {
        let (step_tx, step_rx) = bounded::<SandboxStep>(1);
        let (reply_tx, reply_rx) = bounded::<SandboxReply>(1);
        std::thread::Builder::new()
            .name("node-sandbox".to_string())
            .spawn(move || {
                while let Some((mut app, action)) = sandbox_recv(&step_rx) {
                    let result = dispatch(app.as_mut(), |app| app.execute(&action));
                    if reply_tx.send((app, result)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn sandbox thread");
        Sandbox { step_tx, reply_rx }
    }

    /// Spin-then-park wait for the in-flight step's reply, bounded by
    /// the watchdog grace once parked.
    fn recv_reply(&self, grace: Duration) -> Result<SandboxReply, RecvTimeoutError> {
        for _ in 0..SANDBOX_SPIN {
            match self.reply_rx.try_recv() {
                Ok(reply) => return Ok(reply),
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            }
        }
        self.reply_rx.recv_timeout(grace)
    }
}

/// Spin-then-park wait for the next step on the sandbox side.
fn sandbox_recv(step_rx: &Receiver<SandboxStep>) -> Option<SandboxStep> {
    for _ in 0..SANDBOX_SPIN {
        match step_rx.try_recv() {
            Ok(step) => return Some(step),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    step_rx.recv().ok()
}

/// A running instrumented cluster.
pub struct Cluster {
    factory: NodeFactory,
    nodes: BTreeMap<NodeId, Node>,
    /// The frozen shadow values of nodes that crashed or died.
    last_snapshot: BTreeMap<NodeId, Vec<(String, Value)>>,
    reply_timeout: Duration,
    disk_wiper: Option<DiskWiper>,
    /// Causal tracer (disabled by default — every hook is one branch).
    tracer: Tracer,
    /// Present iff the backend is [`Backend::Sim`]: the run's shared
    /// virtual clock and this cluster's step-jitter stream.
    sim: Option<(Arc<SimClock>, SimRng)>,
    /// Lazily spawned, abandoned on a hung step.
    sandbox: Option<Sandbox>,
}

impl Cluster {
    /// Creates a cluster (no nodes yet) on the given backend.
    pub fn new(factory: NodeFactory, backend: Backend) -> Self {
        install_node_panic_hook();
        let sim = match backend {
            Backend::Threads => None,
            Backend::Sim(handle) => Some((handle.clock, SimRng::new(handle.seed))),
        };
        Cluster {
            factory,
            nodes: BTreeMap::new(),
            last_snapshot: BTreeMap::new(),
            reply_timeout: Duration::from_secs(5),
            disk_wiper: None,
            tracer: Tracer::disabled(),
            sim,
            sandbox: None,
        }
    }

    /// Installs a causal tracer: node steps become spans
    /// ([`CausalKind::StepBegin`](mocket_obs::causal::CausalKind) /
    /// `StepEnd`), crashes and restarts become instants. Under the
    /// simulation backend the events carry virtual timestamps, so
    /// traces are byte-deterministic per seed; on the wall clock
    /// timestamps stay zero (the event *order* is still deterministic
    /// for a given schedule).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Virtual time for trace events: the simulation clock when
    /// present, else 0 (wall-clock must never leak into traces).
    fn vtime(&self) -> u64 {
        match &self.sim {
            Some((clock, _)) => clock.now_nanos(),
            None => 0,
        }
    }

    /// Sets the per-request reply timeout: the real-time grace an
    /// execution step gets before the watchdog detaches the node.
    /// Under the simulation backend it is also exactly how far the
    /// virtual clock jumps when a step times out.
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Installs the disk wiper used by [`wipe_disk`](Self::wipe_disk).
    pub fn with_disk_wiper(mut self, wiper: DiskWiper) -> Self {
        self.disk_wiper = Some(wiper);
        self
    }

    /// Erases `id`'s durable storage (disk-loss fault). Unlike
    /// [`crash`](Self::crash), which only loses volatile state, a
    /// wiped node must come back empty after
    /// [`restart`](Self::restart). Returns `false` when no wiper is
    /// installed.
    pub fn wipe_disk(&mut self, id: NodeId) -> bool {
        match &self.disk_wiper {
            Some(wiper) => {
                wiper(id);
                true
            }
            None => false,
        }
    }

    /// Starts (or restarts after shutdown) the given nodes.
    pub fn start(&mut self, ids: &[NodeId]) {
        for &id in ids {
            self.spawn(id);
        }
    }

    fn spawn(&mut self, id: NodeId) {
        let app = (self.factory)(id);
        let registry = app.registry();
        self.nodes.insert(id, Node { app, registry });
    }

    /// The ids of running nodes.
    pub fn running(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Whether `id` is running.
    pub fn is_running(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// One control step on `id`: `run` gets the app and hands it back
    /// with the step's result. The node leaves the map for the
    /// duration of the step and returns to it only if the step
    /// completes; a panicked or hung node is buried instead.
    fn step<T>(
        &mut self,
        id: NodeId,
        run: impl FnOnce(&mut Self, Box<dyn NodeApp>) -> Result<(Box<dyn NodeApp>, T), ClusterError>,
    ) -> Result<T, ClusterError> {
        let Some(Node { app, registry }) = self.nodes.remove(&id) else {
            return Err(ClusterError::NotRunning(id));
        };
        if let Some((clock, rng)) = &mut self.sim {
            // The virtual clock jumps forward by the seeded step cost,
            // instantly.
            let jitter = rng.below(SIM_STEP_JITTER.as_nanos() as u64);
            clock.advance(SIM_STEP_COST + Duration::from_nanos(jitter));
        }
        match run(self, app) {
            Ok((app, out)) => {
                self.nodes.insert(id, Node { app, registry });
                Ok(out)
            }
            Err(err) => {
                // An involuntary death: the node stays out of the map
                // with its shadow variables frozen from the
                // harness-side registry handle; the cause travels in
                // `err`.
                self.last_snapshot.insert(id, registry.snapshot());
                Err(err)
            }
        }
    }

    /// An observation step (offer collection, snapshot): `hook` runs
    /// inline on the harness thread.
    fn observe<T>(
        &mut self,
        id: NodeId,
        hook: impl FnOnce(&mut dyn NodeApp) -> T,
    ) -> Result<T, ClusterError> {
        self.step(id, |_, mut app| match dispatch(app.as_mut(), hook) {
            Ok(out) => Ok((app, out)),
            Err(reason) => Err(ClusterError::Died { node: id, reason }),
        })
    }

    /// Runs an execution step on the sandbox thread, waiting at most
    /// the reply timeout for it.
    fn execute_on_sandbox(
        &mut self,
        id: NodeId,
        app: Box<dyn NodeApp>,
        action: ActionInstance,
    ) -> Result<(Box<dyn NodeApp>, Vec<MsgEvent>), ClusterError> {
        let grace = self.reply_timeout;
        let sandbox = self.sandbox.get_or_insert_with(Sandbox::spawn);
        let reply = match sandbox.step_tx.send((app, action)) {
            Ok(()) => sandbox.recv_reply(grace),
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        match reply {
            Ok((app, Ok(events))) => Ok((app, events)),
            Ok((_, Err(reason))) => Err(ClusterError::Died { node: id, reason }),
            Err(RecvTimeoutError::Timeout) => {
                // The watchdog fired. Abandon the sandbox (and the app
                // stuck inside it) — a late reply on the dropped
                // channel can never answer a future step. Virtual time
                // stood still while the step burned its real-time
                // grace; advancing it by exactly the grace lands the
                // timeout at a deterministic virtual deadline.
                self.sandbox = None;
                if let Some((clock, _)) = &self.sim {
                    clock.advance(grace);
                }
                Err(ClusterError::Unresponsive(id))
            }
            // The sandbox thread only exits when its channels drop, so
            // this is a cannot-happen diagnostic rather than a real
            // path.
            Err(RecvTimeoutError::Disconnected) => {
                self.sandbox = None;
                Err(ClusterError::Died {
                    node: id,
                    reason: "sandbox channel closed".to_string(),
                })
            }
        }
    }

    /// All blocked-action notifications, across all running nodes.
    pub fn offers(&mut self) -> Result<Vec<(NodeId, ActionInstance)>, ClusterError> {
        let ids = self.running();
        let mut out = Vec::new();
        for id in ids {
            let actions = self.observe(id, |app| app.enabled())?;
            out.extend(actions.into_iter().map(|a| (id, a)));
        }
        Ok(out)
    }

    /// Releases one blocked action on `id`.
    pub fn execute(
        &mut self,
        id: NodeId,
        action: &ActionInstance,
    ) -> Result<Vec<MsgEvent>, ClusterError> {
        self.tracer.step_begin(id, self.vtime());
        let action = action.clone();
        let result = self.step(id, |cluster, app| cluster.execute_on_sandbox(id, app, action));
        self.tracer.step_end(id, self.vtime());
        result
    }

    /// Aggregates every node's shadow variables into per-variable
    /// functions `node id → value`, sorted by variable name. A running
    /// node is observed (one step) and its registry read under its lock
    /// straight into the functions, so each shadow value is cloned
    /// once. Crashed nodes contribute the values frozen when they went
    /// down — the specification keeps modeling a crashed node's state.
    pub fn aggregate_snapshot(
        &mut self,
        all_ids: &[NodeId],
    ) -> Result<Vec<(String, Value)>, ClusterError> {
        let mut vars = Vec::new();
        for &id in all_ids {
            let mut add = |name: &str, value: &Value| {
                let at = vars.binary_search_by(|(n, _): &(String, Value)| n.as_str().cmp(name));
                let i = at.unwrap_or_else(|i| {
                    vars.insert(i, (name.to_string(), Value::Fun(BTreeMap::new())));
                    i
                });
                if let Value::Fun(fun) = &mut vars[i].1 {
                    fun.insert(Value::Int(id as i64), value.clone());
                }
            };
            if self.is_running(id) {
                self.observe(id, |app| app.registry().for_each(add))?;
            } else if let Some(frozen) = self.last_snapshot.get(&id) {
                frozen.iter().for_each(|(name, value)| add(name, value));
            }
        }
        Ok(vars)
    }

    /// Kills `id` immediately (node-crash fault): dropping the app
    /// *is* the crash — in-memory state gone, storage survives.
    ///
    /// The node's shadow variables are cached first, so state checks
    /// after the crash still see its frozen last state — the
    /// specification keeps modeling a crashed node's variables.
    pub fn crash(&mut self, id: NodeId) {
        let Some(node) = self.nodes.remove(&id) else {
            return;
        };
        self.tracer.crash(id, self.vtime());
        self.last_snapshot.insert(id, node.registry.snapshot());
    }

    /// Restarts `id`: kill plus a fresh incarnation from the factory.
    pub fn restart(&mut self, id: NodeId) {
        self.crash(id);
        self.spawn(id);
        self.tracer.restart(id, self.vtime());
    }

    /// Stops every node.
    pub fn shutdown(&mut self) {
        let ids = self.running();
        for id in ids {
            self.crash(id);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Shadow;

    /// Both backends, the simulated one with a handle to read its
    /// virtual clock through.
    fn backends() -> [(Backend, Option<SimHandle>); 2] {
        let handle = SimHandle::new(7);
        [
            (Backend::Threads, None),
            (Backend::Sim(handle.clone()), Some(handle)),
        ]
    }

    /// A toy app: a counter that can `bump` until 3.
    struct CounterApp {
        registry: Arc<VarRegistry>,
        count: Shadow<i64>,
    }

    impl CounterApp {
        fn boxed(_id: NodeId) -> Box<dyn NodeApp> {
            let registry = VarRegistry::new();
            let count = Shadow::new("count", 0i64, registry.clone());
            Box::new(CounterApp { registry, count })
        }
    }

    impl NodeApp for CounterApp {
        fn enabled(&mut self) -> Vec<ActionInstance> {
            if *self.count.get() < 3 {
                vec![ActionInstance::nullary("bump")]
            } else {
                vec![]
            }
        }

        fn execute(&mut self, action: &ActionInstance) -> Vec<MsgEvent> {
            assert_eq!(action.name, "bump");
            self.count.update(|c| c + 1);
            vec![]
        }

        fn registry(&self) -> Arc<VarRegistry> {
            self.registry.clone()
        }
    }

    fn cluster() -> Cluster {
        Cluster::new(Box::new(CounterApp::boxed), Backend::Threads)
            .with_reply_timeout(Duration::from_secs(2))
    }

    /// `id`'s shadow variables, read through a one-node aggregate.
    fn vars_of(c: &mut Cluster, id: NodeId) -> Vec<(String, Value)> {
        let key = Value::Int(id as i64);
        c.aggregate_snapshot(&[id])
            .unwrap()
            .into_iter()
            .map(|(name, fun)| (name, fun.expect_apply(&key).clone()))
            .collect()
    }

    #[test]
    fn offers_execute_snapshot_roundtrip() {
        for (backend, _) in backends() {
            let mut c = Cluster::new(Box::new(CounterApp::boxed), backend);
            c.start(&[1, 2]);
            let offers = c.offers().unwrap();
            assert_eq!(offers.len(), 2);
            c.execute(1, &ActionInstance::nullary("bump")).unwrap();
            let snap = vars_of(&mut c, 1);
            assert_eq!(snap, vec![("count".to_string(), Value::Int(1))]);
            let snap2 = vars_of(&mut c, 2);
            assert_eq!(snap2, vec![("count".to_string(), Value::Int(0))]);
            c.crash(1);
            let agg = c.aggregate_snapshot(&[1, 2]).unwrap();
            let count = agg.iter().find(|(n, _)| n == "count").unwrap();
            assert_eq!(count.1.expect_apply(&Value::Int(1)), &Value::Int(1));
            c.restart(2);
            assert_eq!(
                vars_of(&mut c, 2),
                vec![("count".to_string(), Value::Int(0))]
            );
            c.shutdown();
        }
    }

    #[test]
    fn aggregate_builds_node_functions() {
        let mut c = cluster();
        c.start(&[1, 2]);
        c.execute(2, &ActionInstance::nullary("bump")).unwrap();
        let agg = c.aggregate_snapshot(&[1, 2]).unwrap();
        assert_eq!(
            agg,
            vec![(
                "count".to_string(),
                Value::fun([
                    (Value::Int(1), Value::Int(0)),
                    (Value::Int(2), Value::Int(1)),
                ])
            )]
        );
    }

    #[test]
    fn crash_freezes_last_snapshot() {
        let mut c = cluster();
        c.start(&[1, 2]);
        c.execute(1, &ActionInstance::nullary("bump")).unwrap();
        // No snapshot before the crash: the crash itself freezes the
        // node's values.
        c.crash(1);
        assert!(!c.is_running(1));
        let agg = c.aggregate_snapshot(&[1, 2]).unwrap();
        let count = agg.iter().find(|(n, _)| n == "count").unwrap();
        assert_eq!(
            count.1.expect_apply(&Value::Int(1)),
            &Value::Int(1),
            "crashed node's last value is frozen"
        );
    }

    #[test]
    fn restart_resets_volatile_state() {
        let mut c = cluster();
        c.start(&[1, 2]);
        c.execute(1, &ActionInstance::nullary("bump")).unwrap();
        c.restart(1);
        let snap = vars_of(&mut c, 1);
        assert_eq!(snap, vec![("count".to_string(), Value::Int(0))]);
        // The values frozen by the restart's crash are not read while
        // the new incarnation runs.
        c.execute(1, &ActionInstance::nullary("bump")).unwrap();
        c.execute(1, &ActionInstance::nullary("bump")).unwrap();
        assert_eq!(
            c.aggregate_snapshot(&[1, 2]).unwrap(),
            vec![(
                "count".to_string(),
                Value::fun([
                    (Value::Int(1), Value::Int(2)),
                    (Value::Int(2), Value::Int(0))
                ])
            )]
        );
    }

    #[test]
    fn requests_to_dead_nodes_error() {
        let mut c = cluster();
        c.start(&[1]);
        c.crash(1);
        assert!(matches!(
            c.execute(1, &ActionInstance::nullary("bump")),
            Err(ClusterError::NotRunning(1))
        ));
    }

    #[test]
    fn offers_exclude_disabled_actions() {
        let mut c = cluster();
        c.start(&[1]);
        for _ in 0..3 {
            c.execute(1, &ActionInstance::nullary("bump")).unwrap();
        }
        assert!(c.offers().unwrap().is_empty());
    }

    /// Bumps a counter; panics when told to `boom`.
    struct PanicApp {
        registry: Arc<VarRegistry>,
        count: Shadow<i64>,
    }

    impl PanicApp {
        fn boxed(_id: NodeId) -> Box<dyn NodeApp> {
            let registry = VarRegistry::new();
            let count = Shadow::new("count", 0i64, registry.clone());
            Box::new(PanicApp { registry, count })
        }
    }

    impl NodeApp for PanicApp {
        fn enabled(&mut self) -> Vec<ActionInstance> {
            vec![
                ActionInstance::nullary("bump"),
                ActionInstance::nullary("boom"),
            ]
        }

        fn execute(&mut self, action: &ActionInstance) -> Vec<MsgEvent> {
            if action.name == "boom" {
                panic!("injected fault: boom");
            }
            self.count.update(|c| c + 1);
            vec![]
        }

        fn registry(&self) -> Arc<VarRegistry> {
            self.registry.clone()
        }
    }

    #[test]
    fn node_panic_becomes_structured_death_and_harness_survives() {
        for (backend, _) in backends() {
            let mut c = Cluster::new(Box::new(PanicApp::boxed), backend)
                .with_reply_timeout(Duration::from_secs(2));
            c.start(&[1, 2]);
            c.execute(1, &ActionInstance::nullary("bump")).unwrap();

            let err = c.execute(1, &ActionInstance::nullary("boom")).unwrap_err();
            match &err {
                ClusterError::Died { node, reason } => {
                    assert_eq!(*node, 1);
                    assert!(reason.contains("boom"), "reason: {reason}");
                }
                other => panic!("expected Died, got {other:?}"),
            }
            assert!(!c.is_running(1), "dead node is deregistered");

            // The rest of the cluster keeps answering.
            assert_eq!(c.offers().unwrap().len(), 2);
            c.execute(2, &ActionInstance::nullary("bump")).unwrap();

            // The panicked node's last state is frozen in the aggregate.
            let agg = c.aggregate_snapshot(&[1, 2]).unwrap();
            let count = agg.iter().find(|(n, _)| n == "count").unwrap();
            assert_eq!(count.1.expect_apply(&Value::Int(1)), &Value::Int(1));
        }
    }

    #[test]
    fn restart_revives_a_panicked_node() {
        let mut c = Cluster::new(Box::new(PanicApp::boxed), Backend::Threads)
            .with_reply_timeout(Duration::from_secs(2));
        c.start(&[1]);
        let _ = c.execute(1, &ActionInstance::nullary("boom"));
        assert!(!c.is_running(1));
        c.restart(1);
        assert!(c.is_running(1));
        c.execute(1, &ActionInstance::nullary("bump")).unwrap();
    }

    /// Hangs forever when told to `stall`; `tick` returns at once.
    struct HangApp {
        registry: Arc<VarRegistry>,
    }

    impl HangApp {
        fn boxed(_id: NodeId) -> Box<dyn NodeApp> {
            let registry = VarRegistry::new();
            Shadow::new("x", 0i64, registry.clone());
            Box::new(HangApp { registry })
        }
    }

    impl NodeApp for HangApp {
        fn enabled(&mut self) -> Vec<ActionInstance> {
            vec![ActionInstance::nullary("stall")]
        }

        fn execute(&mut self, action: &ActionInstance) -> Vec<MsgEvent> {
            if action.name == "tick" {
                return vec![];
            }
            // Hang forever without burning CPU or wall-clock timers;
            // park() can wake spuriously, hence the loop.
            loop {
                std::thread::park();
            }
        }

        fn registry(&self) -> Arc<VarRegistry> {
            self.registry.clone()
        }
    }

    /// A forever-blocking execution step is abandoned at the reply
    /// timeout instead of hanging the harness, and the rest of the
    /// cluster carries on with a fresh sandbox.
    #[test]
    fn hung_node_is_detached_not_joined() {
        for (backend, sim) in backends() {
            let mut c = Cluster::new(Box::new(HangApp::boxed), backend)
                .with_reply_timeout(Duration::from_millis(100));
            c.start(&[1, 2]);
            let before = sim.as_ref().map(|h| h.clock.now_nanos());
            let start = std::time::Instant::now();
            let err = c.execute(1, &ActionInstance::nullary("stall")).unwrap_err();
            assert!(matches!(err, ClusterError::Unresponsive(1)));
            assert!(!c.is_running(1), "hung node is deregistered");
            if let (Some(handle), Some(before)) = (&sim, before) {
                // The virtual clock advanced by step cost + grace:
                // deterministic, so verdicts line up per seed.
                let advanced = handle.clock.now_nanos() - before;
                assert!(
                    advanced >= Duration::from_millis(100).as_nanos() as u64,
                    "virtual deadline includes the full grace ({advanced}ns)"
                );
            }
            // Node 2 still answers every kind of step; its execute
            // runs on a respawned sandbox.
            assert_eq!(c.offers().unwrap().len(), 1);
            c.execute(2, &ActionInstance::nullary("tick")).unwrap();
            assert_eq!(vars_of(&mut c, 2), vec![("x".to_string(), Value::Int(0))]);
            // Shutdown must not block on the stuck thread either.
            c.shutdown();
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "harness never waits out a hung node"
            );
        }
    }

    fn sim_cluster(factory: NodeFactory, handle: &SimHandle) -> Cluster {
        Cluster::new(factory, Backend::Sim(handle.clone()))
    }

    #[test]
    fn sim_backend_advances_virtual_time_only() {
        let handle = SimHandle::new(7);
        let mut c = sim_cluster(Box::new(CounterApp::boxed), &handle);
        c.start(&[1]);
        let before = handle.clock.now_nanos();
        c.execute(1, &ActionInstance::nullary("bump")).unwrap();
        let after = handle.clock.now_nanos();
        assert!(after > before, "each control step costs virtual time");
        assert!(
            after - before <= (SIM_STEP_COST + SIM_STEP_JITTER).as_nanos() as u64,
            "step cost is bounded"
        );
    }

    #[test]
    fn sim_backend_step_costs_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<u64> {
            let handle = SimHandle::new(seed);
            let mut c = sim_cluster(Box::new(CounterApp::boxed), &handle);
            c.start(&[1]);
            (0..3)
                .map(|_| {
                    c.execute(1, &ActionInstance::nullary("bump")).unwrap();
                    handle.clock.now_nanos()
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same virtual timeline");
        assert_ne!(run(42), run(43), "different seeds jitter differently");
    }

    /// The seed-7 virtual timeline, pinned to the nanosecond: every
    /// step costs `SIM_STEP_COST` plus the next draw of the seed's
    /// jitter stream, and a hung step adds exactly the reply timeout.
    /// `wall_*` summary keys and trace `vt` stamps under `--sim` are
    /// sums of these readings, so a moved literal is a moved byte.
    #[test]
    fn sim_timeline_is_pinned_for_seed_7() {
        let handle = SimHandle::new(7);
        let mut c = sim_cluster(Box::new(HangApp::boxed), &handle)
            .with_reply_timeout(Duration::from_millis(100));
        c.start(&[1, 2]);
        let mut readings = Vec::new();
        assert_eq!(c.offers().unwrap().len(), 2);
        readings.push(handle.clock.now_nanos());
        for id in [1, 2, 1] {
            c.execute(id, &ActionInstance::nullary("tick")).unwrap();
            readings.push(handle.clock.now_nanos());
        }
        vars_of(&mut c, 2);
        readings.push(handle.clock.now_nanos());
        let err = c.execute(1, &ActionInstance::nullary("stall")).unwrap_err();
        assert!(matches!(err, ClusterError::Unresponsive(1)));
        readings.push(handle.clock.now_nanos());
        assert_eq!(
            readings,
            [130_291, 189_637, 251_840, 305_514, 363_819, 100_425_617]
        );
    }

    #[test]
    fn sim_hang_timeline_is_seed_deterministic() {
        let run = |seed: u64| -> (u64, String) {
            let handle = SimHandle::new(seed);
            let mut c = sim_cluster(Box::new(HangApp::boxed), &handle)
                .with_reply_timeout(Duration::from_millis(50));
            c.start(&[1]);
            let err = c.execute(1, &ActionInstance::nullary("stall")).unwrap_err();
            (handle.clock.now_nanos(), err.to_string())
        };
        assert_eq!(run(42), run(42), "same seed, same virtual deadline");
    }
}
