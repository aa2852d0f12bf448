//! The instrumented cluster: one owned world, one hosting path.
//!
//! The paper's testbed (§4.3, §6.2) drives a deployed cluster one
//! action at a time: ask every node for the actions it is blocked on
//! (`notifyAndBlock`), release one (`Execute`), read its mapped
//! variables (`checkAllStates`). Nothing in that protocol runs two
//! nodes at once, so a deployment is one owned value, the *world*:
//! the nodes, the network and each node's durable storage. A node is a
//! handler over its own state ([`NodeApp`]); each step lends it a
//! [`NodeCx`] through which it sends, reads its inbox and persists.
//! Crash marks the node down; restart boots a fresh incarnation from
//! the world's config — whatever the application persisted in its
//! storage survives, nothing else does. Copying the cluster copies the
//! deployment.
//!
//! **One step, one dispatch.** Every node step — an offer poll or an
//! execution — runs inline on the calling thread, under
//! `catch_unwind` in `World::step`. A snapshot reads every node's
//! fields between steps through [`NodeApp::project`]: nothing runs
//! while it reads, so the paper's per-write shadow copies are not
//! needed. The cluster spawns no thread and keeps no timeout.
//!
//! **Panic isolation.** A node panicking inside application code must
//! not tear the harness down: the unwind is caught and reported as a
//! structured [`SutError::NodeDeath`], the node is marked down with
//! its last values still readable until a restart replaces it, and the
//! rest of the cluster keeps answering.
//!
//! **Watchdog.** A hang costs the case, not the step. The runner
//! drives a case on its own case thread that owns the deployment
//! ([`mocket_core::watchdog`]); each node step is a guarded call
//! naming its node. If one outlives `RunConfig::per_action_budget`,
//! the runner abandons the case thread with the world it owns and
//! reports the watchdog verdict; the thread never writes again.
//!
//! **Backends.** A [`Backend`] only chooses the clock the steps are
//! accounted on. [`Backend::Threads`] is the wall clock: steps cost
//! what they cost. [`Backend::Sim`] charges the same steps to the
//! run's shared [`mocket_sim::SimClock`]: each costs a seeded slice of
//! virtual time (a hung step costs exactly the budget on top, charged
//! by the runner), so timings, traces and watchdog verdicts are
//! byte-reproducible per seed. The cluster reads no clock for a trace:
//! the tracer stamps its own events. Verdict parity between the two
//! holds by construction — they share every line below except those
//! charges. (The variant names are pinned by the benchmark adapter in
//! `perfbench/`.)

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Duration;

use mocket_core::sut::{MsgEvent, SutError};
use mocket_core::watchdog;
use mocket_dsnet::{Net, Storage};
use mocket_obs::causal::Tracer;
use mocket_sim::{SimClock, SimHandle, SimRng};
use mocket_tla::{ActionInstance, Value};

/// A node identifier (matches `dsnet::NodeId`).
pub type NodeId = u64;

/// What one node step reaches beyond the node's own state: the
/// deployment's network and the node's durable storage.
pub struct NodeCx<'a, M> {
    /// The network every node of the deployment sends over.
    pub net: &'a mut Net<M>,
    /// This node's storage; it survives crashes and restarts.
    pub disk: &'a mut Storage<Value>,
}

/// The application logic of one node.
///
/// Implementations are the real protocol code (Raft, ZAB): `enabled`
/// is the set of actions the node's threads are currently blocked on;
/// `execute` runs one of them to completion; `project` shows the
/// checker the node's mapped fields.
pub trait NodeApp: Clone + Send + 'static {
    /// The message type of the deployment's network.
    type Msg: Clone + Send + 'static;
    /// What every incarnation is booted from (membership, bug
    /// switches).
    type Config: Clone + Send + 'static;

    /// Boots an incarnation of `id`, recovering from `cx.disk`.
    fn boot(id: NodeId, config: &Self::Config, cx: &mut NodeCx<'_, Self::Msg>) -> Self;

    /// The actions this node is currently blocked on (implementation
    /// domain: hook names + collected parameters). A pure read of the
    /// node and the network: every message sent to it is in its inbox.
    fn enabled(&self, net: &Net<Self::Msg>) -> Vec<ActionInstance>;

    /// Executes one action, returning the reported message events.
    fn execute(&mut self, action: &ActionInstance, cx: &mut NodeCx<'_, Self::Msg>)
        -> Vec<MsgEvent>;

    /// Visits every mapped field as `(impl name, value)`: exactly the
    /// class-field names the protocol's mapping maps, in any order.
    /// The checker reads a node only through this, between steps.
    fn project(&self, visit: impl FnMut(&'static str, Value));
}

thread_local! {
    /// True while this thread is executing application code on behalf
    /// of a node, so the panic hook can tell a caught node fault from
    /// a genuine harness panic.
    static IN_NODE_STEP: Cell<bool> = const { Cell::new(false) };
}

/// Suppresses default panic output from node code: node panics are
/// caught, reported as [`SutError::NodeDeath`] and classified by the
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

/// Runs application code inside `catch_unwind` so a protocol bug (or
/// an injected fault tripping an assertion) becomes a structured death
/// report — `Err` carries the panic message — instead of a harness
/// teardown.
fn dispatch<T>(step: impl FnOnce() -> T) -> Result<T, String> {
    IN_NODE_STEP.with(|flag| {
        flag.set(true);
        let result = catch_unwind(AssertUnwindSafe(step));
        flag.set(false);
        result.map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// One node's slot in the world: its latest incarnation, whether that
/// incarnation is up, and the storage that outlives it. A crashed or
/// panicked incarnation stays, down, so a snapshot still reads its
/// last values until a restart replaces it.
#[derive(Clone)]
struct Host<N> {
    app: N,
    up: bool,
    disk: Storage<Value>,
}

/// Everything a deployment mutates, owned in one place.
#[derive(Clone)]
struct World<N: NodeApp> {
    config: N::Config,
    net: Net<N::Msg>,
    hosts: BTreeMap<NodeId, Host<N>>,
}

impl<N: NodeApp> World<N> {
    fn is_running(&self, id: NodeId) -> bool {
        self.hosts.get(&id).is_some_and(|h| h.up)
    }

    /// Boots a fresh incarnation of `id` over its surviving storage, or
    /// over an empty one if `id` is new; the previous incarnation, if
    /// any, is dropped.
    fn boot(&mut self, id: NodeId) {
        let mut disk = self.hosts.remove(&id).map(|h| h.disk).unwrap_or_default();
        let mut cx = NodeCx {
            net: &mut self.net,
            disk: &mut disk,
        };
        let app = N::boot(id, &self.config, &mut cx);
        let host = Host {
            app,
            up: true,
            disk,
        };
        self.hosts.insert(id, host);
    }

    /// One step of running node `id` under `catch_unwind`, guarded by
    /// the case watchdog. A node that panics goes down; its fields keep
    /// whatever it wrote before the panic.
    fn step<T>(
        &mut self,
        id: NodeId,
        hook: impl FnOnce(&mut N, &mut NodeCx<'_, N::Msg>) -> T,
    ) -> Result<T, SutError> {
        let Some(Host { app, up: true, disk }) = self.hosts.get_mut(&id) else {
            return Err(SutError::NodeFailure { node: id, message: "not running".into() });
        };
        let mut cx = NodeCx { net: &mut self.net, disk };
        let reason = match watchdog::guard(Some(id), || dispatch(|| hook(app, &mut cx))) {
            Ok(out) => return Ok(out),
            Err(reason) => reason,
        };
        if let Some(host) = self.hosts.get_mut(&id) {
            host.up = false;
        }
        Err(SutError::NodeDeath { node: id, reason })
    }
}

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

/// The run's shared virtual clock and this cluster's jitter stream.
type SimState = Option<(Arc<SimClock>, SimRng)>;

/// Charges one control step to the virtual clock, if there is one: it
/// jumps forward by the seeded step cost, instantly.
fn charge(sim: &mut SimState) {
    if let Some((clock, rng)) = sim {
        let jitter = rng.below(SIM_STEP_JITTER.as_nanos() as u64);
        clock.advance(SIM_STEP_COST + Duration::from_nanos(jitter));
    }
}

/// A running instrumented cluster. Cloning it copies the deployment as
/// it stands: stepping one leaves the other unchanged; the tracer and
/// a simulated clock stay shared.
#[derive(Clone)]
pub struct Cluster<N: NodeApp> {
    world: World<N>,
    /// Causal tracer (disabled by default — every hook is one branch).
    tracer: Tracer,
    /// Present iff the backend is [`Backend::Sim`].
    sim: SimState,
}

impl<N: NodeApp> Cluster<N> {
    /// Creates a cluster (no nodes running yet) over `net`, booting
    /// every incarnation from `config`.
    pub fn new(config: N::Config, net: Net<N::Msg>, backend: Backend) -> Self {
        install_node_panic_hook();
        let sim = match backend {
            Backend::Threads => None,
            Backend::Sim(handle) => Some((handle.clock, SimRng::new(handle.seed))),
        };
        Cluster {
            world: World {
                config,
                net,
                hosts: BTreeMap::new(),
            },
            tracer: Tracer::disabled(),
            sim,
        }
    }

    /// Installs a causal tracer on the cluster and its network: node
    /// steps become spans
    /// ([`CausalKind::StepBegin`](mocket_obs::causal::CausalKind) /
    /// `StepEnd`), crashes and restarts become instants, and message
    /// fates become message events. The tracer stamps each event's
    /// time itself.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.world.net.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The deployment's network.
    pub fn net_mut(&mut self) -> &mut Net<N::Msg> {
        &mut self.world.net
    }

    /// Erases `id`'s durable storage (disk-loss fault). Unlike
    /// [`crash`](Self::crash), which only loses volatile state, a
    /// wiped node must come back empty after
    /// [`restart`](Self::restart).
    pub fn wipe_disk(&mut self, id: NodeId) {
        if let Some(host) = self.world.hosts.get_mut(&id) {
            host.disk.wipe();
        }
    }

    /// Deploys (or restarts after shutdown) the given nodes.
    pub fn start(&mut self, ids: &[NodeId]) {
        for &id in ids {
            self.world.boot(id);
        }
    }

    /// Whether `id` was ever deployed.
    pub fn is_member(&self, id: NodeId) -> bool {
        self.world.hosts.contains_key(&id)
    }

    /// The ids of running nodes.
    pub fn running(&self) -> Vec<NodeId> {
        let running = self.world.hosts.iter().filter(|(_, h)| h.up);
        running.map(|(&id, _)| id).collect()
    }

    /// Whether `id` is running.
    pub fn is_running(&self, id: NodeId) -> bool {
        self.world.is_running(id)
    }

    /// All blocked-action notifications, across all running nodes.
    /// Each node's poll is one step.
    pub fn offers(&mut self) -> Result<Vec<(NodeId, ActionInstance)>, SutError> {
        let mut out = Vec::new();
        for id in self.running() {
            charge(&mut self.sim);
            let actions = self.world.step(id, |app, cx| app.enabled(cx.net))?;
            out.extend(actions.into_iter().map(|a| (id, a)));
        }
        Ok(out)
    }

    /// Releases one blocked action on `id`.
    pub fn execute(
        &mut self,
        id: NodeId,
        action: &ActionInstance,
    ) -> Result<Vec<MsgEvent>, SutError> {
        self.tracer.step_begin(id);
        if self.is_running(id) {
            charge(&mut self.sim);
        }
        let result = self.world.step(id, |app, cx| app.execute(action, cx));
        self.tracer.step_end(id);
        result
    }

    /// Projects every node's mapped fields into per-variable functions
    /// `node id → value`, sorted by variable name. Reading a running
    /// node is one step; a crashed node contributes the values it had
    /// when it went down — the specification keeps modeling a crashed
    /// node's state.
    pub fn aggregate_snapshot(&mut self, all_ids: &[NodeId]) -> Vec<(String, Value)> {
        let mut vars = Vec::new();
        for &id in all_ids {
            let Some(host) = self.world.hosts.get(&id) else {
                continue;
            };
            if host.up {
                charge(&mut self.sim);
            }
            host.app.project(|name, value| {
                let at = vars.binary_search_by(|(n, _): &(String, Value)| n.as_str().cmp(name));
                let i = at.unwrap_or_else(|i| {
                    vars.insert(i, (name.to_string(), Value::Fun(BTreeMap::new())));
                    i
                });
                if let Value::Fun(fun) = &mut vars[i].1 {
                    fun.insert(Value::Int(id as i64), value);
                }
            });
        }
        vars
    }

    /// Kills `id` immediately (node-crash fault): the node stops
    /// stepping and its next boot starts from storage alone, while its
    /// last values stay readable until it restarts.
    pub fn crash(&mut self, id: NodeId) {
        let host = self.world.hosts.get_mut(&id);
        if host.is_some_and(|h| std::mem::replace(&mut h.up, false)) {
            self.tracer.crash(id);
        }
    }

    /// Restarts deployed node `id`: kill plus a fresh incarnation. An
    /// id that was never deployed boots nothing.
    pub fn restart(&mut self, id: NodeId) {
        if !self.is_member(id) {
            return;
        }
        self.crash(id);
        self.world.boot(id);
        self.tracer.restart(id);
    }

    /// Stops every node.
    pub fn shutdown(&mut self) {
        for id in self.running() {
            self.crash(id);
        }
    }
}

impl<N: NodeApp> Drop for Cluster<N> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sutadapter::{ClusterSut, ScriptDriver};
    use mocket_core::mapping::{ActionBinding, MappingRegistry};
    use mocket_core::{run_test_case, Inconsistency, RunConfig, RunCtx, TestCase, TestOutcome};
    use mocket_tla::{ActionClass, State};

    /// Both backends, the simulated one with a handle to read its
    /// virtual clock through.
    fn backends() -> [(Backend, Option<SimHandle>); 2] {
        let handle = SimHandle::new(7);
        [
            (Backend::Threads, None),
            (Backend::Sim(handle.clone()), Some(handle)),
        ]
    }

    /// A cluster of toy nodes that use no network.
    fn toy<N: NodeApp<Msg = u64, Config = ()>>(backend: Backend) -> Cluster<N> {
        Cluster::new((), Net::new([]), backend)
    }

    /// A toy app: a counter that can `bump` until 3, and panics when
    /// told to `boom`.
    #[derive(Clone)]
    struct CounterApp {
        count: i64,
    }

    impl NodeApp for CounterApp {
        type Msg = u64;
        type Config = ();

        fn boot(_id: NodeId, _config: &(), _cx: &mut NodeCx<'_, u64>) -> Self {
            CounterApp { count: 0 }
        }

        fn enabled(&self, _net: &Net<u64>) -> Vec<ActionInstance> {
            if self.count < 3 {
                vec![ActionInstance::nullary("bump")]
            } else {
                vec![]
            }
        }

        fn execute(&mut self, action: &ActionInstance, _cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
            if action.name == "boom" {
                panic!("injected fault: boom");
            }
            self.count += 1;
            vec![]
        }

        fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
            visit("count", Value::Int(self.count));
        }
    }

    fn bump() -> ActionInstance {
        ActionInstance::nullary("bump")
    }

    /// `id`'s mapped variables, read through a one-node aggregate.
    fn vars_of<N: NodeApp>(c: &mut Cluster<N>, id: NodeId) -> Vec<(String, Value)> {
        let key = Value::Int(id as i64);
        c.aggregate_snapshot(&[id])
            .into_iter()
            .map(|(name, fun)| (name, fun.expect_apply(&key).clone()))
            .collect()
    }

    fn count(value: i64) -> Vec<(String, Value)> {
        vec![("count".to_string(), Value::Int(value))]
    }

    #[test]
    fn offers_execute_snapshot_roundtrip() {
        for (backend, _) in backends() {
            let mut c = toy::<CounterApp>(backend);
            c.start(&[1, 2]);
            assert_eq!(c.offers().unwrap().len(), 2);
            c.execute(1, &bump()).unwrap();
            assert_eq!(vars_of(&mut c, 1), count(1));
            assert_eq!(vars_of(&mut c, 2), count(0));
            c.crash(1);
            assert_eq!(vars_of(&mut c, 1), count(1));
            c.restart(2);
            assert_eq!(vars_of(&mut c, 2), count(0));
            c.shutdown();
        }
    }

    #[test]
    fn aggregate_builds_node_functions() {
        let mut c = toy::<CounterApp>(Backend::Threads);
        c.start(&[1, 2]);
        c.execute(2, &bump()).unwrap();
        assert_eq!(
            c.aggregate_snapshot(&[1, 2]),
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
    fn a_crashed_node_keeps_its_last_values() {
        let mut c = toy::<CounterApp>(Backend::Threads);
        c.start(&[1, 2]);
        c.execute(1, &bump()).unwrap();
        c.crash(1);
        assert!(!c.is_running(1));
        assert_eq!(vars_of(&mut c, 1), count(1), "crashed node's last value stays");
    }

    #[test]
    fn restart_resets_volatile_state() {
        let mut c = toy::<CounterApp>(Backend::Threads);
        c.start(&[1, 2]);
        c.execute(1, &bump()).unwrap();
        c.restart(1);
        assert_eq!(vars_of(&mut c, 1), count(0));
        c.execute(1, &bump()).unwrap();
        c.execute(1, &bump()).unwrap();
        assert_eq!(
            c.aggregate_snapshot(&[1, 2]),
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
        let mut c = toy::<CounterApp>(Backend::Threads);
        c.start(&[1]);
        c.crash(1);
        assert!(matches!(
            c.execute(1, &bump()),
            Err(SutError::NodeFailure { node: 1, .. })
        ));
    }

    #[test]
    fn offers_exclude_disabled_actions() {
        let mut c = toy::<CounterApp>(Backend::Threads);
        c.start(&[1]);
        for _ in 0..3 {
            c.execute(1, &bump()).unwrap();
        }
        assert!(c.offers().unwrap().is_empty());
    }

    #[test]
    fn node_panic_becomes_structured_death_and_harness_survives() {
        for (backend, _) in backends() {
            let mut c = toy::<CounterApp>(backend);
            c.start(&[1, 2]);
            c.execute(1, &bump()).unwrap();

            let err = c.execute(1, &ActionInstance::nullary("boom")).unwrap_err();
            match &err {
                SutError::NodeDeath { node, reason } => {
                    assert_eq!(*node, 1);
                    assert!(reason.contains("boom"), "reason: {reason}");
                }
                other => panic!("expected NodeDeath, got {other:?}"),
            }
            assert!(!c.is_running(1), "dead node is deregistered");

            // The rest of the cluster keeps answering.
            assert_eq!(c.offers().unwrap().len(), 1);
            c.execute(2, &bump()).unwrap();

            // The panicked node's last state stays in the aggregate.
            assert_eq!(vars_of(&mut c, 1), count(1));
        }
    }

    #[test]
    fn restart_revives_a_panicked_node() {
        let mut c = toy::<CounterApp>(Backend::Threads);
        c.start(&[1]);
        let _ = c.execute(1, &ActionInstance::nullary("boom"));
        assert!(!c.is_running(1));
        c.restart(1);
        assert!(c.is_running(1));
        c.execute(1, &bump()).unwrap();
    }

    /// Records the thread every execution step runs on.
    #[derive(Clone)]
    struct ThreadApp {
        ran_on: Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl NodeApp for ThreadApp {
        type Msg = u64;
        type Config = Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>;

        fn boot(_id: NodeId, config: &Self::Config, _cx: &mut NodeCx<'_, u64>) -> Self {
            ThreadApp {
                ran_on: config.clone(),
            }
        }

        fn enabled(&self, _net: &Net<u64>) -> Vec<ActionInstance> {
            vec![bump()]
        }

        fn execute(&mut self, _action: &ActionInstance, _cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
            self.ran_on.lock().unwrap().push(std::thread::current().id());
            vec![]
        }

        fn project(&self, _visit: impl FnMut(&'static str, Value)) {}
    }

    /// Node code runs on the caller's thread: no step of an original
    /// or of any of its forks is handed to another thread.
    #[test]
    fn node_code_runs_on_the_calling_thread() {
        let ran_on = Arc::default();
        let mut original =
            Cluster::<ThreadApp>::new(Arc::clone(&ran_on), Net::new([]), Backend::Threads);
        original.start(&[1]);
        let mut forks = vec![original.clone(); 1000];
        original.execute(1, &bump()).unwrap();
        for fork in &mut forks {
            fork.execute(1, &bump()).unwrap();
        }
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 1001);
        let here = std::thread::current().id();
        assert!(ran_on.iter().all(|&id| id == here), "a step left the calling thread");
    }

    /// Hangs forever when told to `stall` and dozes through twice the
    /// budget when told to `doze`; `tick` returns at once.
    #[derive(Clone)]
    struct HangApp;

    impl NodeApp for HangApp {
        type Msg = u64;
        type Config = ();

        fn boot(_id: NodeId, _config: &(), _cx: &mut NodeCx<'_, u64>) -> Self {
            HangApp
        }

        fn enabled(&self, _net: &Net<u64>) -> Vec<ActionInstance> {
            vec![ActionInstance::nullary("stall"), ActionInstance::nullary("doze")]
        }

        fn execute(&mut self, action: &ActionInstance, _cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
            match action.name.as_str() {
                "tick" => vec![],
                "doze" => {
                    std::thread::sleep(2 * BUDGET);
                    vec![]
                }
                // Hang forever without burning CPU or wall-clock
                // timers; park() can wake spuriously, hence the loop.
                _ => loop {
                    std::thread::park();
                },
            }
        }

        fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
            visit("x", Value::Int(0));
        }
    }

    /// The per-action budget of the hang tests.
    const BUDGET: Duration = Duration::from_millis(100);

    /// Runs the one-step case `action` (`Stall` or `Doze`) on a
    /// two-node [`HangApp`] deployment under `budget`: the verdict and
    /// the wall time it took. Under `sim` the run counts on the
    /// simulation's clock.
    fn run_hang(
        action: &str,
        sim: Option<&SimHandle>,
        budget: Duration,
        mut ctx: RunCtx,
    ) -> (Inconsistency, Duration) {
        let backend = match sim {
            Some(handle) => {
                ctx.clock = handle.clock.clone();
                Backend::Sim(handle.clone())
            }
            None => Backend::Threads,
        };
        let mut registry = MappingRegistry::new();
        for (spec, hook) in [("Stall", "stall"), ("Doze", "doze")] {
            registry.map_action(spec, hook, ActionClass::SingleNode, ActionBinding::Method);
        }
        let s = State::from_pairs([("x", Value::Int(0))]);
        let case = TestCase::new(s.clone(), vec![(ActionInstance::nullary(action), s)]);
        let config = RunConfig {
            check_initial: false,
            per_action_budget: budget,
        };
        let sut = ClusterSut::new(toy::<HangApp>(backend), vec![1, 2], ScriptDriver::new("tick"));
        let start = std::time::Instant::now();
        let (ran, _) = run_test_case(Box::new(sut), &case, &Arc::new(registry), &[], &config, &ctx);
        match ran.expect("a hang is a verdict, not a harness error") {
            TestOutcome::Failed(inc) => (inc, start.elapsed()),
            other => panic!("expected a watchdog verdict, got {other:?}"),
        }
    }

    /// A forever-blocking execution step is abandoned at the budget,
    /// together with its case thread and the deployment that thread
    /// owns, instead of hanging the harness.
    #[test]
    fn hung_node_is_detached_not_joined() {
        for (_, sim) in backends() {
            let (inc, wall) = run_hang("Stall", sim.as_ref(), BUDGET, RunCtx::default());
            match inc {
                Inconsistency::WatchdogTimeout { step, reason, .. } => {
                    assert_eq!((step, reason.as_str()), (0, "node 1: unresponsive"));
                }
                other => panic!("expected a watchdog verdict, got {other:?}"),
            }
            assert!(wall < Duration::from_secs(30), "harness never waits out a hung node");
        }
    }

    /// Under the simulation a hung step costs one step, then exactly
    /// the budget: the seed-7 timeline's first execution reading (two
    /// offer polls, one execution) plus 100 ms.
    #[test]
    fn sim_hang_reading_is_one_step_cost_then_the_budget() {
        let handle = SimHandle::new(7);
        run_hang("Stall", Some(&handle), BUDGET, RunCtx::default());
        assert_eq!(handle.clock.now_nanos(), 189_637 + BUDGET.as_nanos() as u64);
    }

    #[test]
    fn sim_hang_timeline_is_seed_deterministic() {
        let run = |seed: u64| -> (u64, String) {
            let handle = SimHandle::new(seed);
            let budget = Duration::from_millis(50);
            let (inc, _) = run_hang("Stall", Some(&handle), budget, RunCtx::default());
            (handle.clock.now_nanos(), format!("{inc:?}"))
        };
        assert_eq!(run(42), run(42), "same seed, same virtual deadline");
    }

    /// A step that returns after its verdict writes nothing: no trace
    /// event or virtual-clock reading moves once the runner has
    /// reported the hang.
    #[test]
    fn an_abandoned_case_writes_nothing_after_its_verdict() {
        let handle = SimHandle::new(7);
        let ctx = RunCtx {
            tracer: Tracer::for_case(0, None),
            ..RunCtx::default()
        };
        let (inc, _) = run_hang("Doze", Some(&handle), BUDGET, ctx.clone());
        assert_eq!(inc.kind(), "Watchdog timeout", "{inc:?}");
        let kinds: Vec<_> = ctx.tracer.take_events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["release", "step", "step.end"]);
        let now = handle.clock.now_nanos();
        std::thread::sleep(4 * BUDGET);
        assert!(ctx.tracer.take_events().is_empty(), "trace written after the verdict");
        assert_eq!(handle.clock.now_nanos(), now, "clock moved after the verdict");
    }

    #[test]
    fn sim_backend_advances_virtual_time_only() {
        let handle = SimHandle::new(7);
        let mut c = toy::<CounterApp>(Backend::Sim(handle.clone()));
        c.start(&[1]);
        let before = handle.clock.now_nanos();
        c.execute(1, &bump()).unwrap();
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
            let mut c = toy::<CounterApp>(Backend::Sim(handle.clone()));
            c.start(&[1]);
            (0..3)
                .map(|_| {
                    c.execute(1, &bump()).unwrap();
                    handle.clock.now_nanos()
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same virtual timeline");
        assert_ne!(run(42), run(43), "different seeds jitter differently");
    }

    /// The seed-7 virtual timeline, pinned to the nanosecond: every
    /// step costs `SIM_STEP_COST` plus the next draw of the seed's
    /// jitter stream (a hung step's budget is the runner's, pinned in
    /// `sim_hang_reading_is_one_step_cost_then_the_budget`). `wall_*`
    /// summary keys and trace `vt` stamps under `--sim` are differences
    /// of these readings, so a moved literal is a moved byte.
    #[test]
    fn sim_timeline_is_pinned_for_seed_7() {
        let handle = SimHandle::new(7);
        let mut c = toy::<HangApp>(Backend::Sim(handle.clone()));
        c.start(&[1, 2]);
        let mut readings = Vec::new();
        assert_eq!(c.offers().unwrap().len(), 4);
        readings.push(handle.clock.now_nanos());
        for id in [1, 2, 1] {
            c.execute(id, &ActionInstance::nullary("tick")).unwrap();
            readings.push(handle.clock.now_nanos());
        }
        vars_of(&mut c, 2);
        readings.push(handle.clock.now_nanos());
        assert_eq!(readings, [130_291, 189_637, 251_840, 305_514, 363_819]);
    }
}
