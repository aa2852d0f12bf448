//! The instrumented cluster: one owned world, one hosting path.
//!
//! The paper's testbed (§4.3, §6.2) drives a deployed cluster one
//! action at a time: ask every node for the actions it is blocked on
//! (`notifyAndBlock`), release one (`Execute`), read its shadow
//! variables (`checkAllStates`). Nothing in that protocol runs two
//! nodes at once, so a deployment is one owned value, the *world*:
//! the nodes, the network, and each node's durable storage and shadow
//! registry. A node is a handler over its own state ([`NodeApp`]);
//! each step lends it a [`NodeCx`] through which it sends, reads its
//! inbox, persists and writes its shadow cells. Crash drops the node;
//! restart boots a fresh incarnation from the world's config —
//! whatever the application persisted in its storage survives,
//! nothing else does. Copying the cluster copies the deployment.
//!
//! **One step, one dispatch.** Every node step runs under
//! `catch_unwind` in `World::step`. Observation steps (offer
//! collection) run inline on the harness thread: they are the
//! step-dense hot path, one per node per offer poll. A snapshot reads
//! the registries straight into the aggregate, one clone per shadow
//! value. *Execution* steps, the only place the harness runs
//! open-ended application code, run on a single lazily spawned
//! *sandbox* thread (one per cluster, reused across steps): the world
//! moves there in its `Box` and comes back with the outcome, so the
//! harness can bound the step with the reply timeout.
//!
//! **Panic isolation.** A node panicking inside application code must
//! not tear the harness down: the unwind is caught and reported as a
//! structured [`ClusterError::Died`], the node leaves the world, its
//! shadow values stay readable in its registry until a restart resets
//! them, and the rest of the cluster keeps answering.
//!
//! **Watchdog.** An execution step that outlives the reply timeout is
//! abandoned together with the sandbox thread it is stuck on and the
//! world that thread holds — never joined, its channels dropped →
//! [`ClusterError::Unresponsive`]. The runner reports that as its
//! verdict and touches the cluster no further: from then on every
//! node is [`ClusterError::NotRunning`], and shutdown and drop return
//! at once.
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
use mocket_dsnet::{Net, Storage, Wire};
use mocket_obs::causal::Tracer;
use mocket_sim::{SimClock, SimHandle, SimRng};
use mocket_tla::{ActionInstance, Value};

use crate::registry::VarRegistry;

/// A node identifier (matches `dsnet::NodeId`).
pub type NodeId = u64;

/// What one node step reaches beyond the node's own state: the
/// deployment's network, the node's durable storage and its shadow
/// registry.
pub struct NodeCx<'a, M> {
    /// The network every node of the deployment sends over.
    pub net: &'a mut Net<M>,
    /// This node's storage; it survives crashes and restarts.
    pub disk: &'a mut Storage<Value>,
    /// This node's shadow registry (write it through `Shadow` cells).
    pub vars: &'a mut VarRegistry,
}

/// The application logic of one node.
///
/// Implementations are the real protocol code (Raft, ZAB): `enabled`
/// is the set of actions the node's threads are currently blocked on;
/// `execute` runs one of them to completion.
pub trait NodeApp: Clone + Send + 'static {
    /// The message type of the deployment's network.
    type Msg: Wire + Clone + Send + 'static;
    /// What every incarnation is booted from (membership, bug
    /// switches).
    type Config: Clone + Send + 'static;

    /// Boots an incarnation of `id`, recovering from `cx.disk` and
    /// mirroring its initial shadow values into `cx.vars`.
    fn boot(id: NodeId, config: &Self::Config, cx: &mut NodeCx<'_, Self::Msg>) -> Self;

    /// The actions this node is currently blocked on (implementation
    /// domain: hook names + collected parameters).
    fn enabled(&mut self, cx: &mut NodeCx<'_, Self::Msg>) -> Vec<ActionInstance>;

    /// Executes one action, returning the reported message events.
    fn execute(&mut self, action: &ActionInstance, cx: &mut NodeCx<'_, Self::Msg>)
        -> Vec<MsgEvent>;
}

/// Errors from cluster control.
#[derive(Debug, Clone)]
pub enum ClusterError {
    /// The node is not running.
    NotRunning(NodeId),
    /// The node did not answer within the timeout. The step's thread
    /// is detached with the world it holds: a late reply must never
    /// desynchronise the request/reply protocol.
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

/// One node's slot in the world: the running incarnation, if any, and
/// the storage and shadow registry that outlive it.
#[derive(Clone)]
struct Host<N> {
    app: Option<N>,
    disk: Storage<Value>,
    vars: VarRegistry,
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
        self.hosts.get(&id).is_some_and(|h| h.app.is_some())
    }

    /// Boots a fresh incarnation of `id` over its surviving storage;
    /// the previous incarnation's shadow values are dropped first.
    fn boot(&mut self, id: NodeId) {
        let host = self.hosts.entry(id).or_insert_with(|| Host {
            app: None,
            disk: Storage::default(),
            vars: VarRegistry::default(),
        });
        host.vars = VarRegistry::default();
        let mut cx = NodeCx {
            net: &mut self.net,
            disk: &mut host.disk,
            vars: &mut host.vars,
        };
        host.app = Some(N::boot(id, &self.config, &mut cx));
    }

    /// One step of running node `id` under `catch_unwind`. A node that
    /// panics leaves the world; its shadow values stay.
    fn step<T>(
        &mut self,
        id: NodeId,
        hook: impl FnOnce(&mut N, &mut NodeCx<'_, N::Msg>) -> T,
    ) -> Result<T, ClusterError> {
        let Some(host) = self.hosts.get_mut(&id) else {
            return Err(ClusterError::NotRunning(id));
        };
        let Some(app) = host.app.as_mut() else {
            return Err(ClusterError::NotRunning(id));
        };
        let mut cx = NodeCx {
            net: &mut self.net,
            disk: &mut host.disk,
            vars: &mut host.vars,
        };
        match dispatch(|| hook(app, &mut cx)) {
            Ok(out) => Ok(out),
            Err(reason) => {
                host.app = None;
                Err(ClusterError::Died { node: id, reason })
            }
        }
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

/// One execution step in flight: the world travels to the sandbox
/// with the node and action to release and comes back with the
/// outcome.
type SandboxStep<N> = (Box<World<N>>, NodeId, ActionInstance);
type SandboxReply<N> = (Box<World<N>>, Result<Vec<MsgEvent>, ClusterError>);

/// A single reusable worker thread that runs execution steps so the
/// harness thread can bound each one with the reply timeout.
/// Abandoned wholesale — channels dropped, thread never joined — when
/// a step hangs.
struct Sandbox<N: NodeApp> {
    step_tx: Sender<SandboxStep<N>>,
    reply_rx: Receiver<SandboxReply<N>>,
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

/// Spin-then-park receive: `try_recv` with a `yield_now` between
/// attempts, then a blocking wait bounded by `grace` (if any).
fn spin_recv<T>(rx: &Receiver<T>, grace: Option<Duration>) -> Result<T, RecvTimeoutError> {
    for _ in 0..SANDBOX_SPIN {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
        }
    }
    match grace {
        Some(grace) => rx.recv_timeout(grace),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

impl<N: NodeApp> Sandbox<N> {
    fn spawn() -> Sandbox<N> {
        let (step_tx, step_rx) = bounded::<SandboxStep<N>>(1);
        let (reply_tx, reply_rx) = bounded::<SandboxReply<N>>(1);
        std::thread::Builder::new()
            .name("node-sandbox".to_string())
            .spawn(move || {
                while let Ok((mut world, id, action)) = spin_recv(&step_rx, None) {
                    let result = world.step(id, |app, cx| app.execute(&action, cx));
                    if reply_tx.send((world, result)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn sandbox thread");
        Sandbox { step_tx, reply_rx }
    }
}

/// A running instrumented cluster.
pub struct Cluster<N: NodeApp> {
    /// The deployment; `None` once a hung step took it away.
    world: Option<Box<World<N>>>,
    reply_timeout: Duration,
    /// Causal tracer (disabled by default — every hook is one branch).
    tracer: Tracer,
    /// Present iff the backend is [`Backend::Sim`].
    sim: SimState,
    /// Lazily spawned, abandoned on a hung step.
    sandbox: Option<Sandbox<N>>,
}

/// A copy of the deployment as it stands: stepping one leaves the
/// other unchanged. The copy spawns its own sandbox on its first
/// execution step; the tracer and a simulated clock stay shared.
impl<N: NodeApp> Clone for Cluster<N> {
    fn clone(&self) -> Self {
        Cluster {
            world: self.world.clone(),
            reply_timeout: self.reply_timeout,
            tracer: self.tracer.clone(),
            sim: self.sim.clone(),
            sandbox: None,
        }
    }
}

impl<N: NodeApp> Cluster<N> {
    /// Creates a cluster (no nodes running yet) over `net`, booting
    /// every incarnation from `config`. Under [`Backend::Sim`] the
    /// network runs on the simulation's virtual clock, so time-based
    /// delay faults mature in virtual time.
    pub fn new(config: N::Config, mut net: Net<N::Msg>, backend: Backend) -> Self {
        install_node_panic_hook();
        let sim = match backend {
            Backend::Threads => None,
            Backend::Sim(handle) => {
                net.set_clock(handle.clock.clone());
                Some((handle.clock, SimRng::new(handle.seed)))
            }
        };
        Cluster {
            world: Some(Box::new(World {
                config,
                net,
                hosts: BTreeMap::new(),
            })),
            reply_timeout: Duration::from_secs(5),
            tracer: Tracer::disabled(),
            sim,
            sandbox: None,
        }
    }

    /// Installs a causal tracer on the cluster and its network: node
    /// steps become spans
    /// ([`CausalKind::StepBegin`](mocket_obs::causal::CausalKind) /
    /// `StepEnd`), crashes and restarts become instants, and message
    /// fates become message events. Under the simulation backend the
    /// events carry virtual timestamps, so traces are
    /// byte-deterministic per seed; on the wall clock timestamps stay
    /// zero (the event *order* is still deterministic for a given
    /// schedule).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if let Some(world) = &mut self.world {
            world.net.set_tracer(tracer.clone());
        }
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
    /// execution step gets before the watchdog abandons it. Under the
    /// simulation backend it is also exactly how far the virtual clock
    /// jumps when a step times out.
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// The deployment's network (`None` once a hung step took the
    /// world away).
    pub fn net_mut(&mut self) -> Option<&mut Net<N::Msg>> {
        self.world.as_mut().map(|world| &mut world.net)
    }

    /// Erases `id`'s durable storage (disk-loss fault). Unlike
    /// [`crash`](Self::crash), which only loses volatile state, a
    /// wiped node must come back empty after
    /// [`restart`](Self::restart).
    pub fn wipe_disk(&mut self, id: NodeId) {
        if let Some(host) = self.world.as_mut().and_then(|w| w.hosts.get_mut(&id)) {
            host.disk.wipe();
        }
    }

    /// Starts (or restarts after shutdown) the given nodes.
    pub fn start(&mut self, ids: &[NodeId]) {
        if let Some(world) = &mut self.world {
            for &id in ids {
                world.boot(id);
            }
        }
    }

    /// The ids of running nodes.
    pub fn running(&self) -> Vec<NodeId> {
        let Some(world) = &self.world else {
            return Vec::new();
        };
        let running = world.hosts.iter().filter(|(_, h)| h.app.is_some());
        running.map(|(&id, _)| id).collect()
    }

    /// Whether `id` is running.
    pub fn is_running(&self, id: NodeId) -> bool {
        self.world.as_ref().is_some_and(|w| w.is_running(id))
    }

    /// All blocked-action notifications, across all running nodes.
    /// Each node's poll is one inline step.
    pub fn offers(&mut self) -> Result<Vec<(NodeId, ActionInstance)>, ClusterError> {
        let mut out = Vec::new();
        for id in self.running() {
            let Some(world) = &mut self.world else { break };
            charge(&mut self.sim);
            let actions = world.step(id, |app, cx| app.enabled(cx))?;
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
        let result = self.execute_on_sandbox(id, action.clone());
        self.tracer.step_end(id, self.vtime());
        result
    }

    /// Runs an execution step on the sandbox thread, waiting at most
    /// the reply timeout for it.
    fn execute_on_sandbox(
        &mut self,
        id: NodeId,
        action: ActionInstance,
    ) -> Result<Vec<MsgEvent>, ClusterError> {
        if !self.is_running(id) {
            return Err(ClusterError::NotRunning(id));
        }
        let world = self.world.take().expect("a running node has a world");
        charge(&mut self.sim);
        let grace = self.reply_timeout;
        let sandbox = self.sandbox.get_or_insert_with(Sandbox::spawn);
        let reply = match sandbox.step_tx.send((world, id, action)) {
            Ok(()) => spin_recv(&sandbox.reply_rx, Some(grace)),
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        match reply {
            Ok((world, result)) => {
                self.world = Some(world);
                result
            }
            Err(RecvTimeoutError::Timeout) => {
                // The watchdog fired. Abandon the sandbox and the world
                // stuck inside it — a late reply on the dropped channel
                // can never answer a future step. Virtual time stood
                // still while the step burned its real-time grace;
                // advancing it by exactly the grace lands the timeout
                // at a deterministic virtual deadline.
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

    /// Aggregates every node's shadow variables into per-variable
    /// functions `node id → value`, sorted by variable name, one clone
    /// per shadow value. Reading a running node is one step; a crashed
    /// node contributes the values it had when it went down — the
    /// specification keeps modeling a crashed node's state.
    pub fn aggregate_snapshot(&mut self, all_ids: &[NodeId]) -> Vec<(String, Value)> {
        let mut vars = Vec::new();
        let Some(world) = &self.world else {
            return vars;
        };
        for &id in all_ids {
            let Some(host) = world.hosts.get(&id) else {
                continue;
            };
            if host.app.is_some() {
                charge(&mut self.sim);
            }
            host.vars.for_each(|name, value| {
                let at = vars.binary_search_by(|(n, _): &(String, Value)| n.as_str().cmp(name));
                let i = at.unwrap_or_else(|i| {
                    vars.insert(i, (name.to_string(), Value::Fun(BTreeMap::new())));
                    i
                });
                if let Value::Fun(fun) = &mut vars[i].1 {
                    fun.insert(Value::Int(id as i64), value.clone());
                }
            });
        }
        vars
    }

    /// Kills `id` immediately (node-crash fault): dropping the node
    /// *is* the crash — in-memory state gone, storage survives, and
    /// its shadow values stay readable until it restarts.
    pub fn crash(&mut self, id: NodeId) {
        let host = self.world.as_mut().and_then(|w| w.hosts.get_mut(&id));
        if host.and_then(|h| h.app.take()).is_some() {
            self.tracer.crash(id, self.vtime());
        }
    }

    /// Restarts `id`: kill plus a fresh incarnation.
    pub fn restart(&mut self, id: NodeId) {
        self.crash(id);
        let Some(world) = &mut self.world else { return };
        world.boot(id);
        self.tracer.restart(id, self.vtime());
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

    /// A cluster of toy nodes that use no network.
    fn toy<N: NodeApp<Msg = u64, Config = ()>>(backend: Backend) -> Cluster<N> {
        Cluster::new((), Net::new([]), backend).with_reply_timeout(Duration::from_secs(2))
    }

    /// A toy app: a counter that can `bump` until 3, and panics when
    /// told to `boom`.
    #[derive(Clone)]
    struct CounterApp {
        count: Shadow<i64>,
    }

    impl NodeApp for CounterApp {
        type Msg = u64;
        type Config = ();

        fn boot(_id: NodeId, _config: &(), cx: &mut NodeCx<'_, u64>) -> Self {
            CounterApp {
                count: Shadow::new("count", 0, cx.vars),
            }
        }

        fn enabled(&mut self, _cx: &mut NodeCx<'_, u64>) -> Vec<ActionInstance> {
            if *self.count.get() < 3 {
                vec![ActionInstance::nullary("bump")]
            } else {
                vec![]
            }
        }

        fn execute(&mut self, action: &ActionInstance, cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
            if action.name == "boom" {
                panic!("injected fault: boom");
            }
            self.count.update(cx.vars, |c| c + 1);
            vec![]
        }
    }

    fn bump() -> ActionInstance {
        ActionInstance::nullary("bump")
    }

    /// `id`'s shadow variables, read through a one-node aggregate.
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
            Err(ClusterError::NotRunning(1))
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
                ClusterError::Died { node, reason } => {
                    assert_eq!(*node, 1);
                    assert!(reason.contains("boom"), "reason: {reason}");
                }
                other => panic!("expected Died, got {other:?}"),
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

    /// Hangs forever when told to `stall`; `tick` returns at once.
    #[derive(Clone)]
    struct HangApp;

    impl NodeApp for HangApp {
        type Msg = u64;
        type Config = ();

        fn boot(_id: NodeId, _config: &(), cx: &mut NodeCx<'_, u64>) -> Self {
            Shadow::new("x", 0i64, cx.vars);
            HangApp
        }

        fn enabled(&mut self, _cx: &mut NodeCx<'_, u64>) -> Vec<ActionInstance> {
            vec![ActionInstance::nullary("stall")]
        }

        fn execute(&mut self, action: &ActionInstance, _cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
            if action.name == "tick" {
                return vec![];
            }
            // Hang forever without burning CPU or wall-clock timers;
            // park() can wake spuriously, hence the loop.
            loop {
                std::thread::park();
            }
        }
    }

    /// A forever-blocking execution step is abandoned at the reply
    /// timeout instead of hanging the harness. The world went with the
    /// stuck thread: every node is gone, and shutdown and drop return
    /// at once.
    #[test]
    fn hung_node_is_detached_not_joined() {
        let grace = Duration::from_millis(100);
        for (backend, sim) in backends() {
            let mut c = toy::<HangApp>(backend).with_reply_timeout(grace);
            c.start(&[1, 2]);
            let start = std::time::Instant::now();
            let err = c.execute(1, &ActionInstance::nullary("stall")).unwrap_err();
            assert!(matches!(err, ClusterError::Unresponsive(1)));
            if let Some(handle) = &sim {
                // The virtual clock advanced by exactly the grace once
                // the step's own cost was charged: deterministic, so
                // verdicts line up per seed.
                let before_grace = handle.clock.now_nanos() - grace.as_nanos() as u64;
                let mut replay = SimRng::new(7);
                let cost = SIM_STEP_COST.as_nanos() as u64
                    + replay.below(SIM_STEP_JITTER.as_nanos() as u64);
                assert_eq!(before_grace, cost, "one step cost, then exactly the grace");
            }
            for id in [1, 2] {
                assert!(matches!(
                    c.execute(id, &ActionInstance::nullary("tick")),
                    Err(ClusterError::NotRunning(n)) if n == id
                ));
            }
            assert!(c.running().is_empty() && c.offers().unwrap().is_empty());
            assert!(c.aggregate_snapshot(&[1, 2]).is_empty());
            c.shutdown();
            drop(c);
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "harness never waits out a hung node"
            );
        }
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
    /// jitter stream, and a hung step adds exactly the reply timeout.
    /// `wall_*` summary keys and trace `vt` stamps under `--sim` are
    /// sums of these readings, so a moved literal is a moved byte.
    #[test]
    fn sim_timeline_is_pinned_for_seed_7() {
        let handle = SimHandle::new(7);
        let mut c = toy::<HangApp>(Backend::Sim(handle.clone()))
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
            let mut c = toy::<HangApp>(Backend::Sim(handle.clone()))
                .with_reply_timeout(Duration::from_millis(50));
            c.start(&[1]);
            let err = c.execute(1, &ActionInstance::nullary("stall")).unwrap_err();
            (handle.clock.now_nanos(), err.to_string())
        };
        assert_eq!(run(42), run(42), "same seed, same virtual deadline");
    }
}
