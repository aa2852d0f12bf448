//! Simulation-backend equivalence: a `--sim` run must be a faithful,
//! faster replica of the threaded deployment.
//!
//! Pinned here, across the real SyncRaft and ZabKeeper clusters:
//! - real and sim runs of the same buggy workload produce identical
//!   verdict sets (inconsistency kinds, per-case order) and identical
//!   minimized reproducers;
//! - their `events.jsonl` streams are byte-identical and their run
//!   summaries identical modulo wall-clock (`strip_wall_clock`);
//! - two sim runs with the same seed are byte-identical *including*
//!   the wall-clock section — under the virtual clock even the
//!   `wall_*` keys are deterministic;
//! - a missing action costs no waiting: a sim run whose every case
//!   ends in one accounts only its step costs in virtual time;
//! - a forever-blocking `NodeApp` terminates under `--sim` via the
//!   case watchdog, with the same verdict as on the wall clock (PR-9
//!   defect #1), and so does a forever-blocking offer poll.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mocket::core::mapping::{ActionBinding, MappingRegistry};
use mocket::core::sut::MsgEvent;
use mocket::core::{
    run_test_case, ExecReport, Inconsistency, Offer, RunConfig, RunCtx, Snapshot, SutError,
    SystemUnderTest, TestCase, TestOutcome,
};
use mocket::dsnet::Net;
use mocket::obs::{strip_wall_clock, Obs};
use mocket::runtime::{Backend, Cluster, ClusterSut, ExternalDriver, NodeApp, NodeCx, ScriptDriver};
use mocket::sim::{Clock, RealClock, SimHandle};
use mocket::targets::{by_name, Target};
use mocket::tla::{ActionClass, ActionInstance, State, Value};

/// Everything a backend-equivalence comparison looks at.
struct RunOutput {
    /// `(inconsistency kind, minimized reproducer)` per bug report, in
    /// pipeline order.
    verdicts: Vec<(String, Option<String>)>,
    events: String,
    summary: String,
    /// Raw `trace.jsonl` bytes when the run was traced, else empty.
    trace: String,
}

/// The first six cases of `target`'s hunt, all run.
fn run_workload(
    target: Target,
    sim: Option<&SimHandle>,
    trace_dir: Option<&std::path::Path>,
) -> RunOutput {
    let (obs, rec) = Obs::in_memory();
    let mut pc = target.hunt_config();
    pc.stop_at_first_bug = false;
    pc.max_test_cases = 6;
    pc.obs = obs;
    if let Some(dir) = trace_dir {
        pc.trace = true;
        pc.triage.campaign_dir = Some(dir.to_path_buf());
    }
    let backend = match sim {
        Some(handle) => {
            pc.clock = handle.clock.clone();
            Backend::Sim(handle.clone())
        }
        None => Backend::Threads,
    };
    let pipeline = target.pipeline(pc).expect("mapping validates");
    let result = pipeline.run(|| target.sut(backend.clone()));
    let trace = trace_dir
        .map(|d| std::fs::read_to_string(d.join(mocket::obs::TRACE_FILE_NAME)).unwrap_or_default())
        .unwrap_or_default();
    RunOutput {
        verdicts: result
            .reports
            .iter()
            .map(|r| {
                (
                    r.inconsistency.kind().to_string(),
                    r.minimized.as_ref().map(|tc| tc.serialize()),
                )
            })
            .collect(),
        events: rec.to_jsonl(),
        summary: result.summary.to_json(),
        trace,
    }
}

fn run_raft(sim: Option<&SimHandle>) -> RunOutput {
    run_raft_in(sim, None)
}

/// Raft-java bug #1: every case fails with a missing action.
fn buggy_raft() -> Target {
    by_name("raft-java", Some("ignore-extra-vote-response")).unwrap()
}

fn run_raft_in(sim: Option<&SimHandle>, trace_dir: Option<&std::path::Path>) -> RunOutput {
    run_workload(buggy_raft(), sim, trace_dir)
}

/// A fresh scratch directory for traced runs.
fn trace_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mocket-sim-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_zab(sim: Option<&SimHandle>) -> RunOutput {
    let target = by_name("zab", Some("election-echo-storm")).unwrap();
    run_workload(target, sim, None)
}

fn assert_equivalent(real: &RunOutput, sim: &RunOutput, system: &str) {
    assert!(
        !real.verdicts.is_empty(),
        "{system}: the seeded bug must produce verdicts"
    );
    assert_eq!(
        real.verdicts, sim.verdicts,
        "{system}: verdict kinds and minimized schedules must match across backends"
    );
    assert_eq!(
        real.events, sim.events,
        "{system}: events.jsonl must be byte-identical across backends"
    );
    assert_eq!(
        strip_wall_clock(&real.summary),
        strip_wall_clock(&sim.summary),
        "{system}: wall-clock-stripped summaries must be byte-identical"
    );
}

/// Offers only `hang`; executing it blocks the node forever. The case
/// watchdog abandons such a case on either backend; before PR-9 the
/// sim backend simply deadlocked on it.
#[derive(Clone)]
struct HangApp;

impl NodeApp for HangApp {
    type Msg = u64;
    type Config = ();

    fn boot(_id: u64, _config: &(), _cx: &mut NodeCx<'_, u64>) -> Self {
        HangApp
    }

    fn enabled(&self, _net: &Net<u64>) -> Vec<ActionInstance> {
        vec![ActionInstance::nullary("hang")]
    }

    fn execute(&mut self, action: &ActionInstance, _cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
        if action.name == "hang" {
            std::thread::sleep(Duration::from_secs(3600));
        }
        vec![]
    }

    fn project(&self, _visit: impl FnMut(&'static str, Value)) {}
}

#[derive(Clone)]
struct NoExternal;

impl ExternalDriver<HangApp> for NoExternal {
    fn execute(
        &mut self,
        _cluster: &mut Cluster<HangApp>,
        action: &ActionInstance,
    ) -> Result<mocket::core::ExecReport, SutError> {
        Err(SutError::External(format!("unsupported: {action}")))
    }
}

/// Everything of a hang verdict except `waited`, which is run-clock
/// time and therefore wall-measured on the threaded backend but
/// virtual under the simulation — by design, not a divergence.
#[derive(Debug, PartialEq)]
struct HangVerdict {
    step: usize,
    action: String,
    reason: String,
}

fn run_hang(sim: Option<&SimHandle>) -> (HangVerdict, Duration, f64) {
    let backend = match sim {
        Some(handle) => Backend::Sim(handle.clone()),
        None => Backend::Threads,
    };
    let cluster = Cluster::new((), Net::new([1, 2]), backend);
    let sut = ClusterSut::new(cluster, vec![1, 2], NoExternal);
    let clock: Arc<dyn Clock> = match sim {
        Some(handle) => handle.clock.clone(),
        None => Arc::new(RealClock::new()),
    };
    let mut registry = MappingRegistry::new();
    registry.map_action("Hang", "hang", ActionClass::SingleNode, ActionBinding::Method);
    let s = State::from_pairs([("x", Value::Int(0))]);
    let case = TestCase::new(s.clone(), vec![(ActionInstance::nullary("Hang"), s)]);
    let cfg = RunConfig {
        check_initial: false,
        per_action_budget: Duration::from_millis(200),
    };
    let start = Instant::now();
    let (outcome, _) = run_test_case(
        Box::new(sut),
        &case,
        &Arc::new(registry),
        &[],
        &cfg,
        &RunCtx {
            clock: clock.clone(),
            ..RunCtx::default()
        },
    )
    .expect("a hung node is a verdict, not a harness error");
    let wall_seconds = start.elapsed().as_secs_f64();
    match outcome {
        TestOutcome::Failed(Inconsistency::WatchdogTimeout {
            step,
            action,
            waited,
            reason,
        }) => (
            HangVerdict {
                step,
                action: action.to_string(),
                reason,
            },
            waited,
            wall_seconds,
        ),
        other => panic!("expected a watchdog verdict, got {other:?}"),
    }
}

#[test]
fn raft_sync_sim_run_is_equivalent_to_real_run() {
    let real = run_raft(None);
    let sim = run_raft(Some(&SimHandle::new(42)));
    assert_equivalent(&real, &sim, "raft-sync");
}

#[test]
fn zab_sim_run_is_equivalent_to_real_run() {
    let real = run_zab(None);
    let sim = run_zab(Some(&SimHandle::new(42)));
    assert_equivalent(&real, &sim, "zab");
}

#[test]
fn hung_node_sim_verdict_is_byte_identical_to_threaded_mode() {
    let (real, _, _) = run_hang(None);
    let (sim, sim_waited, sim_wall) = run_hang(Some(&SimHandle::new(42)));
    assert_eq!(real, sim, "hang verdicts must match across backends");
    assert!(sim.reason.contains("unresponsive"), "{}", sim.reason);
    // The documented defect: before the virtual-deadline watchdog a
    // forever-blocking NodeApp hung the sim backend outright.
    // Terminating promptly (one real-time grace, not the app's 3600s
    // sleep) is the fix.
    assert!(sim_wall < 30.0, "sim run took {sim_wall}s");
    // Under the virtual clock even the waited-out duration is a pure
    // function of the seed.
    let (sim2, sim2_waited, _) = run_hang(Some(&SimHandle::new(42)));
    assert_eq!(sim, sim2);
    assert_eq!(sim_waited, sim2_waited);
}

/// Polling it for offers blocks forever.
#[derive(Clone)]
struct MuteApp;

impl NodeApp for MuteApp {
    type Msg = u64;
    type Config = ();

    fn boot(_id: u64, _config: &(), _cx: &mut NodeCx<'_, u64>) -> Self {
        MuteApp
    }

    fn enabled(&self, _net: &Net<u64>) -> Vec<ActionInstance> {
        loop {
            std::thread::park();
        }
    }

    fn execute(&mut self, _action: &ActionInstance, _cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
        vec![]
    }

    fn project(&self, _visit: impl FnMut(&'static str, Value)) {}
}

/// A system whose offer poll blocks forever.
struct MuteSut;

impl SystemUnderTest for MuteSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        Ok(())
    }
    fn teardown(&mut self) {}
    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        loop {
            std::thread::park();
        }
    }
    fn execute(&mut self, _offer: &Offer) -> Result<ExecReport, SutError> {
        unreachable!("nothing is ever offered")
    }
    fn execute_external(&mut self, _action: &ActionInstance) -> Result<ExecReport, SutError> {
        unreachable!("the case has no external step")
    }
    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        Ok(Snapshot::default())
    }
}

/// An offer poll that never answers — a node's `enabled()` or a whole
/// system's `offers()` — is a watchdog verdict within a bounded wall
/// time, on both backends, not a harness blocked forever.
#[test]
fn offer_poll_hang_is_a_watchdog_verdict() {
    let mut registry = MappingRegistry::new();
    registry.map_action("Hang", "hang", ActionClass::SingleNode, ActionBinding::Method);
    let registry = Arc::new(registry);
    let s = State::from_pairs([("x", Value::Int(0))]);
    let case = TestCase::new(s.clone(), vec![(ActionInstance::nullary("Hang"), s)]);
    let cfg = RunConfig {
        check_initial: false,
        per_action_budget: Duration::from_millis(200),
    };
    let sim = SimHandle::new(42);
    let node_sut = |backend| Box::new(ClusterSut::new(Cluster::<MuteApp>::new((), Net::new([1, 2]), backend), vec![1, 2], ScriptDriver::new("hang")));
    let runs: [(Box<dyn SystemUnderTest>, Arc<dyn Clock>, &str); 3] = [
        (node_sut(Backend::Threads), Arc::new(RealClock::new()), "node 1: unresponsive"),
        (node_sut(Backend::Sim(sim.clone())), sim.clock.clone(), "node 1: unresponsive"),
        (Box::new(MuteSut), Arc::new(RealClock::new()), "unresponsive"),
    ];
    for (sut, clock, expected) in runs {
        let wall = RealClock::new();
        let ctx = RunCtx { clock, ..RunCtx::default() };
        let (outcome, _) = run_test_case(sut, &case, &registry, &[], &cfg, &ctx)
            .expect("a hung poll is a verdict, not a harness error");
        match outcome {
            TestOutcome::Failed(Inconsistency::WatchdogTimeout { step, reason, .. }) => {
                assert_eq!((step, reason.as_str()), (0, expected));
            }
            other => panic!("expected a watchdog verdict, got {other:?}"),
        }
        assert!(wall.now() < Duration::from_secs(30), "poll hang blocked the harness");
    }
}

#[test]
fn same_seed_sim_runs_are_fully_byte_identical() {
    let a = run_raft(Some(&SimHandle::new(7)));
    let b = run_raft(Some(&SimHandle::new(7)));
    assert_eq!(a.events, b.events);
    // Not just modulo wall clock: under the virtual clock the whole
    // summary — wall_ section included — is deterministic per seed.
    assert_eq!(a.summary, b.summary);
}

#[test]
fn causal_trace_edge_set_is_identical_across_backends() {
    use mocket::obs::causal::{parse_trace, strip_virtual_time, to_jsonl};
    let dir_real = trace_dir("trace-real");
    let dir_sim = trace_dir("trace-sim");
    let real = run_raft_in(None, Some(&dir_real));
    let sim = run_raft_in(Some(&SimHandle::new(42)), Some(&dir_sim));
    // Tracing must not perturb the run itself.
    assert_equivalent(&real, &sim, "raft-sync+trace");
    let (real_ev, real_issues) = parse_trace(&real.trace);
    let (sim_ev, sim_issues) = parse_trace(&sim.trace);
    assert!(real_issues.is_empty(), "{real_issues:?}");
    assert!(sim_issues.is_empty(), "{sim_issues:?}");
    assert!(!real_ev.is_empty(), "traced run must record causal events");
    // The causal structure — sends, receives, releases, Lamport
    // clocks, message ids, spec-edge stamps — is backend-independent;
    // only the virtual timestamps may differ (threaded runs record 0).
    assert_eq!(
        to_jsonl(&strip_virtual_time(&real_ev)),
        to_jsonl(&strip_virtual_time(&sim_ev)),
        "stripped causal edge sets must match across backends"
    );
    let _ = std::fs::remove_dir_all(&dir_real);
    let _ = std::fs::remove_dir_all(&dir_sim);
}

#[test]
fn same_seed_sim_traces_are_byte_identical() {
    let dir_a = trace_dir("trace-seed-a");
    let dir_b = trace_dir("trace-seed-b");
    let a = run_raft_in(Some(&SimHandle::new(7)), Some(&dir_a));
    let b = run_raft_in(Some(&SimHandle::new(7)), Some(&dir_b));
    assert!(!a.trace.is_empty(), "traced sim run must write trace.jsonl");
    // Virtual timestamps included: the whole trace file is a pure
    // function of the seed.
    assert_eq!(a.trace, b.trace);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The number under `key` in a run summary.
fn summary_number(summary: &str, key: &str) -> f64 {
    let key = format!("\"{key}\": ");
    let at = summary.find(&key).unwrap_or_else(|| panic!("no {key} in {summary}"));
    let rest = &summary[at + key.len()..];
    rest[..rest.find([',', '\n']).unwrap()].parse().unwrap()
}

#[test]
fn sim_runs_skip_real_sleeps() {
    // Every case in this workload ends in a missing action. A missing
    // action is found by one offer poll, so no run waits for anything:
    // the sim run's virtual test time is its step costs alone, less
    // than one 50 ms offer deadline per missing action.
    let sim = run_raft(Some(&SimHandle::new(42)));
    assert!(
        sim.verdicts.iter().all(|(kind, _)| kind == "Missing action"),
        "{:?}",
        sim.verdicts
    );
    let missing = summary_number(&sim.summary, "metric.runner.missing_actions");
    let virtual_s = summary_number(&sim.summary, "wall_test_seconds");
    assert!(missing >= 6.0, "{missing} missing actions");
    assert!(
        virtual_s > 0.0 && virtual_s < 0.05 * missing,
        "{virtual_s} virtual seconds for {missing} missing actions: a missing action costs no waiting"
    );
}
