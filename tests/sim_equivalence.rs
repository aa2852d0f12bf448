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
//! - a virtual-clock run spends no wall time sleeping: the sim run of
//!   a workload full of 50ms offer deadlines finishes in a fraction
//!   of the real run's wall clock;
//! - a forever-blocking `NodeApp` terminates under `--sim` via the
//!   virtual-deadline watchdog, with the same verdict as the threaded
//!   watchdog (PR-9 defect #1);
//! - a campaign under seeded time-based delay faults produces
//!   identical verdicts and minimized schedules on both backends
//!   (PR-9 defect #2).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mocket::core::mapping::{ActionBinding, MappingRegistry};
use mocket::core::sut::MsgEvent;
use mocket::core::{
    run_test_case, Inconsistency, RunConfig, RunCtx, SutError, TestCase, TestOutcome,
};
use mocket::dsnet::{FaultPlan, FaultPlanConfig, Net};
use mocket::obs::{strip_wall_clock, Obs};
use mocket::runtime::{Backend, Cluster, ClusterSut, ExternalDriver, NodeApp, NodeCx};
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
    wall_seconds: f64,
}

/// The first six cases of `target`'s hunt, all run, under the fault
/// plan `faults` builds per deployment.
fn run_workload(
    target: Target,
    faults: impl Fn() -> Option<FaultPlan>,
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
    let start = Instant::now();
    let result = pipeline.run(|| target.sut(backend.clone(), faults()));
    let wall_seconds = start.elapsed().as_secs_f64();
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
        wall_seconds,
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
    run_workload(buggy_raft(), || None, sim, trace_dir)
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
    run_workload(target, || None, sim, None)
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

/// The delay-fault-heavy variant of [`run_raft`]: the same buggy
/// campaign, but every deployment installs a seeded plan that holds
/// ~40% of messages for a 5–12ms virtual RTT (base + stable per-link
/// offset + per-message jitter). The holds mature on the cluster
/// clock — wall time on the threaded backend, virtual time under the
/// simulation — and sit far below the 50ms offer deadline, so both
/// backends must reach the same verdicts through the same schedules.
fn run_raft_timed_delays(sim: Option<&SimHandle>) -> RunOutput {
    // Plans carry mutable replay state, so each deployment gets a
    // fresh one; the fixed seed keeps them identical.
    let plan = || {
        Some(FaultPlan::with_config(
            99,
            FaultPlanConfig::timed_delays(Duration::from_millis(5), Duration::from_millis(2)),
        ))
    };
    run_workload(buggy_raft(), plan, sim, None)
}

/// Offers only `hang`; executing it blocks the node forever. The
/// threaded backend detaches such a node via its reply-timeout
/// watchdog; before PR-9 the sim backend simply deadlocked on it.
#[derive(Clone)]
struct HangApp;

impl NodeApp for HangApp {
    type Msg = u64;
    type Config = ();

    fn boot(_id: u64, _config: &(), _cx: &mut NodeCx<'_, u64>) -> Self {
        HangApp
    }

    fn enabled(&mut self, _cx: &mut NodeCx<'_, u64>) -> Vec<ActionInstance> {
        vec![ActionInstance::nullary("hang")]
    }

    fn execute(&mut self, action: &ActionInstance, _cx: &mut NodeCx<'_, u64>) -> Vec<MsgEvent> {
        if action.name == "hang" {
            std::thread::sleep(Duration::from_secs(3600));
        }
        vec![]
    }
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
    let cluster =
        Cluster::new((), Net::new([1, 2]), backend).with_reply_timeout(Duration::from_millis(200));
    let mut sut = ClusterSut::new(cluster, vec![1, 2], NoExternal);
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
        ..RunConfig::fast()
    };
    let start = Instant::now();
    let (outcome, _) = run_test_case(
        &mut sut,
        &case,
        &registry,
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
fn raft_sync_timed_delay_run_is_equivalent_across_backends() {
    let real = run_raft_timed_delays(None);
    let sim = run_raft_timed_delays(Some(&SimHandle::new(42)));
    assert_equivalent(&real, &sim, "raft-sync+timed-delays");
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

#[test]
fn sim_runs_skip_real_sleeps() {
    // Each missing-action case in this workload waits out a 50ms
    // offer deadline through the runner's backoff loop. Real mode
    // pays it in wall clock; sim mode must jump over it.
    let real = run_raft(None);
    let sim = run_raft(Some(&SimHandle::new(42)));
    assert!(
        sim.wall_seconds < real.wall_seconds / 2.0,
        "sim wall {}s vs real wall {}s: virtual time must not cost wall time",
        sim.wall_seconds,
        real.wall_seconds
    );
    // And the sim run still *reports* the waited-out virtual time.
    assert!(
        sim.summary.contains("\"wall_test_seconds\""),
        "summary keeps its wall section under sim"
    );
}
