//! End-to-end resilience: the harness must survive misbehaving
//! applications. A node panic becomes a crash-classified
//! inconsistency, a hung node trips the watchdog, and fault-plan
//! partitions heal on schedule — in every case the testbed process
//! stays alive and can run the next case.

use std::time::Duration;

use mocket::core::mapping::{ActionBinding, MappingRegistry};
use mocket::core::sut::MsgEvent;
use mocket::core::{
    run_test_case, Inconsistency, RunConfig, RunCtx, SutError, TestCase, TestOutcome,
};
use mocket::dsnet::{FaultPlan, FaultPlanConfig, Net};
use mocket::runtime::{Backend, Cluster, ClusterSut, ExternalDriver, NodeApp, NodeCx, Shadow};
use mocket::tla::{ActionClass, ActionInstance, State, Value};

/// Offers `ping` (until pinged) and `boom`; executing `boom` panics
/// the node thread, `hang` sleeps far past any reply timeout.
#[derive(Clone)]
struct VolatileApp {
    pinged: Shadow<bool>,
}

impl NodeApp for VolatileApp {
    type Msg = i64;
    type Config = ();

    fn boot(_id: u64, _config: &(), cx: &mut NodeCx<'_, i64>) -> Self {
        VolatileApp {
            pinged: Shadow::new("pinged", false, cx.vars),
        }
    }

    fn enabled(&mut self, _cx: &mut NodeCx<'_, i64>) -> Vec<ActionInstance> {
        let mut offers = vec![
            ActionInstance::nullary("boom"),
            ActionInstance::nullary("hang"),
        ];
        if !*self.pinged.get() {
            offers.push(ActionInstance::nullary("ping"));
        }
        offers
    }

    fn execute(&mut self, action: &ActionInstance, cx: &mut NodeCx<'_, i64>) -> Vec<MsgEvent> {
        match action.name.as_str() {
            "ping" => self.pinged.set(cx.vars, true),
            "boom" => panic!("application invariant violated"),
            "hang" => std::thread::sleep(Duration::from_secs(3600)),
            _ => {}
        }
        vec![]
    }
}

#[derive(Clone)]
struct NoExternal;

impl ExternalDriver<VolatileApp> for NoExternal {
    fn execute(
        &mut self,
        _cluster: &mut Cluster<VolatileApp>,
        action: &ActionInstance,
    ) -> Result<mocket::core::ExecReport, SutError> {
        Err(SutError::External(format!("unsupported: {action}")))
    }
}

/// Action-only mapping: no variable mappings, so state checks are
/// vacuous and the tests isolate crash/hang handling.
fn registry() -> MappingRegistry {
    let mut r = MappingRegistry::new();
    r.map_action("Ping", "ping", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("Boom", "boom", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("Hang", "hang", ActionClass::SingleNode, ActionBinding::Method);
    r
}

fn sut() -> ClusterSut<VolatileApp, NoExternal> {
    let cluster = Cluster::new((), Net::new([1, 2]), Backend::Threads)
        .with_reply_timeout(Duration::from_millis(200));
    ClusterSut::new(cluster, vec![1, 2], NoExternal)
}

fn one_step_case(spec_action: &str) -> TestCase {
    let s = State::from_pairs([("x", Value::Int(0))]);
    TestCase::new(s.clone(), vec![(ActionInstance::nullary(spec_action), s)])
}

fn config() -> RunConfig {
    RunConfig {
        check_initial: false,
        ..RunConfig::fast()
    }
}

#[test]
fn node_panic_mid_case_is_a_crash_inconsistency_and_harness_survives() {
    let mut s = sut();
    let (outcome, stats) = run_test_case(
        &mut s,
        &one_step_case("Boom"),
        &registry(),
        &[],
        &config(),
        &RunCtx::default(),
    )
    .expect("a node panic must not surface as a harness error");

    match outcome {
        TestOutcome::Failed(inc) => {
            assert!(inc.is_crash(), "{inc:?}");
            assert_eq!(inc.kind(), "Node crash");
            match inc {
                Inconsistency::NodeDeath { node, reason, .. } => {
                    assert!(reason.contains("application invariant violated"), "{reason}");
                    assert!(node == 1 || node == 2);
                }
                other => panic!("expected NodeDeath, got {other:?}"),
            }
        }
        other => panic!("expected a failed outcome, got {other:?}"),
    }
    assert_eq!(stats.actions_executed, 0);

    // The harness survives: the very next case on a fresh cluster
    // runs to a passing verdict.
    let mut s = sut();
    let (outcome, stats) = run_test_case(
        &mut s,
        &one_step_case("Ping"),
        &registry(),
        &[
            ActionInstance::nullary("Boom"),
            ActionInstance::nullary("Hang"),
        ],
        &config(),
        &RunCtx::default(),
    )
    .expect("healthy case");
    assert!(outcome.passed(), "{outcome:?}");
    assert_eq!(stats.actions_executed, 1);
}

#[test]
fn hung_node_trips_the_watchdog_instead_of_blocking_forever() {
    let mut s = sut();
    let start = std::time::Instant::now();
    let (outcome, _) = run_test_case(
        &mut s,
        &one_step_case("Hang"),
        &registry(),
        &[],
        &config(),
        &RunCtx::default(),
    )
    .expect("a hung node must not surface as a harness error");

    match outcome {
        TestOutcome::Failed(inc) => {
            assert_eq!(inc.kind(), "Watchdog timeout", "{inc:?}");
            match inc {
                Inconsistency::WatchdogTimeout { reason, .. } => {
                    assert!(reason.contains("unresponsive"), "{reason}");
                }
                other => panic!("expected WatchdogTimeout, got {other:?}"),
            }
        }
        other => panic!("expected a failed outcome, got {other:?}"),
    }
    // Detached, not joined: the 3600 s sleeper must not delay the
    // harness by more than a few reply timeouts.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "harness blocked on a hung node for {:?}",
        start.elapsed()
    );
}

#[test]
fn fault_plan_partitions_heal_and_traffic_resumes_end_to_end() {
    // A plan that raises partitions eagerly but heals them quickly.
    let cfg = FaultPlanConfig {
        drop_per_mille: 0,
        duplicate_per_mille: 0,
        delay_per_mille: 0,
        max_delay: 1,
        reorder_per_mille: 0,
        partition_per_mille: 300,
        partition_heal_after: 5,
        ..FaultPlanConfig::quiescent()
    };
    let mut net: Net<i64> = Net::new([1, 2]);
    net.install_fault_plan(FaultPlan::with_config(7, cfg));

    for k in 0i64..200 {
        let _ = net.send(1, 2, &k);
    }
    let delivered = net.inbox_len(2) + net.delayed_len(2);
    let stats = net.stats();
    assert!(
        stats.partition_dropped > 0,
        "the plan never raised a partition: {stats:?}"
    );
    // Partitions heal after 5 sends, so traffic must keep flowing;
    // with a permanent partition nothing would get through.
    assert!(
        delivered > 0 && delivered < 200,
        "expected partial delivery, got {delivered}/200"
    );
    // Deterministic replay: the same seed reproduces the same trace.
    let mut net2: Net<i64> = Net::new([1, 2]);
    net2.install_fault_plan(FaultPlan::with_config(7, cfg));
    for k in 0i64..200 {
        let _ = net2.send(1, 2, &k);
    }
    assert_eq!(net.fault_trace(), net2.fault_trace());
}
