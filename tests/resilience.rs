//! End-to-end resilience: the harness must survive misbehaving
//! applications. A node panic becomes a crash-classified
//! inconsistency and a hung node trips the watchdog — in every case
//! the testbed process stays alive and can run the next case.

use std::sync::Arc;
use std::time::Duration;

use mocket::core::mapping::{ActionBinding, MappingRegistry};
use mocket::core::sut::MsgEvent;
use mocket::core::{
    run_test_case, Inconsistency, RunConfig, RunCtx, SutError, TestCase, TestOutcome,
};
use mocket::dsnet::Net;
use mocket::runtime::{
    Backend, Cluster, ClusterSut, ExternalDriver, NodeApp, NodeCx, ScriptDriver,
};
use mocket::tla::{ActionClass, ActionInstance, State, Value};

/// Offers `ping` (until pinged) and `boom`; executing `boom` panics
/// the node, `hang` sleeps far past any per-action budget.
#[derive(Clone)]
struct VolatileApp {
    pinged: bool,
}

impl NodeApp for VolatileApp {
    type Msg = i64;
    type Config = ();

    fn boot(_id: u64, _config: &(), _cx: &mut NodeCx<'_, i64>) -> Self {
        VolatileApp { pinged: false }
    }

    fn enabled(&self, _net: &Net<i64>) -> Vec<ActionInstance> {
        let mut offers = vec![
            ActionInstance::nullary("boom"),
            ActionInstance::nullary("hang"),
        ];
        if !self.pinged {
            offers.push(ActionInstance::nullary("ping"));
        }
        offers
    }

    fn execute(&mut self, action: &ActionInstance, _cx: &mut NodeCx<'_, i64>) -> Vec<MsgEvent> {
        match action.name.as_str() {
            "ping" => self.pinged = true,
            "boom" => panic!("application invariant violated"),
            "hang" => std::thread::sleep(Duration::from_secs(3600)),
            _ => {}
        }
        vec![]
    }

    fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
        visit("pinged", Value::Bool(self.pinged));
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
fn registry() -> Arc<MappingRegistry> {
    let mut r = MappingRegistry::new();
    r.map_action("Ping", "ping", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("Boom", "boom", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("Hang", "hang", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("ClientRequest", "client.sh", ActionClass::UserRequest, ActionBinding::Script);
    Arc::new(r)
}

fn sut() -> Box<ClusterSut<VolatileApp, NoExternal>> {
    let cluster = Cluster::new((), Net::new([1, 2]), Backend::Threads);
    Box::new(ClusterSut::new(cluster, vec![1, 2], NoExternal))
}

fn one_step_case(spec_action: &str) -> TestCase {
    let s = State::from_pairs([("x", Value::Int(0))]);
    TestCase::new(s.clone(), vec![(ActionInstance::nullary(spec_action), s)])
}

/// No initial check, and a 200 ms grace before a hung call is
/// abandoned.
fn config() -> RunConfig {
    RunConfig {
        check_initial: false,
        per_action_budget: Duration::from_millis(200),
    }
}

#[test]
fn node_panic_mid_case_is_a_crash_inconsistency_and_harness_survives() {
    let (outcome, stats) = run_test_case(
        sut(),
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
    let (outcome, stats) = run_test_case(
        sut(),
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
    let s = State::from_pairs([("x", Value::Int(0))]);
    let ping_then_hang = TestCase::new(
        s.clone(),
        vec![
            (ActionInstance::nullary("Ping"), s.clone()),
            (ActionInstance::nullary("Hang"), s),
        ],
    );
    let start = std::time::Instant::now();
    let (outcome, stats) = run_test_case(
        sut(),
        &ping_then_hang,
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
                Inconsistency::WatchdogTimeout { step, reason, .. } => {
                    assert!(reason.contains("unresponsive"), "{reason}");
                    assert_eq!(step, 1, "the hang is the second step");
                }
                other => panic!("expected WatchdogTimeout, got {other:?}"),
            }
        }
        other => panic!("expected a failed outcome, got {other:?}"),
    }
    assert_eq!(stats.actions_executed, 1, "the ping ran before the hang");
    // Detached, not joined: the 3600 s sleeper must not delay the
    // harness by more than a few budgets.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "harness blocked on a hung node for {:?}",
        start.elapsed()
    );
}

/// A node that panics while serving a user request is a crash in the
/// system under test, not harness trouble to retry and quarantine.
#[test]
fn node_panic_serving_a_client_request_is_a_crash_inconsistency() {
    let cluster = Cluster::<VolatileApp>::new((), Net::new([1, 2]), Backend::Threads);
    let sut = ClusterSut::new(cluster, vec![1, 2], ScriptDriver::new("boom"));
    let request = ActionInstance::new("ClientRequest", vec![Value::Int(1)]);
    let s = State::from_pairs([("x", Value::Int(0))]);
    let case = TestCase::new(s.clone(), vec![(request, s)]);
    let (outcome, _) = run_test_case(Box::new(sut), &case, &registry(), &[], &config(), &RunCtx::default())
        .expect("a node panic must not surface as a harness error");
    match outcome {
        TestOutcome::Failed(Inconsistency::NodeDeath { node, reason, .. }) => {
            assert_eq!(node, 1);
            assert!(reason.contains("application invariant violated"), "{reason}");
        }
        other => panic!("expected NodeDeath, got {other:?}"),
    }
}
