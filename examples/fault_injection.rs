//! Demonstrates the resilience layer end to end: a node that panics
//! mid-case surfaces as a crash-classified inconsistency while the
//! harness survives and runs the next case.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use std::sync::Arc;
use std::time::Duration;

use mocket::core::mapping::{ActionBinding, MappingRegistry};
use mocket::core::sut::MsgEvent;
use mocket::core::{run_test_case, RunConfig, RunCtx, TestCase, TestOutcome};
use mocket::dsnet::Net;
use mocket::runtime::{Backend, Cluster, ClusterSut, ExternalDriver, NodeApp, NodeCx};
use mocket::tla::{ActionClass, ActionInstance, State, Value};

/// One node's application code panics while the runner drives it; the
/// harness reports a "Node crash" inconsistency and keeps going. A node
/// is a handler over its own state: each step lends it a `NodeCx` with
/// the deployment's network and its own disk, and `project` shows the
/// checker its mapped fields between steps.
fn main() {
    println!("=== Panic isolation: the campaign outlives a crashing node ===");

    #[derive(Clone)]
    struct App {
        pinged: bool,
    }
    impl NodeApp for App {
        type Msg = i64;
        type Config = ();

        fn boot(_id: u64, _config: &(), _cx: &mut NodeCx<'_, i64>) -> Self {
            App { pinged: false }
        }
        fn enabled(&self, _net: &Net<i64>) -> Vec<ActionInstance> {
            let mut v = vec![ActionInstance::nullary("boom")];
            if !self.pinged {
                v.push(ActionInstance::nullary("ping"));
            }
            v
        }
        fn execute(&mut self, action: &ActionInstance, _cx: &mut NodeCx<'_, i64>) -> Vec<MsgEvent> {
            match action.name.as_str() {
                "ping" => self.pinged = true,
                "boom" => panic!("simulated application bug"),
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
    impl ExternalDriver<App> for NoExternal {
        fn execute(
            &mut self,
            _c: &mut Cluster<App>,
            a: &ActionInstance,
        ) -> Result<mocket::core::ExecReport, mocket::core::SutError> {
            Err(mocket::core::SutError::External(format!("unsupported {a}")))
        }
    }

    let sut = || {
        let cluster = Cluster::new((), Net::new([1, 2]), Backend::Threads);
        Box::new(ClusterSut::new(cluster, vec![1, 2], NoExternal))
    };
    let mut registry = MappingRegistry::new();
    registry
        .map_action("Ping", "ping", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("Boom", "boom", ActionClass::SingleNode, ActionBinding::Method);
    let case = |action: &str| {
        let s = State::from_pairs([("x", Value::Int(0))]);
        TestCase::new(s.clone(), vec![(ActionInstance::nullary(action), s)])
    };
    let registry = Arc::new(registry);
    let cfg = RunConfig {
        check_initial: false,
        per_action_budget: Duration::from_millis(500),
    };

    let ctx = RunCtx::default();
    let (outcome, _) = run_test_case(sut(), &case("Boom"), &registry, &[], &cfg, &ctx);
    let outcome = outcome.expect("a panic is a verdict, not a harness error");
    match outcome {
        TestOutcome::Failed(inc) => {
            println!("case 1 verdict: {} -> {}", inc.kind(), inc.to_string().trim_end());
            assert!(inc.is_crash(), "expected a node crash, got {inc:?}");
        }
        other => panic!("expected a failure, got {other:?}"),
    }

    let boom = ActionInstance::nullary("Boom");
    let (outcome, stats) = run_test_case(sut(), &case("Ping"), &registry, &[boom], &cfg, &ctx);
    let outcome = outcome.expect("healthy case");
    println!(
        "case 2 after the crash: {:?} ({} action(s) executed) — harness survived",
        outcome, stats.actions_executed
    );
    assert!(
        matches!(outcome, TestOutcome::Passed),
        "expected a pass, got {outcome:?}"
    );
}
