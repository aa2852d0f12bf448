//! Demonstrates the resilience layer end to end:
//!
//! 1. a seed-driven [`FaultPlan`] injecting delays, reorders and
//!    healing partitions underneath a [`Net`], with byte-identical
//!    replay from the same seed;
//! 2. a node that panics mid-case surfacing as a crash-classified
//!    inconsistency while the harness survives and runs the next case.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use std::sync::Arc;
use std::time::Duration;

use mocket::core::mapping::{ActionBinding, MappingRegistry};
use mocket::core::sut::MsgEvent;
use mocket::core::{run_test_case, RunConfig, RunCtx, TestCase, TestOutcome};
use mocket::dsnet::{FaultPlan, FaultPlanConfig, Net};
use mocket::runtime::{
    Backend, Cluster, ClusterSut, ExternalDriver, NodeApp, NodeFactory, Shadow, VarRegistry,
};
use mocket::tla::{ActionClass, ActionInstance, State, Value};

fn main() {
    fault_plan_demo();
    panic_survival_demo();
}

/// Messages sent through a fault plan: some are delayed, reordered or
/// swallowed by a partition, and the same seed replays the same trace.
fn fault_plan_demo() {
    println!("=== FaultPlan: deterministic message faults ===");
    let run = |seed: u64| {
        let net: Arc<Net<i64>> = Net::new([1, 2, 3]);
        net.install_fault_plan(FaultPlan::with_config(
            seed,
            FaultPlanConfig::aggressive(),
        ));
        for k in 0i64..120 {
            let _ = net.send(1 + (k as u64 % 2), 3, &k);
        }
        (net.fault_trace(), net.stats())
    };

    let (trace, stats) = run(42);
    println!(
        "seed 42: {} sends -> {} delivered now, {} dropped, {} duplicated, \
         {} delayed, {} reordered, {} partition-dropped",
        stats.sent,
        net_delivered(&stats),
        stats.dropped,
        stats.duplicated,
        stats.delayed,
        stats.reordered,
        stats.partition_dropped,
    );
    for entry in trace.iter().take(5) {
        println!("  {entry:?}");
    }

    let (replay, _) = run(42);
    assert_eq!(trace, replay, "same seed must replay byte-identically");
    println!("replay with seed 42: identical trace ({} entries)", trace.len());
    let (other, _) = run(43);
    assert_ne!(trace, other, "a different seed must diverge");
    println!("seed 43 diverges, as expected\n");
}

fn net_delivered(stats: &mocket::dsnet::NetStats) -> u64 {
    stats
        .sent
        .saturating_sub(stats.dropped + stats.partition_dropped + stats.delayed)
}

/// One node's application code panics while the runner drives it; the
/// harness reports a "Node crash" inconsistency and keeps going.
fn panic_survival_demo() {
    println!("=== Panic isolation: the campaign outlives a crashing node ===");

    struct App {
        registry: Arc<VarRegistry>,
        pinged: Shadow<bool>,
    }
    impl NodeApp for App {
        fn enabled(&mut self) -> Vec<ActionInstance> {
            let mut v = vec![ActionInstance::nullary("boom")];
            if !*self.pinged.get() {
                v.push(ActionInstance::nullary("ping"));
            }
            v
        }
        fn execute(&mut self, action: &ActionInstance) -> Vec<MsgEvent> {
            match action.name.as_str() {
                "ping" => self.pinged.set(true),
                "boom" => panic!("simulated application bug"),
                _ => {}
            }
            vec![]
        }
        fn registry(&self) -> Arc<VarRegistry> {
            self.registry.clone()
        }
    }
    struct NoExternal;
    impl ExternalDriver for NoExternal {
        fn execute(
            &mut self,
            _c: &mut Cluster,
            a: &ActionInstance,
        ) -> Result<mocket::core::ExecReport, mocket::core::SutError> {
            Err(mocket::core::SutError::External(format!("unsupported {a}")))
        }
    }

    let sut = || {
        let factory: NodeFactory = Box::new(|_id| {
            let registry = VarRegistry::new();
            let pinged = Shadow::new("pinged", false, registry.clone());
            Box::new(App { registry, pinged }) as Box<dyn NodeApp>
        });
        let cluster = Cluster::new(factory, Backend::Threads)
            .with_reply_timeout(Duration::from_millis(500));
        ClusterSut::new(cluster, vec![1, 2], Box::new(NoExternal))
    };
    let mut registry = MappingRegistry::new();
    registry
        .map_action("Ping", "ping", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("Boom", "boom", ActionClass::SingleNode, ActionBinding::Method);
    let case = |action: &str| {
        let s = State::from_pairs([("x", Value::Int(0))]);
        TestCase::new(s.clone(), vec![(ActionInstance::nullary(action), s)])
    };
    let cfg = RunConfig {
        check_initial: false,
        ..RunConfig::fast()
    };

    let ctx = RunCtx::default();
    let (outcome, _) = run_test_case(&mut sut(), &case("Boom"), &registry, &[], &cfg, &ctx)
        .expect("a panic is a verdict, not a harness error");
    match outcome {
        TestOutcome::Failed(inc) => {
            println!("case 1 verdict: {} -> {}", inc.kind(), inc.to_string().trim_end());
        }
        other => panic!("expected a failure, got {other:?}"),
    }

    let boom = ActionInstance::nullary("Boom");
    let (outcome, stats) = run_test_case(&mut sut(), &case("Ping"), &registry, &[boom], &cfg, &ctx)
        .expect("healthy case");
    println!(
        "case 2 after the crash: {:?} ({} action(s) executed) — harness survived",
        outcome, stats.actions_executed
    );
}
