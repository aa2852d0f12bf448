//! Table 3: testing effort per system.
//!
//! Columns mirror the paper: distinct states in the state-space
//! graph, paths from edge-coverage traversal alone (`PathEC`), paths
//! with partial-order reduction (`PathEC+POR`), and controlled-testing
//! time. The time column is measured by executing a sample of the
//! reduced cases against the conformant implementation and
//! extrapolating to the full reduced set (the paper ran everything
//! for days; the shape to check is the POR reduction ratio and the
//! ordering between systems).

use std::time::Instant;

use mocket::runtime::Backend;
use mocket::targets::{self, Target};
use mocket_bench::fmt_secs;
use mocket_checker::ModelChecker;
use mocket_core::{
    edge_coverage_paths, partial_order_reduction, run_test_case, RunConfig, RunCtx, TestCase,
    TraversalConfig,
};
use mocket_raft_async::XraftBugs;
use mocket_raft_sync::SyncRaftBugs;
use mocket_zab::ZabBugs;

const SAMPLE: usize = 150;
const MAX_PATH_LEN: usize = 60;

struct SystemRow {
    name: &'static str,
    states: usize,
    edges: usize,
    path_ec: usize,
    path_ec_por: usize,
    check_secs: f64,
    est_test_secs: f64,
    sample_passed: usize,
    sample_run: usize,
}

fn measure(name: &'static str, target: Target) -> SystemRow {
    let start = Instant::now();
    let result = ModelChecker::new(target.spec.clone()).run();
    let check_secs = start.elapsed().as_secs_f64();
    let graph = result.graph;

    let mut plain = TraversalConfig::default();
    plain.max_path_len = MAX_PATH_LEN;
    let ec = edge_coverage_paths(&graph, &plain);

    let por = partial_order_reduction(&graph);
    let mut reduced_cfg = TraversalConfig::default().with_excluded_edges(por.excluded_edges);
    reduced_cfg.max_path_len = MAX_PATH_LEN;
    let reduced = edge_coverage_paths(&graph, &reduced_cfg);

    // Execute a sample of the reduced cases to estimate per-case cost.
    let run_cfg = RunConfig::fast();
    let sample_start = Instant::now();
    let mut sample_run = 0usize;
    let mut sample_passed = 0usize;
    let step = (reduced.paths.len() / SAMPLE).max(1);
    for path in reduced.paths.iter().step_by(step).take(SAMPLE) {
        let tc = TestCase::from_edge_path(&graph, path).expect("traversal paths are non-empty");
        let final_node = graph.edge(*path.last().unwrap()).to;
        let final_enabled: Vec<_> = graph.enabled_at(final_node).into_iter().cloned().collect();
        let mut sut = target.sut(Backend::Threads, None);
        let (outcome, _) = run_test_case(
            &mut sut,
            &tc,
            &target.registry,
            &final_enabled,
            &run_cfg,
            &RunCtx::default(),
        )
        .expect("no SUT failure");
        sample_run += 1;
        if outcome.passed() {
            sample_passed += 1;
        }
    }
    let per_case = sample_start.elapsed().as_secs_f64() / sample_run.max(1) as f64;

    SystemRow {
        name,
        states: graph.state_count(),
        edges: graph.edge_count(),
        path_ec: ec.paths.len(),
        path_ec_por: reduced.paths.len(),
        check_secs,
        est_test_secs: per_case * reduced.paths.len() as f64,
        sample_passed,
        sample_run,
    }
}

fn main() {
    // The conformant implementations against the bench models.
    let rows = vec![
        measure(
            "Xraft",
            targets::xraft(mocket_bench::xraft_model(), XraftBugs::none()),
        ),
        measure(
            "Raft-java",
            targets::raft_java(mocket_bench::raft_java_model(), SyncRaftBugs::none(), false),
        ),
        measure(
            "ZooKeeper",
            targets::zab(mocket_bench::zookeeper_model(), ZabBugs::none()),
        ),
    ];

    println!("=== Table 3: Testing Effort ===");
    println!(
        "{:<11} {:>8} {:>8} {:>9} {:>11} {:>7} {:>10} {:>12}",
        "System", "State", "Edges", "PathEC", "PathEC+POR", "POR-%", "Check", "Time(est.)"
    );
    for r in &rows {
        let reduction = if r.path_ec == 0 {
            0.0
        } else {
            100.0 * (1.0 - r.path_ec_por as f64 / r.path_ec as f64)
        };
        println!(
            "{:<11} {:>8} {:>8} {:>9} {:>11} {:>6.1}% {:>10} {:>12}",
            r.name,
            r.states,
            r.edges,
            r.path_ec,
            r.path_ec_por,
            reduction,
            fmt_secs(r.check_secs),
            fmt_secs(r.est_test_secs),
        );
        assert_eq!(
            r.sample_passed, r.sample_run,
            "{}: conformant samples must all pass",
            r.name
        );
    }
    println!();
    println!("Paper's Table 3 for comparison:");
    println!("  Xraft      91,532 states, 296,154 EC paths, 39,047 EC+POR (86.8% cut),  75 h");
    println!("  Raft-java  23,911 states,  85,976 EC paths,  9,829 EC+POR (88.6% cut),  13 h");
    println!("  ZooKeeper 105,054 states, 342,770 EC paths, 44,361 EC+POR (87.1% cut), 123 h");
    println!();
    println!(
        "Shape checks: POR removes the large majority of EC paths on \
         every system, and ZooKeeper's per-case testing is the most \
         expensive."
    );
}
