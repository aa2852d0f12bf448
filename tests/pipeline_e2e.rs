//! Cross-crate end-to-end test: the full file-format boundary the
//! paper's pipeline crosses.
//!
//! TLC-analog check → GraphViz DOT export → re-import → traversal +
//! POR → test-case serialization round trip → controlled testing of
//! the re-imported cases against the real AsyncRaft cluster.

mod common;

use std::sync::Arc;

use mocket::checker::{from_dot, to_dot, ModelChecker};
use mocket::core::{
    edge_coverage_paths, partial_order_reduction, run_test_case, RunConfig, RunCtx, TestCase,
    TraversalConfig,
};
use mocket::runtime::Backend;

#[test]
fn dot_boundary_then_controlled_testing() {
    // ② model checking.
    let target = common::small_xraft();
    let result = ModelChecker::new(target.spec.clone()).run();
    assert!(result.ok());

    // The DOT boundary: export, re-import.
    let dot = to_dot(&result.graph);
    let graph = from_dot(&dot).expect("DOT round-trip");
    assert_eq!(graph.state_count(), result.graph.state_count());
    assert_eq!(graph.edge_count(), result.graph.edge_count());

    // ③ traversal + POR on the re-imported graph.
    let por = partial_order_reduction(&graph);
    let mut cfg = TraversalConfig::default().with_excluded_edges(por.excluded_edges);
    cfg.max_path_len = 40;
    let traversal = edge_coverage_paths(&graph, &cfg);
    assert!(!traversal.paths.is_empty());

    // Test-case serialization boundary: serialize, parse back, verify
    // the parsed case still validates against the graph.
    let run_cfg = RunConfig::fast();
    let mut ran = 0;
    for path in traversal.paths.iter().take(40) {
        let tc = TestCase::from_edge_path(&graph, path).expect("traversal paths are non-empty");
        let text = tc.serialize();
        let tc = TestCase::deserialize(&text).expect("test-case round-trip");
        let nodes = tc.validate_against(&graph).expect("case is a graph path");
        let final_enabled: Vec<_> = graph
            .enabled_at(*nodes.last().unwrap())
            .into_iter()
            .cloned()
            .collect();

        // ④ controlled testing on a real cluster, wall clock.
        let mut sut = target.sut(Backend::Threads, None);
        let (outcome, stats) = run_test_case(
            &mut sut,
            &tc,
            &target.registry,
            &final_enabled,
            &run_cfg,
            &RunCtx::default(),
        )
        .expect("no SUT failure");
        assert!(outcome.passed(), "case {ran} failed: {outcome:?}");
        assert_eq!(stats.actions_executed, tc.len());
        ran += 1;
    }
    assert!(ran > 0);
}

#[test]
fn facade_reexports_compose() {
    // The facade crate exposes every layer; a user can assemble the
    // pipeline from `mocket::` paths alone (this test is the demo).
    let spec = Arc::new(mocket::specs::cachemax::CacheMax::paper_model());
    let graph = mocket::checker::ModelChecker::new(spec).run().graph;
    assert_eq!(graph.state_count(), 13);
    let t = mocket::core::edge_coverage_paths(&graph, &mocket::core::TraversalConfig::default());
    assert!(t.edges_visited == graph.edge_count());
}
