//! Observability determinism: the obs layer must never perturb what it
//! observes, and what it records must be reproducible.
//!
//! Pinned here, across the real AsyncRaft cluster:
//! - two same-config campaigns emit byte-identical `events.jsonl`
//!   streams and `run-summary.json` files identical modulo wall-clock
//!   (`strip_wall_clock`);
//! - `RunSummary.coverage` equals the traversal's edge coverage
//!   exactly, recomputed independently;
//! - checker runs with `workers(4)` and `workers(1)` emit the same
//!   event stream and the same coverage-relevant metrics.

mod common;

use mocket::checker::ModelChecker;
use mocket::core::{
    edge_coverage_paths, partial_order_reduction, PipelineConfig, RunConfig, TraversalConfig,
};
use mocket::obs::{strip_wall_clock, Obs};
use mocket::runtime::Backend;

fn campaign_config(obs: Obs) -> PipelineConfig {
    let mut pc = PipelineConfig::default();
    pc.max_path_len = 40;
    pc.max_test_cases = 3;
    pc.stop_at_first_bug = false;
    pc.run = RunConfig::fast();
    pc.obs = obs;
    pc
}

/// One full campaign against the clean AsyncRaft target, returning
/// the rendered event stream and run summary.
fn run_campaign() -> (String, String) {
    let (obs, rec) = Obs::in_memory();
    let result = common::small_xraft().run(campaign_config(obs), &Backend::Threads);
    assert!(result.reports.is_empty(), "clean target must pass");
    assert!(result.quarantined.is_empty());
    (rec.to_jsonl(), result.summary.to_json())
}

#[test]
fn same_config_campaigns_emit_identical_observability() {
    let (events_a, summary_a) = run_campaign();
    let (events_b, summary_b) = run_campaign();

    // The stream covers the whole pipeline...
    for name in [
        "run.start",
        "check.wave",
        "check.done",
        "generate.done",
        "case.start",
        "case.verdict",
        "run.done",
    ] {
        assert!(
            events_a.contains(&format!("\"event\":\"{name}\"")),
            "missing {name} in:\n{events_a}"
        );
    }
    // ...and is byte-identical across runs: events carry logical
    // timestamps only, never wall-clock.
    assert_eq!(events_a, events_b);

    // Summaries agree on everything except `wall_`-prefixed keys.
    assert_eq!(strip_wall_clock(&summary_a), strip_wall_clock(&summary_b));
    let deterministic = strip_wall_clock(&summary_a);
    assert!(deterministic.contains("\"coverage\""));
    assert!(deterministic.contains("\"metric.statecheck.checks\""));
    assert!(deterministic.contains("\"metric.runner.actions_released\""));
    // The wall-clock section exists but stays quarantined.
    assert!(summary_a.contains("\"wall_total_seconds\""));
    assert!(!deterministic.contains("wall_"));
}

#[test]
fn summary_coverage_matches_traversal_exactly() {
    let (obs, _rec) = Obs::in_memory();
    let result = common::small_xraft().run(campaign_config(obs), &Backend::Threads);

    // Recompute the chosen traversal independently (default config
    // has POR on) and compare against what the summary reported.
    let por = partial_order_reduction(&result.graph);
    let mut cfg = TraversalConfig::default().with_excluded_edges(por.excluded_edges);
    cfg.max_path_len = 40;
    let traversal = edge_coverage_paths(&result.graph, &cfg);

    let s = &result.summary;
    assert_eq!(s.coverage_edges_visited, traversal.edges_visited as u64);
    assert_eq!(s.coverage_edge_targets, traversal.edge_targets as u64);
    assert_eq!(s.coverage, traversal.edge_coverage(), "coverage is exact");
    assert_eq!(s.states, result.graph.state_count() as u64);
    assert_eq!(s.edges, result.graph.edge_count() as u64);
    assert_eq!(s.cases_selected, result.cases_selected as u64);
    assert_eq!(s.cases_passed, result.passed as u64);
}

#[test]
fn worker_count_does_not_change_coverage_metrics() {
    let check = |workers: usize| {
        let (obs, rec) = Obs::in_memory();
        let result = ModelChecker::new(common::small_xraft().spec)
            .workers(workers)
            .obs(obs.clone())
            .run();
        obs.flush();
        assert!(result.ok());
        let m = obs.metrics();
        (
            rec.to_jsonl(),
            [
                m.counter("checker.states_generated"),
                m.counter("checker.distinct_states"),
                m.counter("checker.edges"),
                m.counter("checker.waves"),
                m.gauge("checker.depth").unwrap_or(-1.0) as u64,
            ],
        )
    };
    let (events_seq, metrics_seq) = check(1);
    let (events_par, metrics_par) = check(4);
    assert_eq!(events_seq, events_par, "event stream is worker-invariant");
    assert_eq!(metrics_seq, metrics_par, "coverage metrics are worker-invariant");
}
