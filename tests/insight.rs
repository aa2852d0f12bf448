//! Insight-layer end-to-end guarantees:
//!
//! - the coverage-overlay DOT export is byte-identical across repeat
//!   runs and checker worker counts, pinned against a golden file;
//! - a truncated campaign marks at least one uncovered-frontier edge,
//!   a fully-covered campaign marks none;
//! - same-config campaigns render byte-identical text and HTML trend
//!   reports (modulo the quarantined `wall_` appendix).

use std::sync::Arc;

use mocket::checker::{to_dot_overlay, ModelChecker};
mod common;

use mocket::core::{edge_coverage_paths, PipelineConfig, RunConfig, TraversalConfig};
use mocket::obs::{render_html, render_text, strip_wall_clock, CampaignHistory, CoverageMap, Obs};
use mocket::runtime::Backend;
use mocket::specs::cachemax::CacheMax;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mocket-insight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Check CacheMax with `workers` threads, run the edge-coverage
/// traversal, accumulate hit counts, and render the overlay.
fn cachemax_overlay(workers: usize) -> String {
    let result = ModelChecker::new(Arc::new(CacheMax::paper_model()))
        .workers(workers)
        .run();
    let traversal = edge_coverage_paths(&result.graph, &TraversalConfig::default());
    let mut coverage = CoverageMap::new(result.graph.edge_count());
    for path in &traversal.paths {
        coverage.record_case(
            path.iter().map(|e| e.0),
            path.iter().map(|&e| result.graph.edge(e).action.name.as_str()),
        );
    }
    to_dot_overlay(&result.graph, coverage.edge_hits())
}

#[test]
fn coverage_overlay_matches_golden_file() {
    let single = cachemax_overlay(1);
    assert_eq!(single, cachemax_overlay(1), "repeat runs are byte-identical");
    assert_eq!(
        single,
        cachemax_overlay(4),
        "checker worker count cannot change the overlay"
    );
    // `MOCKET_REGEN_GOLDEN=1 cargo test --test insight` refreshes the
    // golden after an intentional format change (then re-run plainly).
    if std::env::var_os("MOCKET_REGEN_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/coverage_overlay.dot"),
            &single,
        )
        .expect("write golden");
    }
    assert_eq!(
        single,
        include_str!("golden/coverage_overlay.dot"),
        "overlay diverged from tests/golden/coverage_overlay.dot"
    );
}

#[test]
fn truncated_campaign_marks_a_frontier_and_full_campaign_does_not() {
    // One short case over the AsyncRaft model leaves enabled-but-never
    // -scheduled edges: the uncovered frontier.
    let mut pc = PipelineConfig::default();
    pc.por = false;
    pc.max_test_cases = 1;
    pc.max_path_len = 2;
    pc.run = RunConfig::fast();
    let truncated = common::small_xraft().run(pc, &Backend::Threads);
    assert!(
        !truncated.frontier.is_empty(),
        "a truncated campaign must expose an uncovered frontier"
    );
    let dot = to_dot_overlay(&truncated.graph, truncated.coverage.edge_hits());
    assert!(dot.contains("// frontier:"), "overlay lists frontier edges");
    assert!(dot.contains("style=dashed"), "frontier edges render dashed");

    // The full campaign covers every reachable edge: no frontier.
    let mut pc = PipelineConfig::default();
    pc.por = false;
    pc.max_path_len = 40;
    pc.run = RunConfig::fast();
    let full = common::small_xraft().run(pc, &Backend::Threads);
    assert!(
        full.frontier.is_empty(),
        "a fully-covered campaign has no frontier: {:?}",
        full.frontier
    );
    let dot = to_dot_overlay(&full.graph, full.coverage.edge_hits());
    assert!(dot.contains(", 0 frontier"), "overlay header reports zero");
    assert!(!dot.contains("style=dashed"));
}

/// One campaign into `dir`, returning the text and HTML renders of its
/// campaign history.
fn campaign_report(dir: &std::path::Path) -> (String, String) {
    let obs = Obs::jsonl_in(dir).expect("open obs dir");
    let mut pc = PipelineConfig::default();
    pc.max_path_len = 40;
    pc.max_test_cases = 3;
    pc.run = RunConfig::fast();
    pc.obs = obs;
    let result = common::small_xraft().run(pc, &Backend::Threads);
    assert!(result.reports.is_empty(), "clean target must pass");
    let history = CampaignHistory::open(dir).expect("open history");
    assert!(history.issues().is_empty(), "{:?}", history.issues());
    assert_eq!(history.records().len(), 1);
    (
        render_text(history.records()),
        render_html(history.records()),
    )
}

#[test]
fn same_config_campaigns_render_identical_reports() {
    let dir_a = temp_dir("report-a");
    let dir_b = temp_dir("report-b");
    let (text_a, html_a) = campaign_report(&dir_a);
    let (text_b, html_b) = campaign_report(&dir_b);

    // Text reports agree once the wall-clock appendix is stripped;
    // the HTML renderer omits wall-clock data entirely.
    assert_eq!(strip_wall_clock(&text_a), strip_wall_clock(&text_b));
    assert_eq!(html_a, html_b);
    assert!(text_a.contains("wall-clock appendix"));
    assert!(!strip_wall_clock(&text_a).contains("wall_"));

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
