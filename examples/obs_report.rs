//! Campaign observability end-to-end: run a small conformance
//! campaign with `events.jsonl` streaming and print a digest from the
//! run summary.
//!
//! Two full runs with the same configuration are executed; the
//! example asserts the determinism contract the obs layer guarantees:
//!
//! 1. `events.jsonl` is byte-identical across runs (events carry
//!    logical timestamps — BFS waves, case indices — never
//!    wall-clock),
//! 2. `run-summary.json` is identical after `strip_wall_clock`
//!    (everything nondeterministic sits under `wall_`-prefixed keys),
//!    and
//! 3. the campaign-history trend report renders identically for both
//!    runs: text after `strip_wall_clock`, HTML byte-for-byte (the
//!    HTML renderer omits wall-clock data entirely).
//!
//! Run with: `cargo run --release --example obs_report`
//!
//! Exits non-zero if any of it fails to hold (CI uses this as the
//! observability smoke test).

use mocket::core::{PipelineConfig, RunConfig};
use mocket::obs::{
    render_html, render_text, strip_wall_clock, CampaignHistory, Obs, EVENTS_FILE_NAME,
    RUN_SUMMARY_FILE_NAME,
};
use mocket::runtime::Backend;
use mocket::targets::by_name;

fn run_once(dir: &std::path::Path) -> (String, String) {
    let target = by_name("xraft", None).expect("catalogue target");

    let mut pc = PipelineConfig::default();
    pc.max_path_len = 40;
    pc.max_test_cases = 4;
    pc.stop_at_first_bug = false;
    pc.run = RunConfig::fast();
    pc.progress = true;
    pc.obs = Obs::jsonl_in(dir).expect("open obs dir");

    let result = target.run(pc, &Backend::Threads);
    assert!(
        result.reports.is_empty() && result.quarantined.is_empty(),
        "clean target must conform"
    );

    let events = std::fs::read_to_string(dir.join(EVENTS_FILE_NAME)).expect("events.jsonl");
    let summary =
        std::fs::read_to_string(dir.join(RUN_SUMMARY_FILE_NAME)).expect("run-summary.json");
    (events, summary)
}

/// Renders the campaign history in `dir` to `report.txt` and
/// `report.html` (what `mocket-cli report --obs-dir` produces),
/// returning both.
fn render_reports(dir: &std::path::Path) -> (String, String) {
    let history = CampaignHistory::open(dir).expect("open campaign history");
    assert!(history.issues().is_empty(), "{:?}", history.issues());
    let text = render_text(history.records());
    let html = render_html(history.records());
    std::fs::write(dir.join("report.txt"), &text).expect("write report.txt");
    std::fs::write(dir.join("report.html"), &html).expect("write report.html");
    (text, html)
}

fn main() {
    let base = std::env::temp_dir().join("mocket-obs-example");
    let dir_a = base.join("run-a");
    let dir_b = base.join("run-b");
    let _ = std::fs::remove_dir_all(&base);

    let (events_a, summary_a) = run_once(&dir_a);
    let (events_b, summary_b) = run_once(&dir_b);

    assert_eq!(events_a, events_b, "events.jsonl must be byte-identical");
    assert_eq!(
        strip_wall_clock(&summary_a),
        strip_wall_clock(&summary_b),
        "summaries must agree modulo wall-clock"
    );

    let (text_a, html_a) = render_reports(&dir_a);
    let (text_b, html_b) = render_reports(&dir_b);
    assert_eq!(
        strip_wall_clock(&text_a),
        strip_wall_clock(&text_b),
        "text reports must agree modulo the wall-clock appendix"
    );
    assert_eq!(html_a, html_b, "HTML reports must be byte-identical");

    println!("\n--- events.jsonl ({} events) ---", events_a.lines().count());
    for line in events_a.lines().take(6) {
        println!("{line}");
    }
    println!("...");

    println!("\n--- run-summary.json (deterministic keys) ---");
    for line in strip_wall_clock(&summary_a)
        .lines()
        .filter(|l| !l.contains("\"metric."))
    {
        println!("{line}");
    }

    println!("\n--- campaign trend report ---");
    print!("{text_a}");

    println!("\nartifacts in {}", dir_a.display());
    println!("OK: two runs agreed byte-for-byte (modulo wall_ keys)");
}
