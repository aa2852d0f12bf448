//! The end-of-run summary (`run-summary.json`).
//!
//! One flat JSON object, one key per line, keys emitted in a fixed
//! order. Every wall-clock-derived key is prefixed `wall_`; everything
//! else is byte-identical across same-seed runs, so two summaries can
//! be compared with [`strip_wall_clock`].

use std::collections::BTreeMap;

use std::io;
use std::path::{Path, PathBuf};

use crate::json::FlatJson;
use crate::metrics::{MetricsSnapshot, TIMING_PREFIX};

/// File name of the summary inside a campaign directory.
pub const RUN_SUMMARY_FILE_NAME: &str = "run-summary.json";

/// Everything a campaign reports when it finishes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Spec name (module name of the checked spec).
    pub spec: String,
    /// Distinct states in the state-space graph.
    pub states: u64,
    /// Edges in the state-space graph.
    pub edges: u64,
    /// Coverage-target edges actually visited by the traversal.
    pub coverage_edges_visited: u64,
    /// Total coverage-target edges (after POR exclusion).
    pub coverage_edge_targets: u64,
    /// `visited / targets` exactly as the traversal reports it
    /// (1.0 when there are no targets).
    pub coverage: f64,
    /// Edges POR removed from the coverage target set.
    pub por_excluded_edges: u64,
    /// Test cases selected for execution.
    pub cases_selected: u64,
    /// Test cases actually executed this run.
    pub cases_run: u64,
    /// Cases that passed.
    pub cases_passed: u64,
    /// Cases with a confirmed failure.
    pub cases_failed: u64,
    /// Cases quarantined as flaky.
    pub cases_quarantined: u64,
    /// Cases skipped because the campaign journal had them completed.
    pub cases_skipped_from_journal: u64,
    /// Journal anomalies detected on resume (truncated lines etc.).
    pub journal_issues: u64,
    /// Confirmed bugs by failure kind (`Divergence`, `Missing action`…).
    pub bugs_by_kind: BTreeMap<String, u64>,
    /// Confirmed bugs by determinism verdict (`deterministic`/`flaky`).
    pub bugs_by_determinism: BTreeMap<String, u64>,
    /// Full metrics snapshot; timing metrics are segregated on export.
    pub metrics: MetricsSnapshot,
    /// Wall-clock seconds in the model-checking stage.
    pub wall_check_seconds: f64,
    /// Wall-clock seconds executing test cases.
    pub wall_test_seconds: f64,
    /// Wall-clock seconds for the whole run.
    pub wall_total_seconds: f64,
}

impl RunSummary {
    /// Renders the summary: a flat JSON object, one key per line.
    /// Deterministic keys come first, then every `wall_`-prefixed key
    /// (plain wall-clock fields followed by flattened
    /// [`TIMING_PREFIX`] metrics).
    pub fn to_json(&self) -> String {
        let mut w = FlatJson::document();
        w.num("schema_version", 1)
            .string("spec", &self.spec)
            .num("states", self.states)
            .num("edges", self.edges)
            .num("coverage_edges_visited", self.coverage_edges_visited)
            .num("coverage_edge_targets", self.coverage_edge_targets)
            .float("coverage", self.coverage)
            .num("por_excluded_edges", self.por_excluded_edges)
            .num("cases_selected", self.cases_selected)
            .num("cases_run", self.cases_run)
            .num("cases_passed", self.cases_passed)
            .num("cases_failed", self.cases_failed)
            .num("cases_quarantined", self.cases_quarantined)
            .num("cases_skipped_from_journal", self.cases_skipped_from_journal)
            .num("journal_issues", self.journal_issues)
            .counts("bugs_by_kind", &self.bugs_by_kind)
            .counts("bugs_by_determinism", &self.bugs_by_determinism);
        // Deterministic metrics, flattened and name-sorted.
        let mut metric_entries = self.metrics.deterministic().flat_json_entries();
        metric_entries.sort();
        for (key, value) in &metric_entries {
            w.raw(key, value);
        }

        // Wall-clock section: plain fields, then timing metrics. Every
        // key gets the `wall_` prefix so strip_wall_clock can filter
        // on the key alone.
        w.float("wall_check_seconds", self.wall_check_seconds)
            .float("wall_test_seconds", self.wall_test_seconds)
            .float("wall_total_seconds", self.wall_total_seconds);
        let timing_only = MetricsSnapshot {
            counters: filter_timing(&self.metrics.counters),
            gauges: filter_timing(&self.metrics.gauges),
            histograms: filter_timing(&self.metrics.histograms),
        };
        let mut timing_entries = timing_only.flat_json_entries();
        timing_entries.sort();
        for (key, value) in &timing_entries {
            w.raw(&format!("wall_{key}"), value);
        }
        w.finish()
    }

    /// Writes `run-summary.json` under `dir` (atomic temp + rename
    /// with size verification via [`crate::fsio`], so a crash or an
    /// injected fault never leaves a torn summary). Returns the final
    /// path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        crate::fsio::write_atomic(
            dir,
            RUN_SUMMARY_FILE_NAME,
            self.to_json().as_bytes(),
            crate::fsio::points::SUMMARY_WRITE,
            &crate::fsio::RetryPolicy::io(),
        )
    }
}

fn filter_timing<V: Clone>(map: &BTreeMap<String, V>) -> BTreeMap<String, V> {
    map.iter()
        .filter(|(k, _)| k.starts_with(TIMING_PREFIX))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Drops every `wall_`-prefixed line from a rendered summary (or any
/// one-key-per-line JSON). The result is for byte comparison between
/// same-seed runs, not for parsing — a trailing comma may remain where
/// wall-clock lines were removed.
pub fn strip_wall_clock(json: &str) -> String {
    json.lines()
        .filter(|line| !line.trim_start().starts_with("\"wall_"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use std::fs;

    fn sample(wall: f64) -> RunSummary {
        let m = MetricsRegistry::default();
        m.add("checker.distinct_states", 12);
        m.observe("timing.profile.case_seconds", wall);
        let mut s = RunSummary {
            spec: "Counter".into(),
            states: 12,
            edges: 30,
            coverage_edges_visited: 28,
            coverage_edge_targets: 28,
            coverage: 1.0,
            cases_selected: 4,
            cases_run: 4,
            cases_passed: 3,
            cases_failed: 1,
            metrics: m.snapshot(),
            wall_total_seconds: wall,
            ..RunSummary::default()
        };
        s.bugs_by_kind.insert("Divergence".into(), 1);
        s.bugs_by_determinism.insert("deterministic".into(), 1);
        s
    }

    #[test]
    fn one_key_per_line_and_wall_prefixed() {
        let json = sample(0.25).to_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.first(), Some(&"{"));
        assert_eq!(lines.last(), Some(&"}"));
        // Every body line holds exactly one key.
        for line in &lines[1..lines.len() - 1] {
            assert_eq!(line.matches("\": ").count(), 1, "line {line:?}");
        }
        assert!(json.contains("\"bugs_by_kind.Divergence\": 1"));
        assert!(json.contains("\"metric.checker.distinct_states\": 12"));
        // Timing metrics appear only under wall_.
        assert!(json.contains("\"wall_metric.timing.profile.case_seconds.count\": 1"));
        assert!(!json.contains("\n  \"metric.timing."));
    }

    #[test]
    fn strip_wall_clock_makes_summaries_comparable() {
        let a = sample(0.111).to_json();
        let b = sample(9.999).to_json();
        assert_ne!(a, b);
        assert_eq!(strip_wall_clock(&a), strip_wall_clock(&b));
        // The deterministic portion still carries real content.
        assert!(strip_wall_clock(&a).contains("\"coverage\": 1"));
    }

    #[test]
    fn write_to_is_atomic_and_idempotent() {
        let dir = std::env::temp_dir().join(format!("mocket-obs-sum-{}", std::process::id()));
        let s = sample(1.0);
        let p1 = s.write_to(&dir).unwrap();
        let first = fs::read_to_string(&p1).unwrap();
        let p2 = s.write_to(&dir).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(fs::read_to_string(&p2).unwrap(), first);
        assert!(!dir.join(format!("{RUN_SUMMARY_FILE_NAME}.tmp")).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
