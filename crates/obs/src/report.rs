//! Cross-run campaign trend reports.
//!
//! Every pipeline run appends one [`CampaignRecord`] to the
//! append-only `campaign-history.jsonl` in the campaign directory;
//! `mocket-cli report` renders the accumulated history as text and as
//! a single-file HTML page.
//!
//! Determinism contract: a record line keeps all logical data under
//! plain keys and quarantines nondeterministic data (checker
//! throughput, wall time) under `wall_`-prefixed keys, emitted last.
//! The text renderer puts wall-clock values only on lines starting
//! with `"wall_` so [`crate::strip_wall_clock`] applies verbatim; the
//! HTML renderer simply omits wall-clock data, so same-seed renders
//! are byte-identical without stripping.
//!
//! The history file is an [`AppendLog`]: torn and unparsable lines are
//! reported as issues, never trusted, and the next append starts on a
//! fresh line.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::fsio::{points, AppendLog, LineIssue};
use crate::json::{parse_flat_object, FlatJson, JsonScalar};
use crate::summary::RunSummary;

/// File name of the cross-run history inside a campaign directory.
pub const CAMPAIGN_HISTORY_FILE_NAME: &str = "campaign-history.jsonl";

/// One run's summary line in the campaign history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignRecord {
    /// Zero-based run index within the campaign directory.
    pub seq: u64,
    /// Spec name.
    pub spec: String,
    /// Distinct states in the state-space graph.
    pub states: u64,
    /// Edges in the state-space graph.
    pub edges: u64,
    /// Coverage-target edges visited by the traversal.
    pub coverage_edges_visited: u64,
    /// Total coverage-target edges (after POR exclusion).
    pub coverage_edge_targets: u64,
    /// Traversal edge coverage in `[0, 1]`.
    pub coverage: f64,
    /// Test cases selected.
    pub cases_selected: u64,
    /// Test cases executed this run.
    pub cases_run: u64,
    /// Cases passed.
    pub cases_passed: u64,
    /// Cases failed.
    pub cases_failed: u64,
    /// Cases quarantined as flaky.
    pub cases_quarantined: u64,
    /// Cases skipped thanks to the campaign journal.
    pub cases_skipped_from_journal: u64,
    /// Confirmed bugs by inconsistency kind.
    pub bugs_by_kind: BTreeMap<String, u64>,
    /// Confirmed bugs by determinism verdict.
    pub bugs_by_determinism: BTreeMap<String, u64>,
    /// Total actions across failing cases before shrinking.
    pub shrink_original_actions: u64,
    /// Total actions across failing cases after shrinking.
    pub shrink_minimized_actions: u64,
    /// Edges on the uncovered frontier after this run.
    pub uncovered_frontier_edges: u64,
    /// Checker throughput (states/second) — wall-clock-derived.
    pub wall_checker_states_per_sec: f64,
    /// Wall-clock seconds for the whole run.
    pub wall_total_seconds: f64,
}

impl CampaignRecord {
    /// Total confirmed bugs this run.
    pub fn bugs_total(&self) -> u64 {
        self.bugs_by_kind.values().sum()
    }

    /// Shrink ratio `minimized / original` (`None` when nothing was
    /// shrunk).
    pub fn shrink_ratio(&self) -> Option<f64> {
        if self.shrink_original_actions == 0 {
            None
        } else {
            Some(self.shrink_minimized_actions as f64 / self.shrink_original_actions as f64)
        }
    }

    /// The history record of the run `summary` describes. `shrink` is
    /// `(original, minimized)` action totals over the failing cases;
    /// the wall-clock keys derive from the summary's own (zero in a
    /// merged campaign, whose summary carries only logical data).
    pub fn from_summary(
        summary: &RunSummary,
        seq: u64,
        shrink: (u64, u64),
        frontier_edges: u64,
    ) -> CampaignRecord {
        CampaignRecord {
            seq,
            spec: summary.spec.clone(),
            states: summary.states,
            edges: summary.edges,
            coverage_edges_visited: summary.coverage_edges_visited,
            coverage_edge_targets: summary.coverage_edge_targets,
            coverage: summary.coverage,
            cases_selected: summary.cases_selected,
            cases_run: summary.cases_run,
            cases_passed: summary.cases_passed,
            cases_failed: summary.cases_failed,
            cases_quarantined: summary.cases_quarantined,
            cases_skipped_from_journal: summary.cases_skipped_from_journal,
            bugs_by_kind: summary.bugs_by_kind.clone(),
            bugs_by_determinism: summary.bugs_by_determinism.clone(),
            shrink_original_actions: shrink.0,
            shrink_minimized_actions: shrink.1,
            uncovered_frontier_edges: frontier_edges,
            wall_checker_states_per_sec: if summary.wall_check_seconds > 0.0 {
                summary.states as f64 / summary.wall_check_seconds
            } else {
                0.0
            },
            wall_total_seconds: summary.wall_total_seconds,
        }
    }

    /// Renders the record as one JSON object on one line. Key order is
    /// fixed: deterministic keys first, `wall_` keys last.
    pub fn to_json_line(&self) -> String {
        let mut w = FlatJson::line();
        w.num("schema_version", 1)
            .num("seq", self.seq)
            .string("spec", &self.spec)
            .num("states", self.states)
            .num("edges", self.edges)
            .num("coverage_edges_visited", self.coverage_edges_visited)
            .num("coverage_edge_targets", self.coverage_edge_targets)
            .float("coverage", self.coverage)
            .num("cases_selected", self.cases_selected)
            .num("cases_run", self.cases_run)
            .num("cases_passed", self.cases_passed)
            .num("cases_failed", self.cases_failed)
            .num("cases_quarantined", self.cases_quarantined)
            .num("cases_skipped_from_journal", self.cases_skipped_from_journal)
            .counts("bugs_by_kind", &self.bugs_by_kind)
            .counts("bugs_by_determinism", &self.bugs_by_determinism)
            .num("shrink_original_actions", self.shrink_original_actions)
            .num("shrink_minimized_actions", self.shrink_minimized_actions)
            .num("uncovered_frontier_edges", self.uncovered_frontier_edges)
            .float("wall_checker_states_per_sec", self.wall_checker_states_per_sec)
            .float("wall_total_seconds", self.wall_total_seconds);
        w.finish()
    }

    /// Parses a history line. Unknown keys are skipped (forward
    /// compatibility); known keys with the wrong type are errors.
    pub fn parse(line: &str) -> Result<Self, String> {
        let pairs = parse_flat_object(line)?;
        let mut rec = CampaignRecord::default();
        let u64_of = |key: &str, v: &JsonScalar| {
            v.as_u64().ok_or_else(|| format!("key {key:?}: expected integer"))
        };
        let f64_of = |key: &str, v: &JsonScalar| {
            v.as_f64().ok_or_else(|| format!("key {key:?}: expected number"))
        };
        for (key, value) in &pairs {
            let count: &mut u64 = match key.as_str() {
                "schema_version" => {
                    let v = u64_of(key, value)?;
                    if v != 1 {
                        return Err(format!("unsupported schema_version {v}"));
                    }
                    continue;
                }
                "spec" => {
                    rec.spec = value
                        .as_str()
                        .ok_or_else(|| format!("key {key:?}: expected string"))?
                        .to_string();
                    continue;
                }
                "coverage" => {
                    rec.coverage = f64_of(key, value)?;
                    continue;
                }
                "wall_checker_states_per_sec" => {
                    rec.wall_checker_states_per_sec = f64_of(key, value)?;
                    continue;
                }
                "wall_total_seconds" => {
                    rec.wall_total_seconds = f64_of(key, value)?;
                    continue;
                }
                "seq" => &mut rec.seq,
                "states" => &mut rec.states,
                "edges" => &mut rec.edges,
                "coverage_edges_visited" => &mut rec.coverage_edges_visited,
                "coverage_edge_targets" => &mut rec.coverage_edge_targets,
                "cases_selected" => &mut rec.cases_selected,
                "cases_run" => &mut rec.cases_run,
                "cases_passed" => &mut rec.cases_passed,
                "cases_failed" => &mut rec.cases_failed,
                "cases_quarantined" => &mut rec.cases_quarantined,
                "cases_skipped_from_journal" => &mut rec.cases_skipped_from_journal,
                "shrink_original_actions" => &mut rec.shrink_original_actions,
                "shrink_minimized_actions" => &mut rec.shrink_minimized_actions,
                "uncovered_frontier_edges" => &mut rec.uncovered_frontier_edges,
                other => {
                    if let Some(kind) = other.strip_prefix("bugs_by_kind.") {
                        rec.bugs_by_kind.entry(kind.to_string()).or_default()
                    } else if let Some(kind) = other.strip_prefix("bugs_by_determinism.") {
                        rec.bugs_by_determinism.entry(kind.to_string()).or_default()
                    } else {
                        continue; // a future schema's key
                    }
                }
            };
            *count = u64_of(key, value)?;
        }
        Ok(rec)
    }
}

/// The append-only cross-run history (`campaign-history.jsonl`): an
/// [`AppendLog`] of [`CampaignRecord`]s.
pub struct CampaignHistory {
    log: AppendLog,
    records: Vec<CampaignRecord>,
    issues: Vec<LineIssue>,
}

impl CampaignHistory {
    /// Opens (or creates) the history inside campaign directory `dir`,
    /// loading every record previous runs appended. Lines the
    /// [`AppendLog`] salvage refuses are kept as
    /// [`issues`](Self::issues).
    pub fn open(dir: &Path) -> Result<Self, std::io::Error> {
        fs::create_dir_all(dir)?;
        let log = AppendLog::new(dir.join(CAMPAIGN_HISTORY_FILE_NAME), points::HISTORY_APPEND);
        let (records, issues) = log.load(CampaignRecord::parse)?;
        Ok(CampaignHistory {
            log,
            records,
            issues,
        })
    }

    /// The records loaded from previous runs plus any appended since.
    pub fn records(&self) -> &[CampaignRecord] {
        &self.records
    }

    /// Anomalies found while loading.
    pub fn issues(&self) -> &[LineIssue] {
        &self.issues
    }

    /// The sequence number the next appended record should carry.
    pub fn next_seq(&self) -> u64 {
        self.records.last().map(|r| r.seq + 1).unwrap_or(0)
    }

    /// Appends one record and flushes it to disk immediately.
    pub fn append(&mut self, record: CampaignRecord) -> Result<(), std::io::Error> {
        self.log.append(&record.to_json_line())?;
        self.records.push(record);
        Ok(())
    }

    /// Appends `record` unless the latest record already equals it on
    /// every field but `seq` — so an idempotent re-merge of a finished
    /// campaign appends nothing. Returns whether a line was written.
    pub fn append_dedup(&mut self, record: CampaignRecord) -> Result<bool, std::io::Error> {
        if let Some(last) = self.records.last() {
            let mut probe = record.clone();
            probe.seq = last.seq;
            if *last == probe {
                return Ok(false);
            }
        }
        self.append(record)?;
        Ok(true)
    }
}

/// Confirmed bugs over all runs, by kind and by determinism verdict.
fn bug_totals(records: &[CampaignRecord]) -> (BTreeMap<&str, u64>, BTreeMap<&str, u64>) {
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_det: BTreeMap<&str, u64> = BTreeMap::new();
    for r in records {
        for (k, n) in &r.bugs_by_kind {
            *by_kind.entry(k).or_insert(0) += n;
        }
        for (k, n) in &r.bugs_by_determinism {
            *by_det.entry(k).or_insert(0) += n;
        }
    }
    (by_kind, by_det)
}

fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Renders the campaign history as a deterministic text report.
/// Wall-clock data appears only on lines whose first token is a
/// `"wall_…"` key, so [`crate::strip_wall_clock`] yields a byte-stable
/// document across same-seed runs.
pub fn render_text(records: &[CampaignRecord]) -> String {
    let mut out = String::from("mocket campaign report\n======================\n\n");
    if records.is_empty() {
        out.push_str("no runs recorded\n");
        return out;
    }
    let spec = &records[records.len() - 1].spec;
    out.push_str(&format!("spec: {spec}    runs: {}\n\n", records.len()));

    out.push_str("run  states  edges  coverage          cases run/pass/fail/quar  bugs  shrink\n");
    for r in records {
        let shrink = match r.shrink_ratio() {
            Some(ratio) => format!("{ratio:.2}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>3}  {:>6}  {:>5}  {:>5}/{:<5} {:>7}  {:>4}/{}/{}/{:<12} {:>4}  {}\n",
            r.seq,
            r.states,
            r.edges,
            r.coverage_edges_visited,
            r.coverage_edge_targets,
            pct(r.coverage),
            r.cases_run,
            r.cases_passed,
            r.cases_failed,
            r.cases_quarantined,
            r.bugs_total(),
            shrink,
        ));
    }

    let (by_kind, by_det) = bug_totals(records);
    out.push_str("\nbugs by kind (all runs):\n");
    if by_kind.is_empty() {
        out.push_str("  none\n");
    }
    for (k, n) in &by_kind {
        out.push_str(&format!("  {k}: {n}\n"));
    }
    out.push_str("bugs by determinism (all runs):\n");
    if by_det.is_empty() {
        out.push_str("  none\n");
    }
    for (k, n) in &by_det {
        out.push_str(&format!("  {k}: {n}\n"));
    }

    let first = &records[0];
    let last = &records[records.len() - 1];
    out.push_str(&format!(
        "\ntrend (run {} -> run {}): coverage {} -> {}; bugs {} -> {}; \
         uncovered frontier {} -> {} edges\n",
        first.seq,
        last.seq,
        pct(first.coverage),
        pct(last.coverage),
        first.bugs_total(),
        last.bugs_total(),
        first.uncovered_frontier_edges,
        last.uncovered_frontier_edges,
    ));

    // Wall-clock appendix: each line leads with the quoted wall_ key
    // so strip_wall_clock removes exactly these lines.
    out.push_str("\nwall-clock appendix (nondeterministic, stripped for comparison):\n");
    for r in records {
        out.push_str(&format!(
            "\"wall_checker_states_per_sec\" run {}: {:.0}\n",
            r.seq, r.wall_checker_states_per_sec
        ));
        out.push_str(&format!(
            "\"wall_total_seconds\" run {}: {:.3}\n",
            r.seq, r.wall_total_seconds
        ));
    }
    out
}

fn html_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

/// Renders the campaign history as a single-file HTML report. The
/// document carries only deterministic data — no wall-clock keys at
/// all — so two same-seed renders are byte-identical as-is.
pub fn render_html(records: &[CampaignRecord]) -> String {
    let mut out = String::from(
        "<!doctype html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n\
         <title>mocket campaign report</title>\n<style>\n\
         body { font-family: sans-serif; margin: 2em; color: #222; }\n\
         table { border-collapse: collapse; margin: 1em 0; }\n\
         th, td { border: 1px solid #bbb; padding: 4px 10px; text-align: right; }\n\
         th { background: #eee; }\n\
         td.name, th.name { text-align: left; }\n\
         .bar { background: #4a8; display: inline-block; height: 0.8em; }\n\
         </style>\n</head>\n<body>\n<h1>mocket campaign report</h1>\n",
    );
    if records.is_empty() {
        out.push_str("<p>no runs recorded</p>\n</body>\n</html>\n");
        return out;
    }
    let last = &records[records.len() - 1];
    out.push_str("<p>spec: <b>");
    html_escape(&mut out, &last.spec);
    out.push_str(&format!("</b> &middot; {} run(s)</p>\n", records.len()));

    out.push_str(
        "<h2>runs</h2>\n<table>\n<tr><th>run</th><th>states</th><th>edges</th>\
         <th>coverage</th><th>selected</th><th>run</th><th>passed</th>\
         <th>failed</th><th>quarantined</th><th>bugs</th><th>shrink</th>\
         <th>frontier</th></tr>\n",
    );
    for r in records {
        let shrink = match r.shrink_ratio() {
            Some(ratio) => format!("{ratio:.2}"),
            None => "&ndash;".to_string(),
        };
        let bar = (r.coverage * 100.0).round() as u64;
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td>\
             <td><span class=\"bar\" style=\"width:{bar}px\"></span> {}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{shrink}</td><td>{}</td></tr>\n",
            r.seq,
            r.states,
            r.edges,
            pct(r.coverage),
            r.cases_selected,
            r.cases_run,
            r.cases_passed,
            r.cases_failed,
            r.cases_quarantined,
            r.bugs_total(),
            r.uncovered_frontier_edges,
        ));
    }
    out.push_str("</table>\n");

    let (by_kind, by_det) = bug_totals(records);
    out.push_str("<h2>bugs</h2>\n<table>\n<tr><th class=\"name\">kind</th><th>count</th></tr>\n");
    if by_kind.is_empty() {
        out.push_str("<tr><td class=\"name\">none</td><td>0</td></tr>\n");
    }
    for (k, n) in &by_kind {
        out.push_str("<tr><td class=\"name\">");
        html_escape(&mut out, k);
        out.push_str(&format!("</td><td>{n}</td></tr>\n"));
    }
    out.push_str("</table>\n<table>\n<tr><th class=\"name\">determinism</th><th>count</th></tr>\n");
    if by_det.is_empty() {
        out.push_str("<tr><td class=\"name\">none</td><td>0</td></tr>\n");
    }
    for (k, n) in &by_det {
        out.push_str("<tr><td class=\"name\">");
        html_escape(&mut out, k);
        out.push_str(&format!("</td><td>{n}</td></tr>\n"));
    }
    out.push_str("</table>\n");

    let first = &records[0];
    out.push_str(&format!(
        "<h2>trend</h2>\n<p>run {} &rarr; run {}: coverage {} &rarr; {}; \
         bugs {} &rarr; {}; uncovered frontier {} &rarr; {} edges</p>\n",
        first.seq,
        last.seq,
        pct(first.coverage),
        pct(last.coverage),
        first.bugs_total(),
        last.bugs_total(),
        first.uncovered_frontier_edges,
        last.uncovered_frontier_edges,
    ));
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_wall_clock;

    fn sample(seq: u64, wall: f64) -> CampaignRecord {
        let mut rec = CampaignRecord {
            seq,
            spec: "Raft".into(),
            states: 100 + seq,
            edges: 300,
            coverage_edges_visited: 250 + seq,
            coverage_edge_targets: 280,
            coverage: (250 + seq) as f64 / 280.0,
            cases_selected: 12,
            cases_run: 12,
            cases_passed: 10,
            cases_failed: 2,
            shrink_original_actions: 30,
            shrink_minimized_actions: 12,
            uncovered_frontier_edges: 5 - seq.min(5),
            wall_checker_states_per_sec: wall,
            wall_total_seconds: wall / 1000.0,
            ..CampaignRecord::default()
        };
        rec.bugs_by_kind.insert("Inconsistent state".into(), 2);
        rec.bugs_by_determinism.insert("deterministic".into(), 2);
        rec
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let rec = sample(3, 12345.0);
        let line = rec.to_json_line();
        assert!(!line.contains('\n'));
        // Deterministic keys come first, wall_ keys last.
        assert!(line.find("\"coverage\"").unwrap() < line.find("\"wall_").unwrap());
        assert_eq!(CampaignRecord::parse(&line).unwrap(), rec);
    }

    #[test]
    fn parse_skips_unknown_keys_and_rejects_bad_types() {
        let rec = CampaignRecord::parse(r#"{"schema_version":1,"seq":2,"future_key":"x"}"#)
            .unwrap();
        assert_eq!(rec.seq, 2);
        assert!(CampaignRecord::parse(r#"{"seq":"two"}"#).is_err());
        assert!(CampaignRecord::parse(r#"{"schema_version":9}"#).is_err());
        assert!(CampaignRecord::parse("not json").is_err());
    }

    #[test]
    fn history_appends_and_reloads() {
        let dir = std::env::temp_dir().join(format!("mocket-obs-hist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut h = CampaignHistory::open(&dir).unwrap();
        assert_eq!(h.next_seq(), 0);
        h.append(sample(0, 1.0)).unwrap();
        h.append(sample(1, 2.0)).unwrap();
        let h2 = CampaignHistory::open(&dir).unwrap();
        assert_eq!(h2.records().len(), 2);
        assert_eq!(h2.next_seq(), 2);
        assert!(h2.issues().is_empty());
        assert_eq!(h2.records(), h.records());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_dedup_skips_only_the_identical_latest_record() {
        let dir = std::env::temp_dir().join(format!("mocket-obs-dedup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut h = CampaignHistory::open(&dir).unwrap();
        assert!(h.append_dedup(sample(0, 1.0)).unwrap());
        // Same logical content, fresh seq: deduplicated.
        let mut again = sample(0, 1.0);
        again.seq = h.next_seq();
        assert!(!h.append_dedup(again).unwrap());
        assert_eq!(h.records().len(), 1);
        // Different content appends.
        let mut changed = sample(0, 1.0);
        changed.seq = h.next_seq();
        changed.cases_passed += 1;
        assert!(h.append_dedup(changed).unwrap());
        assert_eq!(h.records().len(), 2);
        assert_eq!(CampaignHistory::open(&dir).unwrap().records().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_line_is_issue_not_record() {
        let dir = std::env::temp_dir().join(format!(
            "mocket-obs-hist-trunc-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut h = CampaignHistory::open(&dir).unwrap();
        h.append(sample(0, 1.0)).unwrap();
        // Simulate a crash mid-append: a partial record, no newline.
        let path = dir.join(CAMPAIGN_HISTORY_FILE_NAME);
        let mut text = fs::read_to_string(&path).unwrap();
        let partial = sample(1, 2.0).to_json_line();
        text.push_str(&partial[..partial.len() / 2]);
        fs::write(&path, &text).unwrap();

        let mut h2 = CampaignHistory::open(&dir).unwrap();
        // The partial record is dropped and reported, not trusted.
        assert_eq!(h2.records().len(), 1);
        assert_eq!(h2.issues().len(), 1);
        assert!(h2.issues()[0].message.contains("truncated final line"));
        assert_eq!(h2.next_seq(), 1);
        // The next append starts on a fresh line; the partial line
        // stays in the file (append-only) and reads back as a
        // malformed-line issue, exactly like journal.log.
        h2.append(sample(1, 3.0)).unwrap();
        let h3 = CampaignHistory::open(&dir).unwrap();
        assert_eq!(h3.records().len(), 2);
        assert_eq!(h3.records()[1].seq, 1);
        assert_eq!(h3.issues().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_report_strips_to_deterministic_bytes() {
        let a = render_text(&[sample(0, 111.0), sample(1, 222.0)]);
        let b = render_text(&[sample(0, 999.0), sample(1, 888.0)]);
        assert_ne!(a, b, "wall appendix must differ");
        assert_eq!(strip_wall_clock(&a), strip_wall_clock(&b));
        assert!(a.contains("spec: Raft    runs: 2"));
        assert!(a.contains("Inconsistent state: 4"));
        assert!(a.contains("trend (run 0 -> run 1)"));
        assert!(a.contains("\"wall_total_seconds\" run 0"));
    }

    #[test]
    fn html_report_is_fully_deterministic() {
        let a = render_html(&[sample(0, 111.0)]);
        let b = render_html(&[sample(0, 999.0)]);
        assert_eq!(a, b, "HTML must not carry wall-clock data");
        assert!(a.contains("<title>mocket campaign report</title>"));
        assert!(a.contains("<b>Raft</b>"));
        assert!(!a.contains("wall_"));
    }

    #[test]
    fn empty_history_renders() {
        assert!(render_text(&[]).contains("no runs recorded"));
        assert!(render_html(&[]).contains("no runs recorded"));
    }
}
