//! The canonical outputs: one derivation for a pipeline run and for a
//! merged campaign.
//!
//! Both end the same way — tally the confirmed bugs, write
//! `run-summary.json`, the three coverage files and one
//! `campaign-history.jsonl` record. What differs is where the verdicts
//! come from (this run's tallies vs the shard journals) and which
//! fault point the files are written under; the helpers here take
//! exactly that. [`Pipeline::summarise`] builds a run's summary (all a
//! campaign worker needs of this), [`Pipeline::finish`] adds the file
//! writes and the [`PipelineResult`].

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use mocket_checker::{to_dot_overlay, uncovered_frontier, StateGraph};
use mocket_obs::{
    CampaignHistory, CampaignRecord, CoverageMap, RunSummary, COVERAGE_FILE_NAME,
    UNCOVERED_FILE_NAME,
};

use crate::fsio::{points, write_atomic, RetryPolicy};
use crate::report::BugReport;

use super::cases::{Run, WindowResult};
use super::{Pipeline, PipelineResult, TestingEffort, COVERAGE_DOT_FILE_NAME};

/// `(bugs_by_kind, bugs_by_determinism)` over confirmed failures.
pub(crate) type BugTally = (BTreeMap<String, u64>, BTreeMap<String, u64>);

/// Counts one confirmed failure by inconsistency kind and determinism.
pub(crate) fn count_bug(tally: &mut BugTally, kind: &str, determinism: &str) {
    *tally.0.entry(kind.to_string()).or_insert(0) += 1;
    *tally.1.entry(determinism.to_string()).or_insert(0) += 1;
}

/// Writes `coverage.json`, `uncovered-edges.txt` and `coverage.dot`
/// into `dir` under fault point `point`. Every file is attempted; the
/// ones that failed come back with their error.
pub(crate) fn write_insight(
    dir: &Path,
    graph: &StateGraph,
    coverage: &CoverageMap,
    point: &str,
) -> Vec<(&'static str, io::Error)> {
    let files = [
        (COVERAGE_FILE_NAME, coverage.to_json()),
        (UNCOVERED_FILE_NAME, coverage.uncovered_listing()),
        (
            COVERAGE_DOT_FILE_NAME,
            to_dot_overlay(graph, coverage.edge_hits()),
        ),
    ];
    let mut failed = Vec::new();
    for (name, content) in files {
        if let Err(e) = write_atomic(dir, name, content.as_bytes(), point, &RetryPolicy::io()) {
            failed.push((name, e));
        }
    }
    failed
}

/// Opens `dir`'s history and builds the record `summary` adds to it,
/// numbered after the last one on file. History lines the load refused
/// go to `issues`. The caller appends (every run) or dedups (merge).
pub(crate) fn history_record(
    dir: &Path,
    summary: &RunSummary,
    shrink: (u64, u64),
    frontier_edges: usize,
    issues: &mut Vec<String>,
) -> io::Result<(CampaignHistory, CampaignRecord)> {
    let history = CampaignHistory::open(dir)?;
    issues.extend(history.issues().iter().map(|i| format!("history {i}")));
    let record =
        CampaignRecord::from_summary(summary, history.next_seq(), shrink, frontier_edges as u64);
    Ok((history, record))
}

/// The file writes: summary, insight files and one history record into
/// `dir`. Every file is attempted; failures go to the run's issues.
fn write_outputs(
    dir: &Path,
    graph: &StateGraph,
    summary: &RunSummary,
    run: &mut Run,
    reports: &[BugReport],
    frontier_edges: usize,
) {
    let issues = &mut run.issues;
    if let Err(e) = summary.write_to(dir) {
        issues.push(format!("run summary write failed: {e}"));
    }
    for (name, e) in write_insight(dir, graph, &run.coverage, points::INSIGHT_WRITE) {
        issues.push(format!("{name} write failed: {e}"));
    }
    let minimized = || reports.iter().filter(|r| r.minimized.is_some());
    let shrink = (
        minimized().map(|r| r.test_case.len() as u64).sum(),
        minimized()
            .flat_map(|r| &r.minimized)
            .map(|m| m.len() as u64)
            .sum(),
    );
    match history_record(dir, summary, shrink, frontier_edges, issues) {
        Ok((mut history, record)) => {
            if let Err(e) = history.append(record) {
                issues.push(format!("campaign history append failed: {e}"));
            }
        }
        Err(e) => issues.push(format!("campaign history unavailable: {e}")),
    }
}

impl Pipeline {
    /// The summary builder: the `run.done` event, the stage timings,
    /// and effort and summary from `run`'s tallies and the gauges
    /// `generate_paths` left in the metrics. Writes nothing.
    pub(crate) fn summarise(
        &self,
        run: &Run,
        graph: &StateGraph,
        check_seconds: f64,
    ) -> (TestingEffort, RunSummary) {
        let obs = &self.config.obs;
        let clock = &self.config.clock;
        let m = obs.metrics();
        let gauge = |name: &str| m.gauge(name).unwrap_or(0.0);
        let failed: u64 = run.bugs.0.values().sum();
        let effort = TestingEffort {
            states: graph.state_count(),
            edges: graph.edge_count(),
            paths_ec: gauge("pipeline.paths_ec") as usize,
            paths_ec_por: gauge("pipeline.paths_ec_por") as usize,
            por_excluded_edges: gauge("pipeline.por_excluded_edges") as usize,
            cases_run: run.cases_run,
            test_seconds: clock.now().saturating_sub(run.test_start).as_secs_f64(),
            check_seconds,
        };

        obs.event(
            "run.done",
            run.cases_selected as u64,
            vec![
                ("cases_run", run.cases_run.into()),
                ("passed", run.passed.into()),
                ("failed", failed.into()),
                ("quarantined", run.quarantined.into()),
                ("skipped_journal", run.skipped_from_journal.into()),
            ],
        );
        self.progress(format_args!(
            "done: {} run, {} passed, {} failed, {} quarantined",
            run.cases_run, run.passed, failed, run.quarantined
        ));

        let run_seconds = clock.now().saturating_sub(run.run_start).as_secs_f64();
        m.observe("timing.stage.test_seconds", effort.test_seconds);
        m.observe("timing.stage.total_seconds", check_seconds + run_seconds);

        let summary = RunSummary {
            spec: self.spec.name().to_string(),
            fault_plan: self.config.triage.fault_plan.clone(),
            states: graph.state_count() as u64,
            edges: graph.edge_count() as u64,
            coverage_edges_visited: gauge("coverage.edges_visited") as u64,
            coverage_edge_targets: gauge("coverage.edge_targets") as u64,
            coverage: gauge("coverage.fraction"),
            por_excluded_edges: effort.por_excluded_edges as u64,
            cases_selected: run.cases_selected as u64,
            cases_run: run.cases_run as u64,
            cases_passed: run.passed as u64,
            cases_failed: failed,
            cases_quarantined: run.quarantined as u64,
            cases_skipped_from_journal: run.skipped_from_journal as u64,
            journal_issues: run.issues.len() as u64,
            bugs_by_kind: run.bugs.0.clone(),
            bugs_by_determinism: run.bugs.1.clone(),
            metrics: m.snapshot(),
            wall_check_seconds: check_seconds,
            wall_test_seconds: effort.test_seconds,
            wall_total_seconds: check_seconds + run_seconds,
        };
        (effort, summary)
    }

    /// Closes a run whose one window was `window`: the summary and —
    /// when an obs or campaign directory is configured — every output
    /// file. An `Err` window never opened, the directory's journal
    /// being locked by another live campaign: the run aborted before
    /// deploying anything.
    pub(super) fn finish(
        &self,
        mut run: Run,
        window: Result<WindowResult, String>,
        graph: StateGraph,
        check_seconds: f64,
    ) -> PipelineResult {
        let obs = &self.config.obs;
        let lock_conflict = window.as_ref().err().cloned();
        let window = window.unwrap_or_default();
        if let Some(message) = &lock_conflict {
            obs.event(
                "run.aborted",
                0,
                vec![
                    ("reason", "campaign_dir_locked".into()),
                    ("detail", message.clone().into()),
                ],
            );
            self.progress(format_args!("aborted: {message}"));
            run.issues.push(message.clone());
        }
        let (effort, summary) = self.summarise(&run, &graph, check_seconds);

        // A locked directory gets not a byte (interleaved appends would
        // corrupt both campaigns); an aborted run claims no frontier.
        let mut frontier = Vec::new();
        if lock_conflict.is_none() {
            frontier = uncovered_frontier(&graph, run.coverage.edge_hits());
            obs.metrics()
                .set_gauge("coverage.frontier_edges", frontier.len() as f64);
            // The summary and the insight artifacts land next to
            // events.jsonl when obs streams to a directory, otherwise
            // next to the replay artifacts.
            if let Some(dir) = obs.dir().or(self.config.triage.campaign_dir.as_deref()) {
                write_outputs(dir, &graph, &summary, &mut run, &window.reports, frontier.len());
            }
        }
        obs.flush();

        PipelineResult {
            graph,
            cases_selected: run.cases_selected,
            reports: window.reports,
            quarantined: window.quarantined,
            effort,
            passed: run.passed,
            skipped_from_journal: run.skipped_from_journal,
            artifacts: window.artifacts,
            journal_issues: run.issues,
            summary,
            coverage: run.coverage,
            frontier,
            lock_conflict,
            stopped_by_gate: window.stopped_by_gate,
        }
    }
}
