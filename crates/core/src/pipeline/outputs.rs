//! The canonical outputs: one derivation for a pipeline run and for a
//! merged campaign.
//!
//! Both end the same way — tally the confirmed bugs, write
//! `run-summary.json`, the three coverage files and one
//! `campaign-history.jsonl` record. What differs is where the verdicts
//! come from (this run's reports vs the shard journals) and which
//! fault point the files are written under; the helpers here take
//! exactly that, and [`Pipeline::finish`] is the pipeline's caller.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Duration;

use mocket_checker::{to_dot_overlay, uncovered_frontier, StateGraph};
use mocket_obs::{
    CampaignHistory, CampaignRecord, CoverageMap, RunSummary, COVERAGE_FILE_NAME,
    UNCOVERED_FILE_NAME,
};

use crate::fsio::{points, write_atomic, RetryPolicy};

use super::cases::Run;
use super::{Pipeline, PipelineResult, TestingEffort, COVERAGE_DOT_FILE_NAME};

/// `(bugs_by_kind, bugs_by_determinism)` over confirmed failures given
/// as `(inconsistency kind, determinism label)`.
pub(crate) fn tally_bugs<'a>(
    failures: impl Iterator<Item = (&'a str, &'a str)>,
) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let mut by_kind = BTreeMap::new();
    let mut by_determinism = BTreeMap::new();
    for (kind, determinism) in failures {
        *by_kind.entry(kind.to_string()).or_insert(0) += 1;
        *by_determinism.entry(determinism.to_string()).or_insert(0) += 1;
    }
    (by_kind, by_determinism)
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

impl Pipeline {
    /// Closes the run: the `run.done` event, stage timings, the
    /// summary, and — when an obs or campaign directory is configured —
    /// every output file.
    pub(super) fn finish(
        &self,
        mut run: Run,
        graph: StateGraph,
        (paths_ec, paths_ec_por, por_excluded): (usize, usize, usize),
        check_seconds: f64,
        run_start: Duration,
    ) -> PipelineResult {
        let obs = &self.config.obs;
        let clock = &self.config.clock;
        let effort = TestingEffort {
            states: graph.state_count(),
            edges: graph.edge_count(),
            paths_ec,
            paths_ec_por,
            por_excluded_edges: por_excluded,
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
                ("failed", run.reports.len().into()),
                ("quarantined", run.quarantined.len().into()),
                ("skipped_journal", run.skipped_from_journal.into()),
            ],
        );
        self.progress(format_args!(
            "done: {} run, {} passed, {} failed, {} quarantined",
            run.cases_run,
            run.passed,
            run.reports.len(),
            run.quarantined.len()
        ));

        let run_seconds = clock.now().saturating_sub(run_start).as_secs_f64();
        let m = obs.metrics();
        m.observe("timing.stage.test_seconds", effort.test_seconds);
        m.observe("timing.stage.total_seconds", check_seconds + run_seconds);

        let (bugs_by_kind, bugs_by_determinism) = tally_bugs(
            run.reports
                .iter()
                .map(|r| (r.inconsistency.kind(), r.determinism.label())),
        );
        let summary = RunSummary {
            spec: self.spec.name().to_string(),
            fault_plan: self.config.triage.fault_plan.clone(),
            states: graph.state_count() as u64,
            edges: graph.edge_count() as u64,
            coverage_edges_visited: m.gauge("coverage.edges_visited").unwrap_or(0.0) as u64,
            coverage_edge_targets: m.gauge("coverage.edge_targets").unwrap_or(0.0) as u64,
            coverage: m.gauge("coverage.fraction").unwrap_or(0.0),
            por_excluded_edges: por_excluded as u64,
            cases_selected: run.cases_selected as u64,
            cases_run: run.cases_run as u64,
            cases_passed: run.passed as u64,
            cases_failed: run.reports.len() as u64,
            cases_quarantined: run.quarantined.len() as u64,
            cases_skipped_from_journal: run.skipped_from_journal as u64,
            journal_issues: run.issues.len() as u64,
            bugs_by_kind,
            bugs_by_determinism,
            metrics: m.snapshot(),
            wall_check_seconds: check_seconds,
            wall_test_seconds: effort.test_seconds,
            wall_total_seconds: check_seconds + run_seconds,
        };

        let frontier = uncovered_frontier(&graph, run.coverage.edge_hits());
        m.set_gauge("coverage.frontier_edges", frontier.len() as f64);

        // The summary and the insight artifacts land next to
        // events.jsonl when obs streams to a directory, otherwise next
        // to the replay artifacts.
        let out_dir = obs
            .dir()
            .map(|d| d.to_path_buf())
            .or_else(|| self.config.triage.campaign_dir.clone());
        if let Some(dir) = &out_dir {
            if let Err(e) = summary.write_to(dir) {
                run.issues.push(format!("run summary write failed: {e}"));
            }
            for (name, e) in write_insight(dir, &graph, &run.coverage, points::INSIGHT_WRITE) {
                run.issues.push(format!("{name} write failed: {e}"));
            }
            let minimized = || run.reports.iter().filter(|r| r.minimized.is_some());
            let shrink = (
                minimized().map(|r| r.test_case.len() as u64).sum(),
                minimized()
                    .flat_map(|r| &r.minimized)
                    .map(|m| m.len() as u64)
                    .sum(),
            );
            match history_record(dir, &summary, shrink, frontier.len(), &mut run.issues) {
                Ok((mut history, record)) => {
                    if let Err(e) = history.append(record) {
                        run.issues
                            .push(format!("campaign history append failed: {e}"));
                    }
                }
                Err(e) => run
                    .issues
                    .push(format!("campaign history unavailable: {e}")),
            }
        }
        obs.flush();

        PipelineResult {
            graph,
            cases_selected: run.cases_selected,
            reports: run.reports,
            quarantined: run.quarantined,
            effort,
            passed: run.passed,
            skipped_from_journal: run.skipped_from_journal,
            artifacts: run.artifacts,
            journal_issues: run.issues,
            summary,
            coverage: run.coverage,
            frontier,
            lock_conflict: None,
            stopped_by_gate: run.stopped_by_gate,
        }
    }
}
