//! Stage ④, case by case: a run, its case windows, one case's verdict.
//!
//! A [`Run`] is the tallies the summary is built from. A [`Window`] is
//! one `case_range` of the run's paths driven against one campaign
//! directory, holding its journal lock from open to close. A
//! single-process run is one window over every case; a campaign worker
//! drives one window per claimed shard into the same `Run`.
//! [`Pipeline::drive_case`] materializes one case, consults the gate
//! and the journal, and runs it once: it passes, fails (handed to
//! [`triage`](super::triage)) or, on a harness error, is quarantined.
//! A window runs its cases as a walk over their prefix tree ([`Walk`]):
//! each starts from the deepest resume point it shares with the case
//! run before it.

use std::collections::HashMap;
use std::ops::ControlFlow::{self, Break, Continue};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use mocket_checker::{EdgeId, StateGraph};
use mocket_obs::causal::{append_trace, CausalEvent, ClockReader, Tracer, TRACE_FILE_NAME};
use mocket_obs::{CoverageMap, FieldValue};
use mocket_tla::ActionInstance;

use crate::artifact::{CampaignJournal, CaseOutcome, JournalEntry, JournalOpenError};
use crate::report::BugReport;
use crate::runner::{resume_test_case, CaseStart, ResumePoint, RunCtx, RunStats, TestOutcome};
use crate::sut::{SutError, SystemUnderTest};
use crate::testcase::TestCase;

use super::outputs::BugTally;
use super::triage::{FailureKey, Triaged};
use super::{CaseGate, Pipeline, QuarantinedCase};

/// The tallies of one run, over however many windows it drives:
/// counts, a coverage map the size of the graph when the run writes its
/// own outputs, and the persistence problems met. Nothing here grows
/// with the number of cases driven.
#[derive(Default)]
pub(crate) struct Run {
    pub(super) cases_selected: usize,
    /// When the run began (before generation, when it generates).
    pub(super) run_start: Duration,
    /// When controlled testing began.
    pub(super) test_start: Duration,
    pub(super) passed: usize,
    pub(super) cases_run: usize,
    pub(super) quarantined: usize,
    pub(super) skipped_from_journal: usize,
    /// Confirmed failures by kind and by determinism.
    pub(super) bugs: BugTally,
    /// Non-fatal persistence problems (`PipelineResult::journal_issues`).
    pub(super) issues: Vec<String>,
    /// Per-edge/per-action hit counts over every case the run disposed
    /// of (run, journal-skipped or quarantined) — the overlay and the
    /// uncovered-edge listing come from this. `None` for a campaign
    /// worker's run, whose coverage the merge rebuilds from the plan.
    pub(super) coverage: Option<CoverageMap>,
}

/// What a closed window hands back besides the tallies: the evidence
/// behind its failed and quarantined cases, and how it ended.
#[derive(Default)]
pub(crate) struct WindowResult {
    pub(super) reports: Vec<BugReport>,
    pub(super) quarantined: Vec<QuarantinedCase>,
    pub(super) artifacts: Vec<PathBuf>,
    /// The case gate returned [`CaseGate::Stop`] inside this window.
    pub(crate) stopped_by_gate: bool,
}

/// The window's walk over its cases' prefix tree: the path of the
/// last case run, the resume points along it, `points[i]` the state
/// after its step `i` passed, and its trace (empty when untraced),
/// which holds every event up to each point's mark. A case starts from
/// the deepest point on its own path, or from a fresh deployment when
/// none is left.
#[derive(Default)]
struct Walk {
    path: Vec<EdgeId>,
    points: Vec<ResumePoint>,
    trace: Vec<CausalEvent>,
}

impl Walk {
    /// Where a case on `path` starts: a copy of the deepest point the
    /// two paths share, with `tracer` continued from the last case's
    /// trace at that point, or a fresh `make_sut()` deployment. Points
    /// past the shared prefix are dropped.
    fn start<F>(&mut self, path: &[EdgeId], make_sut: &mut F, tracer: &Tracer) -> CaseStart
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let shared = self.path.iter().zip(path).take_while(|(a, b)| a == b).count();
        self.points.truncate(shared);
        self.path.clear();
        self.path.extend_from_slice(path);
        match self.points.last().and_then(ResumePoint::copy) {
            Some(point) => {
                tracer.resume_from(&self.trace, point.trace_mark());
                CaseStart::Resume(point)
            }
            None => {
                self.points.clear();
                CaseStart::Fresh(make_sut())
            }
        }
    }
}

/// One open case window of `run` over `graph`.
pub(super) struct Window<'r> {
    pub(super) run: &'r mut Run,
    pub(super) graph: &'r StateGraph,
    /// Resume journal, when a campaign directory is configured.
    journal: Option<CampaignJournal>,
    /// `trace.jsonl`, when tracing is on and there is a directory.
    trace_path: Option<PathBuf>,
    walk: Walk,
    /// The triage of each failure key met so far (see
    /// [`triage`](super::triage)).
    pub(super) triaged: HashMap<FailureKey, Triaged>,
    pub(super) result: WindowResult,
}

impl Window<'_> {
    /// Folds one disposed case into the run's coverage map, if it keeps
    /// one.
    pub(super) fn cover(&mut self, path: &[EdgeId]) {
        if let Some(coverage) = self.run.coverage.as_mut() {
            coverage.record_case(
                path.iter().map(|e| e.0),
                path.iter().map(|&e| self.graph.edge(e).action.name.as_str()),
            );
        }
    }

    /// Journals a verdict; a failed append is an issue, not an abort.
    pub(super) fn journal_verdict(&mut self, entry: JournalEntry) {
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.record(entry) {
                self.run.issues.push(format!("journal append failed: {e}"));
            }
        }
    }
}

/// One materialized case on its way to a verdict.
pub(super) struct Case<'a> {
    pub(super) idx: usize,
    pub(super) path: &'a [EdgeId],
    pub(super) tc: TestCase,
    pub(super) hash: String,
    /// Actions the specification enables in the case's final state.
    pub(super) final_enabled: Vec<ActionInstance>,
}

impl Pipeline {
    /// A run with nothing tallied yet, beginning now, that keeps no
    /// coverage map.
    pub(crate) fn new_run(&self, cases_selected: usize) -> Run {
        let now = self.config.clock.now();
        Run {
            cases_selected,
            run_start: now,
            test_start: now,
            ..Run::default()
        }
    }

    /// Drives this pipeline's `case_range` of `paths` as one window of
    /// `run`, on the resume journal (taking `triage.campaign_dir`'s
    /// lock) and a fresh trace log. `Err` carries the message of a lock
    /// conflict — another live campaign owns the directory, and not a
    /// byte may be written into it.
    pub(crate) fn run_window<F>(
        &self,
        run: &mut Run,
        graph: &StateGraph,
        paths: &[Vec<EdgeId>],
        make_sut: &mut F,
    ) -> Result<WindowResult, String>
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let obs = &self.config.obs;
        // Resume: load the campaign journal (if a campaign directory
        // is configured) so previously completed cases are folded back
        // into the counters instead of re-run.
        let journal = match &self.config.triage.campaign_dir {
            Some(dir) => match CampaignJournal::open(dir) {
                Ok(j) => {
                    run.issues.extend(j.issues().iter().map(|i| format!("journal {i}")));
                    Some(j)
                }
                Err(locked @ JournalOpenError::Locked { .. }) => return Err(locked.to_string()),
                Err(e) => {
                    run.issues.push(format!("campaign journal unavailable: {e}"));
                    None
                }
            },
            None => None,
        };

        // Causal tracing (`--trace`): one batch of events per case
        // appended to `trace.jsonl` next to the replay artifacts
        // (campaign dir first, obs dir otherwise). The file is
        // truncated when the window opens so it always describes the
        // latest run — which makes same-seed `--sim` runs
        // byte-identical.
        let trace_path = if self.config.trace {
            let dir = self.config.triage.campaign_dir.as_deref().or(obs.dir());
            dir.map(|d| d.join(TRACE_FILE_NAME))
        } else {
            None
        };
        if let Some(tp) = &trace_path {
            if let Some(parent) = tp.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(e) = std::fs::write(tp, b"") {
                run.issues.push(format!("trace reset failed: {e}"));
            }
        }

        let mut window = Window {
            run,
            graph,
            journal,
            trace_path,
            walk: Walk::default(),
            triaged: HashMap::new(),
            result: WindowResult::default(),
        };
        let (start, end) = self.config.case_range.unwrap_or((0, paths.len()));
        for (idx, path) in paths.iter().enumerate().take(end).skip(start) {
            if self.drive_case(&mut window, idx, path, make_sut).is_break() {
                break;
            }
        }
        Ok(window.result)
    }

    /// Drives case `idx` (the edge path `path`) to its disposition:
    /// gate-skipped, journal-skipped, passed, failed or quarantined.
    /// `Break` ends the case loop (a gate stop, or the first bug when
    /// the run stops there).
    fn drive_case<F>(
        &self,
        w: &mut Window<'_>,
        idx: usize,
        path: &[EdgeId],
        make_sut: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let obs = &self.config.obs;
        let graph = w.graph;
        // Materialize one case at a time. An empty path carries no
        // actions to schedule (a fully-excluded initial node can
        // produce one upstream); skip it instead of panicking.
        let (Some(tc), Some(&last_edge)) = (TestCase::from_edge_path(graph, path), path.last())
        else {
            return Continue(());
        };
        let final_node = graph.edge(last_edge).to;
        let case = Case {
            idx,
            path,
            hash: tc.stable_hash(),
            tc,
            final_enabled: graph.enabled_at(final_node).into_iter().cloned().collect(),
        };

        // The gate runs before the journal lookup: a Stop (drain)
        // must take effect even while a resumed run is still
        // fast-forwarding through journaled cases.
        match self.config.case_gate.as_ref().map(|g| g(idx, &case.hash)) {
            None | Some(CaseGate::Run) => {}
            Some(CaseGate::Skip) => {
                self.verdict(idx, "skipped_gate", vec![]);
                obs.metrics().add("pipeline.cases_skipped_gate", 1);
                return Continue(());
            }
            Some(CaseGate::Stop) => {
                obs.event(
                    "run.stopped",
                    idx as u64,
                    vec![("case", idx.into()), ("reason", "gate".into())],
                );
                self.progress(format_args!("stopping at case {} on gate request", idx + 1));
                w.result.stopped_by_gate = true;
                return Break(());
            }
        }
        let journaled = w.journal.as_ref().and_then(|j| j.completed(&case.hash));
        if let Some(entry) = journaled {
            // A previous run of this campaign already reached a
            // verdict here; rebuild the counters and move on.
            // (Quarantined cases are never journaled, so they get
            // a fresh try on resume.)
            let passed = entry.outcome == CaseOutcome::Passed;
            w.run.skipped_from_journal += 1;
            w.run.cases_run += 1;
            w.cover(path);
            if passed {
                w.run.passed += 1;
            }
            self.verdict(idx, "skipped_journal", vec![]);
            obs.metrics().add("pipeline.cases_skipped_journal", 1);
            return Continue(());
        }

        obs.event(
            "case.start",
            idx as u64,
            vec![("case", idx.into()), ("len", case.tc.len().into())],
        );

        // A case runs once; the `attempt` field of its verdict event
        // and the journal's `attempts=` stay at 1 as format slots.
        let (outcome, stats) = self.attempt_case(w, &case, make_sut);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => {
                // A harness-side failure (an external action that could
                // not be triggered, a node lost outside the schedule):
                // no verdict about the implementation.
                w.cover(path);
                self.verdict(idx, "quarantined", vec![("attempt", 1usize.into())]);
                obs.metrics().add("pipeline.cases_quarantined", 1);
                self.progress(format_args!(
                    "case {}/{}: quarantined: {err}",
                    idx + 1,
                    w.run.cases_selected
                ));
                w.run.quarantined += 1;
                w.result.quarantined.push(QuarantinedCase {
                    test_case: case.tc,
                    error: err.to_string(),
                });
                return Continue(());
            }
        };
        obs.metrics().add("pipeline.cases_run", 1);
        obs.metrics()
            .observe("timing.profile.case_seconds", stats.seconds);
        w.run.cases_run += 1;
        match outcome {
            TestOutcome::Passed => {
                self.record_pass(w, &case);
                Continue(())
            }
            TestOutcome::Failed(inconsistency) => {
                let trace = std::mem::take(&mut w.walk.trace);
                self.dispose_failure(w, &case, inconsistency, &stats, &trace, make_sut);
                w.walk.trace = trace;
                if self.config.stop_at_first_bug {
                    Break(())
                } else {
                    Continue(())
                }
            }
        }
    }

    /// The one run of `case`, from the window's walk: the runner's
    /// verdict (or the harness error) and its tally, which goes into the
    /// run's metrics. The run's causal trace is appended to the window's
    /// trace log and becomes the walk's.
    fn attempt_case<F>(
        &self,
        w: &mut Window<'_>,
        case: &Case<'_>,
        make_sut: &mut F,
    ) -> (Result<TestOutcome, SutError>, RunStats)
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let obs = &self.config.obs;
        let tracer = if self.config.trace {
            // `vt` reads the run clock only when it is virtual. The
            // tracer's epoch is the runner's `started`: nothing charges
            // the clock in between.
            let clock = self.config.clock.clone();
            let now = clock.is_virtual().then(|| -> ClockReader {
                Box::new(move || clock.now().as_nanos() as u64)
            });
            let t = Tracer::for_case(case.idx as u64, now);
            t.set_edge_path(case.path.iter().map(|e| e.0 as u64).collect());
            t.begin_case(&case.hash);
            t
        } else {
            Tracer::disabled()
        };
        let start = w.walk.start(case.path, make_sut, &tracer);
        let ctx = RunCtx {
            clock: self.config.clock.clone(),
            tracer: tracer.clone(),
        };
        // A panicking SUT (or checker) must not take the staged
        // observability events down with it: flush the event log
        // before letting the unwind continue, so the triage evidence —
        // including this case's `case.start` — reaches events.jsonl.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            resume_test_case(
                start,
                &case.tc,
                &self.registry,
                &case.final_enabled,
                &self.config.run,
                &ctx,
            )
        }));
        let (outcome, stats) = match ran {
            Ok((outcome, stats, points)) => {
                w.walk.points.extend(points);
                (outcome, stats)
            }
            Err(payload) => {
                obs.flush();
                resume_unwind(payload);
            }
        };
        self.record_tally(&stats);
        if tracer.is_enabled() {
            let label = match &outcome {
                Ok(TestOutcome::Passed) => "passed",
                Ok(TestOutcome::Failed(inc)) => inc.kind(),
                Err(_) => "harness-error",
            };
            tracer.end_case(label);
            w.walk.trace = tracer.take_events();
            if let Some(tp) = &w.trace_path {
                if let Err(e) = append_trace(tp, &w.walk.trace) {
                    w.run.issues.push(format!("trace append failed: {e}"));
                }
            }
        }
        (outcome, stats)
    }

    /// Emits case `idx`'s `case.verdict` event: `case`, `outcome`,
    /// then `extra`.
    pub(super) fn verdict(
        &self,
        idx: usize,
        outcome: &str,
        extra: Vec<(&'static str, FieldValue)>,
    ) {
        let mut fields = vec![("case", idx.into()), ("outcome", outcome.into())];
        fields.extend(extra);
        self.config.obs.event("case.verdict", idx as u64, fields);
    }

    fn record_pass(&self, w: &mut Window<'_>, case: &Case<'_>) {
        let obs = &self.config.obs;
        w.run.passed += 1;
        w.cover(case.path);
        self.verdict(case.idx, "passed", vec![("attempt", 1usize.into())]);
        obs.metrics().add("pipeline.cases_passed", 1);
        self.progress(format_args!(
            "case {}/{}: passed",
            case.idx + 1,
            w.run.cases_selected
        ));
        w.journal_verdict(JournalEntry {
            hash: case.hash.clone(),
            attempts: 1,
            determinism: None,
            outcome: CaseOutcome::Passed,
        });
    }
}
