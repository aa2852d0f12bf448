use super::*;
use crate::mapping::ActionBinding;
use crate::report::Determinism;
use crate::sut::{ExecReport, Offer, Snapshot, SutError};
use mocket_obs::{COVERAGE_FILE_NAME, UNCOVERED_FILE_NAME};
use mocket_tla::{ActionClass, ActionDef, ActionInstance, Value, VarClass, VarDef};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// Counter spec: Inc up to 2, Dec down to 0.
pub(crate) struct CounterSpec;

impl Spec for CounterSpec {
    fn name(&self) -> &str {
        "Counter"
    }
    fn variables(&self) -> Vec<VarDef> {
        vec![VarDef::new("n", VarClass::StateRelated)]
    }
    fn init_states(&self) -> Vec<State> {
        vec![State::from_pairs([("n", Value::Int(0))])]
    }
    fn actions(&self) -> Vec<ActionDef> {
        vec![
            ActionDef::nullary("Inc", ActionClass::SingleNode, |s| {
                let n = s.expect("n").expect_int();
                (n < 2).then(|| s.with("n", Value::Int(n + 1)))
            }),
            ActionDef::nullary("Dec", ActionClass::SingleNode, |s| {
                let n = s.expect("n").expect_int();
                (n > 0).then(|| s.with("n", Value::Int(n - 1)))
            }),
        ]
    }
}

/// A counter implementation with an optional off-by-one bug.
pub(crate) struct CounterSut {
    pub(crate) n: i64,
    pub(crate) buggy: bool,
}

impl SystemUnderTest for CounterSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.n = 0;
        Ok(())
    }
    fn teardown(&mut self) {}
    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        let mut v = Vec::new();
        if self.n < 2 {
            v.push(Offer {
                node: 1,
                action: ActionInstance::nullary("inc"),
            });
        }
        if self.n > 0 {
            v.push(Offer {
                node: 1,
                action: ActionInstance::nullary("dec"),
            });
        }
        Ok(v)
    }
    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        match offer.action.name.as_str() {
            "inc" => self.n += if self.buggy && self.n == 1 { 2 } else { 1 },
            "dec" => self.n -= 1,
            _ => unreachable!(),
        }
        Ok(ExecReport::default())
    }
    fn execute_external(&mut self, _: &ActionInstance) -> Result<ExecReport, SutError> {
        unreachable!()
    }
    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        Ok(Snapshot::from_pairs([("count", Value::Int(self.n))]))
    }
}

pub(crate) fn registry() -> MappingRegistry {
    let mut r = MappingRegistry::new();
    r.map_class_field("n", "count")
        .map_action("Inc", "inc", ActionClass::SingleNode, ActionBinding::Method)
        .map_action("Dec", "dec", ActionClass::SingleNode, ActionBinding::Method);
    r
}

#[test]
fn mapping_issues_fail_fast() {
    let err = Pipeline::new(
        Arc::new(CounterSpec),
        MappingRegistry::new(),
        PipelineConfig::default(),
    )
    .err()
    .expect("must fail");
    assert!(!err.is_empty());
}

#[test]
fn conformant_implementation_passes_all_cases() {
    let p =
        Pipeline::new(Arc::new(CounterSpec), registry(), PipelineConfig::default()).unwrap();
    let result = p
        .run(|| Box::new(CounterSut { n: 0, buggy: false }));
    assert!(result.reports.is_empty(), "{:?}", result.reports);
    assert_eq!(result.passed, result.effort.cases_run);
    assert!(result.effort.states >= 3);
    assert!(result.effort.paths_ec >= result.effort.paths_ec_por);
}

#[test]
fn buggy_implementation_is_caught() {
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p
        .run(|| Box::new(CounterSut { n: 0, buggy: true }));
    assert_eq!(result.reports.len(), 1);
    let report = &result.reports[0];
    assert_eq!(report.inconsistency.kind(), "Inconsistent state");
    assert_eq!(report.inconsistency.subject(), "n");
}

#[test]
fn por_can_miss_bugs_hidden_in_dropped_schedules() {
    // §7.2: commutativity in the state graph does not imply
    // commutativity in the implementation. The counter bug only
    // fires on the Inc-at-1 schedule, which POR happens to drop
    // here — the conformance run passes even though the
    // implementation is buggy.
    let p =
        Pipeline::new(Arc::new(CounterSpec), registry(), PipelineConfig::default()).unwrap();
    let result = p
        .run(|| Box::new(CounterSut { n: 0, buggy: true }));
    assert!(result.reports.is_empty());
}

#[test]
fn por_flag_reduces_case_count() {
    let with_por =
        Pipeline::new(Arc::new(CounterSpec), registry(), PipelineConfig::default()).unwrap();
    let (graph, _) = with_por.check();
    let (_, ec, ec_por, _) = with_por.generate(&graph);
    assert!(ec_por <= ec);
}

#[test]
fn max_test_cases_truncates() {
    let mut cfg = PipelineConfig::default();
    cfg.max_test_cases = 1;
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p
        .run(|| Box::new(CounterSut { n: 0, buggy: false }));
    assert_eq!(result.effort.cases_run, 1);
}

/// Delegates to a [`CounterSut`] but fails deployment on demand —
/// stands in for a flaky testbed (port exhaustion, slow teardown).
struct FlakySut {
    inner: CounterSut,
    fail_deploy: bool,
}

impl SystemUnderTest for FlakySut {
    fn deploy(&mut self) -> Result<(), SutError> {
        if self.fail_deploy {
            return Err(SutError::Deploy("testbed hiccup".into()));
        }
        self.inner.deploy()
    }
    fn teardown(&mut self) {
        self.inner.teardown()
    }
    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        self.inner.offers()
    }
    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        self.inner.execute(offer)
    }
    fn execute_external(&mut self, a: &ActionInstance) -> Result<ExecReport, SutError> {
        self.inner.execute_external(a)
    }
    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        self.inner.snapshot()
    }
}

#[test]
fn transient_deploy_failure_is_retried_not_fatal() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let mut cfg = PipelineConfig::default();
    cfg.retry = RetryPolicy {
        attempts: 2,
        backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let made = AtomicUsize::new(0);
    // Only the very first deployed cluster fails; the retry and
    // every later case succeed.
    let result = p.run(|| {
        let k = made.fetch_add(1, Ordering::SeqCst);
        Box::new(FlakySut {
            inner: CounterSut { n: 0, buggy: false },
            fail_deploy: k == 0,
        })
    });
    assert!(result.quarantined.is_empty(), "{:?}", result.quarantined);
    assert!(result.reports.is_empty());
    assert_eq!(result.passed, result.effort.cases_run);
    assert!(result.passed > 0);
}

#[test]
fn persistent_failure_is_quarantined_with_attempt_history() {
    let mut cfg = PipelineConfig::default();
    cfg.retry = RetryPolicy {
        attempts: 3,
        backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p.run(|| {
        Box::new(FlakySut {
            inner: CounterSut { n: 0, buggy: false },
            fail_deploy: true,
        })
    });
    // Every case exhausted its budget; none reached a verdict,
    // none aborted the campaign.
    assert_eq!(result.quarantined.len(), result.cases_selected);
    assert_eq!(result.effort.cases_run, 0);
    assert!(result.reports.is_empty());
    for q in &result.quarantined {
        assert_eq!(q.attempts.len(), 3);
        assert!(q.attempts[0].error.contains("testbed hiccup"));
    }
}

#[test]
fn bug_reports_record_the_revealing_attempt() {
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.retry = RetryPolicy::none();
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p.run(|| Box::new(CounterSut { n: 0, buggy: true }));
    assert_eq!(result.reports.len(), 1);
    assert_eq!(result.reports[0].attempt, 1);
}

fn temp_campaign_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mocket-pipeline-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn deterministic_failures_are_confirmed_and_minimized() {
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p.run(|| Box::new(CounterSut { n: 0, buggy: true }));
    assert_eq!(result.reports.len(), 1);
    let report = &result.reports[0];
    assert!(
        report.determinism.is_deterministic(),
        "{:?}",
        report.determinism
    );
    if let Some(min) = &report.minimized {
        assert!(min.len() < report.test_case.len());
        assert!(min.validate_against(&result.graph).is_ok());
    }
}

#[test]
fn triage_off_leaves_failures_unconfirmed() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.triage = TriageConfig::off();
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let made = AtomicUsize::new(0);
    let result = p.run(|| {
        made.fetch_add(1, Ordering::SeqCst);
        Box::new(CounterSut { n: 0, buggy: true })
    });
    assert_eq!(result.reports.len(), 1);
    assert_eq!(result.reports[0].determinism, Determinism::Unconfirmed);
    assert!(result.reports[0].minimized.is_none());
    // One deployment per case up to the revealing one — no
    // confirmation or shrinking re-runs.
    assert_eq!(made.load(Ordering::SeqCst), result.effort.cases_run);
}

#[test]
fn confirmed_failures_emit_replay_artifacts() {
    let dir = temp_campaign_dir("artifacts");
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.triage.campaign_dir = Some(dir.clone());
    cfg.triage.spec_config = "buggy counter".into();
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p.run(|| Box::new(CounterSut { n: 0, buggy: true }));
    assert_eq!(result.artifacts.len(), 1, "{:?}", result.journal_issues);
    let artifact = crate::artifact::ReplayArtifact::load(&result.artifacts[0]).unwrap();
    let report = &result.reports[0];
    assert_eq!(artifact.kind, report.inconsistency.kind());
    assert_eq!(artifact.spec, "Counter");
    assert_eq!(artifact.spec_config, "buggy counter");
    assert_eq!(artifact.original_len, report.test_case.len());
    assert!(artifact.test_case.len() <= report.test_case.len());
    // The stored reproducer replays to the same verdict in a
    // fresh SUT.
    let mut sut = CounterSut { n: 0, buggy: true };
    let (verdict, _) = crate::artifact::replay(&artifact, &mut sut, &registry()).unwrap();
    assert!(verdict.reproduced(), "{verdict:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bug_reports_carry_divergence_explanations() {
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p.run(|| Box::new(CounterSut { n: 0, buggy: true }));
    assert_eq!(result.reports.len(), 1);
    let report = &result.reports[0];
    let explanation = report
        .explanation
        .as_ref()
        .expect("inconsistent-state report must carry an explanation");
    assert!(!explanation.diffs.is_empty(), "per-variable diff missing");
    assert!(explanation.diffs.iter().any(|d| d.path.starts_with('n')));
    // The buggy counter jumps 1 -> 3 while the spec caps at 2, so
    // no verified state matches the observed value.
    let rendered = report.to_string();
    assert!(rendered.contains("Explanation:"), "{rendered}");
}

#[test]
fn campaign_writes_insight_artifacts() {
    let dir = temp_campaign_dir("insight");
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.triage.campaign_dir = Some(dir.clone());
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p.run(|| Box::new(CounterSut { n: 0, buggy: false }));
    assert!(result.reports.is_empty());
    // Full campaign, no POR: every edge is covered, the frontier
    // is empty.
    assert_eq!(result.coverage.uncovered_edges(), Vec::<usize>::new());
    assert!(result.frontier.is_empty(), "{:?}", result.frontier);

    let cov = std::fs::read_to_string(dir.join(COVERAGE_FILE_NAME)).unwrap();
    assert!(cov.contains("\"edges_covered\""));
    let listing = std::fs::read_to_string(dir.join(UNCOVERED_FILE_NAME)).unwrap();
    assert_eq!(
        mocket_obs::parse_uncovered_listing(&listing).unwrap(),
        Vec::<usize>::new()
    );
    let dot = std::fs::read_to_string(dir.join(COVERAGE_DOT_FILE_NAME)).unwrap();
    assert!(dot.contains("coverage overlay"));
    // The overlay is a valid importable DOT document.
    assert!(mocket_checker::from_dot(&dot).is_ok());
    let history = mocket_obs::CampaignHistory::open(&dir).unwrap();
    assert_eq!(history.records().len(), 1);
    assert_eq!(history.records()[0].spec, "Counter");
    assert_eq!(history.records()[0].uncovered_frontier_edges, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_campaign_reports_frontier_and_feeds_priority() {
    let dir = temp_campaign_dir("frontier");
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.max_test_cases = 1;
    cfg.max_path_len = 1;
    cfg.triage.campaign_dir = Some(dir.clone());
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let result = p.run(|| Box::new(CounterSut { n: 0, buggy: false }));
    assert!(
        !result.frontier.is_empty(),
        "a truncated campaign must expose an uncovered frontier"
    );
    // The listing round-trips into the next run's priority set.
    let listing = std::fs::read_to_string(dir.join(UNCOVERED_FILE_NAME)).unwrap();
    let priority = mocket_obs::parse_uncovered_listing(&listing).unwrap();
    assert!(!priority.is_empty());
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.priority_edges = priority.clone();
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let full = p.run(|| Box::new(CounterSut { n: 0, buggy: false }));
    // With the frontier prioritized and no truncation, the next
    // campaign covers those edges.
    for e in priority {
        assert!(full.coverage.hit(e) > 0, "priority edge {e} still uncovered");
    }
}

/// Panics in the middle of the first executed action — stands in
/// for application code blowing up under the harness.
struct PanickingSut;

impl SystemUnderTest for PanickingSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        Ok(())
    }
    fn teardown(&mut self) {}
    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        Ok(vec![Offer {
            node: 1,
            action: ActionInstance::nullary("inc"),
        }])
    }
    fn execute(&mut self, _: &Offer) -> Result<ExecReport, SutError> {
        panic!("application code exploded");
    }
    fn execute_external(&mut self, _: &ActionInstance) -> Result<ExecReport, SutError> {
        unreachable!()
    }
    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        Ok(Snapshot::from_pairs([("count", Value::Int(0))]))
    }
}

#[test]
fn panicking_case_still_lands_its_buffered_events() {
    let dir = temp_campaign_dir("panic-flush");
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.obs = mocket_obs::Obs::jsonl_in(&dir).unwrap();
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        p.run(|| Box::new(PanickingSut))
    }));
    assert!(outcome.is_err(), "the SUT panic must propagate");
    // The case.start event was buffered (< 64 events) when the
    // panic unwound the pipeline; the catch_unwind flush must have
    // landed it on disk anyway.
    let events =
        std::fs::read_to_string(dir.join(mocket_obs::EVENTS_FILE_NAME)).unwrap();
    assert!(
        events.contains("\"event\":\"case.start\""),
        "buffered events lost on unwind: {events}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_campaign_resumes_from_journal() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let dir = temp_campaign_dir("resume");

    // Straight-through baseline (no journal) for the totals.
    let mut base_cfg = PipelineConfig::default();
    base_cfg.por = false;
    base_cfg.max_path_len = 3;
    let baseline = Pipeline::new(Arc::new(CounterSpec), registry(), base_cfg)
        .unwrap()
        .run(|| Box::new(CounterSut { n: 0, buggy: false }));
    let interrupted_at = 1usize;
    assert!(baseline.effort.cases_run > interrupted_at);

    // "Interrupted" campaign: same ordering, stops early.
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.max_path_len = 3;
    cfg.max_test_cases = interrupted_at;
    cfg.triage.campaign_dir = Some(dir.clone());
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let first = p.run(|| Box::new(CounterSut { n: 0, buggy: false }));
    assert_eq!(first.effort.cases_run, interrupted_at);
    assert_eq!(first.skipped_from_journal, 0);

    // Resume with the full case set and the same campaign dir:
    // the completed cases are skipped, the totals match the
    // straight-through run.
    let mut cfg = PipelineConfig::default();
    cfg.por = false;
    cfg.max_path_len = 3;
    cfg.triage.campaign_dir = Some(dir.clone());
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
    let deployed = AtomicUsize::new(0);
    let resumed = p.run(|| {
        deployed.fetch_add(1, Ordering::SeqCst);
        Box::new(CounterSut { n: 0, buggy: false })
    });
    assert_eq!(resumed.skipped_from_journal, interrupted_at);
    assert_eq!(resumed.effort.cases_run, baseline.effort.cases_run);
    assert_eq!(resumed.passed, baseline.passed);
    assert_eq!(
        deployed.load(Ordering::SeqCst),
        baseline.effort.cases_run - interrupted_at,
        "resumed campaign must not redeploy finished cases"
    );
    assert!(resumed.journal_issues.is_empty(), "{:?}", resumed.journal_issues);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_windows_leave_the_journal_of_one_run() {
    let whole_dir = temp_campaign_dir("window-whole");
    let split_dir = temp_campaign_dir("window-split");
    let pipeline = |range: (usize, usize), dir: &std::path::Path| {
        let mut cfg = PipelineConfig::default();
        cfg.por = false;
        cfg.stop_at_first_bug = false;
        cfg.max_path_len = 3;
        cfg.case_range = Some(range);
        cfg.triage.campaign_dir = Some(dir.to_path_buf());
        Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap()
    };
    let mut make = || -> Box<dyn SystemUnderTest> { Box::new(CounterSut { n: 0, buggy: true }) };
    let (graph, _) = pipeline((0, 0), &whole_dir).check();
    let (paths, ..) = pipeline((0, 0), &whole_dir).generate_paths(&graph);
    let (a, m, b) = (0, 1, paths.len());
    assert!(m < b, "need at least two cases, got {b}");

    let whole = pipeline((a, b), &whole_dir).run_prepared(graph.clone(), 0.0, &mut make);
    assert_eq!(whole.effort.cases_run, b - a);
    assert!(!whole.reports.is_empty(), "the journal should hold a failed line");

    // The same cases as two windows of one run: nothing is generated,
    // nothing summarised, and the tallies carry over.
    let mut run = pipeline((a, b), &split_dir).new_run(&graph, paths.len());
    let mut reports = 0;
    for range in [(a, m), (m, b)] {
        let window = pipeline(range, &split_dir)
            .run_window(&mut run, &graph, &paths, &mut make)
            .expect("the first window released the journal lock");
        assert!(!window.stopped_by_gate);
        reports += window.reports.len();
    }
    assert_eq!(run.cases_run, whole.effort.cases_run);
    assert_eq!(run.passed, whole.passed);
    assert_eq!(reports, whole.reports.len());
    let journal = |dir: &std::path::Path| {
        std::fs::read(dir.join(crate::artifact::CampaignJournal::FILE_NAME)).unwrap()
    };
    assert_eq!(journal(&split_dir), journal(&whole_dir));
    assert!(
        !split_dir.join(mocket_obs::RUN_SUMMARY_FILE_NAME).exists(),
        "a window writes no summary"
    );
    assert!(whole_dir.join(mocket_obs::RUN_SUMMARY_FILE_NAME).exists());
    let _ = std::fs::remove_dir_all(&whole_dir);
    let _ = std::fs::remove_dir_all(&split_dir);
}
