use super::*;
use crate::mapping::ActionBinding;
use crate::report::{Determinism, Inconsistency};
use crate::sut::{ExecReport, Offer, Snapshot, SutError};
use mocket_obs::{COVERAGE_FILE_NAME, UNCOVERED_FILE_NAME};
use mocket_tla::{ActionClass, ActionDef, ActionInstance, Value, VarClass, VarDef};
use std::panic::AssertUnwindSafe;

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
#[derive(Clone)]
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

/// A [`CounterSut`] that counts its deploys and executions and, when
/// `forks`, copies itself.
#[derive(Clone)]
struct CountedSut {
    inner: CounterSut,
    forks: bool,
    /// `[deploys, executes]`, shared by every copy.
    calls: Arc<[std::sync::atomic::AtomicUsize; 2]>,
}

impl SystemUnderTest for CountedSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.calls[0].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.deploy()
    }
    fn teardown(&mut self) {}
    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        self.inner.offers()
    }
    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        self.calls[1].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.execute(offer)
    }
    fn execute_external(&mut self, a: &ActionInstance) -> Result<ExecReport, SutError> {
        self.inner.execute_external(a)
    }
    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        self.inner.snapshot()
    }
    fn fork(&self) -> Option<Box<dyn SystemUnderTest>> {
        self.forks.then(|| Box::new(self.clone()) as Box<dyn SystemUnderTest>)
    }
}

/// A window walks its cases' prefix tree when the system forks: the
/// verdicts are the fresh runs', with fewer deployments and steps,
/// failing cases included. A fork-less system deploys once per case.
#[test]
fn a_forking_system_runs_the_window_as_its_prefix_tree() {
    for buggy in [false, true] {
        let run = |forks: bool| {
            let mut cfg = PipelineConfig::default();
            (cfg.por, cfg.stop_at_first_bug, cfg.max_path_len) = (false, false, 3);
            cfg.triage = TriageConfig::off();
            let p = Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap();
            let calls: Arc<[std::sync::atomic::AtomicUsize; 2]> = Arc::default();
            let sut = CountedSut {
                inner: CounterSut { n: 0, buggy },
                forks,
                calls: calls.clone(),
            };
            let result = p.run(|| Box::new(sut.clone()));
            let verdicts: Vec<_> = result
                .reports
                .iter()
                .map(|r| (r.test_case.clone(), r.inconsistency.kind(), r.actions_executed))
                .collect();
            let calls = calls.each_ref().map(|c| c.load(std::sync::atomic::Ordering::SeqCst));
            (result.passed, result.effort.cases_run, verdicts, calls)
        };
        let (passed, cases, verdicts, [deploys, executes]) = run(false);
        assert_eq!(cases, 2);
        assert_eq!(deploys, cases, "a fork-less system deploys once per case");
        let (walk_passed, walk_cases, walk_verdicts, [walk_deploys, walk_executes]) = run(true);
        assert_eq!((walk_passed, walk_cases, &walk_verdicts), (passed, cases, &verdicts));
        assert!(walk_deploys < deploys, "{walk_deploys} deploys of {cases} cases");
        assert!(walk_executes < executes, "{walk_executes} of {executes} executes");
    }
}

/// Delegates to a [`CounterSut`] but fails deployment with a harness
/// error — stands in for a testbed that cannot trigger its actions.
struct FlakySut {
    inner: CounterSut,
}

impl SystemUnderTest for FlakySut {
    fn deploy(&mut self) -> Result<(), SutError> {
        Err(SutError::External("testbed hiccup".into()))
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
fn harness_failure_is_quarantined_with_its_error() {
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), PipelineConfig::default()).unwrap();
    let result = p.run(|| {
        Box::new(FlakySut {
            inner: CounterSut { n: 0, buggy: false },
        })
    });
    // Every case is quarantined once; none reached a verdict, none
    // aborted the campaign.
    assert_eq!(result.quarantined.len(), result.cases_selected);
    assert_eq!(result.effort.cases_run, 0);
    assert!(result.reports.is_empty());
    for q in &result.quarantined {
        assert!(q.error.contains("testbed hiccup"), "{}", q.error);
    }
}

/// A conformant counter whose node dies on the first offer poll of the
/// first deployment only — an early death that a fresh deployment does
/// not repeat.
struct DiesOnceSut {
    inner: CounterSut,
    die: bool,
}

impl SystemUnderTest for DiesOnceSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.inner.deploy()
    }
    fn teardown(&mut self) {}
    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        if std::mem::take(&mut self.die) {
            return Err(SutError::NodeDeath {
                node: 1,
                reason: "died while booting".into(),
            });
        }
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
fn a_death_before_the_first_action_is_reported_and_classified() {
    let p = Pipeline::new(Arc::new(CounterSpec), registry(), PipelineConfig::default()).unwrap();
    let mut first = true;
    let result = p.run(|| {
        Box::new(DiesOnceSut {
            inner: CounterSut { n: 0, buggy: false },
            die: std::mem::take(&mut first),
        })
    });
    // The death is a verdict, and triage's confirmation re-runs (on
    // fresh deployments that do not die) classify it as flaky.
    assert_eq!(result.reports.len(), 1, "{:?}", result.reports);
    let report = &result.reports[0];
    assert!(
        matches!(report.inconsistency, Inconsistency::NodeDeath { step: 0, .. }),
        "{:?}",
        report.inconsistency
    );
    assert!(
        matches!(report.determinism, Determinism::Flaky { reproduced: 0, .. }),
        "{:?}",
        report.determinism
    );
    assert!(result.quarantined.is_empty());
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
    let sut = Box::new(CounterSut { n: 0, buggy: true });
    let (verdict, _) = crate::artifact::replay(&artifact, sut, &registry()).unwrap();
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
    let mut run = pipeline((a, b), &split_dir).new_run(paths.len());
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

/// A counter whose snapshot reads `offset` too high: with an offset,
/// every case fails its initial state check.
struct OffsetSut {
    inner: CounterSut,
    offset: i64,
}

impl SystemUnderTest for OffsetSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.inner.deploy()
    }
    fn teardown(&mut self) {}
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
        Ok(Snapshot::from_pairs([(
            "count",
            Value::Int(self.inner.n + self.offset),
        )]))
    }
}

/// The counter's cases up to 3 steps, run to the end; every case
/// starts with the one `Inc` out of the initial state.
fn every_case(range: Option<(usize, usize)>, dir: Option<&std::path::Path>) -> Pipeline {
    let mut cfg = PipelineConfig::default();
    (cfg.por, cfg.stop_at_first_bug, cfg.max_path_len) = (false, false, 3);
    cfg.case_range = range;
    cfg.triage.campaign_dir = dir.map(|d| d.to_path_buf());
    Pipeline::new(Arc::new(CounterSpec), registry(), cfg).unwrap()
}

/// A failure that reproduces on every other deployment is flaky, and a
/// flaky failure is never reused: each case with it is triaged on its
/// own, even when it shares its failure key with the case before.
#[test]
fn each_flaky_failure_is_triaged_on_its_own() {
    use super::triage::{failure_key, FLAKY_RERUNS};
    let p = every_case(None, None);
    let (graph, _) = p.check();
    let (paths, ..) = p.generate_paths(&graph);
    let mut deploys = 0i64;
    let result = p.run_prepared(graph, 0.0, || {
        deploys += 1;
        Box::new(OffsetSut {
            inner: CounterSut { n: 0, buggy: false },
            offset: deploys % 2,
        })
    });
    assert_eq!(
        result.reports.len(),
        paths.len(),
        "every case fails on its deployment"
    );
    let keys: Vec<_> = result
        .reports
        .iter()
        .zip(&paths)
        .map(|(r, path)| failure_key(path, &r.inconsistency))
        .collect();
    assert!(
        keys.len() >= 2 && keys.iter().all(|k| *k == keys[0]),
        "{keys:?}"
    );
    for r in &result.reports {
        assert_eq!(
            r.determinism,
            Determinism::Flaky {
                reproduced: 1,
                reruns: FLAKY_RERUNS
            }
        );
    }
    let m = p.obs().metrics();
    assert_eq!(
        m.counter("pipeline.triage_reruns"),
        (FLAKY_RERUNS * paths.len()) as u64
    );
    assert_eq!(m.counter("pipeline.triage_reused"), 0);
    assert_eq!(deploys as usize, (1 + FLAKY_RERUNS) * paths.len());
}

/// A window run as `[s, m)` and then `[s, e)` over one campaign
/// directory leaves the journal and the artifacts that `[s, e)` in one
/// go leaves: the resumed half keeps the reproducer the first half
/// wrote, although its own case reaches the same reproducer first.
#[test]
fn a_resumed_window_writes_the_bytes_of_one_window() {
    let whole_dir = temp_campaign_dir("triage-whole");
    let split_dir = temp_campaign_dir("triage-split");
    let probe = every_case(None, None);
    let (graph, _) = probe.check();
    let (paths, ..) = probe.generate_paths(&graph);
    let (s, e) = (0, paths.len());
    let m = s + 1;
    assert!(m < e, "need cases on both sides of the split, got {e}");
    assert_ne!(
        paths[s].len(),
        paths[m].len(),
        "the two halves' cases differ in length"
    );
    let make = || -> Box<dyn SystemUnderTest> {
        Box::new(OffsetSut {
            inner: CounterSut { n: 0, buggy: false },
            offset: 1,
        })
    };

    let whole = every_case(Some((s, e)), Some(&whole_dir)).run_prepared(graph.clone(), 0.0, make);
    assert_eq!(whole.reports.len(), e - s);
    assert_eq!(
        whole.artifacts.len(),
        1,
        "one reproducer: {:?}",
        whole.artifacts
    );
    let first = every_case(Some((s, m)), Some(&split_dir)).run_prepared(graph.clone(), 0.0, make);
    let resumed = every_case(Some((s, e)), Some(&split_dir)).run_prepared(graph, 0.0, make);
    assert_eq!(
        (first.reports.len(), resumed.skipped_from_journal),
        (m - s, m - s)
    );
    assert!(resumed.artifacts.is_empty(), "{:?}", resumed.artifacts);

    let files = |dir: &std::path::Path| -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name == crate::artifact::CampaignJournal::FILE_NAME || name.ends_with(".artifact")
            })
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        out.sort();
        out
    };
    let (whole_files, split_files) = (files(&whole_dir), files(&split_dir));
    assert_eq!(whole_files.len(), 2, "journal.log and one artifact");
    assert_eq!(whole_files, split_files);
    let artifact = crate::artifact::ReplayArtifact::load(&whole.artifacts[0]).unwrap();
    assert_eq!(
        artifact.original_len,
        paths[s].len(),
        "the first case wrote it"
    );
    let _ = std::fs::remove_dir_all(&whole_dir);
    let _ = std::fs::remove_dir_all(&split_dir);
}

/// A failure key is the path through the failing step, plus whether
/// the case runs on past it; a failure at test end keys on the whole
/// path.
#[test]
fn a_failure_key_cuts_the_path_at_its_failing_step() {
    use super::triage::failure_key;
    use mocket_checker::EdgeId;
    let path: Vec<EdgeId> = (0..4).map(EdgeId).collect();
    let at = |step| Inconsistency::MissingAction {
        step,
        action: ActionInstance::nullary("Inc"),
        offered: vec![],
    };
    assert_eq!(failure_key(&path, &at(1)), (path[..2].to_vec(), true));
    assert_eq!(failure_key(&path[..2], &at(1)), (path[..2].to_vec(), false));
    assert_eq!(failure_key(&path, &at(3)), (path.clone(), false));
    let unexpected = Inconsistency::UnexpectedAction {
        actions: vec![ActionInstance::nullary("Dec")],
    };
    assert_eq!(failure_key(&path, &unexpected), (path.clone(), false));
}
