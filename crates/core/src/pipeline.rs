//! The end-to-end Mocket pipeline (Figure 3).
//!
//! ① map the specification (a [`MappingRegistry`]), ② model-check it
//! into a state-space graph, ③ generate test cases by edge-coverage
//! traversal with optional partial-order reduction, ④ run controlled
//! testing against the system under test, collecting bug reports.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use mocket_sim::{Clock, RealClock};

use mocket_obs::causal::{append_trace, CausalEvent, Tracer, TRACE_FILE_NAME};
use mocket_obs::{
    CampaignHistory, CampaignRecord, CoverageMap, Obs, RunSummary, COVERAGE_FILE_NAME,
    UNCOVERED_FILE_NAME,
};
use mocket_tla::{ActionInstance, Spec, State};

use mocket_checker::{to_dot_overlay, uncovered_frontier, EdgeId, ModelChecker, StateGraph};

use crate::artifact::{
    CampaignJournal, CaseOutcome, JournalEntry, JournalOpenError, ReplayArtifact,
};
use crate::explain::{explain_failure, ExplainConfig};
use crate::mapping::{MappingIssue, MappingRegistry};
use crate::minimize::{minimize_case, MinimizeConfig};
use crate::por::partial_order_reduction;
use crate::report::{BugClass, BugReport, Determinism, Inconsistency};
use crate::runner::{run_test_case, RunConfig, RunCtx, TestOutcome};
use crate::sut::SystemUnderTest;
use crate::testcase::TestCase;
use crate::traversal::{edge_coverage_paths, TraversalConfig};

/// File name of the coverage-annotated DOT overlay inside a campaign
/// directory.
pub const COVERAGE_DOT_FILE_NAME: &str = "coverage.dot";

/// The unified retry policy (re-exported from [`crate::fsio`]).
///
/// One shape covers every transient-failure loop in the harness:
/// per-case SUT retries here in the pipeline (a deploy that loses the
/// race with teardown, a dropped control channel — not findings about
/// the system under test), supervisor worker restarts, lease steals,
/// and fault-injectable filesystem writes. Only cases that fail
/// *persistently* for harness-side reasons are quarantined.
pub use crate::fsio::RetryPolicy;

/// One failed attempt at running a test case.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// What went wrong, rendered for the report.
    pub error: String,
    /// Wall-clock duration of the attempt in seconds.
    pub seconds: f64,
}

/// A test case the pipeline gave up on for harness-side reasons: it
/// neither passed nor produced a verdict about the implementation.
/// Quarantined cases are surfaced in the result so a campaign summary
/// can never silently under-report coverage.
#[derive(Debug, Clone)]
pub struct QuarantinedCase {
    /// The case that could not be driven to a verdict.
    pub test_case: TestCase,
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

/// Failure-triage configuration: confirm & classify, shrink,
/// persist, resume.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Re-run every failure once with the identical seed/config to
    /// confirm it, classifying it deterministic or flaky.
    pub confirm: bool,
    /// Total re-runs used to measure the repro rate of a failure whose
    /// first confirmation re-run diverged (>= 1).
    pub flaky_reruns: usize,
    /// Delta-debugging budget for shrinking confirmed-deterministic
    /// failures (`max_oracle_runs: 0` disables shrinking).
    pub minimize: MinimizeConfig,
    /// Campaign directory: when set, every confirmed failure is
    /// persisted as a replay artifact here, and the campaign journal
    /// (`journal.log`) makes the run resumable — completed cases are
    /// skipped on restart.
    pub campaign_dir: Option<PathBuf>,
    /// Free-form spec/model identity recorded in artifacts (servers,
    /// bug flags, bounds).
    pub spec_config: String,
    /// Serialized fault-plan identity (`dsnet` `FaultPlan::serialize`)
    /// recorded in artifacts, opaque to this crate. The campaign's
    /// `make_sut` is responsible for actually installing it.
    pub fault_plan: Option<String>,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            confirm: true,
            flaky_reruns: 3,
            minimize: MinimizeConfig::default(),
            campaign_dir: None,
            spec_config: String::new(),
            fault_plan: None,
        }
    }
}

impl TriageConfig {
    /// PR-1 behavior: no confirmation re-runs, no shrinking, no
    /// persistence.
    pub fn off() -> Self {
        TriageConfig {
            confirm: false,
            minimize: MinimizeConfig { max_oracle_runs: 0 },
            ..TriageConfig::default()
        }
    }
}

/// Per-case verdict from a [`PipelineConfig::case_gate`] hook,
/// consulted at every case boundary before any journal lookup or SUT
/// deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseGate {
    /// Dispose of the case normally.
    Run,
    /// Skip this case without a verdict (it stays un-journaled and can
    /// be retried by a later run) — how the orchestrator masks
    /// quarantined poison cases.
    Skip,
    /// Stop the whole run at this boundary — how a drain request ends
    /// a worker mid-shard without losing the in-flight journal state.
    Stop,
}

/// Pipeline configuration.
pub struct PipelineConfig {
    /// Bound on distinct states during model checking.
    pub max_states: usize,
    /// Apply partial-order reduction before traversal.
    pub por: bool,
    /// End-state predicate for the traversal (developer-specified).
    pub end_state: Option<Arc<dyn Fn(&State) -> bool + Send + Sync>>,
    /// Developer-specified test-case filter (the §4.2.1 idea of
    /// focusing testing, applied to whole cases): receives the case's
    /// action-name sequence; only matching cases are executed (and
    /// materialized). `None` runs everything.
    pub case_filter: Option<Arc<dyn Fn(&[&str]) -> bool + Send + Sync>>,
    /// Cap on generated test cases actually run (0 = all).
    pub max_test_cases: usize,
    /// Half-open case-index window `[start, end)` to execute; cases
    /// outside it are not materialized at all. `None` runs everything.
    /// This is how a campaign worker runs exactly its shard of the
    /// shared plan while keeping case indices (and thus hashes,
    /// events and coverage attribution) globally consistent.
    pub case_range: Option<(usize, usize)>,
    /// Per-case gate, called with `(case_index, stable_hash)` after
    /// the case is materialized but before the journal is consulted or
    /// a SUT is deployed. The orchestrator uses it to honor drain
    /// requests, mask poison cases, and record the in-flight case in
    /// its shard lease (so a crash is attributed to the right case).
    pub case_gate: Option<Arc<dyn Fn(usize, &str) -> CaseGate + Send + Sync>>,
    /// Cap on a single test case's length (0 = unbounded). Real
    /// deployments always bound this — an unbounded DFS descent
    /// through a cyclic state graph yields arbitrarily long walks.
    pub max_path_len: usize,
    /// Stop at the first bug report.
    pub stop_at_first_bug: bool,
    /// Controlled-run configuration.
    pub run: RunConfig,
    /// Retry policy for transient harness failures.
    pub retry: RetryPolicy,
    /// Failure triage: confirm, shrink, persist, resume.
    pub triage: TriageConfig,
    /// Divergence-explainer bounds: every inconsistent-state and
    /// unexpected-action report carries a per-variable diff and a
    /// nearest-verified-state verdict computed within these bounds.
    pub explain: ExplainConfig,
    /// Edge indices the traversal should cover first — typically fed
    /// from the previous run's uncovered-edge listing
    /// (`uncovered-edges.txt`, parsed by
    /// [`mocket_obs::parse_uncovered_listing`]). Out-of-range indices
    /// are ignored; empty leaves the traversal untouched.
    pub priority_edges: Vec<usize>,
    /// Observability handle. Defaults to disabled (events are
    /// dropped); metrics still accumulate either way, so the run
    /// summary is always complete. Use [`Obs::jsonl_in`] to stream
    /// `events.jsonl` into a campaign directory.
    pub obs: Obs,
    /// Record a causal trace per executed case (`--trace`): scheduler
    /// releases, node-step spans and message fates land in
    /// `trace.jsonl` next to the replay artifacts, and failing cases
    /// embed their trace in the artifact. Off by default — the
    /// disabled tracer is the fast no-op path.
    pub trace: bool,
    /// Render human-readable progress lines to stderr (the CLI's
    /// `--progress`). Independent of `obs`: progress is for watching,
    /// events are for machines.
    pub progress: bool,
    /// The clock every stage counts time on. Defaults to the wall
    /// clock; a simulation run installs a shared
    /// [`mocket_sim::SimClock`] here (and in the cluster backend) so
    /// deadlines, backoffs and all `timing.*`/`wall_*` figures are
    /// virtual — the same seed then yields byte-identical summaries.
    pub clock: Arc<dyn Clock>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_states: 1_000_000,
            por: true,
            end_state: None,
            case_filter: None,
            max_test_cases: 0,
            case_range: None,
            case_gate: None,
            max_path_len: 0,
            stop_at_first_bug: true,
            run: RunConfig::default(),
            retry: RetryPolicy::default(),
            triage: TriageConfig::default(),
            explain: ExplainConfig::default(),
            priority_edges: Vec::new(),
            obs: Obs::disabled(),
            trace: false,
            progress: false,
            clock: Arc::new(RealClock::new()),
        }
    }
}

/// Table 3-style effort numbers for one system.
#[derive(Debug, Clone, Default)]
pub struct TestingEffort {
    /// Distinct states in the state-space graph (`State` column).
    pub states: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Paths generated with edge coverage only (`PathEC`).
    pub paths_ec: usize,
    /// Paths with edge coverage + POR (`PathEC+POR`).
    pub paths_ec_por: usize,
    /// Edges excluded by POR.
    pub por_excluded_edges: usize,
    /// Test cases actually executed.
    pub cases_run: usize,
    /// Total controlled-testing time in seconds (`Time`).
    pub test_seconds: f64,
    /// Model-checking time in seconds.
    pub check_seconds: f64,
}

impl TestingEffort {
    /// Fraction of EC paths removed by POR (the paper reports 87% for
    /// ZooKeeper).
    pub fn por_reduction(&self) -> f64 {
        if self.paths_ec == 0 {
            0.0
        } else {
            1.0 - self.paths_ec_por as f64 / self.paths_ec as f64
        }
    }
}

/// Result of a full pipeline run.
pub struct PipelineResult {
    /// The state-space graph from model checking.
    pub graph: StateGraph,
    /// Number of test cases selected for execution (cases are
    /// materialized lazily, one at a time; revealing cases are kept
    /// inside their bug reports).
    pub cases_selected: usize,
    /// Bug reports from controlled testing.
    pub reports: Vec<BugReport>,
    /// Cases abandoned for harness-side reasons after exhausting
    /// their attempt budget (neither passed nor failed).
    pub quarantined: Vec<QuarantinedCase>,
    /// Effort statistics.
    pub effort: TestingEffort,
    /// Test cases that passed.
    pub passed: usize,
    /// Cases skipped because the campaign journal already recorded a
    /// verdict for them (their verdicts are folded into `passed` /
    /// `effort.cases_run`).
    pub skipped_from_journal: usize,
    /// Replay artifacts written this run (one per confirmed failure,
    /// when a campaign directory is configured).
    pub artifacts: Vec<PathBuf>,
    /// Non-fatal persistence problems: malformed journal lines,
    /// failed appends, failed artifact writes. Surfaced, never
    /// aborting the campaign.
    pub journal_issues: Vec<String>,
    /// The end-of-run summary (also written as `run-summary.json` when
    /// an obs or campaign directory is configured).
    pub summary: RunSummary,
    /// Per-edge/per-action hit counts over the campaign (also written
    /// as `coverage.json`, `coverage.dot` and `uncovered-edges.txt`
    /// when an obs or campaign directory is configured).
    pub coverage: CoverageMap,
    /// Enabled-but-never-scheduled edges: the uncovered frontier the
    /// next campaign should prioritize.
    pub frontier: Vec<EdgeId>,
    /// Set when the run aborted before executing anything because the
    /// campaign directory's journal is locked by another live process
    /// (the satellite fail-fast: two campaigns must never interleave
    /// appends). Nothing was written to the locked directory.
    pub lock_conflict: Option<String>,
    /// The case gate returned [`CaseGate::Stop`]: the run ended early
    /// at a case boundary (a drain), leaving later cases untouched.
    pub stopped_by_gate: bool,
}

/// Folds one disposed case (run, journal-skipped or quarantined) into
/// the campaign coverage map.
fn record_case_coverage(coverage: &mut CoverageMap, graph: &StateGraph, path: &[EdgeId]) {
    coverage.record_case(
        path.iter().map(|e| e.0),
        path.iter().map(|&e| graph.edge(e).action.name.as_str()),
    );
}

/// The Mocket pipeline for one specification + mapping + target.
pub struct Pipeline {
    spec: Arc<dyn Spec>,
    registry: MappingRegistry,
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline; fails fast on mapping issues (§5.4's
    /// developer errors are caught before any testing time is spent).
    pub fn new(
        spec: Arc<dyn Spec>,
        registry: MappingRegistry,
        config: PipelineConfig,
    ) -> Result<Self, Vec<MappingIssue>> {
        let issues = registry.validate(spec.as_ref());
        if issues.is_empty() {
            Ok(Pipeline {
                spec,
                registry,
                config,
            })
        } else {
            Err(issues)
        }
    }

    /// The mapping registry.
    pub fn registry(&self) -> &MappingRegistry {
        &self.registry
    }

    /// Stage ②: model checking.
    pub fn check(&self) -> (StateGraph, f64) {
        let start = self.config.clock.now();
        let result = ModelChecker::new(self.spec.clone())
            .max_states(self.config.max_states)
            .obs(self.config.obs.clone())
            .clock(self.config.clock.clone())
            .run();
        let seconds = self.config.clock.now().saturating_sub(start).as_secs_f64();
        self.config
            .obs
            .metrics()
            .observe("timing.stage.check_seconds", seconds);
        (result.graph, seconds)
    }

    /// Stage ③ (path form): selected edge paths plus
    /// `(paths_ec, paths_ec_por, excluded_edges)`. Test cases are
    /// materialized from paths lazily — a large model's full case set
    /// does not fit in memory as states.
    pub fn generate_paths(
        &self,
        graph: &StateGraph,
    ) -> (Vec<Vec<mocket_checker::EdgeId>>, usize, usize, usize) {
        // Uncovered edges from a previous campaign steer this one's
        // walk order (stale out-of-range indices are dropped).
        let priority: std::collections::HashSet<EdgeId> = self
            .config
            .priority_edges
            .iter()
            .filter(|&&e| e < graph.edge_count())
            .map(|&e| EdgeId(e))
            .collect();

        // Plain edge coverage (for the Table 3 comparison).
        let mut plain = TraversalConfig::default().with_priority_edges(priority.clone());
        plain.max_path_len = self.config.max_path_len;
        if let Some(end) = self.config.end_state.clone() {
            plain = plain.with_end_state(move |s| end(s));
        }
        let ec = edge_coverage_paths(graph, &plain);

        let por = partial_order_reduction(graph);
        let por_excluded = por.excluded_edges.len();
        let mut reduced_cfg = TraversalConfig::default()
            .with_excluded_edges(por.excluded_edges)
            .with_priority_edges(priority);
        reduced_cfg.max_path_len = self.config.max_path_len;
        if let Some(end) = self.config.end_state.clone() {
            reduced_cfg = reduced_cfg.with_end_state(move |s| end(s));
        }
        let reduced = edge_coverage_paths(graph, &reduced_cfg);

        let ec_count = ec.paths.len();
        let reduced_count = reduced.paths.len();
        let chosen = if self.config.por { reduced } else { ec };
        // Coverage gauges are set from the *chosen* traversal — the one
        // the summary's `coverage` field must match exactly. Gauges,
        // not counters: re-running generate_paths must not accumulate.
        let m = self.config.obs.metrics();
        m.set_gauge("coverage.edges_visited", chosen.edges_visited as f64);
        m.set_gauge("coverage.edge_targets", chosen.edge_targets as f64);
        m.set_gauge("coverage.fraction", chosen.edge_coverage());
        m.set_gauge("pipeline.paths_ec", ec_count as f64);
        m.set_gauge("pipeline.paths_ec_por", reduced_count as f64);
        m.set_gauge("pipeline.por_excluded_edges", por_excluded as f64);
        // Filter on cheap action-name views; cases are materialized
        // later, one at a time.
        let mut selected: Vec<Vec<mocket_checker::EdgeId>> = chosen
            .paths
            .into_iter()
            .filter(|p| !p.is_empty())
            .filter(|p| match &self.config.case_filter {
                None => true,
                Some(filter) => {
                    let names: Vec<&str> = p
                        .iter()
                        .map(|&e| graph.edge(e).action.name.as_str())
                        .collect();
                    filter(&names)
                }
            })
            .collect();
        if self.config.max_test_cases != 0 && selected.len() > self.config.max_test_cases {
            selected.truncate(self.config.max_test_cases);
        }
        (selected, ec_count, reduced_count, por_excluded)
    }

    /// Stage ③ (materialized form, for small models and the examples):
    /// the selected test cases plus `(paths_ec, paths_ec_por,
    /// excluded_edges)`.
    pub fn generate(&self, graph: &StateGraph) -> (Vec<TestCase>, usize, usize, usize) {
        let (paths, ec, ecpor, excl) = self.generate_paths(graph);
        let cases = paths
            .iter()
            .filter_map(|p| TestCase::from_edge_path(graph, p))
            .collect();
        (cases, ec, ecpor, excl)
    }

    /// Stage ④: controlled testing of the generated cases.
    ///
    /// `make_sut` deploys a fresh system per call; a new cluster is
    /// used for every test case (§4.3.2).
    ///
    /// The campaign always runs to completion (or to
    /// `stop_at_first_bug`): a single misbehaving case can no longer
    /// abort the whole run. Transient harness failures are retried
    /// per [`RetryPolicy`]; cases that stay undrivable are
    /// quarantined with their attempt history.
    pub fn run<F>(&self, make_sut: F) -> PipelineResult
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let obs = self.config.obs.clone();
        obs.event(
            "run.start",
            0,
            vec![
                ("spec", self.spec.name().into()),
                ("max_states", self.config.max_states.into()),
                ("por", self.config.por.into()),
            ],
        );
        self.progress(format_args!(
            "spec {}: model checking (max {} states)",
            self.spec.name(),
            self.config.max_states
        ));

        let (graph, check_seconds) = self.check();
        self.run_prepared(graph, check_seconds, make_sut)
    }

    /// Stage ④ against an already-checked graph. Campaign workers
    /// model-check once per process and then drive one shard at a time
    /// through this entry point; `check_seconds` is folded into the
    /// reported wall totals.
    pub fn run_prepared<F>(
        &self,
        graph: StateGraph,
        check_seconds: f64,
        mut make_sut: F,
    ) -> PipelineResult
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let obs = self.config.obs.clone();
        let run_start = self.config.clock.now();
        let (paths, paths_ec, paths_ec_por, por_excluded) = self.generate_paths(&graph);
        let cases_selected = paths.len();

        let m = obs.metrics();
        obs.event(
            "generate.done",
            0,
            vec![
                ("states", graph.state_count().into()),
                ("edges", graph.edge_count().into()),
                ("cases_selected", cases_selected.into()),
                ("paths_ec", paths_ec.into()),
                ("paths_ec_por", paths_ec_por.into()),
                ("por_excluded", por_excluded.into()),
                (
                    "coverage_visited",
                    (m.gauge("coverage.edges_visited").unwrap_or(0.0) as u64).into(),
                ),
                (
                    "coverage_targets",
                    (m.gauge("coverage.edge_targets").unwrap_or(0.0) as u64).into(),
                ),
            ],
        );
        self.progress(format_args!(
            "{} states, {} edges; {} cases selected (edge coverage {:.1}%)",
            graph.state_count(),
            graph.edge_count(),
            cases_selected,
            m.gauge("coverage.fraction").unwrap_or(0.0) * 100.0
        ));

        let mut reports = Vec::new();
        let mut quarantined = Vec::new();
        let mut passed = 0usize;
        let test_start = self.config.clock.now();
        let mut cases_run = 0usize;
        let mut skipped_from_journal = 0usize;
        let mut artifacts: Vec<PathBuf> = Vec::new();
        let mut journal_issues: Vec<String> = Vec::new();
        // Per-edge/per-action hit counts over every case the campaign
        // disposed of (run, journal-skipped or quarantined) — the
        // overlay and the uncovered-edge listing come from this.
        let mut coverage = CoverageMap::new(graph.edge_count());

        // Resume: load the campaign journal (if a campaign directory
        // is configured) and fold previously completed cases back into
        // the coverage counters instead of re-running them.
        let mut journal = match &self.config.triage.campaign_dir {
            Some(dir) => match CampaignJournal::open(dir) {
                Ok(j) => {
                    journal_issues.extend(j.issues().iter().map(|i| i.to_string()));
                    Some(j)
                }
                Err(locked @ JournalOpenError::Locked { .. }) => {
                    // Another live campaign owns this directory. Abort
                    // before deploying anything and before writing a
                    // single byte into the contested directory —
                    // interleaved appends would corrupt both campaigns.
                    let message = locked.to_string();
                    obs.event(
                        "run.aborted",
                        0,
                        vec![
                            ("reason", "campaign_dir_locked".into()),
                            ("detail", message.clone().into()),
                        ],
                    );
                    self.progress(format_args!("aborted: {message}"));
                    obs.flush();
                    let edge_count = graph.edge_count();
                    return PipelineResult {
                        cases_selected,
                        reports: Vec::new(),
                        quarantined: Vec::new(),
                        effort: TestingEffort {
                            states: graph.state_count(),
                            edges: edge_count,
                            paths_ec,
                            paths_ec_por,
                            por_excluded_edges: por_excluded,
                            cases_run: 0,
                            test_seconds: 0.0,
                            check_seconds,
                        },
                        passed: 0,
                        skipped_from_journal: 0,
                        artifacts: Vec::new(),
                        journal_issues: vec![message.clone()],
                        summary: RunSummary {
                            spec: self.spec.name().to_string(),
                            states: graph.state_count() as u64,
                            edges: edge_count as u64,
                            journal_issues: 1,
                            ..RunSummary::default()
                        },
                        coverage: CoverageMap::new(edge_count),
                        frontier: Vec::new(),
                        graph,
                        lock_conflict: Some(message),
                        stopped_by_gate: false,
                    };
                }
                Err(e) => {
                    journal_issues.push(format!("campaign journal unavailable: {e}"));
                    None
                }
            },
            None => None,
        };

        // Causal tracing (`--trace`): one batch of events per attempt
        // appended to `trace.jsonl` next to the replay artifacts
        // (campaign dir first, obs dir otherwise). The file is
        // truncated at run start so it always describes the latest
        // run — which makes same-seed `--sim` runs byte-identical.
        let trace_path = if self.config.trace {
            self.config
                .triage
                .campaign_dir
                .clone()
                .or_else(|| obs.dir().map(|d| d.to_path_buf()))
                .map(|d| d.join(TRACE_FILE_NAME))
        } else {
            None
        };
        if let Some(tp) = &trace_path {
            if let Some(parent) = tp.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(e) = std::fs::write(tp, b"") {
                journal_issues.push(format!("trace reset failed: {e}"));
            }
        }

        let mut stopped_by_gate = false;
        'cases: for (case_idx, path) in paths.iter().enumerate() {
            if let Some((start, end)) = self.config.case_range {
                if case_idx < start {
                    continue 'cases;
                }
                if case_idx >= end {
                    break 'cases;
                }
            }
            // Materialize one case at a time. An empty path carries no
            // actions to schedule (a fully-excluded initial node can
            // produce one upstream); skip it instead of panicking.
            let (Some(tc), Some(&last_edge)) = (TestCase::from_edge_path(&graph, path), path.last())
            else {
                continue 'cases;
            };
            let final_node = graph.edge(last_edge).to;
            let final_enabled: Vec<ActionInstance> =
                graph.enabled_at(final_node).into_iter().cloned().collect();

            let hash = tc.stable_hash();
            // The gate runs before the journal lookup: a Stop (drain)
            // must take effect even while a resumed run is still
            // fast-forwarding through journaled cases.
            match self.config.case_gate.as_ref().map(|g| g(case_idx, &hash)) {
                None | Some(CaseGate::Run) => {}
                Some(CaseGate::Skip) => {
                    obs.event(
                        "case.verdict",
                        case_idx as u64,
                        vec![("case", case_idx.into()), ("outcome", "skipped_gate".into())],
                    );
                    obs.metrics().add("pipeline.cases_skipped_gate", 1);
                    continue 'cases;
                }
                Some(CaseGate::Stop) => {
                    obs.event(
                        "run.stopped",
                        case_idx as u64,
                        vec![("case", case_idx.into()), ("reason", "gate".into())],
                    );
                    self.progress(format_args!(
                        "stopping at case {} on gate request",
                        case_idx + 1
                    ));
                    stopped_by_gate = true;
                    break 'cases;
                }
            }
            if let Some(entry) = journal.as_ref().and_then(|j| j.completed(&hash)) {
                // A previous run of this campaign already reached a
                // verdict here; rebuild the counters and move on.
                // (Quarantined cases are never journaled, so they get
                // a fresh try on resume.)
                skipped_from_journal += 1;
                cases_run += 1;
                record_case_coverage(&mut coverage, &graph, path);
                if entry.outcome == CaseOutcome::Passed {
                    passed += 1;
                }
                obs.event(
                    "case.verdict",
                    case_idx as u64,
                    vec![
                        ("case", case_idx.into()),
                        ("outcome", "skipped_journal".into()),
                    ],
                );
                obs.metrics().add("pipeline.cases_skipped_journal", 1);
                continue;
            }

            obs.event(
                "case.start",
                case_idx as u64,
                vec![("case", case_idx.into()), ("len", tc.len().into())],
            );

            let max_attempts = self.config.retry.attempts.max(1);
            let mut attempts: Vec<AttemptRecord> = Vec::new();
            let mut verdict_reached = false;
            let mut trace_events: Vec<CausalEvent> = Vec::new();
            for attempt in 1..=max_attempts {
                if attempt > 1 {
                    // Exponential backoff: transient conditions (a
                    // slow teardown, an exhausted port) need time.
                    self.config
                        .clock
                        .sleep(self.config.retry.delay(attempt - 2, false));
                }
                // Fresh tracer per attempt: a retried case must not
                // leak the aborted attempt's events into its trace.
                let tracer = if self.config.trace {
                    let t = Tracer::for_case(case_idx as u64);
                    t.set_edge_path(path.iter().map(|e| e.0 as u64).collect());
                    t.begin_case(&hash, 0);
                    t
                } else {
                    Tracer::disabled()
                };
                let mut sut = make_sut();
                let ctx = RunCtx {
                    clock: self.config.clock.clone(),
                    obs: obs.clone(),
                    tracer: tracer.clone(),
                };
                // A panicking SUT (or checker) must not take the
                // buffered observability events down with it: drain the
                // recorder before letting the unwind continue, so the
                // triage evidence — including this case's `case.start`
                // — reaches events.jsonl.
                let attempt_outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_test_case(
                        sut.as_mut(),
                        &tc,
                        &self.registry,
                        &final_enabled,
                        &self.config.run,
                        &ctx,
                    )
                }));
                let attempt_outcome = match attempt_outcome {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        obs.flush();
                        resume_unwind(payload);
                    }
                };
                if tracer.is_enabled() {
                    let label = match &attempt_outcome {
                        Ok((TestOutcome::Passed, _)) => "passed",
                        Ok((TestOutcome::Failed(inc), _)) => inc.kind(),
                        Err(_) => "harness-error",
                    };
                    tracer.end_case(label, 0);
                    trace_events = tracer.take_events();
                    if let Some(tp) = &trace_path {
                        if let Err(e) = append_trace(tp, &trace_events) {
                            journal_issues.push(format!("trace append failed: {e}"));
                        }
                    }
                }
                match attempt_outcome {
                    Ok((outcome, stats)) => {
                        verdict_reached = true;
                        cases_run += 1;
                        obs.metrics().add("pipeline.cases_run", 1);
                        obs.metrics()
                            .observe("timing.profile.case_seconds", stats.seconds);
                        match outcome {
                            TestOutcome::Passed => {
                                passed += 1;
                                record_case_coverage(&mut coverage, &graph, path);
                                obs.event(
                                    "case.verdict",
                                    case_idx as u64,
                                    vec![
                                        ("case", case_idx.into()),
                                        ("outcome", "passed".into()),
                                        ("attempt", attempt.into()),
                                    ],
                                );
                                obs.metrics().add("pipeline.cases_passed", 1);
                                self.progress(format_args!(
                                    "case {}/{}: passed",
                                    case_idx + 1,
                                    cases_selected
                                ));
                                if let Some(j) = journal.as_mut() {
                                    if let Err(e) = j.record(JournalEntry {
                                        hash: hash.clone(),
                                        attempts: attempt,
                                        determinism: None,
                                        outcome: CaseOutcome::Passed,
                                    }) {
                                        journal_issues
                                            .push(format!("journal append failed: {e}"));
                                    }
                                }
                            }
                            TestOutcome::Failed(inconsistency) => {
                                // A node death before any action ran is a
                                // deploy-time accident, not a verdict about
                                // this schedule: retry it like a harness
                                // failure.
                                let premature_death = matches!(
                                    inconsistency,
                                    Inconsistency::NodeDeath { .. }
                                ) && stats.actions_executed == 0;
                                if premature_death && attempt < max_attempts {
                                    obs.metrics().add("pipeline.premature_deaths", 1);
                                    attempts.push(AttemptRecord {
                                        error: format!(
                                            "{}",
                                            inconsistency
                                        )
                                        .trim_end()
                                        .to_string(),
                                        seconds: stats.seconds,
                                    });
                                    verdict_reached = false;
                                    cases_run -= 1;
                                    continue;
                                }
                                obs.event(
                                    "case.verdict",
                                    case_idx as u64,
                                    vec![
                                        ("case", case_idx.into()),
                                        ("outcome", "failed".into()),
                                        ("attempt", attempt.into()),
                                        ("kind", inconsistency.kind().into()),
                                        ("step", stats.actions_executed.into()),
                                    ],
                                );
                                obs.metrics().add("pipeline.cases_failed", 1);
                                record_case_coverage(&mut coverage, &graph, path);
                                self.progress(format_args!(
                                    "case {}/{}: FAILED ({})",
                                    case_idx + 1,
                                    cases_selected,
                                    inconsistency.kind()
                                ));
                                // Insight layer: where did the
                                // implementation actually go?
                                let explanation = explain_failure(
                                    &graph,
                                    &self.registry,
                                    &tc,
                                    &inconsistency,
                                    stats.actions_executed,
                                    &self.config.explain,
                                );
                                // Failure triage: confirm & classify,
                                // then shrink deterministic failures.
                                let (determinism, minimized) = self.triage_failure(
                                    &graph,
                                    &tc,
                                    &inconsistency,
                                    &final_enabled,
                                    &mut make_sut,
                                );
                                // Persist a self-contained replay
                                // artifact for the reproducer.
                                if let Some(dir) = &self.config.triage.campaign_dir {
                                    let repro =
                                        minimized.clone().unwrap_or_else(|| tc.clone());
                                    let repro_enabled = match &minimized {
                                        None => final_enabled.clone(),
                                        Some(min) => min
                                            .validate_against(&graph)
                                            .ok()
                                            .and_then(|nodes| nodes.last().copied())
                                            .map(|n| {
                                                graph
                                                    .enabled_at(n)
                                                    .into_iter()
                                                    .cloned()
                                                    .collect()
                                            })
                                            .unwrap_or_else(|| final_enabled.clone()),
                                    };
                                    let artifact = ReplayArtifact::from_failure(
                                        self.spec.name(),
                                        self.config.triage.spec_config.clone(),
                                        &inconsistency,
                                        determinism,
                                        self.config.triage.fault_plan.clone(),
                                        &self.config.run,
                                        tc.len(),
                                        repro_enabled,
                                        explanation.clone(),
                                        repro,
                                    )
                                    .with_trace(
                                        trace_events
                                            .iter()
                                            .map(CausalEvent::to_json_line)
                                            .collect(),
                                    );
                                    match artifact.write_to(dir) {
                                        Ok(path) => {
                                            obs.metrics().add("pipeline.artifacts_written", 1);
                                            artifacts.push(path)
                                        }
                                        Err(e) => journal_issues
                                            .push(format!("artifact write failed: {e}")),
                                    }
                                }
                                if let Some(j) = journal.as_mut() {
                                    let det_label = match determinism {
                                        Determinism::Deterministic { .. } => "deterministic",
                                        Determinism::Flaky { .. } => "flaky",
                                        Determinism::Unconfirmed => "unconfirmed",
                                    };
                                    if let Err(e) = j.record(JournalEntry {
                                        hash: hash.clone(),
                                        attempts: attempt,
                                        determinism: Some(det_label.to_string()),
                                        outcome: CaseOutcome::Failed {
                                            kind: inconsistency.kind().to_string(),
                                        },
                                    }) {
                                        journal_issues
                                            .push(format!("journal append failed: {e}"));
                                    }
                                }
                                reports.push(BugReport {
                                    inconsistency,
                                    test_case: tc.clone(),
                                    actions_executed: stats.actions_executed,
                                    elapsed: self.config.clock.now().saturating_sub(test_start),
                                    attempt,
                                    determinism,
                                    minimized,
                                    explanation,
                                    class: BugClass::Unclassified,
                                });
                                if self.config.stop_at_first_bug {
                                    break 'cases;
                                }
                            }
                        }
                        break;
                    }
                    Err(err) => {
                        // Harness-side failure (deploy, external
                        // script, control channel): retry, then
                        // quarantine.
                        attempts.push(AttemptRecord {
                            error: err.to_string(),
                            seconds: 0.0,
                        });
                    }
                }
            }
            if !verdict_reached {
                record_case_coverage(&mut coverage, &graph, path);
                obs.event(
                    "case.verdict",
                    case_idx as u64,
                    vec![
                        ("case", case_idx.into()),
                        ("outcome", "quarantined".into()),
                        ("attempt", attempts.len().into()),
                    ],
                );
                obs.metrics().add("pipeline.cases_quarantined", 1);
                self.progress(format_args!(
                    "case {}/{}: quarantined after {} attempts",
                    case_idx + 1,
                    cases_selected,
                    attempts.len()
                ));
                quarantined.push(QuarantinedCase {
                    test_case: tc,
                    attempts: std::mem::take(&mut attempts),
                });
            }
        }

        let effort = TestingEffort {
            states: graph.state_count(),
            edges: graph.edge_count(),
            paths_ec,
            paths_ec_por,
            por_excluded_edges: por_excluded,
            cases_run,
            test_seconds: self
                .config
                .clock
                .now()
                .saturating_sub(test_start)
                .as_secs_f64(),
            check_seconds,
        };

        obs.event(
            "run.done",
            cases_selected as u64,
            vec![
                ("cases_run", cases_run.into()),
                ("passed", passed.into()),
                ("failed", reports.len().into()),
                ("quarantined", quarantined.len().into()),
                ("skipped_journal", skipped_from_journal.into()),
            ],
        );
        self.progress(format_args!(
            "done: {} run, {} passed, {} failed, {} quarantined",
            cases_run,
            passed,
            reports.len(),
            quarantined.len()
        ));

        let run_seconds = self
            .config
            .clock
            .now()
            .saturating_sub(run_start)
            .as_secs_f64();
        let m = obs.metrics();
        m.observe("timing.stage.test_seconds", effort.test_seconds);
        m.observe("timing.stage.total_seconds", check_seconds + run_seconds);

        let mut summary = RunSummary {
            spec: self.spec.name().to_string(),
            fault_plan: self.config.triage.fault_plan.clone(),
            states: graph.state_count() as u64,
            edges: graph.edge_count() as u64,
            coverage_edges_visited: m.gauge("coverage.edges_visited").unwrap_or(0.0) as u64,
            coverage_edge_targets: m.gauge("coverage.edge_targets").unwrap_or(0.0) as u64,
            coverage: m.gauge("coverage.fraction").unwrap_or(0.0),
            por_excluded_edges: por_excluded as u64,
            cases_selected: cases_selected as u64,
            cases_run: cases_run as u64,
            cases_passed: passed as u64,
            cases_failed: reports.len() as u64,
            cases_quarantined: quarantined.len() as u64,
            cases_skipped_from_journal: skipped_from_journal as u64,
            journal_issues: journal_issues.len() as u64,
            wall_check_seconds: check_seconds,
            wall_test_seconds: effort.test_seconds,
            wall_total_seconds: check_seconds + run_seconds,
            ..RunSummary::default()
        };
        for report in &reports {
            *summary
                .bugs_by_kind
                .entry(report.inconsistency.kind().to_string())
                .or_insert(0) += 1;
            let verdict = match report.determinism {
                Determinism::Deterministic { .. } => "deterministic",
                Determinism::Flaky { .. } => "flaky",
                Determinism::Unconfirmed => "unconfirmed",
            };
            *summary
                .bugs_by_determinism
                .entry(verdict.to_string())
                .or_insert(0) += 1;
        }
        summary.metrics = m.snapshot();

        let frontier = uncovered_frontier(&graph, coverage.edge_hits());
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
                journal_issues.push(format!("run summary write failed: {e}"));
            }
            for (name, content) in [
                (COVERAGE_FILE_NAME, coverage.to_json()),
                (UNCOVERED_FILE_NAME, coverage.uncovered_listing()),
                (
                    COVERAGE_DOT_FILE_NAME,
                    to_dot_overlay(&graph, coverage.edge_hits()),
                ),
            ] {
                if let Err(e) = crate::fsio::write_atomic(
                    dir,
                    name,
                    content.as_bytes(),
                    crate::fsio::points::INSIGHT_WRITE,
                    &RetryPolicy::io(),
                ) {
                    journal_issues.push(format!("{name} write failed: {e}"));
                }
            }
            match CampaignHistory::open(dir) {
                Ok(mut history) => {
                    journal_issues.extend(history.issues().iter().map(|i| i.to_string()));
                    let record = CampaignRecord {
                        seq: history.next_seq(),
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
                        shrink_original_actions: reports
                            .iter()
                            .filter(|r| r.minimized.is_some())
                            .map(|r| r.test_case.len() as u64)
                            .sum(),
                        shrink_minimized_actions: reports
                            .iter()
                            .filter_map(|r| r.minimized.as_ref())
                            .map(|min| min.len() as u64)
                            .sum(),
                        uncovered_frontier_edges: frontier.len() as u64,
                        wall_checker_states_per_sec: if check_seconds > 0.0 {
                            summary.states as f64 / check_seconds
                        } else {
                            0.0
                        },
                        wall_total_seconds: summary.wall_total_seconds,
                    };
                    if let Err(e) = history.append(record) {
                        journal_issues.push(format!("campaign history append failed: {e}"));
                    }
                }
                Err(e) => journal_issues.push(format!("campaign history unavailable: {e}")),
            }
        }
        obs.flush();

        PipelineResult {
            graph,
            cases_selected,
            reports,
            quarantined,
            effort,
            passed,
            skipped_from_journal,
            artifacts,
            journal_issues,
            summary,
            coverage,
            frontier,
            lock_conflict: None,
            stopped_by_gate,
        }
    }

    /// Emits one `--progress` line when enabled.
    fn progress(&self, line: std::fmt::Arguments<'_>) {
        if self.config.progress {
            eprintln!("[mocket] {line}");
        }
    }

    /// Confirm & classify a failure, then shrink it if deterministic.
    ///
    /// Re-runs the revealing case with the identical configuration —
    /// `make_sut` rebuilds the same environment (same fault seed, same
    /// cluster) every call, which is exactly what makes confirmation
    /// meaningful. The first re-run decides the classification: same
    /// inconsistency kind again means deterministic; anything else
    /// means flaky, and the remaining re-run budget measures the repro
    /// rate. Only deterministic failures are worth the oracle cost of
    /// delta debugging.
    fn triage_failure<F>(
        &self,
        graph: &StateGraph,
        tc: &TestCase,
        inconsistency: &Inconsistency,
        final_enabled: &[ActionInstance],
        make_sut: &mut F,
    ) -> (Determinism, Option<TestCase>)
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let triage = &self.config.triage;
        if !triage.confirm {
            return (Determinism::Unconfirmed, None);
        }
        let kind = inconsistency.kind();
        // One re-run = one fresh deployment driven through the same
        // schedule; a harness error during triage counts as "did not
        // reproduce" rather than aborting the campaign.
        let obs = &self.config.obs;
        let ctx = RunCtx {
            clock: self.config.clock.clone(),
            obs: obs.clone(),
            tracer: Tracer::disabled(),
        };
        let mut rerun = |case: &TestCase, enabled: &[ActionInstance]| -> bool {
            obs.metrics().add("pipeline.triage_reruns", 1);
            let mut sut = make_sut();
            matches!(
                run_test_case(
                    sut.as_mut(),
                    case,
                    &self.registry,
                    enabled,
                    &self.config.run,
                    &ctx,
                ),
                Ok((TestOutcome::Failed(inc), _)) if inc.kind() == kind
            )
        };

        let determinism = if rerun(tc, final_enabled) {
            Determinism::Deterministic { reruns: 1 }
        } else {
            let reruns = triage.flaky_reruns.max(1);
            let mut reproduced = 0usize;
            for _ in 1..reruns {
                if rerun(tc, final_enabled) {
                    reproduced += 1;
                }
            }
            Determinism::Flaky { reproduced, reruns }
        };

        let minimized = if determinism.is_deterministic() && triage.minimize.max_oracle_runs > 0
        {
            let failing_step = match inconsistency {
                Inconsistency::InconsistentState { step, .. }
                | Inconsistency::MissingAction { step, .. }
                | Inconsistency::NodeDeath { step, .. }
                | Inconsistency::WatchdogTimeout { step, .. } => *step,
                Inconsistency::UnexpectedAction { .. } => tc.len(),
            };
            let out = minimize_case(graph, tc, failing_step, &triage.minimize, |candidate| {
                // Each candidate is graph-valid (the minimizer filters
                // first), so its own final-enabled set comes straight
                // from the graph.
                let Ok(nodes) = candidate.validate_against(graph) else {
                    return false;
                };
                let Some(&last) = nodes.last() else {
                    return false;
                };
                let enabled: Vec<ActionInstance> =
                    graph.enabled_at(last).into_iter().cloned().collect();
                rerun(candidate, &enabled)
            });
            out.record_obs(obs, tc.len());
            (out.case.len() < tc.len()).then_some(out.case)
        } else {
            None
        };
        (determinism, minimized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use crate::mapping::ActionBinding;
    use crate::sut::{ExecReport, Offer, Snapshot, SutError};
    use mocket_tla::{ActionClass, ActionDef, Value, VarClass, VarDef};

    /// Counter spec: Inc up to 2, Dec down to 0.
    struct CounterSpec;

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
    struct CounterSut {
        n: i64,
        buggy: bool,
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

    fn registry() -> MappingRegistry {
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
}
