//! The end-to-end Mocket pipeline (Figure 3).
//!
//! ① map the specification (a [`MappingRegistry`]), ② model-check it
//! into a state-space graph, ③ generate test cases by edge-coverage
//! traversal with optional partial-order reduction, ④ run controlled
//! testing against the system under test, collecting bug reports.
//!
//! This module holds the configuration and result types and the two
//! entry points; the stages live in submodules: `generate` (③),
//! `cases` (④: a run's tallies, its case windows, the drive of one
//! case), `triage` (what follows a failed case) and `outputs` (summary,
//! coverage files, history — the tail a merged campaign shares).

mod cases;
mod generate;
pub(crate) mod outputs;
mod triage;

use std::path::PathBuf;
use std::sync::Arc;

use mocket_sim::{Clock, RealClock};

use mocket_obs::{CoverageMap, Obs, RunSummary};
use mocket_tla::{Spec, State};

use mocket_checker::{EdgeId, ModelChecker, StateGraph};

use crate::mapping::{MappingIssue, MappingRegistry};
use crate::minimize::MinimizeConfig;
use crate::report::BugReport;
use crate::runner::RunConfig;
use crate::sut::SystemUnderTest;
use crate::testcase::TestCase;

use cases::Run;

/// File name of the coverage-annotated DOT overlay inside a campaign
/// directory.
pub const COVERAGE_DOT_FILE_NAME: &str = "coverage.dot";

/// The retry policy shape (re-exported from [`crate::fsio`]): the
/// supervisor's worker restarts and every fault-injectable filesystem
/// write retry under it. A test case is never retried: it runs once on
/// a fresh deployment, and triage's confirmation re-runs judge whether
/// its failure reproduces.
pub use crate::fsio::RetryPolicy;

/// A test case the pipeline gave up on for harness-side reasons: it
/// neither passed nor produced a verdict about the implementation.
/// Quarantined cases are surfaced in the result so a campaign summary
/// can never silently under-report coverage.
#[derive(Debug, Clone)]
pub struct QuarantinedCase {
    /// The case that could not be driven to a verdict.
    pub test_case: TestCase,
    /// The harness error that stopped it, rendered for the report.
    pub error: String,
}

/// Failure-triage configuration: confirm & classify, shrink,
/// persist, resume.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Re-run every failure once with the identical seed/config to
    /// confirm it, classifying it deterministic or flaky.
    pub confirm: bool,
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
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            confirm: true,
            minimize: MinimizeConfig::default(),
            campaign_dir: None,
            spec_config: String::new(),
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
    /// Failure triage: confirm, shrink, persist, resume.
    pub triage: TriageConfig,
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
    /// step budgets and all `timing.*`/`wall_*` figures are virtual —
    /// the same seed then yields byte-identical summaries.
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
            triage: TriageConfig::default(),
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
    /// Cases abandoned for harness-side reasons (neither passed nor
    /// failed).
    pub quarantined: Vec<QuarantinedCase>,
    /// Effort statistics.
    pub effort: TestingEffort,
    /// Test cases that passed.
    pub passed: usize,
    /// Cases skipped because the campaign journal already recorded a
    /// verdict for them (their verdicts are folded into `passed` /
    /// `effort.cases_run`).
    pub skipped_from_journal: usize,
    /// Replay artifacts written this run, each once, when a campaign
    /// directory is configured: one per distinct reproducer not
    /// already on disk (cases that fail the same way share one).
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

/// The Mocket pipeline for one specification + mapping + target.
pub struct Pipeline {
    spec: Arc<dyn Spec>,
    registry: Arc<MappingRegistry>,
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
                registry: Arc::new(registry),
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

    /// The observability handle the pipeline reports through.
    pub(crate) fn obs(&self) -> &Obs {
        &self.config.obs
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

    /// Stage ④: controlled testing of the generated cases.
    ///
    /// `make_sut` builds a fresh system per call. A case starts from a
    /// fork of the deployment that passed its longest prefix shared
    /// with the case before, when the system forks, and from a fresh
    /// `make_sut()` deployment otherwise (§4.3.2 uses a new cluster for
    /// every case); triage's re-runs always start fresh.
    ///
    /// The campaign always runs to completion (or to
    /// `stop_at_first_bug`): a single misbehaving case can no longer
    /// abort the whole run. A case the harness cannot drive is
    /// quarantined with its error.
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

    /// Stage ④ against an already-checked graph: generate, drive one
    /// window over every selected case, finish; `check_seconds` is
    /// folded into the reported wall totals. (A campaign worker drives
    /// its shards through `run_window`, not through here.)
    pub fn run_prepared<F>(
        &self,
        graph: StateGraph,
        check_seconds: f64,
        mut make_sut: F,
    ) -> PipelineResult
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let obs = &self.config.obs;
        let run_start = self.config.clock.now();
        let (paths, paths_ec, paths_ec_por, por_excluded) = self.generate_paths(&graph);

        let m = obs.metrics();
        obs.event(
            "generate.done",
            0,
            vec![
                ("states", graph.state_count().into()),
                ("edges", graph.edge_count().into()),
                ("cases_selected", paths.len().into()),
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
            paths.len(),
            m.gauge("coverage.fraction").unwrap_or(0.0) * 100.0
        ));

        let mut run = Run {
            run_start,
            coverage: Some(CoverageMap::new(graph.edge_count())),
            ..self.new_run(paths.len())
        };
        let window = self.run_window(&mut run, &graph, &paths, &mut make_sut);
        self.finish(run, window, graph, check_seconds)
    }

    /// Emits one `--progress` line when enabled.
    fn progress(&self, line: std::fmt::Arguments<'_>) {
        if self.config.progress {
            eprintln!("[mocket] {line}");
        }
    }
}

#[cfg(test)]
pub(crate) mod tests;
