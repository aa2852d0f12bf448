//! The only module that calls the product.
//!
//! Every call uses the widest form of the product API it touches
//! (`ModelChecker::new(..).workers(n).run()`, `make_sut_full`,
//! `Pipeline::{new, check, generate_paths, run_prepared}`,
//! `orchestrator::{CampaignPlan, worker_loop, merge_campaign}` ...), so
//! a refactor that collapses the narrower siblings leaves the
//! benchmark compiling, and one that changes a wide form has exactly
//! one file to follow up in.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mocket_bench::{raft_java_model, xraft_model, zookeeper_model};
use mocket_checker::{from_dot, to_dot, EdgeId, ModelChecker, StateGraph};
use mocket_core::orchestrator::{
    clear_drain_marker, merge_campaign, worker_loop, CampaignPlan, InjectionConfig, LeaseConfig,
    MergeInputs, MergeReport, PlanCase, ShardSetup, WorkerConfig, WorkerContext,
};
use mocket_core::{
    check_state, edge_coverage_paths, partial_order_reduction, pools_from_registry,
    translate_offers, CaseGate, MappingRegistry, Offer, PipelineConfig, PipelineResult, RunConfig,
    Snapshot, SystemUnderTest, TestCase, TraversalConfig, TriageConfig,
};
use mocket_obs::Obs;
use mocket_raft_async::XraftBugs;
use mocket_raft_sync::SyncRaftBugs;
use mocket_runtime::Backend;
use mocket_sim::SimHandle;
use mocket_specs::raft::{RaftSpec, RaftSpecConfig};
use mocket_specs::zab::{ZabSpec, ZabSpecConfig};
use mocket_tla::{successors_with, Spec};
use mocket_zab::ZabBugs;

use crate::timed_sut::Trace;

pub use mocket_checker::StateGraph as Graph;
pub use mocket_core::Pipeline;
pub use mocket_runtime::Backend as ClusterBackend;
pub use mocket_sim::SimHandle as Sim;

/// The path-length cap every workload generates cases under (the
/// product's own default for `test` and `campaign`).
pub const MAX_PATH_LEN: usize = 60;

type SutFactory = Arc<dyn Fn(Backend) -> Box<dyn SystemUnderTest> + Send + Sync>;

/// A specification, its mapping, and the system it is tested against.
#[derive(Clone)]
pub struct Model {
    pub spec: Arc<dyn Spec>,
    pub registry: MappingRegistry,
    sut: SutFactory,
}

fn node_ids(servers: &[i64]) -> Vec<u64> {
    servers.iter().map(|&i| i as u64).collect()
}

impl Model {
    /// `zookeeper_model()` against ZabKeeper.
    pub fn zookeeper(bugs: ZabBugs) -> Model {
        Model::zab_from(zookeeper_model(), bugs)
    }

    pub fn zab_from(cfg: ZabSpecConfig, bugs: ZabBugs) -> Model {
        let servers = node_ids(&cfg.servers);
        Model {
            spec: Arc::new(ZabSpec::new(cfg)),
            registry: mocket_zab::mapping(),
            sut: Arc::new(move |backend| {
                Box::new(mocket_zab::make_sut_full(
                    servers.clone(),
                    bugs.clone(),
                    backend,
                    None,
                ))
            }),
        }
    }

    /// `raft_java_model()` against SyncRaft.
    pub fn raft_java(bugs: SyncRaftBugs) -> Model {
        Model::raft_sync_from(raft_java_model(), bugs, false, false)
    }

    /// `map_update_term`: the mapping knows the spec's standalone
    /// `UpdateTerm`; `expose_update_term`: the implementation notifies
    /// it standalone.
    pub fn raft_sync_from(
        cfg: RaftSpecConfig,
        bugs: SyncRaftBugs,
        map_update_term: bool,
        expose_update_term: bool,
    ) -> Model {
        let servers = node_ids(&cfg.servers);
        Model {
            spec: Arc::new(RaftSpec::new(cfg)),
            registry: mocket_raft_sync::mapping(map_update_term),
            sut: Arc::new(move |backend| {
                Box::new(mocket_raft_sync::make_sut_full(
                    servers.clone(),
                    bugs.clone(),
                    expose_update_term,
                    backend,
                    None,
                ))
            }),
        }
    }

    /// `xraft_model()` against AsyncRaft.
    pub fn xraft(bugs: XraftBugs) -> Model {
        Model::raft_async_from(xraft_model(), bugs)
    }

    pub fn raft_async_from(cfg: RaftSpecConfig, bugs: XraftBugs) -> Model {
        let servers = node_ids(&cfg.servers);
        Model {
            spec: Arc::new(RaftSpec::new(cfg)),
            registry: mocket_raft_async::mapping(),
            sut: Arc::new(move |backend| {
                Box::new(mocket_raft_async::make_sut_full(
                    servers.clone(),
                    bugs.clone(),
                    backend,
                    None,
                ))
            }),
        }
    }

    pub fn make_sut(&self, backend: Backend) -> Box<dyn SystemUnderTest> {
        (self.sut)(backend)
    }
}

// ---- graph stage -------------------------------------------------------

pub fn check(spec: &Arc<dyn Spec>, workers: usize) -> StateGraph {
    let result = ModelChecker::new(spec.clone()).workers(workers).run();
    assert!(result.ok(), "bench models satisfy their invariants");
    result.graph
}

pub fn dot_export(graph: &StateGraph) -> String {
    to_dot(graph)
}

pub fn dot_import(dot: &str) -> StateGraph {
    from_dot(dot).expect("the checker's own DOT export parses")
}

pub fn por_excluded(graph: &StateGraph) -> HashSet<EdgeId> {
    partial_order_reduction(graph).excluded_edges
}

/// Edge-coverage traversal under the workload path cap; pass an empty
/// set for plain EC.
pub fn traverse(graph: &StateGraph, excluded: HashSet<EdgeId>) -> Vec<Vec<EdgeId>> {
    let mut cfg = TraversalConfig::default().with_excluded_edges(excluded);
    cfg.max_path_len = MAX_PATH_LEN;
    edge_coverage_paths(graph, &cfg).paths
}

/// `(stable_hash, len)` of the case a path materialises to.
pub fn materialize(graph: &StateGraph, path: &[EdgeId]) -> Option<(String, usize)> {
    TestCase::from_edge_path(graph, path).map(|tc| (tc.stable_hash(), tc.len()))
}

/// Nanoseconds per state to fingerprint every state of `graph` afresh
/// (the cache each state carries is dropped by rebinding a variable to
/// its own value first; that copy is outside the timed region).
pub fn fingerprint_ns_per_state(graph: &StateGraph) -> f64 {
    let mut total = Duration::ZERO;
    let mut acc = 0u64;
    let states: Vec<_> = graph.states().map(|(_, s)| s).collect();
    for batch in states.chunks(256) {
        let fresh: Vec<_> = batch
            .iter()
            .map(|s| {
                let (name, value) = s.iter().next().expect("bench states bind variables");
                s.with(name, value.clone())
            })
            .collect();
        let t = Instant::now();
        for s in &fresh {
            acc ^= s.fingerprint();
        }
        total += t.elapsed();
    }
    std::hint::black_box(acc);
    total.as_nanos() as f64 / states.len().max(1) as f64
}

/// Microseconds per state to generate the successors of every state of
/// `graph`.
pub fn successors_us_per_state(spec: &Arc<dyn Spec>, graph: &StateGraph) -> f64 {
    let actions = spec.actions();
    let t = Instant::now();
    let mut generated = 0usize;
    for (_, state) in graph.states() {
        generated += successors_with(&actions, state).len();
    }
    std::hint::black_box(generated);
    t.elapsed().as_secs_f64() * 1e6 / graph.state_count().max(1) as f64
}

// ---- case stage --------------------------------------------------------

/// Per-case hook: receives the plan index and stable hash of the case
/// about to run and says whether to run it.
pub type CaseHook = Arc<dyn Fn(usize, &str) -> bool + Send + Sync>;

pub type CaseFilter = Arc<dyn Fn(&[&str]) -> bool + Send + Sync>;

/// How one in-process pipeline run selects and disposes of cases.
#[derive(Clone, Default)]
pub struct CaseRun {
    pub por: bool,
    /// Cap applied after traversal (0 = all).
    pub limit: usize,
    pub range: Option<(usize, usize)>,
    /// Consulted for every case in `range`; `false` skips the case.
    pub hook: Option<CaseHook>,
    /// Default triage (confirm + minimize + explain) when true, none
    /// when false.
    pub triage: bool,
    /// Where artifacts and the journal go; `None` writes nothing.
    pub campaign_dir: Option<PathBuf>,
    /// Stop at the first report.
    pub stop_at_first_bug: bool,
    /// Only cases whose action-name sequence this accepts are run.
    pub filter: Option<CaseFilter>,
}

/// The sim backend's clock drives the whole pipeline (deadlines,
/// backoffs, timing figures are virtual); the threaded backend runs on
/// the wall clock.
fn pipeline_config(run: &CaseRun, backend: &Backend) -> PipelineConfig {
    let mut pc = PipelineConfig::default();
    pc.por = run.por;
    pc.stop_at_first_bug = run.stop_at_first_bug;
    pc.case_filter = run.filter.clone();
    pc.max_path_len = MAX_PATH_LEN;
    pc.max_test_cases = run.limit;
    pc.case_range = run.range;
    pc.run = RunConfig::fast();
    if let Backend::Sim(sim) = backend {
        pc.clock = sim.clock.clone();
    }
    pc.triage = if run.triage {
        TriageConfig::default()
    } else {
        TriageConfig::off()
    };
    pc.triage.campaign_dir = run.campaign_dir.clone();
    if let Some(hook) = run.hook.clone() {
        pc.case_gate = Some(Arc::new(move |idx, hash| {
            if hook(idx, hash) {
                CaseGate::Run
            } else {
                CaseGate::Skip
            }
        }));
    }
    pc
}

pub fn pipeline(model: &Model, run: &CaseRun, backend: &Backend) -> Pipeline {
    Pipeline::new(
        model.spec.clone(),
        model.registry.clone(),
        pipeline_config(run, backend),
    )
    .expect("bench mappings validate")
}

/// `Pipeline::check` — the model check exactly as a pipeline user gets
/// it (the checker's default worker count).
pub fn pipeline_check(p: &Pipeline) -> (StateGraph, f64) {
    p.check()
}

pub fn run_prepared(
    p: &Pipeline,
    graph: StateGraph,
    check_seconds: f64,
    make_sut: impl FnMut() -> Box<dyn SystemUnderTest>,
) -> PipelineResult {
    p.run_prepared(graph, check_seconds, make_sut)
}

/// `(stable_hash, "kind:subject")` of every report, in report order.
pub fn report_verdicts(result: &PipelineResult) -> Vec<(String, String)> {
    result
        .reports
        .iter()
        .map(|r| {
            (
                r.test_case.stable_hash(),
                format!("{}:{}", r.inconsistency.kind(), r.inconsistency.subject()),
            )
        })
        .collect()
}

/// Stops at the first report: `Some("kind:subject")` of it, or `None`
/// when every case passed. `filter` focuses the hunt on cases whose
/// action-name sequence it accepts.
pub fn hunt(model: &Model, sim: &SimHandle, filter: Option<CaseFilter>) -> Option<String> {
    let backend = Backend::Sim(sim.clone());
    let run = CaseRun {
        stop_at_first_bug: true,
        filter,
        ..CaseRun::default()
    };
    let p = pipeline(model, &run, &backend);
    let (graph, secs) = p.check();
    let result = p.run_prepared(graph, secs, || model.make_sut(backend.clone()));
    report_verdicts(&result).into_iter().next().map(|(_, v)| v)
}

// ---- micro rows --------------------------------------------------------

/// Microseconds per offer batch to translate `batches` through the
/// mapping (the scheduler's per-poll work), `reps` times over.
pub fn translate_us(registry: &MappingRegistry, batches: &[Vec<Offer>], reps: usize) -> f64 {
    if batches.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for _ in 0..reps {
        for batch in batches {
            std::hint::black_box(translate_offers(registry, batch.clone()));
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (reps * batches.len()) as f64
}

/// Microseconds per snapshot to compare `snapshots` against a verified
/// state (the state checker's per-step work). The expected state is
/// the model's initial state and the pools are empty: the comparison
/// walks every mapped variable either way.
pub fn check_state_us(model: &Model, snapshots: &[Snapshot], reps: usize) -> f64 {
    if snapshots.is_empty() {
        return 0.0;
    }
    let expected = model.spec.init_states().remove(0);
    let pools = pools_from_registry(&model.registry);
    let t = Instant::now();
    for _ in 0..reps {
        for snap in snapshots {
            std::hint::black_box(check_state(&expected, snap, &pools, &model.registry).len());
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (reps * snapshots.len()) as f64
}

/// Microseconds per event to stream `n` events through
/// `Obs::jsonl_in(dir)`, flush included.
pub fn obs_event_append_us(dir: &Path, n: usize) -> f64 {
    let obs = Obs::jsonl_in(dir).expect("benchmark scratch dir is writable");
    let t = Instant::now();
    for i in 0..n {
        obs.event(
            "case.verdict",
            i as u64,
            vec![("case", i.into()), ("outcome", "passed".into())],
        );
    }
    obs.flush();
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Microseconds per line to append `n` journal-style lines through
/// the product's durable `append_line`.
pub fn fsio_append_us(dir: &Path, n: usize) -> f64 {
    let path = dir.join("append.log");
    let retry = mocket_core::fsio::RetryPolicy::io();
    let t = Instant::now();
    for i in 0..n {
        mocket_core::fsio::append_line(
            &path,
            &format!("{i:016x} attempts=1 outcome=passed"),
            mocket_core::fsio::points::JOURNAL_APPEND,
            &retry,
        )
        .expect("benchmark scratch dir is writable");
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

// ---- orchestrator, in process ------------------------------------------

/// One orchestrated campaign driven inside this process: pin the plan,
/// run `worker_loop` on `workers` threads, merge. The same code the
/// CLI's supervisor and `campaign-worker` children run, minus process
/// spawn and supervision.
pub struct Orchestrated {
    pub plan_s: f64,
    pub workers_s: f64,
    pub merge_s: f64,
    pub plan_hash: String,
    /// Virtual nanoseconds on the workers' clocks, summed.
    pub virtual_ns: u64,
    pub merged: MergeReport,
}

const LEASE: LeaseConfig = LeaseConfig {
    heartbeat: Duration::from_millis(300),
    ttl: Duration::from_millis(5000),
};

fn plan_cases(graph: &StateGraph, paths: &[Vec<EdgeId>]) -> Vec<PlanCase> {
    paths
        .iter()
        .map(|p| match materialize(graph, p) {
            Some((hash, len)) => PlanCase { hash, len },
            None => PlanCase {
                hash: "-".into(),
                len: 0,
            },
        })
        .collect()
}

/// Campaign pipelines never reduce (shard indices must line up with
/// the plan) and write per-shard journals; everything else matches
/// the CLI's `campaign` defaults.
pub fn campaign_run(limit: usize) -> CaseRun {
    CaseRun {
        por: false,
        limit,
        triage: true,
        ..CaseRun::default()
    }
}

fn orchestrated_worker(
    model: &Model,
    seed: u64,
    limit: usize,
    dir: &Path,
    id: usize,
    trace: &Trace,
) -> u64 {
    // As in the CLI, every worker owns its virtual clock and
    // regenerates graph and paths itself.
    let sim = SimHandle::new(seed);
    let backend = Backend::Sim(sim.clone());
    let plan = CampaignPlan::load(dir)
        .expect("pinned plan is readable")
        .expect("plan pinned before workers start");
    let worker_dir = dir.join(format!("worker-{id}"));
    let obs = Obs::jsonl_in(&worker_dir).unwrap_or_else(|_| Obs::disabled());
    let with_obs = |run: &CaseRun| {
        let mut pc = pipeline_config(run, &backend);
        pc.obs = obs.clone();
        pc
    };
    let base = Pipeline::new(
        model.spec.clone(),
        model.registry.clone(),
        with_obs(&campaign_run(limit)),
    )
    .expect("bench mappings validate");
    let (graph, check_seconds) = base.check();
    let (paths, ..) = base.generate_paths(&graph);

    let run_cfg = RunConfig::fast();
    let spec_name = model.spec.name().to_string();
    let wcfg = WorkerConfig {
        campaign_dir: dir.to_path_buf(),
        worker_id: id,
        lease: LEASE,
        poison_threshold: 3,
        plan_hash: plan.stable_hash(),
        inject: InjectionConfig::default(),
    };
    let ctx = WorkerContext {
        plan: &plan,
        spec_name: &spec_name,
        spec_config: "perfbench",
        run: &run_cfg,
        paths: &paths,
        check_seconds,
    };
    let build = |setup: &ShardSetup| {
        let mut pc = with_obs(&campaign_run(limit));
        pc.case_range = Some(setup.range);
        let (gate, spans) = (setup.gate.clone(), trace.spans.clone());
        pc.case_gate = Some(Arc::new(move |idx, hash| {
            spans.set_case(idx as u64);
            gate(idx, hash)
        }));
        pc.triage.campaign_dir = Some(setup.shard_dir.clone());
        pc.triage.spec_config = "perfbench".to_string();
        Pipeline::new(model.spec.clone(), model.registry.clone(), pc)
            .expect("bench mappings validate")
    };
    let make = || {
        trace.wrap(
            trace
                .spans
                .scope("sut.make", || model.make_sut(backend.clone())),
        )
    };
    worker_loop(&wcfg, &ctx, graph, build, make).expect("in-process worker loop");
    sim.clock.now_nanos()
}

/// What `mocket-cli campaign` takes from its command line.
pub struct CampaignSpec<'a> {
    /// Target name pinned into the plan.
    pub target: &'a str,
    /// `--sim-seed`.
    pub seed: u64,
    /// `--limit`.
    pub limit: usize,
    pub shard_size: usize,
    pub workers: usize,
}

pub fn orchestrated(
    model: &Model,
    spec: &CampaignSpec<'_>,
    dir: &Path,
    trace: &Trace,
) -> Orchestrated {
    let &CampaignSpec {
        target,
        seed,
        limit,
        shard_size,
        workers,
    } = spec;
    let obs = Obs::disabled();
    let mut pc = pipeline_config(&campaign_run(limit), &Backend::Sim(SimHandle::new(seed)));
    pc.obs = obs.clone();
    let p = Pipeline::new(model.spec.clone(), model.registry.clone(), pc)
        .expect("bench mappings validate");

    let t = Instant::now();
    let (graph, paths, por_excluded, plan) = trace.spans.scope("orchestrator.plan", || {
        let (graph, _) = p.check();
        let (paths, _, _, por_excluded) = p.generate_paths(&graph);
        let plan = CampaignPlan {
            target: target.into(),
            bug: None,
            max_states: PipelineConfig::default().max_states,
            max_path_len: MAX_PATH_LEN,
            max_test_cases: limit,
            shard_size,
            cases: plan_cases(&graph, &paths),
        };
        plan.write_to(dir)
            .expect("benchmark scratch dir is writable");
        clear_drain_marker(dir);
        (graph, paths, por_excluded, plan)
    });
    let plan_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let phase = trace.spans.enter("orchestrator.workers");
    let virtual_ns: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|id| {
                let trace = trace.for_thread(id + 1, phase);
                scope.spawn(move || orchestrated_worker(model, seed, limit, dir, id, &trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process campaign worker panicked"))
            .sum()
    });
    trace.spans.exit(phase);
    let workers_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let merged = trace.spans.scope("orchestrator.merge", || {
        let m = obs.metrics();
        merge_campaign(&MergeInputs {
            campaign_dir: dir,
            plan: &plan,
            graph: &graph,
            paths: &paths,
            spec_name: model.spec.name(),
            coverage_visited: m.gauge("coverage.edges_visited").unwrap_or(0.0) as u64,
            coverage_targets: m.gauge("coverage.edge_targets").unwrap_or(0.0) as u64,
            coverage_fraction: m.gauge("coverage.fraction").unwrap_or(0.0),
            por_excluded: por_excluded as u64,
            completed: true,
            obs: obs.clone(),
        })
        .expect("in-process merge")
    });
    Orchestrated {
        plan_s,
        workers_s,
        merge_s: t.elapsed().as_secs_f64(),
        plan_hash: plan.stable_hash(),
        virtual_ns,
        merged,
    }
}

// ---- Table 2 -----------------------------------------------------------

/// One Table-2 row: the hunt and the verdict EXPERIMENTS.md records
/// for it.
pub struct Table2Row {
    pub id: &'static str,
    pub expected: &'static str,
    pub model: Model,
    pub filter: Option<CaseFilter>,
}

/// The nine seeded bugs, with the model bounds `table2_bugs` uses.
pub fn table2_rows() -> Vec<Table2Row> {
    let xraft = |edit: fn(&mut RaftSpecConfig), bugs: XraftBugs| {
        let mut cfg = RaftSpecConfig::xraft(vec![1, 2]);
        edit(&mut cfg);
        Model::raft_async_from(cfg, bugs)
    };
    let row = |id, expected, model| Table2Row {
        id,
        expected,
        model,
        filter: None,
    };
    let mut rows = vec![
        row(
            "Xraft Bug #1",
            "Inconsistent state:votesGranted",
            xraft(
                |c| {
                    c.restart_limit = 0;
                    c.client_request_limit = 0;
                },
                XraftBugs {
                    duplicate_vote_counting: true,
                    ..XraftBugs::none()
                },
            ),
        ),
        row(
            "Xraft Bug #2",
            "Inconsistent state:votedFor",
            xraft(
                |c| {
                    c.dup_limit = 0;
                    c.client_request_limit = 0;
                },
                XraftBugs {
                    voted_for_not_persisted: true,
                    ..XraftBugs::none()
                },
            ),
        ),
        row(
            "Xraft Bug #3",
            "Unexpected action:HandleRequestVoteResponse",
            xraft(
                |c| {
                    c.dup_limit = 0;
                    c.restart_limit = 0;
                    c.client_request_limit = 0;
                    c.max_term = 3;
                },
                XraftBugs {
                    noop_log_grant: true,
                    ..XraftBugs::none()
                },
            ),
        ),
        row(
            "Raft-java Bug #1",
            "Missing action:HandleRequestVoteResponse",
            {
                let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
                cfg.max_term = 2;
                cfg.client_request_limit = 0;
                cfg.candidates = Some(vec![1]);
                Model::raft_sync_from(
                    cfg,
                    SyncRaftBugs {
                        ignore_extra_vote_response: true,
                        ..SyncRaftBugs::none()
                    },
                    false,
                    false,
                )
            },
        ),
        Table2Row {
            id: "Raft-java Bug #2",
            expected: "Inconsistent state:log",
            model: Model::raft_java(SyncRaftBugs {
                log_truncation_bug: true,
                ..SyncRaftBugs::none()
            }),
            filter: Some(Arc::new(|names: &[&str]| {
                names.iter().filter(|n| **n == "BecomeLeader").count() >= 2
                    && names.iter().filter(|n| **n == "ClientRequest").count() >= 2
            })),
        },
        row(
            "ZooKeeper Bug #1",
            "Unexpected action:HandleVote",
            Model::zab_from(
                ZabSpecConfig::small(vec![1, 2]),
                ZabBugs {
                    election_echo_storm: true,
                    ..ZabBugs::none()
                },
            ),
        ),
        row("ZooKeeper Bug #2", "Missing action:StartElection", {
            let mut cfg = ZabSpecConfig::small(vec![1, 2]);
            cfg.restart_limit = 1;
            cfg.client_request_limit = 0;
            Model::zab_from(
                cfg,
                ZabBugs {
                    epoch_marker_race: true,
                    ..ZabBugs::none()
                },
            )
        }),
    ];
    for (id, expected, expose_update_term) in [
        ("Raft-spec issue #1", "Inconsistent state:messages", true),
        ("Raft-spec issue #2", "Missing action:UpdateTerm", false),
    ] {
        rows.push(row(
            id,
            expected,
            Model::raft_sync_from(
                RaftSpecConfig::official_buggy(vec![1, 2]),
                SyncRaftBugs::none(),
                true,
                expose_update_term,
            ),
        ));
    }
    rows
}
