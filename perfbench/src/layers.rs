//! Per-layer metrics of the traced run: what the spans and the SUT
//! decorator saw during the round, plus fixed-size samples of the
//! layers the round's own workload leaves idle, taken on that
//! workload's model after the round (so every traced run reports every
//! per-layer metric, as measured).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use crate::adapter::{self, CampaignSpec, CaseRun, ClusterBackend, Graph, Model, Orchestrated};
use crate::procstat::rss_mb;
use crate::record::Record;
use crate::spans::{self, Recorder};
use crate::stats;
use crate::timed_sut::Trace;
use crate::workloads::{case_stage, fnv1a, CaseStage, CAMPAIGN_SHARD_SIZE, CAMPAIGN_WORKERS};

const MB: f64 = 1024.0 * 1024.0;

/// `(file name, bytes)` of every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<(std::ffi::OsString, u64)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        match entry.metadata() {
            Ok(m) if m.is_dir() => out.extend(files_under(&entry.path())),
            Ok(m) => out.push((entry.file_name(), m.len())),
            Err(_) => {}
        }
    }
    out
}

/// Bytes of every file named `name` under `dir`.
fn named_bytes(dir: &Path, name: &str) -> u64 {
    files_under(dir)
        .iter()
        .filter(|(file, _)| file == name)
        .map(|(_, bytes)| bytes)
        .sum()
}

// ---- graph stage -------------------------------------------------------

/// Check (1 worker), DOT export and import, POR, both traversals,
/// and materialisation of the whole reduced suite (its first 500 cases
/// under `--quick`) - one thread throughout. `raftjava-graph` runs
/// this inside its timed round; the other workloads' traced runs take
/// it as a sample of their own model.
pub struct GraphStage {
    /// The graph as imported back from DOT (what TLC hands Mocket).
    pub graph: Graph,
    pub explore_s: f64,
    pub layers: Vec<(&'static str, f64)>,
    /// FNV-1a over the stable hashes of the whole reduced suite.
    pub plan_hash: String,
}

pub fn graph_stage(model: &Model, spans: &Recorder, quick: bool) -> GraphStage {
    fn timed<T>(spans: &Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = spans.scope(name, f);
        (out, t.elapsed().as_secs_f64())
    }

    let rss_before = rss_mb();
    let (sequential, explore_s) =
        timed(spans, "checker.explore", || adapter::check(&model.spec, 1));
    let check_rss_mb = (rss_mb() - rss_before).max(0.0);
    let (states, edges) = (sequential.state_count(), sequential.edge_count());

    let (dot, export_s) = timed(spans, "checker.dot_export", || {
        adapter::dot_export(&sequential)
    });
    drop(sequential);

    let (graph, import_s) = timed(spans, "checker.dot_import", || adapter::dot_import(&dot));
    assert_eq!(
        (graph.state_count(), graph.edge_count()),
        (states, edges),
        "DOT round-trip must keep every state and edge"
    );
    let dot_mb = dot.len() as f64 / MB;
    drop(dot);

    let (excluded, por_s) = timed(spans, "por.reduce", || adapter::por_excluded(&graph));
    let (ec, ec_s) = timed(spans, "traversal.ec", || {
        adapter::traverse(&graph, Default::default())
    });
    let (ecpor, ecpor_s) = timed(spans, "traversal.ecpor", || {
        adapter::traverse(&graph, excluded.clone())
    });
    let (plan_hash, materialize_s) = timed(spans, "testcase.materialize", || {
        fnv1a(
            ecpor
                .iter()
                .take(if quick { 500 } else { usize::MAX })
                .filter_map(|p| adapter::materialize(&graph, p))
                .flat_map(|(hash, _)| hash.into_bytes().into_iter().chain([b'\n'])),
        )
    });

    let layers = vec![
        ("checker.explore_s", explore_s),
        ("checker.states_per_s", states as f64 / explore_s),
        ("checker.states", states as f64),
        ("checker.edges", edges as f64),
        ("checker.rss_mb", check_rss_mb),
        ("checker.dot_export_s", export_s),
        ("checker.dot_import_s", import_s),
        ("checker.dot_mb", dot_mb),
        ("por.reduce_s", por_s),
        ("por.excluded_edges", excluded.len() as f64),
        ("traversal.ec_s", ec_s),
        ("traversal.ecpor_s", ecpor_s),
        ("traversal.paths_ec", ec.len() as f64),
        ("traversal.paths_ecpor", ecpor.len() as f64),
        ("testcase.materialize_s", materialize_s),
    ];
    GraphStage {
        graph,
        explore_s,
        layers,
        plan_hash,
    }
}

// ---- the per-layer report ----------------------------------------------

/// The plain in-process run an orchestrated run is compared with.
pub struct PlainBase {
    /// Case-loop seconds of `Pipeline::run_prepared`.
    pub loop_s: f64,
    pub seen: Vec<(usize, String)>,
    pub verdicts: Vec<(String, String)>,
}

#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Self time per span name of the traced round.
    self_times: BTreeMap<&'static str, f64>,
    mismatch: Option<String>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        self.values.extend(values);
    }

    /// Writes every value as `layer.<name>` and every span self time
    /// as `self.<span>`; a mismatch found while sampling is reported
    /// unless the round already has one.
    pub fn write(self, rec: &mut Record) {
        for (name, value) in self.values {
            rec.set(format!("layer.{name}"), value);
        }
        for (span, secs) in self.self_times {
            rec.set(format!("self.{span}"), secs);
        }
        if let (Some(m), None) = (self.mismatch, rec.text("mismatch")) {
            rec.set_text("mismatch", m);
        }
    }

    /// What the spans and the decorator saw of a traced round of
    /// `wall_s` seconds whose case loop ran `loop_s` seconds: span self
    /// times and the share of the round they account for, the SUT
    /// boundary, and what is left of the case loop for the harness
    /// side (pipeline, runner, scheduler, state check, triage).
    pub fn traced_round(&mut self, trace: &Trace, loop_s: f64, wall_s: f64) {
        self.self_times = spans::self_times(&trace.spans.spans());
        let unaccounted = self.self_times.get("round").copied().unwrap_or(wall_s);
        // `sut.make` spans have no children: self time is all of it.
        let make_s = self.self_times.get("sut.make").copied().unwrap_or(0.0);
        let o = trace.observed.lock().expect("observed-SUT lock poisoned");
        let c = &o.counters;
        // The highest percentile with at least ten samples beyond it;
        // with fewer than a hundred deployments, the maximum.
        let tail_pct = stats::supported_tail(o.case_ms.len()).unwrap_or(100.0);
        self.extend([
            ("bench.accounted_frac", 1.0 - unaccounted / wall_s),
            ("sut.make_s", make_s),
            ("sut.deploy_s", c.deploy_s),
            ("sut.offers_s", c.offers_s),
            ("sut.execute_s", c.execute_s),
            ("sut.snapshot_s", c.snapshot_s),
            ("sut.teardown_s", c.teardown_s),
            ("sut.deploys", c.deploys as f64),
            ("sut.offer_polls", c.offer_polls as f64),
            ("sut.executes", c.executes as f64),
            ("sut.snapshots", c.snapshots as f64),
            ("sut.polls_per_execute", c.polls_per_execute()),
            ("pipeline.run_s", loop_s),
            ("pipeline.self_s", loop_s - c.busy_s() - make_s),
            ("runner.case_ms_p50", stats::median(&o.case_ms)),
            ("runner.case_tail_pct", tail_pct),
            (
                "runner.case_ms_tail",
                stats::percentile(&o.case_ms, tail_pct),
            ),
        ]);
    }

    /// Triage cost: re-deployments per failure, and what was written.
    pub fn triage(&mut self, stage: &CaseStage, trace: &Trace, campaign_dir: Option<&Path>) {
        let deploys = trace
            .observed
            .lock()
            .expect("observed-SUT lock poisoned")
            .counters
            .deploys;
        let failures = stage.verdicts.len() as f64;
        let redeploys = if failures > 0.0 {
            (deploys as f64 - stage.seen.len() as f64) / failures
        } else {
            0.0
        };
        let artifact_bytes: u64 = stage
            .artifacts
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        let journal_bytes = campaign_dir.map_or(0, |d| named_bytes(d, "journal.log"));
        self.extend([
            ("triage.redeploys_per_failure", redeploys),
            ("artifact.files", stage.artifacts.len() as f64),
            ("artifact.mb", artifact_bytes as f64 / MB),
            ("journal.kb", journal_bytes as f64 / 1024.0),
        ]);
    }

    /// `runtime.threads_ms_per_case`: the first cases `run` selects
    /// (among `chosen`), once more on `Backend::Threads` without
    /// triage; every verdict must equal the sim run's (`sim_verdicts`,
    /// by stable hash; absent = passed). Guards the threaded adapter
    /// without making its scheduler noise an end-to-end metric.
    pub fn threads_sample(
        &mut self,
        model: &Model,
        run: &CaseRun,
        first: &[(usize, String)],
        sim_verdicts: &[(String, String)],
    ) {
        let chosen: BTreeSet<usize> = first.iter().map(|(idx, _)| *idx).collect();
        let run = CaseRun {
            triage: false,
            campaign_dir: None,
            ..run.clone()
        };
        let stage = case_stage(
            model,
            &run,
            Some(chosen),
            &ClusterBackend::Threads,
            &Trace::off(),
            adapter::pipeline_check,
        );
        let threaded: BTreeMap<&str, &str> = stage
            .verdicts
            .iter()
            .map(|(h, v)| (h.as_str(), v.as_str()))
            .collect();
        let simulated: BTreeMap<&str, &str> = sim_verdicts
            .iter()
            .map(|(h, v)| (h.as_str(), v.as_str()))
            .collect();
        for (idx, hash) in first {
            let (t, s) = (threaded.get(hash.as_str()), simulated.get(hash.as_str()));
            if t != s || stage.seen.len() != first.len() {
                self.mismatch.get_or_insert(format!(
                    "threads/sim parity, case {idx}: threads {t:?}, sim {s:?} ({} of {} cases ran)",
                    stage.seen.len(),
                    first.len()
                ));
            }
        }
        self.set(
            "runtime.threads_ms_per_case",
            stage.loop_s * 1e3 / stage.seen.len().max(1) as f64,
        );
    }

    /// `checker.par2_s`: the 2-worker exploration, which must export
    /// the sequential one's DOT byte for byte. Two busy threads (a
    /// parallel measurement only on two free cores), so it is a sample
    /// of the traced run and stays out of every timed round.
    pub fn par2_row(&mut self, model: &Model) {
        let sequential = adapter::dot_export(&adapter::check(&model.spec, 1));
        let t = Instant::now();
        let parallel = adapter::check(&model.spec, 2);
        self.set("checker.par2_s", t.elapsed().as_secs_f64());
        if adapter::dot_export(&parallel) != sequential {
            self.mismatch.get_or_insert(
                "2-worker exploration does not export the sequential DOT byte for byte".to_string(),
            );
        }
    }

    /// `tla.fingerprint_ns` and `specs.successors_us` over every state
    /// of the model's graph.
    pub fn spec_rows(&mut self, model: &Model, graph: &Graph) {
        self.set(
            "tla.fingerprint_ns",
            adapter::fingerprint_ns_per_state(graph),
        );
        self.set(
            "specs.successors_us",
            adapter::successors_us_per_state(&model.spec, graph),
        );
    }

    /// Scheduler and state-checker rows replayed from the offers and
    /// snapshots the decorator kept; event and journal appends into
    /// scratch files.
    pub fn micro_rows(&mut self, model: &Model, trace: &Trace, scratch: &Path, quick: bool) {
        let shrink = if quick { 10 } else { 1 };
        let o = trace.observed.lock().expect("observed-SUT lock poisoned");
        self.extend([
            (
                "scheduler.translate_us",
                adapter::translate_us(&model.registry, &o.offers, 40),
            ),
            (
                "statecheck.check_us",
                adapter::check_state_us(model, &o.snapshots, 40),
            ),
            (
                "obs.event_append_us",
                adapter::obs_event_append_us(&scratch.join("obs-sample"), 10_000 / shrink),
            ),
            (
                "fsio.append_us",
                adapter::fsio_append_us(scratch, 2_000 / shrink),
            ),
        ]);
    }

    /// Runs the first `limit` cases of the model's unreduced suite
    /// through the orchestrator in-process on two worker threads, and
    /// records its phases and what it left in `dir` (which must be
    /// empty: leftover shard markers would retire shards unrun).
    pub fn orchestrated(
        &mut self,
        model: &Model,
        target: &str,
        seed: u64,
        limit: usize,
        trace: &Trace,
        dir: &Path,
    ) -> Orchestrated {
        let shard_size = CAMPAIGN_SHARD_SIZE.min(limit.div_ceil(CAMPAIGN_WORKERS));
        let spec = CampaignSpec {
            target,
            seed,
            limit,
            shard_size,
            workers: CAMPAIGN_WORKERS,
        };
        let run = adapter::orchestrated(model, &spec, dir, trace);
        let files = files_under(dir);
        let bytes: u64 = files.iter().map(|(_, bytes)| bytes).sum();
        self.extend([
            ("orchestrator.plan_s", run.plan_s),
            ("orchestrator.workers_s", run.workers_s),
            ("orchestrator.merge_s", run.merge_s),
            ("orchestrator.dir_mb", bytes as f64 / MB),
            ("orchestrator.files", files.len() as f64),
            (
                "obs.events_mb",
                named_bytes(dir, "events.jsonl") as f64 / MB,
            ),
        ]);
        run
    }

    /// The same `limit` cases run plainly through one pipeline, as the
    /// base of `orchestrator.tax`: worker-seconds the orchestrator
    /// spent per plain second, `workers_s x workers / base_s`.
    pub fn orchestrator_tax(
        &mut self,
        model: &Model,
        seed: u64,
        limit: usize,
        run: &Orchestrated,
    ) -> PlainBase {
        let plain = adapter::campaign_run(limit);
        let backend = ClusterBackend::Sim(adapter::Sim::new(seed));
        let base = case_stage(model, &plain, None, &backend, &Trace::off(), |p| {
            adapter::pipeline_check(p)
        });
        if base.seen.len() != run.merged.cases_with_verdict {
            self.mismatch.get_or_insert(format!(
                "orchestrator sample: {} cases plainly, {} with a verdict after merge",
                base.seen.len(),
                run.merged.cases_with_verdict
            ));
        }
        self.set(
            "orchestrator.tax",
            run.workers_s * CAMPAIGN_WORKERS as f64 / base.loop_s,
        );
        PlainBase {
            loop_s: base.loop_s,
            seen: base.seen,
            verdicts: base.verdicts,
        }
    }
}
