//! The four workloads and what one round of each does.
//!
//! A round is one full spec-to-verdict pass at the workload's stated
//! size, executed in a fresh process so its CPU and peak RSS are its
//! own. The three in-process workloads run through [`run_round`] in a
//! self-exec'd child of this binary; `xraft-campaign` is the product's
//! own `mocket-cli campaign` (see `driver.rs`), and only its traced
//! round comes through here, driving the orchestrator in-process.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mocket_raft_async::XraftBugs;
use mocket_raft_sync::SyncRaftBugs;
use mocket_sim::SimRng;
use mocket_zab::ZabBugs;

use crate::adapter::{self, CaseRun, ClusterBackend, Graph, Model, Pipeline, Sim};
use crate::expected::Pins;
use crate::layers::{self, Layers};
use crate::procstat::Pin;
use crate::record::Record;
use crate::spans;
use crate::timed_sut::Trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZabPass,
    RaftJavaGraph,
    XraftBugs,
    XraftCampaign,
}

/// Worker processes (or threads) of the campaign workload, and of the
/// orchestrator sample the other workloads' traced runs take.
pub const CAMPAIGN_WORKERS: usize = 2;
pub const CAMPAIGN_SHARD_SIZE: usize = 64;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZabPass,
        Workload::RaftJavaGraph,
        Workload::XraftBugs,
        Workload::XraftCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZabPass => "zab-pass",
            Workload::RaftJavaGraph => "raftjava-graph",
            Workload::XraftBugs => "xraft-bugs",
            Workload::XraftCampaign => "xraft-campaign",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::ZabPass => {
                "Longest cases, all passing: runner, scheduler, state check, cluster runtime and node code do >95% of the work; checker and disk almost none."
            }
            Workload::RaftJavaGraph => {
                "37k-state model: check, DOT round-trip, POR, both traversals and plan materialisation dominate (0.75 GB RSS); few cases run. The mirror image of zab-pass."
            }
            Workload::XraftBugs => {
                "Seeded bug, every case fails: confirmation re-runs, ddmin, explanations, artifact and journal writes; the runner layer used the other way."
            }
            Workload::XraftCampaign => {
                "mocket-cli campaign, 2 worker processes: plan, leases, heartbeats, per-worker re-check, per-shard journals and merge; the only workload with process spawn."
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pin-file key (and campaign target name) of the workload's model.
    pub fn model_key(self) -> &'static str {
        match self {
            Workload::ZabPass => "zookeeper",
            Workload::RaftJavaGraph => "raft-java",
            Workload::XraftBugs | Workload::XraftCampaign => "xraft",
        }
    }

    pub fn model(self) -> Model {
        match self {
            Workload::ZabPass => Model::zookeeper(ZabBugs::none()),
            Workload::RaftJavaGraph => Model::raft_java(SyncRaftBugs::none()),
            Workload::XraftBugs => Model::xraft(XraftBugs {
                duplicate_vote_counting: true,
                ..XraftBugs::none()
            }),
            Workload::XraftCampaign => Model::xraft(XraftBugs::none()),
        }
    }

    /// Which cases of the POR-reduced suite a round runs. Per-case
    /// cost drifts along a suite (neighbouring cases share prefixes),
    /// so each band is a stretch where it is flat, measured in virtual
    /// time per window (README.md, "Workload sizes"): every seed then
    /// draws the same mix of case lengths and verdicts, and what is
    /// left between runs is the host's noise.
    fn sample(self, quick: bool) -> Sample {
        let shrink = |window: usize| if quick { window / 8 } else { window };
        match self {
            // 400-case windows anywhere in here cost 6.63-6.80 virtual
            // seconds (7.1 before, 6.4 after); a round runs 1000 cases.
            Workload::ZabPass => Sample {
                band: (3500, 12900),
                window: shrink(1000),
                stride: 1,
            },
            // Raft-java's cost per window swings 2x along the suite
            // (2.1-5.7 virtual seconds per 300 cases); one stretch,
            // sampled every other case.
            Workload::RaftJavaGraph => Sample {
                band: (600, 1260),
                window: shrink(600),
                stride: 1,
            },
            // Exactly the cases the seeded bug fails (indices
            // 38..1531); each costs the same, whatever its length.
            Workload::XraftBugs => Sample {
                band: (38, 1531),
                window: shrink(480),
                stride: 3,
            },
            Workload::XraftCampaign => {
                unreachable!("the campaign runs a plan prefix, not a sample")
            }
        }
    }

    /// `--limit` of the campaign: the first N cases of the unreduced
    /// Xraft suite (N = the size of the reduced one, the count the
    /// ledger's other Xraft rows use).
    pub fn campaign_limit(quick: bool) -> usize {
        if quick {
            256
        } else {
            1024
        }
    }
}

/// A seed-driven draw from the case suite.
struct Sample {
    /// Plan indices the draw stays inside.
    band: (usize, usize),
    /// Cases run.
    window: usize,
    /// One case is drawn from every block of this many consecutive
    /// indices (1 = a contiguous window).
    stride: usize,
}

struct Selection {
    range: (usize, usize),
    /// `None` runs every case in `range`.
    chosen: Option<BTreeSet<usize>>,
}

impl Sample {
    fn select(&self, seed: u64) -> Selection {
        let mut rng = SimRng::new(seed);
        let span = self.window * self.stride;
        let slack = (self.band.1 - self.band.0).saturating_sub(span);
        let start = self.band.0 + rng.below(slack as u64 + 1) as usize;
        let chosen = (self.stride > 1).then(|| {
            (0..self.window)
                .map(|block| start + block * self.stride + rng.below(self.stride as u64) as usize)
                .collect()
        });
        Selection {
            range: (start, start + span),
            chosen,
        }
    }
}

/// Cases the traced run repeats on `Backend::Threads`.
fn threads_sample_size(quick: bool) -> usize {
    if quick {
        16
    } else {
        100
    }
}

/// FNV-1a, the product's own plan fingerprint function, over bytes.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ---- the case stage ----------------------------------------------------

/// What a `Pipeline::run_prepared` call leaves for the checks and the
/// per-layer report.
pub struct CaseStage {
    pub graph: Graph,
    /// `(plan index, stable hash)` of every case run, in order.
    pub seen: Vec<(usize, String)>,
    /// `(stable hash, "kind:subject")` of every report.
    pub verdicts: Vec<(String, String)>,
    pub passed: usize,
    pub quarantined: usize,
    pub artifacts: Vec<PathBuf>,
    /// states, edges, paths_ec, paths_ecpor, por_excluded.
    pub effort: [(&'static str, usize); 5],
    /// When the first `make_sut` call arrived.
    pub first_case_at: Option<Instant>,
    /// Seconds from then to the end of `run_prepared`.
    pub loop_s: f64,
}

/// Runs `run` through `Pipeline::run_prepared`, recording which cases
/// ran and when the first one could. `prepare` supplies the checked
/// graph (through `Pipeline::check`, or the workload's own graph
/// stage).
pub fn case_stage(
    model: &Model,
    run: &CaseRun,
    chosen: Option<BTreeSet<usize>>,
    backend: &ClusterBackend,
    trace: &Trace,
    prepare: impl FnOnce(&Pipeline) -> (Graph, f64),
) -> CaseStage {
    let seen: Arc<Mutex<Vec<(usize, String)>>> = Arc::default();
    let mut run = run.clone();
    run.hook = Some({
        let (seen, spans) = (seen.clone(), trace.spans.clone());
        Arc::new(move |idx, hash: &str| {
            let wanted = chosen.as_ref().is_none_or(|c| c.contains(&idx));
            if wanted {
                seen.lock()
                    .expect("seen-cases lock poisoned")
                    .push((idx, hash.to_string()));
                spans.set_case(idx as u64);
            }
            wanted
        })
    });
    let p = adapter::pipeline(model, &run, backend);
    let (graph, check_s) = prepare(&p);

    let span = trace.spans.enter("pipeline.run_prepared");
    let started = Instant::now();
    let mut first_case_at = None;
    let result = adapter::run_prepared(&p, graph, check_s, || {
        first_case_at.get_or_insert_with(Instant::now);
        let sut = trace
            .spans
            .scope("sut.make", || model.make_sut(backend.clone()));
        trace.wrap(sut)
    });
    let ended = Instant::now();
    let first = first_case_at.unwrap_or(ended);
    trace
        .spans
        .record("pipeline.generate_paths", started, first);
    trace.spans.exit(span);

    let seen = std::mem::take(&mut *seen.lock().expect("seen-cases lock poisoned"));
    CaseStage {
        seen,
        verdicts: adapter::report_verdicts(&result),
        passed: result.passed,
        quarantined: result.quarantined.len(),
        effort: [
            ("states", result.effort.states),
            ("edges", result.effort.edges),
            ("paths_ec", result.effort.paths_ec),
            ("paths_ecpor", result.effort.paths_ec_por),
            ("por_excluded", result.effort.por_excluded_edges),
        ],
        artifacts: result.artifacts,
        graph: result.graph,
        first_case_at,
        loop_s: (ended - first).as_secs_f64(),
    }
}

/// Compares a case stage against the pins: graph and path counts of
/// the model, and the verdict every case run must have reached.
/// Returns `(cases failed, first mismatch)`.
fn check_case_stage(
    w: Workload,
    stage: &CaseStage,
    expected_cases: usize,
    pins: &Pins,
) -> (usize, Option<String>) {
    let mut mismatch: Option<String> = None;
    let mut note = |m: String| {
        mismatch.get_or_insert(m);
    };
    for (key, actual) in stage.effort {
        let pin = format!("{}.{key}", w.model_key());
        if pins.count(&pin) != Some(actual as u64) {
            note(format!(
                "{pin}: pinned {:?}, got {actual}",
                pins.count(&pin)
            ));
        }
    }
    if stage.seen.len() != expected_cases {
        note(format!(
            "cases run: expected {expected_cases}, got {}",
            stage.seen.len()
        ));
    }

    let failing = pins.index_set(&format!("{}.failing", w.name()));
    let verdict = pins.text(&format!("{}.verdict", w.name()));
    let reported: BTreeMap<&str, &str> = stage
        .verdicts
        .iter()
        .map(|(h, v)| (h.as_str(), v.as_str()))
        .collect();
    let mut failed = stage.quarantined;
    for (idx, hash) in &stage.seen {
        let expected = if failing.contains(*idx) {
            verdict
        } else {
            None
        };
        let actual = reported.get(hash.as_str()).copied();
        if actual != expected {
            failed += 1;
            note(format!("case {idx}: expected {expected:?}, got {actual:?}"));
        }
    }
    let disposed = stage.passed + stage.verdicts.len() + stage.quarantined;
    if disposed != stage.seen.len() {
        failed += stage.seen.len().abs_diff(disposed);
        note(format!(
            "{} cases entered, {disposed} reached a disposition",
            stage.seen.len()
        ));
    }
    (failed, mismatch)
}

/// Count metrics that must repeat exactly for one seed.
fn case_counts(rec: &mut Record, stage: &CaseStage, sim: &Sim) {
    for (key, n) in stage.effort {
        rec.set(format!("count.{key}"), n as f64);
    }
    rec.set("count.cases", stage.seen.len() as f64);
    rec.set("count.passed", stage.passed as f64);
    rec.set("count.reports", stage.verdicts.len() as f64);
    let mut by_verdict: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, verdict) in &stage.verdicts {
        *by_verdict.entry(verdict).or_default() += 1;
    }
    for (verdict, n) in by_verdict {
        rec.set(format!("count.reports.{verdict}"), n as f64);
    }
    rec.set("count.sim_virtual_ns", sim.clock.now_nanos() as f64);
}

// ---- rounds ------------------------------------------------------------

/// One round of an in-process workload (or the traced, in-process
/// round of the campaign). `scratch` is an empty directory the round
/// may fill; sizes are read from it before returning.
pub fn run_round(w: Workload, seed: u64, quick: bool, traced: bool, scratch: &Path) -> Record {
    let trace = if traced { Trace::on() } else { Trace::off() };
    let rec = match w {
        Workload::XraftCampaign => campaign_round(seed, quick, &trace, scratch),
        _ => cases_round(w, seed, quick, &trace, scratch),
    };
    if traced {
        let spans = spans::to_jsonl(&trace.spans.spans());
        std::fs::write(scratch.join("spans.jsonl"), spans)
            .expect("benchmark scratch dir is writable");
    }
    rec
}

fn cases_round(w: Workload, seed: u64, quick: bool, trace: &Trace, scratch: &Path) -> Record {
    let pins = Pins::load();
    let model = w.model();
    let sim = Sim::new(seed);
    let backend = ClusterBackend::Sim(sim.clone());
    let sample = w.sample(quick);
    let selection = sample.select(seed);
    let campaign_dir = (w == Workload::XraftBugs).then(|| scratch.join("campaign"));
    let run = CaseRun {
        por: true,
        range: Some(selection.range),
        triage: true,
        campaign_dir: campaign_dir.clone(),
        ..CaseRun::default()
    };
    let mut rec = Record::default();
    let mut graph_layers = None;

    // One busy thread at a time from here to the last verdict: the
    // round stays on the CPU it started on.
    let pin = Pin::current_cpu();
    let started = Instant::now();
    let root = trace.spans.enter("round");
    let stage = case_stage(&model, &run, selection.chosen, &backend, trace, |p| {
        if w == Workload::RaftJavaGraph {
            let g = layers::graph_stage(&model, &trace.spans, quick);
            rec.set_text("count.plan_hash", g.plan_hash);
            graph_layers = Some(g.layers);
            (g.graph, g.explore_s)
        } else {
            trace
                .spans
                .scope("checker.explore", || adapter::pipeline_check(p))
        }
    });
    trace.spans.exit(root);
    let wall_s = started.elapsed().as_secs_f64();
    drop(pin);
    let setup_s = stage
        .first_case_at
        .map_or(wall_s, |t| (t - started).as_secs_f64());

    let (failed, mismatch) = check_case_stage(w, &stage, sample.window, &pins);
    rec.set("wall_s", wall_s);
    rec.set("setup_s", setup_s);
    rec.set("cases", stage.seen.len() as f64);
    rec.set("failed", failed as f64);
    if let Some(m) = mismatch {
        rec.set_text("mismatch", m);
    }
    case_counts(&mut rec, &stage, &sim);

    if trace.spans.is_enabled() {
        let mut layers = Layers::default();
        layers.traced_round(trace, stage.loop_s, wall_s);
        layers.set("sim.virtual_s", sim.clock.now_nanos() as f64 / 1e9);
        layers.triage(&stage, trace, campaign_dir.as_deref());
        let sample = stage.seen.len().min(threads_sample_size(quick));
        layers.threads_sample(&model, &run, &stage.seen[..sample], &stage.verdicts);
        let CaseStage { graph, .. } = stage;
        let graph = match graph_layers {
            Some(measured_in_round) => {
                layers.extend(measured_in_round);
                graph
            }
            None => {
                drop(graph);
                let g = layers::graph_stage(&model, &spans::Recorder::disabled(), quick);
                layers.extend(g.layers);
                g.graph
            }
        };
        layers.spec_rows(&model, &graph);
        drop(graph);
        layers.par2_row(&model);
        layers.micro_rows(&model, trace, scratch, quick);
        let limit = if quick { 32 } else { 2 * CAMPAIGN_SHARD_SIZE };
        let o = layers.orchestrated(
            &model,
            w.model_key(),
            seed,
            limit,
            &Trace::off(),
            &scratch.join("orchestrated"),
        );
        layers.orchestrator_tax(&model, seed, limit, &o);
        layers.write(&mut rec);
    }
    rec
}

/// The campaign's traced round: the orchestrator driven in-process
/// (pin plan, `worker_loop` on two threads, merge) — the CLI cannot be
/// timed from inside. `wall_s`/`setup_s` of this record are the
/// in-process figures; the end-to-end metrics always come from the CLI
/// rounds.
fn campaign_round(seed: u64, quick: bool, trace: &Trace, scratch: &Path) -> Record {
    let w = Workload::XraftCampaign;
    let pins = Pins::load();
    let model = w.model();
    let limit = Workload::campaign_limit(quick);
    let dir = scratch.join("campaign");
    let mut rec = Record::default();
    let mut layers = Layers::default();

    let started = Instant::now();
    let root = trace.spans.enter("round");
    let o = layers.orchestrated(&model, w.model_key(), seed, limit, trace, &dir);
    trace.spans.exit(root);
    let wall_s = started.elapsed().as_secs_f64();

    let merged = &o.merged;
    rec.set("wall_s", wall_s);
    rec.set("setup_s", o.plan_s);
    rec.set("cases", limit as f64);
    rec.set("failed", (limit - merged.cases_passed.min(limit)) as f64);
    rec.set("count.cases", merged.cases_with_verdict as f64);
    rec.set("count.passed", merged.cases_passed as f64);
    rec.set_text("count.plan_hash", o.plan_hash.clone());
    for (key, value) in canonical_output_hashes(&dir) {
        rec.set_text(format!("count.{key}"), value);
    }
    if let Some(m) = check_campaign_outputs(&rec, limit, quick, &pins) {
        rec.set_text("mismatch", m);
    }

    // Two worker threads ran case loops side by side: thread-seconds.
    layers.traced_round(trace, o.workers_s * CAMPAIGN_WORKERS as f64, wall_s);
    let base = layers.orchestrator_tax(&model, seed, limit, &o);
    layers.extend([
        ("sim.virtual_s", o.virtual_ns as f64 / 1e9),
        ("orchestrator.base_s", base.loop_s),
        // Every campaign case passes: no triage, no artifacts.
        ("triage.redeploys_per_failure", 0.0),
        ("artifact.files", merged.artifacts_copied as f64),
        ("artifact.mb", 0.0),
        (
            "journal.kb",
            std::fs::metadata(dir.join("journal.log")).map_or(0.0, |m| m.len() as f64 / 1024.0),
        ),
    ]);
    let g = layers::graph_stage(&model, &spans::Recorder::disabled(), quick);
    layers.extend(g.layers);
    layers.spec_rows(&model, &g.graph);
    drop(g.graph);
    layers.par2_row(&model);
    layers.micro_rows(&model, trace, scratch, quick);
    let plain = adapter::campaign_run(limit);
    let sample = base.seen.len().min(threads_sample_size(quick));
    layers.threads_sample(&model, &plain, &base.seen[..sample], &base.verdicts);
    layers.write(&mut rec);
    rec
}

/// FNV-1a of the campaign's canonical outputs, keyed for the
/// exact-repeat check.
pub fn canonical_output_hashes(campaign_dir: &Path) -> Vec<(&'static str, String)> {
    [
        ("journal_fnv", "journal.log"),
        ("coverage_fnv", "coverage.json"),
    ]
    .into_iter()
    .map(|(key, file)| {
        let bytes = std::fs::read(campaign_dir.join(file)).unwrap_or_default();
        (key, fnv1a(bytes))
    })
    .collect()
}

/// Checks a campaign record (CLI or in-process) against the pins:
/// every planned case reached a passing verdict and the canonical
/// outputs are the pinned bytes.
pub fn check_campaign_outputs(
    rec: &Record,
    limit: usize,
    quick: bool,
    pins: &Pins,
) -> Option<String> {
    for key in ["count.cases", "count.passed"] {
        if rec.num(key) != Some(limit as f64) {
            return Some(format!("{key}: expected {limit}, got {:?}", rec.num(key)));
        }
    }
    if quick {
        return None;
    }
    for key in ["plan_hash", "journal_fnv", "coverage_fnv"] {
        let pinned = pins.text(&format!("xraft-campaign.{key}"));
        let actual = rec.text(&format!("count.{key}"));
        if pinned != actual {
            return Some(format!(
                "xraft-campaign.{key}: pinned {pinned:?}, got {actual:?}"
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_a_pure_function_of_the_seed_and_stays_in_band() {
        for w in [
            Workload::ZabPass,
            Workload::RaftJavaGraph,
            Workload::XraftBugs,
        ] {
            let sample = w.sample(false);
            for seed in [0, 7, 42, u64::MAX] {
                let (a, b) = (sample.select(seed), sample.select(seed));
                assert_eq!(a.range, b.range);
                assert_eq!(a.chosen, b.chosen);
                assert!(
                    sample.band.0 <= a.range.0 && a.range.1 <= sample.band.1,
                    "{w:?} seed {seed}"
                );
                match &a.chosen {
                    None => assert_eq!(a.range.1 - a.range.0, sample.window),
                    Some(chosen) => {
                        assert_eq!(chosen.len(), sample.window);
                        // Exactly one case per stride-block.
                        for (block, idx) in chosen.iter().enumerate() {
                            let lo = a.range.0 + block * sample.stride;
                            assert!((lo..lo + sample.stride).contains(idx));
                        }
                    }
                }
            }
            assert_ne!(
                sample.select(1).range,
                sample.select(2).range,
                "{w:?}: seeds move the draw"
            );
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a([]), "cbf29ce484222325");
        assert_eq!(fnv1a(*b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
