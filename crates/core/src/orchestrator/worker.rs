//! The campaign worker: claims shards, runs them through the
//! pipeline, attributes crashes, and quarantines poison cases.
//!
//! A worker is one crash-isolated process (the hidden
//! `mocket-cli campaign-worker` subcommand) and one pipeline run. It
//! model-checks the spec and generates the case set once, verifies
//! them against the pinned plan, then loops: claim a shard (fresh or
//! stolen), drive exactly that case-index window of its run with a
//! per-case gate, retire the shard, repeat until every shard is done
//! or a drain is requested. A shard costs its cases plus the lease and
//! journal protocol; the run is summarised once, when the loop ends.
//!
//! Crash attribution: when a worker claims a shard and finds the lease
//! record of a dead owner, it reads the victim's in-flight case from it
//! and records a crash in
//! `quarantine/crashes.log` — unless the shard journal already holds
//! a verdict for that case (the victim died *after* journaling, so
//! the case is innocent). A case whose crash count reaches the poison
//! threshold K is quarantined: it is appended to
//! `quarantine/poisoned.log`, a synthetic replay artifact is written
//! next to it, and every later worker's gate skips it — the campaign
//! completes instead of crash-looping forever.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mocket_checker::{EdgeId, StateGraph};
use mocket_tla::ActionInstance;

use crate::artifact::{CampaignJournal, ReplayArtifact};
use crate::pipeline::{CaseGate, Pipeline};
use crate::report::{Determinism, Inconsistency};
use crate::runner::RunConfig;
use crate::sut::SystemUnderTest;
use crate::testcase::TestCase;

use super::kv;
use super::lease::{
    shard_data_dir, try_claim, wait_unlocked, ClaimOutcome, LeaseConfig, LeaseHandle, LeaseInfo,
};
use super::plan::CampaignPlan;
use super::procs::sigkill_self;
use crate::fsio::{points, AppendLog, LineIssue};

/// Transient drain-request marker inside a campaign directory.
pub const DRAIN_FILE_NAME: &str = "drain";
/// Quarantine subdirectory (crash log, poison log, poison artifacts).
pub const QUARANTINE_DIR_NAME: &str = "quarantine";
/// Crash-attribution log inside the quarantine directory.
pub const CRASH_LOG_FILE_NAME: &str = "crashes.log";
/// Poisoned-case log inside the quarantine directory.
pub const POISON_LOG_FILE_NAME: &str = "poisoned.log";
/// One-shot marker consumed by the crash-injection test hook.
const CRASH_INJECTED_FILE_NAME: &str = "crash-injected";

/// Whether a drain has been requested for this campaign.
pub fn drain_requested(campaign_dir: &Path) -> bool {
    campaign_dir.join(DRAIN_FILE_NAME).exists()
}

/// Requests a graceful drain: every worker stops at its next case
/// boundary, journals intact.
pub fn request_drain(campaign_dir: &Path) -> io::Result<()> {
    fs::create_dir_all(campaign_dir)?;
    fs::write(campaign_dir.join(DRAIN_FILE_NAME), "drain\n")
}

/// Removes a stale drain marker (done at campaign start, so a
/// previously interrupted campaign resumes instead of instantly
/// draining again).
pub fn clear_drain_marker(campaign_dir: &Path) {
    let _ = fs::remove_file(campaign_dir.join(DRAIN_FILE_NAME));
}

fn quarantine_dir(campaign_dir: &Path) -> PathBuf {
    campaign_dir.join(QUARANTINE_DIR_NAME)
}

/// One attributed worker crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// Plan index of the in-flight case.
    pub case: usize,
    /// Stable hash of the in-flight case.
    pub hash: String,
    /// The worker id that died.
    pub worker: usize,
    /// Its pid.
    pub pid: u32,
}

impl CrashRecord {
    fn render(&self) -> String {
        kv::render(
            "crash:",
            &[
                ("case", self.case.to_string()),
                ("hash", self.hash.clone()),
                ("worker", self.worker.to_string()),
                ("pid", self.pid.to_string()),
            ],
        )
    }

    fn parse(line: &str) -> Option<CrashRecord> {
        let f = kv::parse(line).filter(|f| f.head == "crash:")?;
        Some(CrashRecord {
            case: f.num("case")?,
            hash: f.get("hash")?.to_string(),
            worker: f.num("worker")?,
            pid: f.num("pid")?,
        })
    }
}

/// One quarantined poison case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonRecord {
    /// Plan index of the case.
    pub case: usize,
    /// Stable hash of the case.
    pub hash: String,
    /// Crash count that tripped the threshold.
    pub crashes: usize,
}

impl PoisonRecord {
    fn render(&self) -> String {
        kv::render(
            "poison:",
            &[
                ("case", self.case.to_string()),
                ("hash", self.hash.clone()),
                ("crashes", self.crashes.to_string()),
            ],
        )
    }

    fn parse(line: &str) -> Option<PoisonRecord> {
        let f = kv::parse(line).filter(|f| f.head == "poison:")?;
        Some(PoisonRecord {
            case: f.num("case")?,
            hash: f.get("hash")?.to_string(),
            crashes: f.num("crashes")?,
        })
    }
}

fn quarantine_log(campaign_dir: &Path, name: &str) -> AppendLog {
    AppendLog::new(
        quarantine_dir(campaign_dir).join(name),
        points::QUARANTINE_APPEND,
    )
}

/// Every attributed crash on record, in append order, plus the lines
/// the [`AppendLog`] salvage refused.
pub fn load_crashes(campaign_dir: &Path) -> io::Result<(Vec<CrashRecord>, Vec<LineIssue>)> {
    quarantine_log(campaign_dir, CRASH_LOG_FILE_NAME).load(|line| {
        CrashRecord::parse(line).ok_or_else(|| format!("not a crash record: {line:?}"))
    })
}

/// Every quarantined case on record, in append order, plus the lines
/// the [`AppendLog`] salvage refused — a refused line un-quarantines
/// its case, so callers surface them.
pub fn load_poisoned(campaign_dir: &Path) -> io::Result<(Vec<PoisonRecord>, Vec<LineIssue>)> {
    quarantine_log(campaign_dir, POISON_LOG_FILE_NAME).load(|line| {
        PoisonRecord::parse(line).ok_or_else(|| format!("not a poison record: {line:?}"))
    })
}

/// Refused quarantine-log lines, each named with its file.
pub(super) fn describe_issues(crashes: &[LineIssue], poisoned: &[LineIssue]) -> Vec<String> {
    let name = |file: &'static str| move |issue: &LineIssue| format!("{file} {issue}");
    crashes
        .iter()
        .map(name(CRASH_LOG_FILE_NAME))
        .chain(poisoned.iter().map(name(POISON_LOG_FILE_NAME)))
        .collect()
}

/// What [`record_worker_crash`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashDisposition {
    /// The dead owner's lease carried no in-flight case — the victim died
    /// between cases; nothing to attribute.
    NoInflightCase,
    /// The shard journal already holds a verdict for the in-flight
    /// case: the victim died *after* finishing it. No crash recorded.
    AlreadyJournaled,
    /// The crash was attributed to the in-flight case.
    Recorded {
        /// Total attributed crashes for this case, including this one.
        total: usize,
        /// Whether this crash tripped the poison threshold (the case
        /// is now quarantined).
        poisoned: bool,
    },
}

/// Records a stolen lease's in-flight case as a crash, quarantining
/// the case once its crash count reaches `threshold`. Called by the
/// holder of the shard's lock, which serializes counting per shard.
/// `artifact_for` materializes the quarantine replay artifact for a
/// plan index (`None` when the case cannot be rebuilt — the poison
/// record is still written).
pub fn record_worker_crash(
    campaign_dir: &Path,
    shard: usize,
    victim: &LeaseInfo,
    threshold: usize,
    artifact_for: &dyn Fn(usize) -> Option<ReplayArtifact>,
) -> io::Result<CrashDisposition> {
    let Some((case, hash)) = victim.case.clone() else {
        return Ok(CrashDisposition::NoInflightCase);
    };
    let shard_dir = shard_data_dir(campaign_dir, shard);
    let (journaled, _) = CampaignJournal::load_entries(&shard_dir)?;
    if journaled.contains_key(&hash) {
        return Ok(CrashDisposition::AlreadyJournaled);
    }
    let qdir = quarantine_dir(campaign_dir);
    fs::create_dir_all(&qdir)?;
    let record = CrashRecord {
        case,
        hash: hash.clone(),
        worker: victim.worker,
        pid: victim.pid,
    };
    quarantine_log(campaign_dir, CRASH_LOG_FILE_NAME).append(&record.render())?;
    let (crashes, crash_issues) = load_crashes(campaign_dir)?;
    let (already, poison_issues) = load_poisoned(campaign_dir)?;
    for issue in describe_issues(&crash_issues, &poison_issues) {
        eprintln!("[mocket-worker] quarantine {issue}");
    }
    let total = crashes.iter().filter(|c| c.hash == hash).count();
    let poisoned = total >= threshold.max(1) && !already.iter().any(|p| p.hash == hash);
    if poisoned {
        let record = PoisonRecord {
            case,
            hash: hash.clone(),
            crashes: total,
        };
        quarantine_log(campaign_dir, POISON_LOG_FILE_NAME).append(&record.render())?;
        if let Some(artifact) = artifact_for(case) {
            if let Err(e) = artifact.write_to(&qdir) {
                eprintln!("[mocket-worker] quarantine artifact write failed: {e}");
            }
        }
    }
    Ok(CrashDisposition::Recorded { total, poisoned })
}

/// How an injected crash kills the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// `std::process::abort()` — simulates an escaped panic/OOM kill.
    Abort,
    /// Self-delivered SIGKILL — simulates `kill -9`.
    Sigkill,
}

/// Test-only failure injection, driven by environment variables so
/// integration tests and the CI smoke job can crash real worker
/// processes deterministically.
#[derive(Debug, Clone, Default)]
pub struct InjectionConfig {
    /// Crash once (guarded by a campaign-wide marker file) when the
    /// given case index comes in flight. `MOCKET_CAMPAIGN_INJECT_CRASH`
    /// = `abort:<idx>` or `sigkill:<idx>`.
    pub crash: Option<(CrashKind, usize)>,
    /// Abort on *every* attempt of the given case index — a
    /// deterministic poison case. `MOCKET_CAMPAIGN_POISON_CASE=<idx>`.
    pub poison: Option<usize>,
    /// Write the drain marker when the given case index comes in
    /// flight. `MOCKET_CAMPAIGN_INJECT_DRAIN=<idx>`.
    pub drain: Option<usize>,
}

impl InjectionConfig {
    /// Parses the three injection values (already read from the
    /// environment). Unparseable values are ignored.
    pub fn parse(
        crash: Option<&str>,
        poison: Option<&str>,
        drain: Option<&str>,
    ) -> InjectionConfig {
        InjectionConfig {
            crash: crash.and_then(|v| {
                let (kind, idx) = v.split_once(':')?;
                let idx = idx.parse().ok()?;
                match kind {
                    "abort" => Some((CrashKind::Abort, idx)),
                    "sigkill" => Some((CrashKind::Sigkill, idx)),
                    _ => None,
                }
            }),
            poison: poison.and_then(|v| v.parse().ok()),
            drain: drain.and_then(|v| v.parse().ok()),
        }
    }

    /// Reads the injection hooks from the process environment.
    pub fn from_env() -> InjectionConfig {
        InjectionConfig::parse(
            std::env::var("MOCKET_CAMPAIGN_INJECT_CRASH")
                .ok()
                .as_deref(),
            std::env::var("MOCKET_CAMPAIGN_POISON_CASE").ok().as_deref(),
            std::env::var("MOCKET_CAMPAIGN_INJECT_DRAIN")
                .ok()
                .as_deref(),
        )
    }
}

/// Worker-side configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The campaign directory.
    pub campaign_dir: PathBuf,
    /// This worker's slot id under the supervisor.
    pub worker_id: usize,
    /// Lease timing. A worker reads neither field: with nothing to
    /// claim it blocks on a busy shard's lock instead of idling.
    pub lease: LeaseConfig,
    /// Crash count at which a case is quarantined.
    pub poison_threshold: usize,
    /// Short hash of the verified campaign plan, pinned into every
    /// lease this worker writes — so stealers and a re-elected
    /// supervisor can prove which plan epoch the owner executed.
    pub plan_hash: String,
    /// Failure injection (test hooks), normally all `None`.
    pub inject: InjectionConfig,
}

/// Everything a worker needs besides the config: the pinned plan and
/// the deterministically regenerated model artifacts it was verified
/// against.
pub struct WorkerContext<'a> {
    /// The pinned campaign plan.
    pub plan: &'a CampaignPlan,
    /// Spec name recorded in quarantine artifacts.
    pub spec_name: &'a str,
    /// Spec/model identity recorded in quarantine artifacts.
    pub spec_config: &'a str,
    /// Runner config recorded in quarantine artifacts.
    pub run: &'a RunConfig,
    /// The selected edge paths, by plan index.
    pub paths: &'a [Vec<EdgeId>],
    /// Model-checking seconds spent building the graph (folded into
    /// the wall total of the worker's one run summary).
    pub check_seconds: f64,
}

/// Per-shard setup handed to the pipeline factory.
pub struct ShardSetup {
    /// The claimed shard.
    pub shard: usize,
    /// Its half-open case-index window.
    pub range: (usize, usize),
    /// The shard's data directory (journal + artifacts).
    pub shard_dir: PathBuf,
    /// The case gate to install as `PipelineConfig::case_gate`.
    pub gate: Arc<dyn Fn(usize, &str) -> CaseGate + Send + Sync>,
}

/// How the worker loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Every shard is retired.
    Completed,
    /// A drain was requested; in-flight state is journaled and the
    /// campaign is resumable.
    Drained,
}

fn make_gate(
    cfg: &WorkerConfig,
    lease: Arc<LeaseHandle>,
    poisoned: BTreeSet<String>,
) -> Arc<dyn Fn(usize, &str) -> CaseGate + Send + Sync> {
    let campaign_dir = cfg.campaign_dir.clone();
    let inject = cfg.inject.clone();
    Arc::new(move |idx, hash| {
        if drain_requested(&campaign_dir) {
            return CaseGate::Stop;
        }
        if inject.drain == Some(idx) {
            let _ = request_drain(&campaign_dir);
            return CaseGate::Stop;
        }
        if poisoned.contains(hash) {
            return CaseGate::Skip;
        }
        // Record the in-flight case *before* any chance of dying, so
        // a crash from here on is attributed to this case.
        lease.set_case(idx, hash);
        if let Some((kind, at)) = inject.crash {
            // One-shot: the exclusive marker create makes sure only
            // the first worker to reach the index crashes, clean
            // restarts and resumes run through.
            if at == idx
                && fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(campaign_dir.join(CRASH_INJECTED_FILE_NAME))
                    .is_ok()
            {
                match kind {
                    CrashKind::Abort => std::process::abort(),
                    CrashKind::Sigkill => sigkill_self(),
                }
            }
        }
        if inject.poison == Some(idx) {
            // A poison case: dies on every attempt, by any worker.
            std::process::abort();
        }
        CaseGate::Run
    })
}

/// Builds the synthetic quarantine artifact for a crashed case: a
/// node-death inconsistency pinned at step 0 with the case as its own
/// reproducer, so `mocket-cli replay` can re-drive it like any other
/// artifact.
fn poison_artifact(
    ctx: &WorkerContext<'_>,
    graph: &StateGraph,
    idx: usize,
    victim: &LeaseInfo,
) -> Option<ReplayArtifact> {
    let path = ctx.paths.get(idx)?;
    let tc = TestCase::from_edge_path(graph, path)?;
    let (&first, &last) = (path.first()?, path.last()?);
    let final_enabled: Vec<ActionInstance> = graph
        .enabled_at(graph.edge(last).to)
        .into_iter()
        .cloned()
        .collect();
    let inconsistency = Inconsistency::NodeDeath {
        step: 0,
        action: graph.edge(first).action.clone(),
        node: 0,
        reason: format!(
            "worker {} (pid {}) crashed while this case was in flight; \
             quarantined as a poison case",
            victim.worker, victim.pid
        ),
    };
    Some(ReplayArtifact::from_failure(
        ctx.spec_name,
        ctx.spec_config,
        &inconsistency,
        Determinism::Unconfirmed,
        ctx.run,
        tc.len(),
        final_enabled,
        None,
        tc,
    ))
}

/// The worker's main loop: claim shards (stealing dead owners' and
/// attributing their crashes), drive each as one case window of the worker's
/// run through `build_pipeline(setup)`'s pipeline, retire them, until
/// all shards are done or a drain lands. Then the run is summarised,
/// once, next to the events the pipelines stream (`worker-<id>/`); a
/// worker that never got to drive a shard writes no summary.
pub fn worker_loop<BP, MS>(
    cfg: &WorkerConfig,
    ctx: &WorkerContext<'_>,
    graph: StateGraph,
    mut build_pipeline: BP,
    mut make_sut: MS,
) -> io::Result<WorkerOutcome>
where
    BP: FnMut(&ShardSetup) -> Pipeline,
    MS: FnMut() -> Box<dyn SystemUnderTest>,
{
    let shard_count = ctx.plan.shard_count();
    // The run's tallies, begun at the first claim, and the last
    // pipeline to drive a window of it (context for the summary).
    let mut run = None;
    let mut last_pipeline = None;
    let outcome = 'scan: loop {
        let mut all_done = true;
        let mut progressed = false;
        // What to block on if this scan claims nothing: the lock of the
        // first shard another worker holds, or (`true`) of a shard
        // journal someone else has open.
        let mut blocker: Option<(usize, bool)> = None;
        for i in 0..shard_count {
            if drain_requested(&cfg.campaign_dir) {
                break 'scan WorkerOutcome::Drained;
            }
            // Offset the scan by worker id so fresh workers spread out
            // instead of all contending for shard 0.
            let shard = (i + cfg.worker_id) % shard_count;
            let mut on_steal = |victim: &LeaseInfo| {
                if victim.plan.as_deref().is_some_and(|p| p != cfg.plan_hash) {
                    // The victim verified against a different plan —
                    // its case indices are not comparable to ours, so
                    // a crash cannot be attributed safely.
                    eprintln!(
                        "[mocket-worker {}] stole shard {shard} from a worker on a \
                         different plan epoch; crash not attributed",
                        cfg.worker_id
                    );
                    return;
                }
                let artifact_for = |idx: usize| poison_artifact(ctx, &graph, idx, victim);
                match record_worker_crash(
                    &cfg.campaign_dir,
                    shard,
                    victim,
                    cfg.poison_threshold,
                    &artifact_for,
                ) {
                    Ok(CrashDisposition::Recorded { total, poisoned }) => {
                        eprintln!(
                            "[mocket-worker {}] stole shard {shard} from dead/hung \
                             worker {} (pid {}); crash #{total} attributed{}",
                            cfg.worker_id,
                            victim.worker,
                            victim.pid,
                            if poisoned { ", case quarantined" } else { "" }
                        );
                    }
                    Ok(_) => {}
                    Err(e) => eprintln!(
                        "[mocket-worker {}] crash attribution failed: {e}",
                        cfg.worker_id
                    ),
                }
            };
            let claimed = match try_claim(
                &cfg.campaign_dir,
                shard,
                cfg.worker_id,
                Some(&cfg.plan_hash),
                &mut on_steal,
            )? {
                ClaimOutcome::Done => continue,
                ClaimOutcome::Busy => {
                    all_done = false;
                    blocker.get_or_insert((shard, false));
                    continue;
                }
                ClaimOutcome::Claimed(handle) => handle,
            };
            all_done = false;
            progressed = true;
            let lease = Arc::new(claimed);
            let poisoned: BTreeSet<String> = load_poisoned(&cfg.campaign_dir)?
                .0
                .into_iter()
                .map(|p| p.hash)
                .collect();
            let setup = ShardSetup {
                shard,
                range: ctx.plan.shard_range(shard),
                shard_dir: shard_data_dir(&cfg.campaign_dir, shard),
                gate: make_gate(cfg, lease.clone(), poisoned),
            };
            let pipeline = build_pipeline(&setup);
            let run = run.get_or_insert_with(|| pipeline.new_run(ctx.paths.len()));
            // The window's evidence (reports, artifact paths) is on
            // disk in the shard directory; only its tallies are kept.
            let window = pipeline.run_window(run, &graph, ctx.paths, &mut make_sut);
            pipeline.obs().flush();
            let stopped_by_gate = match window {
                Ok(window) => window.stopped_by_gate,
                Err(conflict) => {
                    // Another open of the shard journal holds its lock.
                    // Release the shard (the lease drops with this
                    // iteration) and come back to it once that lock is
                    // free.
                    eprintln!(
                        "[mocket-worker {}] shard {shard} journal busy, will retry: {conflict}",
                        cfg.worker_id
                    );
                    blocker = Some((shard, true));
                    progressed = false;
                    continue;
                }
            };
            last_pipeline = Some(pipeline);
            if stopped_by_gate {
                // Drain: the lease is released (not retired) on drop.
                break 'scan WorkerOutcome::Drained;
            }
            lease.mark_done()?;
            // Nobody opens a retired shard's journal for writing again,
            // so its lock file can go like the shard's own.
            let _ = fs::remove_file(setup.shard_dir.join(CampaignJournal::LOCK_FILE_NAME));
        }
        if all_done {
            break WorkerOutcome::Completed;
        }
        if let (false, Some((shard, journal))) = (progressed, blocker) {
            // Everything claimable is busy: sleep in the kernel until
            // the blocking lock's holder retires or releases the shard,
            // or dies, then rescan.
            wait_unlocked(&cfg.campaign_dir, shard, journal)?;
        }
    };
    if let (Some(run), Some(pipeline)) = (run, last_pipeline) {
        let (_, summary) = pipeline.summarise(&run, &graph, ctx.check_seconds);
        if let Some(Err(e)) = pipeline.obs().dir().map(|dir| summary.write_to(dir)) {
            eprintln!("[mocket-worker {}] run summary write failed: {e}", cfg.worker_id);
        }
        pipeline.obs().flush();
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{CaseOutcome, JournalEntry};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mocket-worker-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn victim(case: usize, hash: &str) -> LeaseInfo {
        LeaseInfo {
            pid: 12345,
            token: None,
            worker: 0,
            plan: None,
            case: Some((case, hash.to_string())),
        }
    }

    #[test]
    fn worker_loop_drives_shards_as_windows_of_one_run() {
        use crate::orchestrator::lease::done_path;
        use crate::pipeline::tests::{registry, CounterSpec, CounterSut};
        use crate::pipeline::PipelineConfig;
        use std::sync::atomic::{AtomicUsize, Ordering};

        let dir = tmp("loop");
        let worker_dir = dir.join("worker-0");
        let obs = mocket_obs::Obs::jsonl_in(&worker_dir).unwrap();
        let filter_calls = Arc::new(AtomicUsize::new(0));
        let pipeline = |obs: &mocket_obs::Obs, shard: Option<&ShardSetup>| {
            let mut pc = PipelineConfig::default();
            pc.por = false;
            pc.stop_at_first_bug = false;
            pc.max_path_len = 3;
            pc.obs = obs.clone();
            if let Some(setup) = shard {
                // Consulted by `generate_paths` only: a call means a
                // shard regenerated the case set.
                let calls = filter_calls.clone();
                pc.case_filter = Some(Arc::new(move |_| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    true
                }));
                pc.case_range = Some(setup.range);
                pc.case_gate = Some(setup.gate.clone());
                pc.triage.campaign_dir = Some(setup.shard_dir.clone());
            }
            Pipeline::new(Arc::new(CounterSpec), registry(), pc).unwrap()
        };
        let base = pipeline(&obs, None);
        let (graph, check_seconds) = base.check();
        let (paths, ..) = base.generate_paths(&graph);
        let plan = CampaignPlan::pin("counter", None, 1_000_000, 3, 0, 1, &graph, &paths);
        assert!(plan.shard_count() >= 2, "{} shard(s)", plan.shard_count());

        let cfg = WorkerConfig {
            campaign_dir: dir.clone(),
            worker_id: 0,
            lease: LeaseConfig::default(),
            poison_threshold: 3,
            plan_hash: plan.stable_hash(),
            inject: InjectionConfig::default(),
        };
        let run_cfg = RunConfig::default();
        let ctx = WorkerContext {
            plan: &plan,
            spec_name: "Counter",
            spec_config: "test",
            run: &run_cfg,
            paths: &paths,
            check_seconds,
        };
        let run_worker = |obs: &mocket_obs::Obs, graph: StateGraph| {
            worker_loop(
                &cfg,
                &ctx,
                graph,
                |setup| pipeline(obs, Some(setup)),
                || Box::new(CounterSut { n: 0, buggy: false }),
            )
            .unwrap()
        };
        assert_eq!(run_worker(&obs, graph.clone()), WorkerOutcome::Completed);
        assert_eq!(filter_calls.load(Ordering::SeqCst), 0, "a shard regenerated");
        for shard in 0..plan.shard_count() {
            assert!(done_path(&dir, shard).exists(), "shard {shard} not retired");
            let journal = shard_data_dir(&dir, shard).join(CampaignJournal::FILE_NAME);
            assert!(journal.exists(), "shard {shard} has no journal");
        }

        // One summary over the worker's whole run, next to its events;
        // no per-shard summary, insight or history files.
        let mut left: Vec<String> = fs::read_dir(&worker_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["events.jsonl", "run-summary.json"]);
        let summary = fs::read_to_string(worker_dir.join("run-summary.json")).unwrap();
        let cases_run = format!("\"cases_run\": {},", plan.cases.len());
        assert!(summary.contains(&cases_run), "{summary}");
        let events = fs::read_to_string(worker_dir.join("events.jsonl")).unwrap();
        assert_eq!(events.matches("\"event\":\"generate.done\"").count(), 0);
        assert_eq!(events.matches("\"event\":\"run.done\"").count(), 1);

        // A restarted worker on the finished campaign claims nothing,
        // runs nothing and summarises nothing. Opening its directory
        // truncates the events, so the first run's summary must go too:
        // the pair describes one run.
        let obs = mocket_obs::Obs::jsonl_in(&worker_dir).unwrap();
        assert_eq!(run_worker(&obs, graph), WorkerOutcome::Completed);
        obs.flush();
        let events = fs::read_to_string(worker_dir.join("events.jsonl")).unwrap();
        assert_eq!(events.matches("\"event\":\"run.done\"").count(), 0);
        assert!(!worker_dir.join("run-summary.json").exists(), "stale summary");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two workers with a 60 s heartbeat share four shards, the last of
    /// which this test holds until both have run out of claimable work.
    /// An idle worker sleeps on that shard's lock rather than for a
    /// heartbeat, so both finish as soon as the test lets go, and no
    /// lock file outlives its retired shard.
    #[test]
    fn idle_workers_wake_when_the_busy_shard_is_released() {
        use crate::orchestrator::lease::{done_path, lock_shard, shards_dir};
        use crate::pipeline::tests::{registry, CounterSpec, CounterSut};
        use crate::pipeline::PipelineConfig;
        use std::time::Duration;

        let dir = &tmp("idle");
        let config = |obs: &mocket_obs::Obs, setup: Option<&ShardSetup>| {
            let mut pc = PipelineConfig::default();
            (pc.por, pc.stop_at_first_bug, pc.max_path_len) = (false, false, 3);
            pc.obs = obs.clone();
            if let Some(setup) = setup {
                pc.case_range = Some(setup.range);
                pc.case_gate = Some(setup.gate.clone());
                pc.triage.campaign_dir = Some(setup.shard_dir.clone());
            }
            Pipeline::new(Arc::new(CounterSpec), registry(), pc).unwrap()
        };
        let base = config(&mocket_obs::Obs::disabled(), None);
        let (graph, _) = base.check();
        let (paths, ..) = base.generate_paths(&graph);
        let paths: Vec<_> = paths.iter().cycle().take(4).cloned().collect();
        let plan = CampaignPlan::pin("counter", None, 1_000_000, 3, 0, 1, &graph, &paths);
        let last = plan.shard_count() - 1;
        let run_cfg = RunConfig::default();
        let ctx = &WorkerContext {
            plan: &plan,
            spec_name: "Counter",
            spec_config: "test",
            run: &run_cfg,
            paths: &paths,
            check_seconds: 0.0,
        };
        let held = lock_shard(dir, last).unwrap();
        let (finished, finishes) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for worker_id in 0..2 {
                let cfg = WorkerConfig {
                    campaign_dir: dir.clone(),
                    worker_id,
                    lease: LeaseConfig {
                        heartbeat: Duration::from_secs(60),
                        ..LeaseConfig::default()
                    },
                    poison_threshold: 3,
                    plan_hash: plan.stable_hash(),
                    inject: InjectionConfig::default(),
                };
                let (graph, finished) = (graph.clone(), finished.clone());
                scope.spawn(move || {
                    let obs = mocket_obs::Obs::jsonl_in(&dir.join(format!("worker-{worker_id}")));
                    let obs = obs.unwrap();
                    let build = |setup: &ShardSetup| config(&obs, Some(setup));
                    let sut = || -> Box<dyn SystemUnderTest> {
                        Box::new(CounterSut { n: 0, buggy: false })
                    };
                    worker_loop(&cfg, ctx, graph, build, sut).unwrap();
                    finished.send(()).unwrap();
                });
            }
            for _ in 0..30_000 {
                if (0..last).all(|s| done_path(dir, s).exists()) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // Time for both workers to find the held shard busy.
            std::thread::sleep(Duration::from_millis(100));
            drop(held);
            for _ in 0..2 {
                let done = finishes.recv_timeout(Duration::from_secs(30));
                done.expect("a worker idled through the release");
            }
        });
        assert!(done_path(dir, last).exists());
        let locks = fs::read_dir(shards_dir(dir)).unwrap().map(|e| e.unwrap().file_name());
        let locks: Vec<_> = locks.filter(|n| n.to_string_lossy().ends_with(".lock")).collect();
        assert!(locks.is_empty(), "{locks:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn drain_marker_roundtrip() {
        let dir = tmp("drain");
        assert!(!drain_requested(&dir));
        request_drain(&dir).unwrap();
        assert!(drain_requested(&dir));
        clear_drain_marker(&dir);
        assert!(!drain_requested(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_and_poison_records_roundtrip() {
        let rec = CrashRecord {
            case: 4,
            hash: "abcd".into(),
            worker: 2,
            pid: 99,
        };
        assert_eq!(CrashRecord::parse(&rec.render()), Some(rec));
        let p = PoisonRecord {
            case: 4,
            hash: "abcd".into(),
            crashes: 3,
        };
        assert_eq!(PoisonRecord::parse(&p.render()), Some(p));
        assert_eq!(CrashRecord::parse("garbage"), None);
    }

    #[test]
    fn crash_attribution_skips_journaled_case() {
        let dir = tmp("attrib");
        // The victim journaled its verdict before dying: innocent.
        let shard_dir = shard_data_dir(&dir, 0);
        let mut journal = CampaignJournal::open(&shard_dir).unwrap();
        journal
            .record(JournalEntry {
                hash: "aaaa".into(),
                attempts: 1,
                determinism: None,
                outcome: CaseOutcome::Passed,
            })
            .unwrap();
        drop(journal);
        let none = |_: usize| None;
        assert_eq!(
            record_worker_crash(&dir, 0, &victim(3, "aaaa"), 2, &none).unwrap(),
            CrashDisposition::AlreadyJournaled
        );
        assert!(load_crashes(&dir).unwrap().0.is_empty());
        // No in-flight case at all: nothing to attribute.
        let idle = LeaseInfo {
            pid: 1,
            token: None,
            worker: 0,
            plan: None,
            case: None,
        };
        assert_eq!(
            record_worker_crash(&dir, 0, &idle, 2, &none).unwrap(),
            CrashDisposition::NoInflightCase
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_threshold_quarantines_after_k_crashes() {
        let dir = tmp("poison");
        let none = |_: usize| None;
        assert_eq!(
            record_worker_crash(&dir, 0, &victim(5, "feed"), 2, &none).unwrap(),
            CrashDisposition::Recorded {
                total: 1,
                poisoned: false
            }
        );
        assert_eq!(
            record_worker_crash(&dir, 0, &victim(5, "feed"), 2, &none).unwrap(),
            CrashDisposition::Recorded {
                total: 2,
                poisoned: true
            }
        );
        let (poisoned, issues) = load_poisoned(&dir).unwrap();
        assert!(issues.is_empty());
        assert_eq!(poisoned.len(), 1);
        assert_eq!(poisoned[0].hash, "feed");
        assert_eq!(poisoned[0].crashes, 2);
        // A third crash of the same case does not re-poison.
        assert_eq!(
            record_worker_crash(&dir, 0, &victim(5, "feed"), 2, &none).unwrap(),
            CrashDisposition::Recorded {
                total: 3,
                poisoned: false
            }
        );
        assert_eq!(load_poisoned(&dir).unwrap().0.len(), 1);
        assert_eq!(load_crashes(&dir).unwrap().0.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_poison_line_is_reported_not_trusted_or_lost() {
        let dir = tmp("torn-poison");
        let qdir = quarantine_dir(&dir);
        fs::create_dir_all(&qdir).unwrap();
        let whole = PoisonRecord {
            case: 1,
            hash: "aaaa".into(),
            crashes: 2,
        };
        // The torn line parses as a record of its own (`crashes=2`
        // cut from `crashes=25`): the loader must not believe it.
        let text = format!("{}\npoison: case=9 hash=bbbb crashes=2", whole.render());
        fs::write(qdir.join(POISON_LOG_FILE_NAME), text).unwrap();
        let (poisoned, issues) = load_poisoned(&dir).unwrap();
        assert_eq!(poisoned, vec![whole]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].line, 2);
        assert!(issues[0].message.contains("bbbb"), "{}", issues[0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injection_config_parses_env_shapes() {
        let cfg = InjectionConfig::parse(Some("abort:3"), None, None);
        assert_eq!(cfg.crash, Some((CrashKind::Abort, 3)));
        let cfg = InjectionConfig::parse(Some("sigkill:0"), Some("7"), Some("2"));
        assert_eq!(cfg.crash, Some((CrashKind::Sigkill, 0)));
        assert_eq!(cfg.poison, Some(7));
        assert_eq!(cfg.drain, Some(2));
        let cfg = InjectionConfig::parse(Some("explode:1"), Some("x"), None);
        assert_eq!(cfg.crash, None);
        assert_eq!(cfg.poison, None);
    }
}
