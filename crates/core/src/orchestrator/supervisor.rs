//! The campaign supervisor: spawns crash-isolated workers, restarts
//! the dead, kills the hung and converts SIGINT into a graceful drain.
//!
//! The supervisor never touches cases. It owns process lifecycle only;
//! all work-queue state lives in the shard locks and lease records, so a
//! supervisor crash loses nothing — re-running the campaign on the
//! same directory resumes from the journals. Every worker is the
//! supervisor's own child, reaped by a waiter thread that reports its
//! exit down a channel; between exits the supervisor wakes once per
//! [`LeaseConfig::heartbeat`] to read the shard markers. Workers left
//! running by a killed supervisor need no bookkeeping: a re-run's worker
//! for the same slot blocks on the slot's `worker.lock` until the orphan
//! exits, so each `worker-<id>/` has one writer. Dead slots are
//! restarted under the unified [`RetryPolicy`].
//!
//! A dead worker needs no detection: the kernel frees its shard lock
//! and the next claimer steals the shard. A hung or frozen one (stuck
//! in a case, SIGSTOPped) keeps its lock, so the supervisor has one
//! hang rule: when a shard's lease record has not changed for the lease
//! TTL, the process it names is SIGKILLed — an own worker or an orphan
//! alike, as long as pid and start token still match — and its shard
//! is then stolen like any other crash.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, ExitStatus};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::fsio::RetryPolicy;

use super::lease::{done_path, lease_path, lock_shard, read_lease, LeaseConfig, LeaseInfo};
use super::procs::{install_sigint_flag, same_process, send_signal, SIGKILL};
use super::worker::{drain_requested, request_drain};

/// Worker exit code declaring the pinned plan inconsistent with what
/// the worker regenerated — fatal for the whole campaign, never
/// retried (a restart would fail identically).
pub const EXIT_PLAN_MISMATCH: i32 = 64;

/// Test hook: when set to a shard count `N`, the supervisor SIGKILLs
/// *itself* the first time it observes at least `N` retired shards.
/// One-shot per campaign directory (guarded by the
/// `supervisor-crash-injected` marker), so the re-run that takes over
/// is not crashed again.
pub const INJECT_SUPERVISOR_CRASH_ENV: &str = "MOCKET_CAMPAIGN_INJECT_SUPERVISOR_CRASH";

const INJECT_SUPERVISOR_CRASH_MARKER: &str = "supervisor-crash-injected";

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The campaign directory.
    pub campaign_dir: PathBuf,
    /// Worker process count.
    pub workers: usize,
    /// Lease timing: `heartbeat` is the scan period, `ttl` the hang
    /// rule's threshold.
    pub lease: LeaseConfig,
    /// Restart budget and backoff per worker slot (the unified retry
    /// policy shape: `attempts` restarts, exponential backoff from
    /// `backoff` capped at `max_backoff`).
    pub restart: RetryPolicy,
    /// Render progress lines to stderr.
    pub progress: bool,
}

/// How a supervised campaign ended.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign ended via a drain request (SIGINT or injected);
    /// remaining shards are resumable.
    pub drained: bool,
    /// Shards retired by the time the supervisor returned.
    pub shards_done: usize,
    /// Total shards in the plan.
    pub shard_count: usize,
    /// Worker restarts performed.
    pub restarts: usize,
    /// Workers SIGKILLed for hanging.
    pub hung_killed: usize,
    /// A fatal condition (plan mismatch, exhausted restart budget).
    /// The campaign directory stays resumable regardless.
    pub fatal: Option<String>,
}

impl CampaignOutcome {
    /// Whether every shard was retired.
    pub fn completed(&self) -> bool {
        self.shards_done == self.shard_count && self.fatal.is_none()
    }
}

/// What a finished worker process reported.
enum WorkerExit {
    Success,
    PlanMismatch,
    Died(String),
}

impl WorkerExit {
    fn of(status: io::Result<ExitStatus>) -> WorkerExit {
        match status {
            Ok(status) if status.success() => WorkerExit::Success,
            Ok(status) if status.code() == Some(EXIT_PLAN_MISMATCH) => WorkerExit::PlanMismatch,
            Ok(status) => WorkerExit::Died(status.to_string()),
            Err(e) => WorkerExit::Died(format!("wait failed: {e}")),
        }
    }
}

struct Slot {
    /// The thread reaping this slot's running worker, if one runs.
    waiter: Option<JoinHandle<()>>,
    restarts: usize,
    next_restart: Option<Instant>,
    /// Exited cleanly (0) or gave up; never respawned.
    finished: bool,
}

/// A shard's lease record as last seen, and since when it has not
/// changed.
struct Sighting {
    info: LeaseInfo,
    since: Instant,
}

fn count_done(campaign_dir: &Path, shard_count: usize) -> usize {
    (0..shard_count)
        .filter(|&s| done_path(campaign_dir, s).exists())
        .count()
}

/// Fires the one-shot injected supervisor crash when armed and the
/// retired-shard threshold is reached. The marker is created with a
/// *plain* (never fault-injected) exclusive create so the injection
/// gate itself cannot be disturbed by the chaos layer.
fn maybe_inject_supervisor_crash(campaign_dir: &Path, shards_done: usize) {
    let Ok(raw) = std::env::var(INJECT_SUPERVISOR_CRASH_ENV) else {
        return;
    };
    let Ok(threshold) = raw.trim().parse::<usize>() else {
        return;
    };
    if shards_done < threshold {
        return;
    }
    let marker = campaign_dir.join(INJECT_SUPERVISOR_CRASH_MARKER);
    if fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&marker)
        .is_ok()
    {
        eprintln!("[mocket-campaign] injected supervisor crash at {shards_done} shards done");
        super::procs::sigkill_self();
    }
}

/// Runs the supervision loop until the campaign completes, drains, or
/// hits a fatal condition. `spawn_worker` launches worker `id` (same
/// binary, hidden subcommand) with its output redirected wherever the
/// caller wants it.
pub fn supervise(
    cfg: &SupervisorConfig,
    shard_count: usize,
    spawn_worker: &mut dyn FnMut(usize) -> io::Result<Child>,
) -> io::Result<CampaignOutcome> {
    let interrupted = install_sigint_flag();
    interrupted.store(false, Ordering::SeqCst);
    let progress = |line: &str| {
        if cfg.progress {
            eprintln!("[mocket-campaign] {line}");
        }
    };

    // One waiter thread per child reports its exit, so the loop below
    // sleeps in `recv_timeout` instead of polling the children.
    let (exits, exited) = mpsc::channel::<(usize, io::Result<ExitStatus>)>();
    let mut spawn = |id: usize| -> io::Result<Slot> {
        let mut child = spawn_worker(id)?;
        let exits = exits.clone();
        let waiter = std::thread::spawn(move || {
            let _ = exits.send((id, child.wait()));
        });
        Ok(Slot {
            waiter: Some(waiter),
            restarts: 0,
            next_restart: None,
            finished: false,
        })
    };
    let mut slots = (0..cfg.workers.max(1))
        .map(&mut spawn)
        .collect::<io::Result<Vec<Slot>>>()?;

    let mut out = CampaignOutcome {
        drained: false,
        shards_done: 0,
        shard_count,
        restarts: 0,
        hung_killed: 0,
        fatal: None,
    };
    let mut sightings: HashMap<usize, Sighting> = HashMap::new();
    let max_restarts = cfg.restart.attempts;

    loop {
        // Until a worker exits or one scan period passes.
        let first = exited.recv_timeout(cfg.lease.heartbeat).ok();
        // SIGINT → drain marker, once. Workers ignore SIGINT
        // themselves; they see the marker at their next case boundary.
        if interrupted.swap(false, Ordering::SeqCst) && !drain_requested(&cfg.campaign_dir) {
            progress("SIGINT: draining in-flight cases (campaign stays resumable)");
            request_drain(&cfg.campaign_dir)?;
        }
        let draining = drain_requested(&cfg.campaign_dir);
        let shards_done = count_done(&cfg.campaign_dir, shard_count);
        maybe_inject_supervisor_crash(&cfg.campaign_dir, shards_done);
        let work_left = shards_done < shard_count;

        // Reap exits; decide restarts.
        for (id, status) in first.into_iter().chain(exited.try_iter()) {
            let slot = &mut slots[id];
            if let Some(waiter) = slot.waiter.take() {
                waiter.join().expect("a waiter thread only waits and sends");
            }
            match WorkerExit::of(status) {
                WorkerExit::Success => slot.finished = true,
                WorkerExit::PlanMismatch => {
                    slot.finished = true;
                    if out.fatal.is_none() {
                        out.fatal = Some(format!(
                            "worker {id} reports a plan mismatch (exit \
                             {EXIT_PLAN_MISMATCH}); the campaign directory \
                             belongs to a different target/bounds"
                        ));
                        // Stop the others at their next boundary.
                        request_drain(&cfg.campaign_dir)?;
                    }
                }
                WorkerExit::Died(status) => {
                    if work_left && !draining && out.fatal.is_none() {
                        if slot.restarts < max_restarts {
                            let delay = cfg.restart.delay(slot.restarts, false);
                            progress(&format!(
                                "worker {id} died ({status}); restart #{} in {delay:?}",
                                slot.restarts + 1
                            ));
                            slot.next_restart = Some(Instant::now() + delay);
                        } else {
                            progress(&format!(
                                "worker {id} died ({status}); restart budget exhausted"
                            ));
                            slot.finished = true;
                        }
                    } else {
                        slot.finished = true;
                    }
                }
            }
        }

        // Fire due restarts.
        if work_left && !draining && out.fatal.is_none() {
            for (id, slot) in slots.iter_mut().enumerate() {
                let due = slot.next_restart.is_some_and(|due| Instant::now() >= due);
                if slot.waiter.is_none() && !slot.finished && due {
                    let restarts = slot.restarts + 1;
                    *slot = Slot { restarts, ..spawn(id)? };
                    out.restarts += 1;
                }
            }
        }

        // The hang rule: a lease record unchanged for the TTL gets the
        // process it names killed, if that is still the same process.
        for shard in 0..shard_count {
            let Some(info) = read_lease(&lease_path(&cfg.campaign_dir, shard)) else {
                sightings.remove(&shard);
                continue;
            };
            let unchanged_for = match sightings.get(&shard) {
                Some(seen) if seen.info == info => seen.since.elapsed(),
                _ => {
                    let since = Instant::now();
                    sightings.insert(shard, Sighting { info, since });
                    continue;
                }
            };
            if unchanged_for < cfg.lease.ttl {
                continue;
            }
            if same_process(info.pid, info.token) {
                progress(&format!(
                    "worker pid {} hung on shard {shard} (lease unchanged for {:?}); killing",
                    info.pid, cfg.lease.ttl
                ));
                send_signal(info.pid, SIGKILL);
                out.hung_killed += 1;
            }
            sightings.remove(&shard);
        }

        let running = slots.iter().filter(|s| s.waiter.is_some()).count();
        let pending_restart = slots
            .iter()
            .any(|s| s.waiter.is_none() && !s.finished && s.next_restart.is_some());
        out.shards_done = count_done(&cfg.campaign_dir, shard_count);

        if out.shards_done == shard_count && running == 0 {
            return Ok(out);
        }
        if (draining || out.fatal.is_some()) && running == 0 && !pending_restart {
            out.drained = draining;
            return Ok(out);
        }
        if running == 0 && !pending_restart {
            // Every worker is gone, shards remain, no drain: either
            // all slots exhausted their budget, or everyone exited 0
            // while a hung peer still owned a shard it has since been
            // killed for. Respawn one worker if any
            // budget remains; otherwise give up fatally (resumable).
            let Some(id) = slots.iter().position(|s| s.restarts < max_restarts) else {
                out.fatal = Some(
                    "all workers exhausted their restart budget with shards \
                     remaining; re-run the campaign to resume"
                        .into(),
                );
                return Ok(out);
            };
            progress(&format!(
                "shards remain with no workers alive; respawning worker {id}"
            ));
            let restarts = slots[id].restarts + 1;
            slots[id] = Slot { restarts, ..spawn(id)? };
            out.restarts += 1;
        }
    }
}

/// Removes lease records whose shard lock nobody holds — left by
/// workers that died while no supervisor ran — at campaign start, so
/// `ls shards/` reflects reality. Each lock is held only while looking.
pub fn sweep_dead_leases(campaign_dir: &Path, shard_count: usize) {
    for shard in 0..shard_count {
        let path = lease_path(campaign_dir, shard);
        if path.exists() && lock_shard(campaign_dir, shard).is_ok() {
            let _ = fs::remove_file(&path);
        }
    }
}
