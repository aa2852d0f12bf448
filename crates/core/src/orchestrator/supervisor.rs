//! The campaign supervisor: spawns crash-isolated workers, restarts
//! the dead, kills the hung, converts SIGINT into a graceful drain —
//! and survives being SIGKILLed itself.
//!
//! The supervisor never touches cases. It owns process lifecycle only;
//! all work-queue state lives in the shard locks and lease records, so a
//! supervisor crash loses nothing — re-running the campaign on the
//! same directory resumes from the journals. To make that resumption
//! seamless the supervisor keeps its own append-only journal
//! (`supervisor.log`): every election, spawn and reap is recorded with
//! the pid, its start token and the pinned plan hash. A re-elected
//! supervisor replays the journal, finds workers from the previous
//! incarnation that are still alive (pid *and* start token must match,
//! so a recycled pid is never adopted) and takes them over instead of
//! spawning doubles; dead slots are restarted under the unified
//! [`RetryPolicy`].
//!
//! A dead worker needs no detection: the kernel frees its shard lock
//! and the next claimer steals the shard. A hung or frozen one (stuck
//! in a case, SIGSTOPped) keeps its lock, so the supervisor has one
//! hang rule: an own or adopted worker whose lease record has not
//! changed for the lease TTL is SIGKILLed, and its shard is then stolen
//! like any other crash.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::fsio::{points, AppendLog, LineIssue, RetryPolicy};

use super::kv;
use super::lease::{done_path, lease_path, lock_shard, read_lease, LeaseConfig, LeaseInfo};
use super::procs::{install_sigint_flag, same_process, self_token, send_signal, SIGKILL};
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
    /// Lease parameters (shared with the workers); `ttl` is the hang
    /// rule's threshold.
    pub lease: LeaseConfig,
    /// Restart budget and backoff per worker slot (the unified retry
    /// policy shape: `attempts` restarts, exponential backoff from
    /// `backoff` capped at `max_backoff`).
    pub restart: RetryPolicy,
    /// The pinned plan's stable hash, recorded in the supervisor
    /// journal so a re-elected supervisor only adopts workers from the
    /// same campaign epoch.
    pub plan_hash: String,
    /// Render progress lines to stderr.
    pub progress: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            campaign_dir: PathBuf::new(),
            workers: 2,
            lease: LeaseConfig::default(),
            restart: RetryPolicy {
                attempts: 5,
                backoff: Duration::from_millis(50),
                max_backoff: Duration::from_secs(5),
            },
            plan_hash: String::new(),
            progress: false,
        }
    }
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
    /// Live workers adopted from a previous supervisor incarnation.
    pub adopted: usize,
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

/// One record in the supervisor journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// A supervisor took over the campaign directory.
    Elect {
        /// The supervisor's pid.
        pid: u32,
        /// Its start token, when the platform provides one.
        token: Option<u64>,
        /// The plan hash it runs under.
        plan: String,
    },
    /// A worker process was spawned (or adopted — an adoption re-logs
    /// the worker under the new supervisor so the *next* incarnation
    /// still finds it).
    Spawn {
        /// Worker slot id.
        worker: usize,
        /// The worker's pid.
        pid: u32,
        /// Its start token.
        token: Option<u64>,
        /// The plan hash it was launched under.
        plan: String,
    },
    /// A worker exit was observed.
    Reap {
        /// Worker slot id.
        worker: usize,
        /// The pid that exited.
        pid: u32,
    },
}

impl SupervisorEvent {
    /// Renders the single journal line for this event (no newline).
    pub fn render_line(&self) -> String {
        match self {
            SupervisorEvent::Elect { pid, token, plan } => kv::render(
                "elect",
                &[
                    ("pid", pid.to_string()),
                    ("tok", kv::opt(*token)),
                    ("plan", plan.clone()),
                ],
            ),
            SupervisorEvent::Spawn {
                worker,
                pid,
                token,
                plan,
            } => kv::render(
                "spawn",
                &[
                    ("worker", worker.to_string()),
                    ("pid", pid.to_string()),
                    ("tok", kv::opt(*token)),
                    ("plan", plan.clone()),
                ],
            ),
            SupervisorEvent::Reap { worker, pid } => kv::render(
                "reap",
                &[("worker", worker.to_string()), ("pid", pid.to_string())],
            ),
        }
    }

    /// Parses one journal line. `None` for anything malformed — a torn
    /// append salvages to "skip the line", never a panic.
    pub fn parse_line(line: &str) -> Option<SupervisorEvent> {
        let f = kv::parse(line)?;
        let pid = f.num("pid")?;
        let token = match f.get("tok") {
            Some(tok) => Some(tok.parse().ok()?),
            None => None,
        };
        match f.head {
            "elect" => Some(SupervisorEvent::Elect {
                pid,
                token,
                plan: f.get("plan")?.to_string(),
            }),
            "spawn" => Some(SupervisorEvent::Spawn {
                worker: f.num("worker")?,
                pid,
                token,
                plan: f.get("plan")?.to_string(),
            }),
            "reap" => Some(SupervisorEvent::Reap {
                worker: f.num("worker")?,
                pid,
            }),
            _ => None,
        }
    }
}

/// The supervisor's append-only journal (`supervisor.log`): an
/// [`AppendLog`] of the process lifecycle facts a re-elected
/// supervisor needs to adopt the previous incarnation's live workers.
pub struct SupervisorJournal {
    log: AppendLog,
}

impl SupervisorJournal {
    /// The journal's file name inside a campaign directory.
    pub const FILE_NAME: &'static str = "supervisor.log";

    /// Opens (creating lazily on first append) the journal in `dir`.
    pub fn open(dir: &Path) -> SupervisorJournal {
        SupervisorJournal {
            log: AppendLog::new(dir.join(Self::FILE_NAME), points::SUPERVISOR_JOURNAL),
        }
    }

    /// Appends one event. Best-effort callers may ignore the error —
    /// losing a journal line degrades adoption (a doubled worker loses
    /// the lease race and idles), never correctness.
    pub fn append(&self, event: &SupervisorEvent) -> io::Result<()> {
        self.log.append(&event.render_line())
    }

    /// Loads every trusted event in `dir`'s journal, plus the lines
    /// the salvage refused (torn appends, garbage). An unreadable
    /// journal is an empty one: nothing to adopt.
    pub fn load(dir: &Path) -> (Vec<SupervisorEvent>, Vec<LineIssue>) {
        Self::open(dir)
            .log
            .load(|line| {
                SupervisorEvent::parse_line(line)
                    .ok_or_else(|| format!("not a supervisor event: {line:?}"))
            })
            .unwrap_or_default()
    }
}

/// Workers from a previous supervisor incarnation that are still the
/// same live process (pid + start token) and ran under `plan_hash`:
/// worker slot id → (pid, token). Computed by replaying the journal —
/// the last un-reaped spawn per slot is the candidate.
pub fn adoptable_workers(dir: &Path, plan_hash: &str) -> HashMap<usize, (u32, Option<u64>)> {
    let (events, _) = SupervisorJournal::load(dir);
    let mut last: HashMap<usize, (u32, Option<u64>, String)> = HashMap::new();
    for ev in events {
        match ev {
            SupervisorEvent::Spawn {
                worker,
                pid,
                token,
                plan,
            } => {
                last.insert(worker, (pid, token, plan));
            }
            SupervisorEvent::Reap { worker, pid } => {
                if last.get(&worker).map(|(p, _, _)| *p) == Some(pid) {
                    last.remove(&worker);
                }
            }
            SupervisorEvent::Elect { .. } => {}
        }
    }
    last.into_iter()
        .filter(|(_, (pid, token, plan))| {
            plan == plan_hash && *pid != std::process::id() && same_process(*pid, *token)
        })
        .map(|(worker, (pid, token, _))| (worker, (pid, token)))
        .collect()
}

/// A worker process under supervision: either our own child, or a
/// live orphan adopted from the previous supervisor incarnation.
enum WorkerProc {
    Child(Child),
    Adopted { pid: u32, token: Option<u64> },
}

/// What a finished worker process reported.
enum WorkerExit {
    Success,
    PlanMismatch,
    Died(String),
}

impl WorkerProc {
    fn pid(&self) -> u32 {
        match self {
            WorkerProc::Child(child) => child.id(),
            WorkerProc::Adopted { pid, .. } => *pid,
        }
    }

    /// Non-blocking exit poll. `None` while still running. An adopted
    /// worker's exit status is unobservable (we are not its parent):
    /// its disappearance reports as a death, and the restarted worker
    /// simply finds no unclaimed shard if the orphan actually finished.
    fn poll(&mut self) -> io::Result<Option<WorkerExit>> {
        match self {
            WorkerProc::Child(child) => match child.try_wait()? {
                None => Ok(None),
                Some(status) if status.success() => Ok(Some(WorkerExit::Success)),
                Some(status) if status.code() == Some(EXIT_PLAN_MISMATCH) => {
                    Ok(Some(WorkerExit::PlanMismatch))
                }
                Some(status) => Ok(Some(WorkerExit::Died(status.to_string()))),
            },
            WorkerProc::Adopted { pid, token } => {
                if same_process(*pid, *token) {
                    Ok(None)
                } else {
                    Ok(Some(WorkerExit::Died(format!("adopted pid {pid} gone"))))
                }
            }
        }
    }

    fn kill(&mut self) {
        match self {
            WorkerProc::Child(child) => {
                let _ = child.kill();
            }
            WorkerProc::Adopted { pid, token } => {
                // Only if it is still the process we adopted: never
                // SIGKILL a recycled pid.
                if same_process(*pid, *token) {
                    send_signal(*pid, SIGKILL);
                }
            }
        }
    }
}

struct Slot {
    proc: Option<WorkerProc>,
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
///
/// On entry the supervisor records its election in `supervisor.log`
/// and adopts any still-live workers a previous (crashed) supervisor
/// left behind, so `kill -9` on the supervisor followed by a re-run of
/// the same command is a seamless takeover, not a cold start.
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

    let journal = SupervisorJournal::open(&cfg.campaign_dir);
    // Every worker process under supervision is journaled as it
    // starts, so the *next* incarnation can find it.
    let log_spawn = |worker: usize, pid: u32, token: Option<u64>| {
        let _ = journal.append(&SupervisorEvent::Spawn {
            worker,
            pid,
            token,
            plan: cfg.plan_hash.clone(),
        });
    };
    let mut spawn_logged = |id: usize| -> io::Result<WorkerProc> {
        let child = spawn_worker(id)?;
        log_spawn(id, child.id(), super::procs::proc_start_token(child.id()));
        Ok(WorkerProc::Child(child))
    };
    let adoptable = adoptable_workers(&cfg.campaign_dir, &cfg.plan_hash);
    let _ = journal.append(&SupervisorEvent::Elect {
        pid: std::process::id(),
        token: self_token(),
        plan: cfg.plan_hash.clone(),
    });

    let mut adopted_total = 0usize;
    let mut slots: Vec<Slot> = Vec::with_capacity(cfg.workers.max(1));
    for id in 0..cfg.workers.max(1) {
        let proc = match adoptable.get(&id) {
            Some(&(pid, token)) => {
                progress(&format!(
                    "adopting live worker {id} (pid {pid}) from previous supervisor"
                ));
                adopted_total += 1;
                // Re-logged under this incarnation.
                log_spawn(id, pid, token);
                WorkerProc::Adopted { pid, token }
            }
            None => spawn_logged(id)?,
        };
        slots.push(Slot {
            proc: Some(proc),
            restarts: 0,
            next_restart: None,
            finished: false,
        });
    }

    let mut restarts_total = 0usize;
    let mut hung_killed = 0usize;
    let mut fatal: Option<String> = None;
    let mut sightings: HashMap<usize, Sighting> = HashMap::new();
    let tick = Duration::from_millis(100);
    let max_restarts = cfg.restart.attempts;

    loop {
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
        for (id, slot) in slots.iter_mut().enumerate() {
            let Some(proc) = slot.proc.as_mut() else {
                continue;
            };
            let pid = proc.pid();
            match proc.poll()? {
                None => {}
                Some(exit) => {
                    slot.proc = None;
                    let _ = journal.append(&SupervisorEvent::Reap { worker: id, pid });
                    match exit {
                        WorkerExit::Success => slot.finished = true,
                        WorkerExit::PlanMismatch => {
                            slot.finished = true;
                            if fatal.is_none() {
                                fatal = Some(format!(
                                    "worker {id} reports a plan mismatch (exit \
                                     {EXIT_PLAN_MISMATCH}); the campaign directory \
                                     belongs to a different target/bounds"
                                ));
                                // Stop the others at their next boundary.
                                request_drain(&cfg.campaign_dir)?;
                            }
                        }
                        WorkerExit::Died(status) => {
                            if work_left && !draining && fatal.is_none() {
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
            }
        }

        // Fire due restarts.
        if work_left && !draining && fatal.is_none() {
            for (id, slot) in slots.iter_mut().enumerate() {
                if slot.proc.is_none() && !slot.finished {
                    if let Some(due) = slot.next_restart {
                        if Instant::now() >= due {
                            slot.next_restart = None;
                            slot.restarts += 1;
                            restarts_total += 1;
                            slot.proc = Some(spawn_logged(id)?);
                        }
                    }
                }
            }
        }

        // Hung-worker detection: a lease record of one of our live
        // workers that has not changed for the TTL.
        let own_pids: Vec<u32> = slots
            .iter()
            .filter_map(|s| s.proc.as_ref().map(|p| p.pid()))
            .collect();
        for shard in 0..shard_count {
            let info = match read_lease(&lease_path(&cfg.campaign_dir, shard)) {
                Some(info) if own_pids.contains(&info.pid) => info,
                _ => {
                    sightings.remove(&shard);
                    continue;
                }
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
            for proc in slots.iter_mut().filter_map(|s| s.proc.as_mut()) {
                if proc.pid() == info.pid {
                    progress(&format!(
                        "worker pid {} hung on shard {shard} (lease unchanged for {:?}); \
                         killing",
                        info.pid, cfg.lease.ttl
                    ));
                    proc.kill();
                    hung_killed += 1;
                }
            }
            sightings.remove(&shard);
        }

        let running = slots.iter().filter(|s| s.proc.is_some()).count();
        let pending_restart = slots
            .iter()
            .any(|s| s.proc.is_none() && !s.finished && s.next_restart.is_some());
        let shards_done = count_done(&cfg.campaign_dir, shard_count);

        if shards_done == shard_count && running == 0 {
            return Ok(CampaignOutcome {
                drained: false,
                shards_done,
                shard_count,
                restarts: restarts_total,
                hung_killed,
                adopted: adopted_total,
                fatal,
            });
        }
        if (draining || fatal.is_some()) && running == 0 && !pending_restart {
            return Ok(CampaignOutcome {
                drained: draining,
                shards_done,
                shard_count,
                restarts: restarts_total,
                hung_killed,
                adopted: adopted_total,
                fatal,
            });
        }
        if running == 0 && !pending_restart {
            // Every worker is gone, shards remain, no drain: either
            // all slots exhausted their budget, or everyone exited 0
            // while a hung peer still owned a shard it has since been
            // killed for. Respawn one worker if any
            // budget remains; otherwise give up fatally (resumable).
            if let Some((id, slot)) = slots
                .iter_mut()
                .enumerate()
                .find(|(_, s)| s.restarts < max_restarts)
            {
                progress(&format!(
                    "shards remain with no workers alive; respawning worker {id}"
                ));
                slot.finished = false;
                slot.restarts += 1;
                restarts_total += 1;
                slot.proc = Some(spawn_logged(id)?);
            } else if fatal.is_none() {
                return Ok(CampaignOutcome {
                    drained: false,
                    shards_done,
                    shard_count,
                    restarts: restarts_total,
                    hung_killed,
                    adopted: adopted_total,
                    fatal: Some(
                        "all workers exhausted their restart budget with shards \
                         remaining; re-run the campaign to resume"
                            .into(),
                    ),
                });
            }
        }

        std::thread::sleep(tick);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mocket-supjournal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn supervisor_event_line_roundtrip() {
        for ev in [
            SupervisorEvent::Elect {
                pid: 42,
                token: Some(123456),
                plan: "aabbccdd00112233".into(),
            },
            SupervisorEvent::Elect {
                pid: 42,
                token: None,
                plan: "aabbccdd00112233".into(),
            },
            SupervisorEvent::Spawn {
                worker: 3,
                pid: 77,
                token: Some(9),
                plan: "ffff000011112222".into(),
            },
            SupervisorEvent::Reap { worker: 3, pid: 77 },
        ] {
            let line = ev.render_line();
            assert_eq!(SupervisorEvent::parse_line(&line), Some(ev), "{line}");
        }
    }

    #[test]
    fn supervisor_event_parse_rejects_garbage() {
        for bad in [
            "",
            "elect",
            "spawn worker=1",
            "spawn worker=x pid=3 tok=- plan=aa",
            "reap pid=3",
            "nonsense pid=3",
            "elect pid=zz tok=- plan=aa",
        ] {
            assert_eq!(SupervisorEvent::parse_line(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn journal_salvages_valid_prefix_and_skips_torn_lines() {
        let dir = tmp("salvage");
        let j = SupervisorJournal::open(&dir);
        j.append(&SupervisorEvent::Elect {
            pid: 1,
            token: None,
            plan: "p".into(),
        })
        .unwrap();
        j.append(&SupervisorEvent::Spawn {
            worker: 0,
            pid: 2,
            token: Some(5),
            plan: "p".into(),
        })
        .unwrap();
        // Simulate a torn append: garbage without a newline at the end.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(SupervisorJournal::FILE_NAME))
            .unwrap();
        f.write_all(b"spawn worker=1 pid=").unwrap();
        drop(f);
        let (events, issues) = SupervisorJournal::load(&dir);
        assert_eq!(events.len(), 2);
        assert_eq!(issues.len(), 1);
        // An append after the torn line starts fresh (fsio repairs it).
        j.append(&SupervisorEvent::Reap { worker: 0, pid: 2 })
            .unwrap();
        let (events, issues) = SupervisorJournal::load(&dir);
        assert_eq!(events.len(), 3);
        assert_eq!(issues.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adoption_finds_live_unreaped_worker_only_for_same_plan() {
        let dir = tmp("adopt");
        let j = SupervisorJournal::open(&dir);
        let my_pid = std::process::id();
        let my_tok = self_token();
        // A dead pid: spawn+never reaped, but the process is gone.
        let mut dead = std::process::Command::new("true").spawn().unwrap();
        let dead_pid = dead.id();
        dead.wait().unwrap();
        // Worker 0: alive (this test process stands in), same plan.
        j.append(&SupervisorEvent::Spawn {
            worker: 0,
            pid: my_pid,
            token: my_tok,
            plan: "planA".into(),
        })
        .unwrap();
        // Worker 1: dead.
        j.append(&SupervisorEvent::Spawn {
            worker: 1,
            pid: dead_pid,
            token: None,
            plan: "planA".into(),
        })
        .unwrap();
        // Worker 2: alive but a different plan epoch.
        j.append(&SupervisorEvent::Spawn {
            worker: 2,
            pid: my_pid,
            token: my_tok,
            plan: "planB".into(),
        })
        .unwrap();
        // Worker 3: alive but reaped.
        j.append(&SupervisorEvent::Spawn {
            worker: 3,
            pid: my_pid,
            token: my_tok,
            plan: "planA".into(),
        })
        .unwrap();
        j.append(&SupervisorEvent::Reap {
            worker: 3,
            pid: my_pid,
        })
        .unwrap();
        let adoptable = adoptable_workers(&dir, "planA");
        // Worker 0 is our own pid — excluded (a supervisor never
        // adopts itself); so nothing survives the filters here...
        assert!(adoptable.is_empty());
        // ...unless the pid belongs to another live process. Use a
        // long-running child to prove the positive case.
        let mut sleeper = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let pid = sleeper.id();
        let tok = super::super::procs::proc_start_token(pid);
        j.append(&SupervisorEvent::Spawn {
            worker: 4,
            pid,
            token: tok,
            plan: "planA".into(),
        })
        .unwrap();
        let adoptable = adoptable_workers(&dir, "planA");
        assert_eq!(adoptable.get(&4), Some(&(pid, tok)));
        let _ = sleeper.kill();
        let _ = sleeper.wait();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_spawn_supersedes_earlier_one_for_the_same_slot() {
        let dir = tmp("supersede");
        let j = SupervisorJournal::open(&dir);
        let mut sleeper = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let pid = sleeper.id();
        let tok = super::super::procs::proc_start_token(pid);
        let mut dead = std::process::Command::new("true").spawn().unwrap();
        let dead_pid = dead.id();
        dead.wait().unwrap();
        j.append(&SupervisorEvent::Spawn {
            worker: 0,
            pid,
            token: tok,
            plan: "p".into(),
        })
        .unwrap();
        // Restart of slot 0 with a pid that then died: the *last*
        // spawn is the candidate, and it is dead → nothing to adopt.
        j.append(&SupervisorEvent::Spawn {
            worker: 0,
            pid: dead_pid,
            token: None,
            plan: "p".into(),
        })
        .unwrap();
        assert!(adoptable_workers(&dir, "p").is_empty());
        let _ = sleeper.kill();
        let _ = sleeper.wait();
        let _ = fs::remove_dir_all(&dir);
    }
}
