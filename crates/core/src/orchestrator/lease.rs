//! Per-shard lease files: the campaign's file-backed work queue.
//!
//! Every shard of the planned case set is guarded by one lease file
//! under `<campaign-dir>/shards/`. A worker claims a shard by creating
//! the lease exclusively, then keeps it fresh with a heartbeat thread
//! (atomic temp+rename rewrite, so readers never see a torn lease and
//! the mtime doubles as the heartbeat clock). The lease body names the
//! owner pid, its process start token, a monotonic heartbeat counter,
//! the plan hash the owner verified against, and the case currently in
//! flight — which is what lets a stealer attribute a crash to a
//! specific case in a specific plan.
//!
//! Steal protocol: a lease is *stale* when its owner is provably dead
//! — pid gone, or pid recycled by a different process (start-token
//! mismatch) — or when the owner looks hung: mtime older than
//! `ttl` plus slack **and**, on a confirming second read one heartbeat
//! later, the heartbeat counter unchanged. The counter is the
//! clock-step-proof signal; the slack absorbs coarse mtime
//! granularity. An unparseable lease (torn claim debris) older than
//! the TTL is salvaged the same way, just without crash attribution.
//! Stealing is serialized per shard by a short-lived [`DirLock`]
//! (`shard-<s>.steal`): the winner re-checks staleness under the lock,
//! reports the victim's in-flight case exactly once via the caller's
//! callback, replaces the lease and releases the steal lock. A shard
//! is retired by an atomic `shard-<s>.done` marker; the lease is
//! removed afterwards.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use super::kv;
use super::lock::{DirLock, LockError};
use super::procs::{pid_alive, proc_start_token, self_token};
use crate::fsio;
use crate::fsio::points;

/// Heartbeat cadence and staleness threshold for shard leases.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// How often a live worker rewrites its lease.
    pub heartbeat: Duration,
    /// Lease age beyond which a live owner counts as hung and the
    /// shard becomes stealable. Keep well above `heartbeat`.
    pub ttl: Duration,
}

impl LeaseConfig {
    /// Slack added to every mtime-vs-now comparison: filesystem mtime
    /// granularity can be a full second, and a small wall-clock step
    /// must not turn a fresh lease stale on its own.
    pub fn mtime_slack(&self) -> Duration {
        (self.heartbeat * 2).max(Duration::from_millis(100))
    }

    /// How long a stealer waits between the two reads that confirm a
    /// hung owner: long enough that a live heartbeat thread must have
    /// bumped the counter in between.
    fn confirm_wait(&self) -> Duration {
        self.heartbeat + self.heartbeat / 2
    }
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            heartbeat: Duration::from_millis(300),
            ttl: Duration::from_secs(5),
        }
    }
}

/// What a lease file records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Owning worker process.
    pub pid: u32,
    /// The owner's process start token ([`proc_start_token`]), so a
    /// recycled pid cannot impersonate the owner. `None` on platforms
    /// without a start marker.
    pub token: Option<u64>,
    /// Owning worker id (slot index under the supervisor).
    pub worker: usize,
    /// Monotonic heartbeat counter, bumped on every lease rewrite by
    /// the heartbeat thread — the clock-independent freshness signal.
    pub hb: u64,
    /// Short hash of the campaign plan the owner verified against;
    /// `None` for pre-plan-pinning leases.
    pub plan: Option<String>,
    /// The case in flight: `(plan index, stable hash)`. `None` between
    /// cases.
    pub case: Option<(usize, String)>,
}

impl LeaseInfo {
    /// Renders the lease body (one line, trailing newline) — the exact
    /// bytes written to the lease file.
    pub fn render(&self) -> String {
        let (case, hash) = self.case.clone().unzip();
        let mut body = kv::render(
            "",
            &[
                ("pid", self.pid.to_string()),
                ("tok", kv::opt(self.token)),
                ("worker", self.worker.to_string()),
                ("hb", self.hb.to_string()),
                ("plan", kv::opt(self.plan.as_deref())),
                ("case", kv::opt(case)),
                ("hash", kv::opt(hash)),
            ],
        );
        body.push('\n');
        body
    }

    /// Parses a lease body. Returns `None` for anything that does not
    /// round-trip a full record — torn claim debris, interleaved
    /// writes, garbage. Absent `tok`/`hb`/`plan` keys degrade to
    /// conservative defaults so a lease written by an older worker
    /// still parses.
    pub fn parse(text: &str) -> Option<LeaseInfo> {
        let f = kv::parse(text).filter(|f| f.head.is_empty())?;
        let hb = match f.get("hb") {
            Some(hb) => hb.parse().ok()?,
            None => 0,
        };
        let case = match (f.get("case"), f.get("hash")) {
            (Some(idx), Some(hash)) => Some((idx.parse().ok()?, hash.to_string())),
            _ => None,
        };
        Some(LeaseInfo {
            pid: f.num("pid")?,
            token: f.num("tok"),
            worker: f.num("worker")?,
            hb,
            plan: f.get("plan").map(str::to_string),
            case,
        })
    }
}

/// `<campaign-dir>/shards`.
pub fn shards_dir(campaign_dir: &Path) -> PathBuf {
    campaign_dir.join("shards")
}

/// The lease file guarding `shard`.
pub fn lease_path(campaign_dir: &Path, shard: usize) -> PathBuf {
    shards_dir(campaign_dir).join(format!("shard-{shard}.lease"))
}

/// The retirement marker for `shard`.
pub fn done_path(campaign_dir: &Path, shard: usize) -> PathBuf {
    shards_dir(campaign_dir).join(format!("shard-{shard}.done"))
}

/// The per-shard data directory (shard journal + replay artifacts).
pub fn shard_data_dir(campaign_dir: &Path, shard: usize) -> PathBuf {
    shards_dir(campaign_dir).join(format!("shard-{shard}"))
}

fn steal_lock_name(shard: usize) -> String {
    format!("shard-{shard}.steal")
}

/// Atomically (temp + rename) writes `info` into `path` — a lease or a
/// done marker — under fault point `point`, refreshing the mtime.
/// Routed through the fault-injectable atomic-write path
/// (size-verified, pid-suffixed temp name so two processes can never
/// collide on it).
fn write_lease(path: &Path, info: &LeaseInfo, point: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "lease path has no name"))?;
    let body = info.render();
    fsio::write_atomic(dir, name, body.as_bytes(), point, &fsio::RetryPolicy::io()).map(|_| ())
}

/// One observation of a lease file: the parse result (or `None` for
/// an unparseable body), the mtime-derived age, and the raw mtime
/// (for change detection across the confirming re-read).
pub(super) struct LeaseRead {
    pub(super) info: Option<LeaseInfo>,
    pub(super) age: Duration,
    mtime: Option<SystemTime>,
}

/// Reads a lease plus its age. Outer `None` when the file is missing
/// (claim/steal mid-flight or shard released); `info: None` when the
/// file exists but does not parse — torn claim debris that becomes
/// salvageable once older than the TTL.
pub(super) fn read_lease(path: &Path) -> Option<LeaseRead> {
    let text = fs::read_to_string(path).ok()?;
    let mtime = fs::metadata(path).ok().and_then(|m| m.modified().ok());
    let age = mtime
        .and_then(|m| SystemTime::now().duration_since(m).ok())
        .unwrap_or(Duration::ZERO);
    Some(LeaseRead {
        info: LeaseInfo::parse(&text),
        age,
        mtime,
    })
}

/// How a lease observation classifies for stealing purposes.
enum Freshness {
    /// Actively owned; leave it alone.
    Fresh,
    /// Provably dead owner (or TTL-expired debris): steal now.
    Stale,
    /// Owner pid alive but mtime past TTL + slack — could be a hung
    /// worker *or* a clock/mtime artifact; needs the heartbeat-counter
    /// double-read to decide.
    Suspect,
}

fn classify(read: &LeaseRead, cfg: &LeaseConfig) -> Freshness {
    let expired = read.age > cfg.ttl + cfg.mtime_slack();
    let Some(info) = &read.info else {
        // Unparseable: claim debris from a torn create, or a writer
        // mid-flight. Only age can arbitrate.
        return if expired { Freshness::Stale } else { Freshness::Fresh };
    };
    if !pid_alive(info.pid) {
        return Freshness::Stale;
    }
    if let (Some(lease_tok), Some(live_tok)) = (info.token, proc_start_token(info.pid)) {
        if lease_tok != live_tok {
            // The pid exists but belongs to a different incarnation:
            // the worker that wrote this lease is dead.
            return Freshness::Stale;
        }
    }
    if expired {
        Freshness::Suspect
    } else {
        Freshness::Fresh
    }
}

/// Result of one claim attempt on a shard.
pub enum ClaimOutcome {
    /// We own the shard now.
    Claimed(LeaseHandle),
    /// Someone else is (apparently) working on it.
    Busy,
    /// The shard is already retired.
    Done,
}

/// Tries to claim `shard`: fresh claim, or steal of a stale lease.
/// `plan` is the short plan hash pinned into the lease so stealers
/// and a re-elected supervisor can verify which campaign epoch the
/// owner was executing. `on_steal` fires exactly once per successful
/// steal, with the victim's lease — the hook where the caller records
/// a crash against the in-flight case. A salvaged unparseable lease
/// fires no callback (there is nothing to attribute).
pub fn try_claim(
    campaign_dir: &Path,
    shard: usize,
    worker: usize,
    cfg: &LeaseConfig,
    plan: Option<&str>,
    on_steal: &mut dyn FnMut(&LeaseInfo),
) -> io::Result<ClaimOutcome> {
    let dir = shards_dir(campaign_dir);
    fs::create_dir_all(&dir)?;
    if done_path(campaign_dir, shard).exists() {
        return Ok(ClaimOutcome::Done);
    }
    let path = lease_path(campaign_dir, shard);
    let mine = LeaseInfo {
        pid: std::process::id(),
        token: self_token(),
        worker,
        hb: 0,
        plan: plan.map(str::to_string),
        case: None,
    };
    // Fast path: unclaimed shard.
    match fsio::create_exclusive(&path, mine.render().as_bytes(), points::LEASE_CLAIM) {
        Ok(()) => {
            return Ok(ClaimOutcome::Claimed(LeaseHandle::start(
                path,
                campaign_dir.to_path_buf(),
                shard,
                mine,
                cfg.heartbeat,
            )));
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
        Err(_) => {
            // The create itself failed (injected fault or real I/O
            // error) after possibly leaving debris. Remove what we
            // created and report Busy: the next scan retries, and if
            // the debris survives it ages into a salvageable lease.
            let _ = fs::remove_file(&path);
            return Ok(ClaimOutcome::Busy);
        }
    }
    // Slow path: existing lease. Only stale ones are worth a steal
    // attempt; checking before taking the steal lock keeps the common
    // busy case lock-free.
    match read_lease(&path) {
        Some(read) if !matches!(classify(&read, cfg), Freshness::Fresh) => {}
        Some(_) => return Ok(ClaimOutcome::Busy),
        // Vanished: a rewrite or steal is in flight right now.
        None => return Ok(ClaimOutcome::Busy),
    }
    let steal = match DirLock::acquire(&dir, &steal_lock_name(shard)) {
        Ok(lock) => lock,
        Err(LockError::Held { .. }) => return Ok(ClaimOutcome::Busy),
        Err(LockError::Io(e)) => return Err(e),
    };
    // Re-check under the steal lock: the owner may have heartbeated,
    // finished, or another stealer may have won before we locked.
    if done_path(campaign_dir, shard).exists() {
        drop(steal);
        return Ok(ClaimOutcome::Done);
    }
    let victim = {
        let Some(first) = read_lease(&path) else {
            drop(steal);
            return Ok(ClaimOutcome::Busy);
        };
        match classify(&first, cfg) {
            Freshness::Fresh => {
                drop(steal);
                return Ok(ClaimOutcome::Busy);
            }
            Freshness::Stale => first.info,
            Freshness::Suspect => {
                // The owner is alive but its lease mtime looks
                // expired. mtime alone is clock-hazardous; wait one
                // heartbeat-and-a-half and require the heartbeat
                // counter (and mtime) to be genuinely frozen before
                // calling it hung.
                std::thread::sleep(cfg.confirm_wait());
                let Some(second) = read_lease(&path) else {
                    drop(steal);
                    return Ok(ClaimOutcome::Busy);
                };
                let frozen = second.mtime == first.mtime
                    && match (&first.info, &second.info) {
                        (Some(a), Some(b)) => a.hb == b.hb && a.pid == b.pid,
                        (None, None) => true,
                        _ => false,
                    };
                if !frozen {
                    drop(steal);
                    return Ok(ClaimOutcome::Busy);
                }
                second.info
            }
        }
    };
    if let Some(victim) = &victim {
        on_steal(victim);
    }
    let _ = fs::remove_file(&path);
    write_lease(&path, &mine, points::LEASE_WRITE)?;
    drop(steal);
    Ok(ClaimOutcome::Claimed(LeaseHandle::start(
        path,
        campaign_dir.to_path_buf(),
        shard,
        mine,
        cfg.heartbeat,
    )))
}

/// Ownership of one claimed shard: heartbeats in the background,
/// records the in-flight case, retires or releases the shard.
///
/// Methods take `&self` so the handle can sit in an `Arc` shared with
/// the pipeline's case gate (which calls [`set_case`](Self::set_case)
/// per case) while the worker loop retires it.
pub struct LeaseHandle {
    path: PathBuf,
    campaign_dir: PathBuf,
    shard: usize,
    info: Arc<Mutex<LeaseInfo>>,
    /// The heartbeat thread and the channel it waits on between beats;
    /// dropping the sender wakes and ends it.
    heartbeat: Mutex<Option<(mpsc::Sender<()>, std::thread::JoinHandle<()>)>>,
    retired: AtomicBool,
}

impl LeaseHandle {
    fn start(
        path: PathBuf,
        campaign_dir: PathBuf,
        shard: usize,
        info: LeaseInfo,
        heartbeat: Duration,
    ) -> Self {
        let info = Arc::new(Mutex::new(info));
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = {
            let path = path.clone();
            let info = info.clone();
            std::thread::spawn(move || {
                // One beat per `heartbeat` of silence; the owner ends
                // the wait at once by dropping its sender.
                while stopped.recv_timeout(heartbeat) == Err(RecvTimeoutError::Timeout) {
                    let snapshot = {
                        let mut info = info.lock().unwrap();
                        // The counter is the freshness signal a
                        // stealer trusts over mtime: it only moves
                        // while this thread is actually scheduled.
                        info.hb += 1;
                        info.clone()
                    };
                    let _ = write_lease(&path, &snapshot, points::LEASE_WRITE);
                }
            })
        };
        LeaseHandle {
            path,
            campaign_dir,
            shard,
            info,
            heartbeat: Mutex::new(Some((stop, thread))),
            retired: AtomicBool::new(false),
        }
    }

    /// The shard this lease covers.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Records the case about to run; the lease is rewritten
    /// immediately so a stealer sees it even if we die mid-case.
    pub fn set_case(&self, index: usize, hash: &str) {
        let snapshot = {
            let mut info = self.info.lock().unwrap();
            info.case = Some((index, hash.to_string()));
            info.clone()
        };
        let _ = write_lease(&self.path, &snapshot, points::LEASE_WRITE);
    }

    /// Retires the shard: atomic done marker first, then lease
    /// removal — a crash between the two leaves a done shard with a
    /// stale lease, which every reader treats as done.
    pub fn mark_done(&self) -> io::Result<()> {
        let done = done_path(&self.campaign_dir, self.shard);
        let info = self.info.lock().unwrap().clone();
        write_lease(&done, &info, points::LEASE_DONE)?;
        self.retired.store(true, Ordering::SeqCst);
        self.stop_heartbeat();
        let _ = fs::remove_file(&self.path);
        Ok(())
    }

    fn stop_heartbeat(&self) {
        if let Some((stop, thread)) = self.heartbeat.lock().unwrap().take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

impl Drop for LeaseHandle {
    fn drop(&mut self) {
        self.stop_heartbeat();
        if !self.retired.load(Ordering::SeqCst) {
            // Released without retiring (drain, retry): free the shard
            // for the next claimer instead of making them wait out the
            // TTL.
            let _ = fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mocket-lease-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fast() -> LeaseConfig {
        LeaseConfig {
            heartbeat: Duration::from_millis(20),
            ttl: Duration::from_millis(200),
        }
    }

    fn claim(
        dir: &Path,
        shard: usize,
        worker: usize,
        cfg: &LeaseConfig,
        on_steal: &mut dyn FnMut(&LeaseInfo),
    ) -> ClaimOutcome {
        try_claim(dir, shard, worker, cfg, Some("testplan00000000"), on_steal).unwrap()
    }

    #[test]
    fn lease_info_roundtrip() {
        for info in [
            LeaseInfo {
                pid: 42,
                token: None,
                worker: 1,
                hb: 0,
                plan: None,
                case: None,
            },
            LeaseInfo {
                pid: 7,
                token: Some(123456789),
                worker: 0,
                hb: 17,
                plan: Some("cafebabecafebabe".into()),
                case: Some((12, "abcdef0123456789".into())),
            },
        ] {
            assert_eq!(LeaseInfo::parse(&info.render()), Some(info));
        }
        assert_eq!(LeaseInfo::parse("garbage"), None);
        // Pre-hardening lease bodies still parse, with defaults.
        let legacy = LeaseInfo::parse("pid=9 worker=2 case=3 hash=aaaa\n").unwrap();
        assert_eq!(legacy.pid, 9);
        assert_eq!(legacy.token, None);
        assert_eq!(legacy.hb, 0);
        assert_eq!(legacy.plan, None);
        assert_eq!(legacy.case, Some((3, "aaaa".into())));
    }

    #[test]
    fn claim_is_exclusive_and_release_frees() {
        let dir = tmp("excl");
        let mut noop = |_: &LeaseInfo| {};
        let h = match claim(&dir, 0, 0, &fast(), &mut noop) {
            ClaimOutcome::Claimed(h) => h,
            _ => panic!("first claim must win"),
        };
        assert!(matches!(
            claim(&dir, 0, 1, &fast(), &mut noop),
            ClaimOutcome::Busy
        ));
        drop(h);
        assert!(matches!(
            claim(&dir, 0, 1, &fast(), &mut noop),
            ClaimOutcome::Claimed(_)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_marker_retires_shard() {
        let dir = tmp("done");
        let mut noop = |_: &LeaseInfo| {};
        let h = match claim(&dir, 3, 0, &fast(), &mut noop) {
            ClaimOutcome::Claimed(h) => h,
            _ => panic!("claim"),
        };
        h.mark_done().unwrap();
        assert!(done_path(&dir, 3).exists());
        assert!(!lease_path(&dir, 3).exists());
        assert!(matches!(
            claim(&dir, 3, 1, &fast(), &mut noop),
            ClaimOutcome::Done
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_owner_lease_is_stolen_with_attribution() {
        let dir = tmp("steal");
        fs::create_dir_all(shards_dir(&dir)).unwrap();
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let dead_pid = child.id();
        child.wait().unwrap();
        write_lease(
            &lease_path(&dir, 0),
            &LeaseInfo {
                pid: dead_pid,
                token: None,
                worker: 9,
                hb: 3,
                plan: Some("testplan00000000".into()),
                case: Some((4, "feedfacefeedface".into())),
            },
            points::LEASE_WRITE,
        )
        .unwrap();
        let mut stolen: Vec<LeaseInfo> = Vec::new();
        let mut record = |v: &LeaseInfo| stolen.push(v.clone());
        let h = match claim(&dir, 0, 1, &fast(), &mut record) {
            ClaimOutcome::Claimed(h) => h,
            _ => panic!("dead-owner lease must be stealable immediately"),
        };
        assert_eq!(stolen.len(), 1, "exactly one steal report");
        assert_eq!(stolen[0].case, Some((4, "feedfacefeedface".into())));
        assert_eq!(stolen[0].worker, 9);
        // No leftover steal lock.
        assert!(!shards_dir(&dir).join(steal_lock_name(0)).exists());
        drop(h);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recycled_pid_is_recognized_as_dead_owner() {
        let dir = tmp("recycle");
        fs::create_dir_all(shards_dir(&dir)).unwrap();
        // Simulate pid reuse: the lease names *our* (alive) pid but a
        // start token that cannot be ours. Without token checking this
        // lease would be unstealable forever.
        let our_token = self_token();
        if our_token.is_none() {
            // Platform without start tokens: nothing to test.
            return;
        }
        write_lease(
            &lease_path(&dir, 0),
            &LeaseInfo {
                pid: std::process::id(),
                token: Some(our_token.unwrap().wrapping_add(1)),
                worker: 5,
                hb: 1,
                plan: None,
                case: Some((2, "deadbeefdeadbeef".into())),
            },
            points::LEASE_WRITE,
        )
        .unwrap();
        let mut stolen = 0;
        let mut record = |_: &LeaseInfo| stolen += 1;
        assert!(
            matches!(claim(&dir, 0, 1, &fast(), &mut record), ClaimOutcome::Claimed(_)),
            "token mismatch must make the lease stealable despite a live pid"
        );
        assert_eq!(stolen, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lease_debris_is_salvaged_after_ttl_without_attribution() {
        let dir = tmp("debris");
        fs::create_dir_all(shards_dir(&dir)).unwrap();
        // A torn exclusive create: a strict prefix of a valid lease.
        fs::write(lease_path(&dir, 0), b"pid=123 tok=9 wor").unwrap();
        let cfg = fast();
        let mut stolen = 0;
        let mut record = |_: &LeaseInfo| stolen += 1;
        // Fresh debris is left alone (a writer may be mid-flight).
        assert!(matches!(
            claim(&dir, 0, 1, &cfg, &mut record),
            ClaimOutcome::Busy
        ));
        std::thread::sleep(cfg.ttl + cfg.mtime_slack() + Duration::from_millis(50));
        match claim(&dir, 0, 1, &cfg, &mut record) {
            ClaimOutcome::Claimed(_) => {}
            _ => panic!("expired debris must be salvageable"),
        }
        assert_eq!(stolen, 0, "debris has no case to attribute");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_keeps_live_lease_unstealable_and_bumps_counter() {
        let dir = tmp("hb");
        let cfg = fast();
        let mut noop = |_: &LeaseInfo| {};
        let h = match claim(&dir, 0, 0, &cfg, &mut noop) {
            ClaimOutcome::Claimed(h) => h,
            _ => panic!("claim"),
        };
        h.set_case(2, "aaaa");
        // Wait past the TTL: heartbeats must have kept the mtime fresh
        // and the counter moving.
        std::thread::sleep(cfg.ttl + cfg.heartbeat * 3);
        assert!(matches!(
            claim(&dir, 0, 1, &cfg, &mut noop),
            ClaimOutcome::Busy
        ));
        let read = read_lease(&lease_path(&dir, 0)).unwrap();
        let info = read.info.expect("heartbeat never writes a torn lease");
        assert_eq!(info.case, Some((2, "aaaa".into())));
        assert!(info.hb > 0, "heartbeat must advance the counter");
        assert!(
            read.age < cfg.ttl,
            "heartbeat must keep the lease mtime fresh"
        );
        drop(h);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retiring_or_releasing_a_lease_does_not_sleep_out_the_heartbeat() {
        let dir = tmp("retire-fast");
        let cfg = LeaseConfig {
            heartbeat: Duration::from_secs(5),
            ttl: Duration::from_secs(60),
        };
        let mut noop = |_: &LeaseInfo| {};
        for retire in [true, false] {
            let ClaimOutcome::Claimed(h) = claim(&dir, retire as usize, 0, &cfg, &mut noop) else {
                panic!("claim");
            };
            let started = SystemTime::now();
            if retire {
                h.mark_done().unwrap();
            }
            drop(h);
            let waited = SystemTime::now().duration_since(started).unwrap();
            assert!(
                waited < Duration::from_secs(1),
                "retire={retire}: waited {waited:?} on a parked heartbeat"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_mtime_alone_does_not_kill_a_beating_owner() {
        let dir = tmp("clockstep");
        let cfg = fast();
        fs::create_dir_all(shards_dir(&dir)).unwrap();
        let path = lease_path(&dir, 0);
        // Our own pid, correct token, and a background thread that
        // keeps bumping hb — but we backdate the file's mtime past the
        // TTL before every probe, simulating a clock step / coarse
        // mtime. The double-read must see the counter move and refuse
        // the steal.
        let stop = Arc::new(AtomicBool::new(false));
        let beat = {
            let path = path.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut hb = 0;
                while !stop.load(Ordering::SeqCst) {
                    hb += 1;
                    let _ = write_lease(
                        &path,
                        &LeaseInfo {
                            pid: std::process::id(),
                            token: self_token(),
                            worker: 0,
                            hb,
                            plan: None,
                            case: None,
                        },
                        points::LEASE_WRITE,
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        // Give the beater time to create the lease.
        std::thread::sleep(Duration::from_millis(30));
        // classify() sees age ≈ 0 (we cannot backdate mtime without
        // utimensat), so drive the Suspect path directly: a Suspect
        // verdict must be refused when hb moves between the two reads.
        let first = read_lease(&path).expect("lease exists");
        std::thread::sleep(cfg.confirm_wait());
        let second = read_lease(&path).expect("lease exists");
        let moved = match (&first.info, &second.info) {
            (Some(a), Some(b)) => a.hb != b.hb || second.mtime != first.mtime,
            _ => true,
        };
        assert!(moved, "a live heartbeat must be observable between reads");
        stop.store(true, Ordering::SeqCst);
        beat.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
