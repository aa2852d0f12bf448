//! Per-shard leases: the campaign's file-backed work queue.
//!
//! Every shard of the planned case set owns two files under
//! `<campaign-dir>/shards/`. `shard-<s>.lock` is ownership: a worker
//! holds the shard while it holds that file's `flock` ([`DirLock`]),
//! and the kernel lets go when the worker dies. `shard-<s>.lease` is
//! the owner's record: its pid and start token, worker slot, the plan
//! hash it verified against and the case in flight. The record is
//! rewritten atomically (temp + rename), so readers never see a torn
//! one — which is also why the lock cannot live on it: the rename
//! would swap the locked inode away.
//!
//! Claiming takes the lock without waiting, re-checks the shard's
//! `shard-<s>.done` retirement marker and writes the record. A clean
//! release or retire removes the record before the lock goes, so a
//! record the next lock holder finds was left by a dead owner: that
//! claimer is its one thief, and reports the victim's in-flight case
//! exactly once through the caller's callback. Unparseable debris is
//! overwritten without attribution. Retiring writes the done marker,
//! then removes the record and the lock file.
//!
//! A worker with nothing to claim blocks on a busy shard's lock
//! ([`wait_unlocked`]) until its holder retires the shard, releases it
//! or dies. Hangs are the supervisor's business: a record unchanged for
//! [`LeaseConfig::ttl`] gets the process it names SIGKILLed, which
//! frees the lock.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use super::kv;
use super::lock::{DirLock, LockError};
use super::procs::self_token;
use crate::artifact::CampaignJournal;
use crate::fsio;
use crate::fsio::points;

/// Lease timing; both fields are the supervisor's, a worker reads
/// neither.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// The supervisor's scan period: how often, between worker exits,
    /// it looks at the done markers, the drain marker and the lease
    /// records.
    pub heartbeat: Duration,
    /// How long a lease record may stay unchanged (same owner, same
    /// case in flight) before the supervisor SIGKILLs its owner as hung.
    pub ttl: Duration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            heartbeat: Duration::from_millis(100),
            ttl: Duration::from_secs(30),
        }
    }
}

/// What a lease record says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Owning worker process.
    pub pid: u32,
    /// The owner's process start token (diagnostic); `None` on
    /// platforms without a start marker.
    pub token: Option<u64>,
    /// Owning worker id (slot index under the supervisor).
    pub worker: usize,
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
                ("plan", kv::opt(self.plan.as_deref())),
                ("case", kv::opt(case)),
                ("hash", kv::opt(hash)),
            ],
        );
        body.push('\n');
        body
    }

    /// Parses a lease body. Returns `None` for anything that does not
    /// round-trip a full record — torn writes, interleaved writes,
    /// garbage. Absent `tok`/`plan` keys degrade to `None`, and unknown
    /// keys (an older worker's heartbeat counter) are ignored.
    pub fn parse(text: &str) -> Option<LeaseInfo> {
        let f = kv::parse(text).filter(|f| f.head.is_empty())?;
        let case = match (f.get("case"), f.get("hash")) {
            (Some(idx), Some(hash)) => Some((idx.parse().ok()?, hash.to_string())),
            _ => None,
        };
        Some(LeaseInfo {
            pid: f.num("pid")?,
            token: f.num("tok"),
            worker: f.num("worker")?,
            plan: f.get("plan").map(str::to_string),
            case,
        })
    }
}

/// `<campaign-dir>/shards`.
pub fn shards_dir(campaign_dir: &Path) -> PathBuf {
    campaign_dir.join("shards")
}

/// The lease record of `shard`.
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

/// Takes `shard`'s ownership lock (`shard-<s>.lock`) without waiting.
pub(super) fn lock_shard(campaign_dir: &Path, shard: usize) -> Result<DirLock, LockError> {
    DirLock::acquire(&shards_dir(campaign_dir), &format!("shard-{shard}.lock"))
}

/// Blocks until nobody holds `shard`'s lock, or with `journal` its
/// journal's lock. A lock file this open re-created after the shard
/// retired is removed again, as [`try_claim`] does.
pub(super) fn wait_unlocked(campaign_dir: &Path, shard: usize, journal: bool) -> io::Result<()> {
    let lock = if journal {
        DirLock::wait(&shard_data_dir(campaign_dir, shard), CampaignJournal::LOCK_FILE_NAME)
    } else {
        DirLock::wait(&shards_dir(campaign_dir), &format!("shard-{shard}.lock"))
    }?;
    if done_path(campaign_dir, shard).exists() {
        let _ = fs::remove_file(lock.path());
    }
    Ok(())
}

/// The parsed lease record at `path`; `None` when it is missing or
/// does not parse.
pub(super) fn read_lease(path: &Path) -> Option<LeaseInfo> {
    LeaseInfo::parse(&fs::read_to_string(path).ok()?)
}

/// Atomically (temp + rename) writes `info` into `path` — a lease or a
/// done marker — under fault point `point`. Routed through the
/// fault-injectable atomic-write path (size-verified, pid-suffixed
/// temp name so two processes can never collide on it).
fn write_lease(path: &Path, info: &LeaseInfo, point: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "lease path has no name"))?;
    let body = info.render();
    fsio::write_atomic(dir, name, body.as_bytes(), point, &fsio::RetryPolicy::io()).map(|_| ())
}

/// Result of one claim attempt on a shard.
pub enum ClaimOutcome {
    /// We own the shard now.
    Claimed(LeaseHandle),
    /// Another live worker holds it, or the record write failed.
    Busy,
    /// The shard is already retired.
    Done,
}

/// Tries to claim `shard` for `worker`. `plan` is the short plan hash
/// pinned into the record so a thief can tell which campaign epoch the
/// owner was executing. `on_steal` fires once when the record of a dead
/// owner is found under the lock, with the victim's record — the hook
/// where the caller records a crash against the in-flight case.
pub fn try_claim(
    campaign_dir: &Path,
    shard: usize,
    worker: usize,
    plan: Option<&str>,
    on_steal: &mut dyn FnMut(&LeaseInfo),
) -> io::Result<ClaimOutcome> {
    let done = done_path(campaign_dir, shard);
    if done.exists() {
        return Ok(ClaimOutcome::Done);
    }
    let lock = match lock_shard(campaign_dir, shard) {
        Ok(lock) => lock,
        Err(LockError::Held { .. }) => return Ok(ClaimOutcome::Busy),
        Err(LockError::Io(e)) => return Err(e),
    };
    // The previous holder may have retired the shard since we looked,
    // and our open re-created the lock file it had removed.
    if done.exists() {
        let _ = fs::remove_file(lock.path());
        return Ok(ClaimOutcome::Done);
    }
    let record = lease_path(campaign_dir, shard);
    if let Some(victim) = read_lease(&record) {
        on_steal(&victim);
    }
    // Gone before our write, so a failed write cannot hand the victim
    // to the next claimer for a second attribution.
    let _ = fs::remove_file(&record);
    let info = LeaseInfo {
        pid: std::process::id(),
        token: self_token(),
        worker,
        plan: plan.map(str::to_string),
        case: None,
    };
    if write_lease(&record, &info, points::LEASE_CLAIM).is_err() {
        // Retried on the next scan; the lock drops with this frame.
        let _ = fs::remove_file(&record);
        return Ok(ClaimOutcome::Busy);
    }
    Ok(ClaimOutcome::Claimed(LeaseHandle {
        record,
        done,
        shard,
        info: Mutex::new(info),
        lock,
    }))
}

/// Ownership of one claimed shard: records the in-flight case, retires
/// or releases the shard.
///
/// Methods take `&self` so the handle can sit in an `Arc` shared with
/// the pipeline's case gate (which calls [`set_case`](Self::set_case)
/// per case) while the worker loop retires it.
pub struct LeaseHandle {
    record: PathBuf,
    done: PathBuf,
    shard: usize,
    info: Mutex<LeaseInfo>,
    /// Dropped after [`Drop::drop`] has removed the record.
    lock: DirLock,
}

impl LeaseHandle {
    /// The shard this lease covers.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Records the case about to run; the record is rewritten (and
    /// synced) at once so a thief sees it even if we die mid-case.
    pub fn set_case(&self, index: usize, hash: &str) {
        let mut info = self.info.lock().unwrap();
        info.case = Some((index, hash.to_string()));
        let _ = write_lease(&self.record, &info, points::LEASE_WRITE);
    }

    /// Retires the shard: atomic done marker first, then the record and
    /// the lock file, and the lock itself, so a worker waiting on it
    /// wakes now rather than when this handle drops. Every claimer
    /// re-checks the marker under the lock, so neither can admit a
    /// second owner, and a crash in between leaves a done shard.
    pub fn mark_done(&self) -> io::Result<()> {
        write_lease(&self.done, &self.info.lock().unwrap(), points::LEASE_DONE)?;
        let _ = fs::remove_file(&self.record);
        let _ = fs::remove_file(self.lock.path());
        self.lock.release();
        Ok(())
    }
}

impl Drop for LeaseHandle {
    fn drop(&mut self) {
        // Released without retiring (drain, retry): no record may
        // outlive the lock, or the next claimer would blame us.
        let _ = fs::remove_file(&self.record);
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

    fn claim(
        dir: &Path,
        shard: usize,
        worker: usize,
        on_steal: &mut dyn FnMut(&LeaseInfo),
    ) -> ClaimOutcome {
        try_claim(dir, shard, worker, Some("testplan00000000"), on_steal).unwrap()
    }

    /// Claims shard 0 of `dir` as worker 1 and returns the outcome plus
    /// every record `on_steal` reported.
    fn claim_recording(dir: &Path) -> (ClaimOutcome, Vec<LeaseInfo>) {
        let mut stolen = Vec::new();
        let outcome = claim(dir, 0, 1, &mut |v: &LeaseInfo| stolen.push(v.clone()));
        (outcome, stolen)
    }

    /// A record left on disk by a worker that holds no lock.
    fn plant_record(dir: &Path, pid: u32, token: Option<u64>, case: usize) -> LeaseInfo {
        fs::create_dir_all(shards_dir(dir)).unwrap();
        let victim = LeaseInfo {
            pid,
            token,
            worker: 9,
            plan: Some("testplan00000000".into()),
            case: Some((case, "feedfacefeedface".into())),
        };
        write_lease(&lease_path(dir, 0), &victim, points::LEASE_WRITE).unwrap();
        victim
    }

    #[test]
    fn lease_info_roundtrip() {
        for info in [
            LeaseInfo {
                pid: 42,
                token: None,
                worker: 1,
                plan: None,
                case: None,
            },
            LeaseInfo {
                pid: 7,
                token: Some(123456789),
                worker: 0,
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
        assert_eq!(legacy.plan, None);
        assert_eq!(legacy.case, Some((3, "aaaa".into())));
    }

    #[test]
    fn claim_is_exclusive_and_release_frees() {
        let dir = tmp("excl");
        let mut noop = |_: &LeaseInfo| {};
        let h = match claim(&dir, 0, 0, &mut noop) {
            ClaimOutcome::Claimed(h) => h,
            _ => panic!("first claim must win"),
        };
        h.set_case(2, "aaaa");
        assert!(matches!(claim(&dir, 0, 1, &mut noop), ClaimOutcome::Busy));
        drop(h);
        assert!(!lease_path(&dir, 0).exists(), "release removes the record");
        let (outcome, stolen) = claim_recording(&dir);
        assert!(matches!(outcome, ClaimOutcome::Claimed(_)));
        assert!(stolen.is_empty(), "a clean release is not a crash");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_marker_retires_shard() {
        let dir = tmp("done");
        let mut noop = |_: &LeaseInfo| {};
        let h = match claim(&dir, 3, 0, &mut noop) {
            ClaimOutcome::Claimed(h) => h,
            _ => panic!("claim"),
        };
        h.mark_done().unwrap();
        assert!(done_path(&dir, 3).exists());
        assert!(!lease_path(&dir, 3).exists());
        assert!(!shards_dir(&dir).join("shard-3.lock").exists());
        // The handle lives on, and nobody can claim a retired shard.
        assert!(matches!(claim(&dir, 3, 1, &mut noop), ClaimOutcome::Done));
        drop(h);
        assert!(matches!(claim(&dir, 3, 1, &mut noop), ClaimOutcome::Done));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_owner_lock_makes_the_shard_busy() {
        let dir = tmp("live");
        plant_record(&dir, std::process::id(), self_token(), 4);
        // The owner is whoever holds the lock, here this test.
        let owner = lock_shard(&dir, 0).unwrap();
        let (outcome, stolen) = claim_recording(&dir);
        assert!(matches!(outcome, ClaimOutcome::Busy));
        assert!(stolen.is_empty(), "a live owner is not a victim");
        assert!(lease_path(&dir, 0).exists(), "a live owner's record stays");
        drop(owner);
        let (outcome, stolen) = claim_recording(&dir);
        assert!(matches!(outcome, ClaimOutcome::Claimed(_)));
        assert_eq!(stolen.len(), 1, "the owner died: one steal report");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_owner_lease_is_stolen_with_attribution() {
        let dir = tmp("steal");
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let dead_pid = child.id();
        child.wait().unwrap();
        let victim = plant_record(&dir, dead_pid, None, 4);
        let (outcome, stolen) = claim_recording(&dir);
        let ClaimOutcome::Claimed(h) = outcome else {
            panic!("a dead owner's shard must be claimable at once");
        };
        assert_eq!(
            stolen,
            vec![victim],
            "exactly one steal report, the victim's"
        );
        let mine = read_lease(&lease_path(&dir, 0)).unwrap();
        assert_eq!(
            (mine.pid, mine.worker, mine.case),
            (std::process::id(), 1, None)
        );
        drop(h);
        let (_, stolen) = claim_recording(&dir);
        assert!(stolen.is_empty(), "the victim is reported once");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recycled_pid_without_the_lock_is_a_dead_owner() {
        let dir = tmp("recycle");
        // The record names a live pid (ours) under another start token,
        // as a recycled pid would: without the lock it is a victim.
        let token = self_token().map(|t| t.wrapping_add(1));
        let victim = plant_record(&dir, std::process::id(), token, 2);
        let (outcome, stolen) = claim_recording(&dir);
        assert!(matches!(outcome, ClaimOutcome::Claimed(_)));
        assert_eq!(stolen, vec![victim]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lease_debris_is_claimed_at_once_without_attribution() {
        let dir = tmp("debris");
        fs::create_dir_all(shards_dir(&dir)).unwrap();
        // A torn write: a strict prefix of a valid record.
        fs::write(lease_path(&dir, 0), b"pid=123 tok=9 wor").unwrap();
        let (outcome, stolen) = claim_recording(&dir);
        assert!(matches!(outcome, ClaimOutcome::Claimed(_)));
        assert!(stolen.is_empty(), "debris has no case to attribute");
        let _ = fs::remove_dir_all(&dir);
    }
}
