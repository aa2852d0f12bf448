//! Fault-injecting filesystem layer shared by every mocket file
//! protocol.
//!
//! Every durable write in the campaign harness — leases, plans,
//! journals, quarantine logs, merged canonical outputs, obs sinks —
//! flows through the helpers in this module instead of calling
//! `std::fs` directly. That buys two things:
//!
//! 1. **One crash-consistency discipline.** [`write_atomic`] is
//!    temp-file + size-verify + fsync + rename; [`append_line`] is
//!    append-only with rollback of partial appends and torn-tail isolation;
//!    [`AppendLog`] pairs that append with the one load-time salvage
//!    rule every line-per-record file shares. Callers pick a policy,
//!    not an implementation.
//! 2. **Deterministic chaos.** A seeded [`FaultInjector`] can be armed
//!    (via [`MOCKET_FSIO_FAULTS_ENV`] or in-process) to inject torn
//!    writes, short writes, ENOSPC, EIO, rename failures and dropped
//!    fsyncs at *named fault points*. Each point keeps its own
//!    operation counter, and the decision for operation `n` at point
//!    `p` is a pure function of `(seed, p, n)` — so a given seed
//!    replays the same fault schedule, and every chaos failure is
//!    reproducible.
//!
//! Transient failures (injected or real) are absorbed by the unified
//! [`RetryPolicy`]: bounded attempts with exponential backoff, and a
//! longer pause-and-backoff for ENOSPC so a briefly full disk degrades
//! a campaign instead of aborting it.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::fs::OpenOptions;
use std::io;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Environment variable that arms the global fault injector.
///
/// Format: `seed=<u64> rate=<per-1024> [kinds=torn,short,enospc,eio,rename,fsync]
/// [points=merge.write,plan.write]` — whitespace-separated `key=value`
/// pairs. `rate` is the per-operation fault probability in 1/1024
/// units; `kinds`/`points` restrict which faults fire and where
/// (defaults: all kinds, all points).
pub const MOCKET_FSIO_FAULTS_ENV: &str = "MOCKET_FSIO_FAULTS";

/// Environment variable naming a file that receives one line per
/// injected fault (`chaos: point=<p> op=<n> kind=<k>`), appended
/// best-effort and never through the fault layer itself. Tests use it
/// to assert which fault kinds actually fired.
pub const MOCKET_FSIO_FAULT_LOG_ENV: &str = "MOCKET_FSIO_FAULT_LOG";

/// The named fault points: where a seeded [`FaultInjector`] can bite.
///
/// Names are part of the chaos-replay contract — a pinned seed plus a
/// point name identifies a reproducible fault schedule, so renaming a
/// point invalidates recorded chaos failures. Append, don't rename.
pub mod points {
    /// `plan.txt` atomic write (supervisor, campaign start).
    pub const PLAN_WRITE: &str = "plan.write";
    /// Lease claim: first write of `shard-N.lease` under the shard lock.
    pub const LEASE_CLAIM: &str = "lease.claim";
    /// Lease rewrite: in-flight case pin (temp + rename).
    pub const LEASE_WRITE: &str = "lease.write";
    /// Shard retirement: `shard-N.done` atomic write.
    pub const LEASE_DONE: &str = "lease.done";
    /// Per-shard `journal.log` verdict append.
    pub const JOURNAL_APPEND: &str = "journal.append";
    /// Quarantine forensics appends (`crashes.log`, `poisoned.log`).
    pub const QUARANTINE_APPEND: &str = "quarantine.append";
    /// Canonical merged outputs (temp + rename each).
    pub const MERGE_WRITE: &str = "merge.write";
    /// `run-summary.json` atomic write (pipeline and merge).
    pub const SUMMARY_WRITE: &str = "summary.write";
    /// `campaign-history.jsonl` append.
    pub const HISTORY_APPEND: &str = "history.append";
    /// `events.jsonl` buffered-batch flush.
    pub const OBS_FLUSH: &str = "obs.flush";
    /// Pipeline insight outputs (coverage map, uncovered edges, dot).
    pub const INSIGHT_WRITE: &str = "insight.write";
    /// Replay-artifact atomic write (`case-<hash>.artifact`).
    pub const ARTIFACT_WRITE: &str = "artifact.write";
    /// Per-case causal trace append (`trace.jsonl`).
    pub const TRACE_APPEND: &str = "trace.append";
}

/// The injectable filesystem fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A prefix of the payload reaches the file, then the write errors
    /// (a crash mid-write as the caller sees it).
    TornWrite,
    /// A prefix of the payload reaches the file and the write reports
    /// success — only self-verification (size check) can catch it.
    ShortWrite,
    /// The write fails with `ENOSPC` after a partial payload.
    Enospc,
    /// The write fails with `EIO` after a partial payload.
    Eio,
    /// The payload is written intact but the final rename fails.
    RenameFail,
    /// The fsync is silently skipped (only observable as a logged
    /// fault — it weakens durability, not the bytes).
    DropFsync,
}

impl FaultKind {
    /// Every kind, in a stable order (used for seed → kind selection).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::TornWrite,
        FaultKind::ShortWrite,
        FaultKind::Enospc,
        FaultKind::Eio,
        FaultKind::RenameFail,
        FaultKind::DropFsync,
    ];

    /// Stable name, as used in config strings and the fault log.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn",
            FaultKind::ShortWrite => "short",
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
            FaultKind::RenameFail => "rename",
            FaultKind::DropFsync => "fsync",
        }
    }

    /// Inverse of [`FaultKind::as_str`].
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

/// One fault decision: which kind fired and the raw roll that chose
/// it (used to derive deterministic partial-write lengths).
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// The fault kind to apply.
    pub kind: FaultKind,
    /// Decision hash; pure function of `(seed, point, op index)`.
    pub roll: u64,
}

impl Fault {
    /// Deterministic cut point in `[0, len)` for partial writes
    /// (never the full length — a "partial" write of every byte would
    /// be indistinguishable from success).
    fn cut(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        ((self.roll >> 20) % len as u64) as usize
    }
}

/// 64-bit FNV-1a as a streaming sink: `write!` the text to hash
/// straight into it — the hash of the concatenated bytes, with no
/// intermediate `String`. The identity hash behind case hashes, plan
/// fingerprints and per-fault-point decision streams.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty string (the FNV offset basis).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// [`finish`](Self::finish) as the fixed-width hex every on-disk
    /// identity (case hash, plan fingerprint) is spelled in.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, per-fault-point deterministic fault source.
///
/// Each named point has its own operation counter; the decision for a
/// point's `n`-th operation depends only on `(seed, point, n)`. Two
/// injectors built from the same config produce identical decision
/// sequences for identical per-point query sequences, regardless of
/// how operations at *different* points interleave — that is the
/// replay contract chaos tests rely on.
pub struct FaultInjector {
    seed: u64,
    /// Fault probability per operation, in 1/1024 units.
    rate: u32,
    kinds: Vec<FaultKind>,
    /// `None` = all points eligible.
    points: Option<Vec<String>>,
    counters: Mutex<HashMap<String, u64>>,
    log_path: Option<PathBuf>,
}

impl FaultInjector {
    /// An injector firing every enabled kind at `rate`/1024 per
    /// operation at every point.
    pub fn new(seed: u64, rate: u32) -> FaultInjector {
        FaultInjector {
            seed,
            rate: rate.min(1024),
            kinds: FaultKind::ALL.to_vec(),
            points: None,
            counters: Mutex::new(HashMap::new()),
            log_path: None,
        }
    }

    /// Restricts which fault kinds may fire.
    pub fn with_kinds(mut self, kinds: Vec<FaultKind>) -> FaultInjector {
        self.kinds = kinds;
        self
    }

    /// Restricts which fault points are eligible.
    pub fn with_points(mut self, points: Vec<String>) -> FaultInjector {
        self.points = Some(points);
        self
    }

    /// Appends each injected fault to `path` (one line per fault).
    pub fn with_log(mut self, path: PathBuf) -> FaultInjector {
        self.log_path = Some(path);
        self
    }

    /// Parses a [`MOCKET_FSIO_FAULTS_ENV`]-style config string.
    pub fn from_config(config: &str) -> Result<FaultInjector, String> {
        let mut seed = None;
        let mut rate = None;
        let mut kinds = None;
        let mut points = None;
        for part in config.split_whitespace() {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("fsio fault config: not key=value: `{part}`"));
            };
            match key {
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("fsio fault config: bad seed `{value}`"))?,
                    )
                }
                "rate" => {
                    rate = Some(
                        value
                            .parse::<u32>()
                            .map_err(|_| format!("fsio fault config: bad rate `{value}`"))?,
                    )
                }
                "kinds" => {
                    let parsed: Option<Vec<FaultKind>> =
                        value.split(',').map(FaultKind::parse).collect();
                    kinds = Some(
                        parsed.ok_or_else(|| format!("fsio fault config: bad kinds `{value}`"))?,
                    );
                }
                "points" => {
                    points = Some(value.split(',').map(str::to_string).collect::<Vec<_>>())
                }
                other => return Err(format!("fsio fault config: unknown key `{other}`")),
            }
        }
        let mut inj = FaultInjector::new(
            seed.ok_or("fsio fault config: missing seed")?,
            rate.ok_or("fsio fault config: missing rate")?,
        );
        if let Some(kinds) = kinds {
            if kinds.is_empty() {
                return Err("fsio fault config: empty kinds list".into());
            }
            inj = inj.with_kinds(kinds);
        }
        if let Some(points) = points {
            inj = inj.with_points(points);
        }
        Ok(inj)
    }

    /// Decides whether this point's next operation faults, advancing
    /// the point's counter. `None` = the operation proceeds cleanly.
    pub fn decide(&self, point: &str) -> Option<Fault> {
        let op = {
            let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            let n = counters.entry(point.to_string()).or_insert(0);
            let op = *n;
            *n += 1;
            op
        };
        if let Some(points) = &self.points {
            if !points.iter().any(|p| p == point) {
                return None;
            }
        }
        if self.kinds.is_empty() {
            return None;
        }
        let mut point_hash = Fnv1a::new();
        let _ = point_hash.write_str(point);
        let roll = splitmix64(self.seed ^ point_hash.finish().wrapping_add(op));
        if (roll % 1024) as u32 >= self.rate {
            return None;
        }
        let kind = self.kinds[((roll >> 10) as usize) % self.kinds.len()];
        let fault = Fault { kind, roll };
        self.log(point, op, kind);
        Some(fault)
    }

    fn log(&self, point: &str, op: u64, kind: FaultKind) {
        let Some(path) = &self.log_path else { return };
        // Never route the fault log through the fault layer: plain
        // O_APPEND, errors dropped. One `write(2)` per line, so worker
        // processes sharing the log cannot interleave fragments.
        let line = format!("chaos: point={point} op={op} kind={}\n", kind.as_str());
        if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// The process-global injector, armed once from the environment.
/// `None` when [`MOCKET_FSIO_FAULTS_ENV`] is unset or unparseable
/// (a bad config disarms rather than poisons every write).
pub fn armed() -> Option<&'static FaultInjector> {
    static GLOBAL: OnceLock<Option<FaultInjector>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let config = std::env::var(MOCKET_FSIO_FAULTS_ENV).ok()?;
            let mut inj = FaultInjector::from_config(&config)
                .map_err(|e| eprintln!("warning: {MOCKET_FSIO_FAULTS_ENV} ignored: {e}"))
                .ok()?;
            if let Ok(log) = std::env::var(MOCKET_FSIO_FAULT_LOG_ENV) {
                inj = inj.with_log(PathBuf::from(log));
            }
            Some(inj)
        })
        .as_ref()
}

fn decide(point: &str) -> Option<Fault> {
    armed().and_then(|inj| inj.decide(point))
}

/// True when `err` is an out-of-space condition (real or injected) —
/// the one I/O failure that deserves a longer pause before retrying.
pub fn is_enospc(err: &io::Error) -> bool {
    err.raw_os_error() == Some(28)
}

fn injected_errno(kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Enospc => io::Error::from_raw_os_error(28),
        _ => io::Error::from_raw_os_error(5),
    }
}

/// The unified retry policy for transient failures: supervisor worker
/// restarts and every fault-injectable filesystem operation share this
/// shape.
///
/// `attempts` is the *total* number of tries; retry `n` sleeps
/// `backoff * 2^n`, capped at `max_backoff`. ENOSPC failures sleep
/// 8× longer (pause-and-backoff: a full disk needs an operator or a
/// reaper, not a hot loop — but it also should not kill a campaign
/// that a cleanup would save).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1).
    pub attempts: usize,
    /// Base delay between attempts.
    pub backoff: Duration,
    /// Upper bound on any single delay (pre-ENOSPC-multiplier).
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// The standard policy for local filesystem operations: enough
    /// attempts to ride out an injected fault burst or a transient
    /// kernel error, short enough not to mask a dead disk.
    pub fn io() -> RetryPolicy {
        RetryPolicy {
            attempts: 6,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(400),
        }
    }

    /// Delay before retry number `retry` (0-based), `enospc`-aware.
    pub fn delay(&self, retry: usize, enospc: bool) -> Duration {
        let shift = retry.min(16) as u32;
        let base = self.backoff.saturating_mul(1u32 << shift.min(10));
        let capped = base.min(self.max_backoff).max(self.backoff);
        if enospc {
            capped.saturating_mul(8).max(Duration::from_millis(40))
        } else {
            capped
        }
    }

    /// Runs `op` until it succeeds or the attempt budget is spent,
    /// sleeping [`RetryPolicy::delay`] between tries.
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let attempts = self.attempts.max(1);
        let mut last_err = None;
        for retry in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if retry + 1 < attempts {
                        std::thread::sleep(self.delay(retry, is_enospc(&e)));
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("retry budget of 0 attempts")))
    }
}

/// Writes `contents` through the fault point, honoring an injected
/// fault's kind. Returns the number of bytes that actually reached
/// the file (callers verify).
fn faulty_write(f: &mut fs::File, contents: &[u8], fault: Option<Fault>) -> io::Result<usize> {
    match fault {
        None | Some(Fault { kind: FaultKind::DropFsync | FaultKind::RenameFail, .. }) => {
            f.write_all(contents)?;
            f.flush()?;
            Ok(contents.len())
        }
        Some(fault @ Fault { kind: FaultKind::ShortWrite, .. }) => {
            let cut = fault.cut(contents.len());
            f.write_all(&contents[..cut])?;
            f.flush()?;
            // A short write *reports success*; only size verification
            // downstream can notice.
            Ok(cut)
        }
        Some(fault) => {
            let cut = fault.cut(contents.len());
            f.write_all(&contents[..cut])?;
            f.flush()?;
            Err(injected_errno(fault.kind))
        }
    }
}

fn fsync(f: &fs::File, fault: Option<Fault>) -> io::Result<()> {
    if matches!(fault, Some(Fault { kind: FaultKind::DropFsync, .. })) {
        return Ok(()); // silently weakened durability — logged, not fatal
    }
    f.sync_all()
}

/// [`faulty_write`] plus size verification (catches the short writes
/// the OS — or the injector — reported as success), then fsync.
fn write_verified(
    f: &mut fs::File,
    contents: &[u8],
    fault: Option<Fault>,
    what: &str,
) -> io::Result<()> {
    let wrote = faulty_write(f, contents, fault)?;
    if wrote != contents.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("short {what}: {wrote} of {} bytes", contents.len()),
        ));
    }
    fsync(f, fault)
}

/// Atomic whole-file write: temp file (pid-suffixed, so concurrent
/// writers cannot collide), payload, **size verification** (catches
/// short writes the OS reported as success), fsync, rename. On any
/// failure the temp file is removed and the operation retried under
/// `retry`; the destination is never observable half-written.
pub fn write_atomic(
    dir: &Path,
    name: &str,
    contents: &[u8],
    point: &str,
    retry: &RetryPolicy,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp-{}", std::process::id()));
    let result = retry.run(|| {
        let fault = decide(point);
        let outcome = (|| {
            let mut f = fs::File::create(&tmp)?;
            write_verified(&mut f, contents, fault, "write")?;
            drop(f);
            if matches!(fault, Some(Fault { kind: FaultKind::RenameFail, .. })) {
                return Err(injected_errno(FaultKind::RenameFail));
            }
            fs::rename(&tmp, &path)?;
            Ok(())
        })();
        if outcome.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        outcome
    });
    result.map(|()| path)
}

/// True when the file's last byte is not `\n` (a torn append left a
/// partial line). Empty or absent files need no repair.
fn ends_mid_line(f: &mut fs::File, len: u64) -> io::Result<bool> {
    if len == 0 {
        return Ok(false);
    }
    let mut last = [0u8; 1];
    f.seek(SeekFrom::Start(len - 1))?;
    f.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

/// What a torn final line (an interrupted append whose rollback also
/// failed) is terminated with when something is written after it.
/// [`AppendLog::salvage`] reports a line ending in it as a
/// [`LineIssue`] and never parses it. A bare `'\n'` would instead
/// *complete* the debris, and debris can parse: `outcome=failed Missing
/// action` cut at `Missing` does, with the wrong kind.
pub const TORN_MARKER: &str = " <<torn-append>>";

/// Appends `line` (newline added) to an append-only log through the
/// fault point. Partial appends are **rolled back** (`ftruncate` to
/// the pre-append length) before the retry; if even the rollback is
/// impossible, the next append seals the partial line with
/// [`TORN_MARKER`], so it is isolated for parse-time salvage rather
/// than merged into the new record or trusted as a record of its own.
pub fn append_line(path: &Path, line: &str, point: &str, retry: &RetryPolicy) -> io::Result<()> {
    let mut payload = String::with_capacity(line.len() + 1);
    payload.push_str(line);
    payload.push('\n');
    append_bytes(path, payload.as_bytes(), point, retry)
}

/// Appends pre-rendered newline-terminated bytes (one or more whole
/// lines) with the same rollback-and-repair discipline as
/// [`append_line`]. Used by batched sinks (`events.jsonl`).
pub fn append_bytes(path: &Path, bytes: &[u8], point: &str, retry: &RetryPolicy) -> io::Result<()> {
    retry.run(|| {
        let mut f = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len_before = f.metadata()?.len();
        let mut buf = Vec::with_capacity(bytes.len() + TORN_MARKER.len() + 1);
        if ends_mid_line(&mut f, len_before)? {
            buf.extend_from_slice(TORN_MARKER.as_bytes());
            buf.push(b'\n');
        }
        buf.extend_from_slice(bytes);
        let fault = decide(point);
        let outcome = write_verified(&mut f, &buf, fault, "append");
        if outcome.is_err() {
            // Roll the partial append back so the log's valid prefix
            // stays valid. Best-effort: a failure here leaves a torn
            // final line, which every mocket log parser salvages.
            let _ = f.set_len(len_before);
        }
        outcome
    })
}

/// One line of an append-only log that [`AppendLog::load`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineIssue {
    /// 1-based line number in the file.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for LineIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// One line-per-record, append-only campaign file: the path plus the
/// fault point its appends run under. Every such file (`journal.log`,
/// the quarantine logs, `campaign-history.jsonl`, `trace.jsonl`) is a
/// record type on top of this; appends are [`append_line`]/
/// [`append_bytes`] under [`RetryPolicy::io`], loads follow the one
/// salvage rule of [`AppendLog::salvage`].
#[derive(Debug, Clone)]
pub struct AppendLog {
    path: PathBuf,
    point: &'static str,
}

impl AppendLog {
    /// The log at `path`, appending under fault point `point`.
    pub fn new(path: impl Into<PathBuf>, point: &'static str) -> AppendLog {
        AppendLog {
            path: path.into(),
            point,
        }
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (`line` carries no newline).
    pub fn append(&self, line: &str) -> io::Result<()> {
        append_line(&self.path, line, self.point, &RetryPolicy::io())
    }

    /// Appends pre-rendered, newline-terminated records in one write.
    pub fn append_batch(&self, bytes: &[u8]) -> io::Result<()> {
        append_bytes(&self.path, bytes, self.point, &RetryPolicy::io())
    }

    /// Reads the log and salvages it (see [`AppendLog::salvage`]). A
    /// missing file is an empty log; bytes that are not UTF-8 fail
    /// their line's parse instead of failing the load.
    pub fn load<T>(
        &self,
        parse: impl FnMut(&str) -> Result<T, String>,
    ) -> io::Result<(Vec<T>, Vec<LineIssue>)> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(Self::salvage(&String::from_utf8_lossy(&bytes), parse)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Vec::new(), Vec::new())),
            Err(e) => Err(e),
        }
    }

    /// The salvage rule of every campaign log: blank lines are
    /// skipped, a line `parse` rejects becomes a [`LineIssue`], and a
    /// final line without `'\n'` — or an earlier one sealed with
    /// [`TORN_MARKER`] by the append that followed it — was interrupted
    /// mid-append: it is reported and never trusted, even if it parses
    /// (truncating `outcome=failed Missing action` at `Missing` still
    /// parses, with the wrong kind).
    pub fn salvage<T>(
        text: &str,
        mut parse: impl FnMut(&str) -> Result<T, String>,
    ) -> (Vec<T>, Vec<LineIssue>) {
        let torn = (!text.is_empty() && !text.ends_with('\n')).then(|| text.lines().count());
        let mut records = Vec::new();
        let mut issues = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = if torn == Some(i + 1) || line.ends_with(TORN_MARKER) {
                Err(format!(
                    "truncated final line (interrupted append), not trusted: {line:?}"
                ))
            } else {
                parse(line)
            };
            match parsed {
                Ok(record) => records.push(record),
                Err(message) => issues.push(LineIssue {
                    line: i + 1,
                    message,
                }),
            }
        }
        (records, issues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mocket-fsio-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn schedule(inj: &FaultInjector, point: &str, ops: usize) -> Vec<Option<FaultKind>> {
        (0..ops).map(|_| inj.decide(point).map(|f| f.kind)).collect()
    }

    #[test]
    fn same_seed_replays_identical_schedule() {
        let a = FaultInjector::new(42, 256);
        let b = FaultInjector::new(42, 256);
        assert_eq!(schedule(&a, "merge.write", 200), schedule(&b, "merge.write", 200));
        // Per-point counters: interleaving other points must not
        // perturb a point's own schedule.
        let c = FaultInjector::new(42, 256);
        let mixed: Vec<_> = (0..200)
            .map(|_| {
                let _ = c.decide("lease.write");
                c.decide("merge.write").map(|f| f.kind)
            })
            .collect();
        let d = FaultInjector::new(42, 256);
        assert_eq!(mixed, schedule(&d, "merge.write", 200));
    }

    #[test]
    fn different_seeds_differ_and_rate_zero_is_silent() {
        let a = FaultInjector::new(1, 256);
        let b = FaultInjector::new(2, 256);
        assert_ne!(schedule(&a, "p", 400), schedule(&b, "p", 400));
        let quiet = FaultInjector::new(1, 0);
        assert!(schedule(&quiet, "p", 400).iter().all(Option::is_none));
    }

    #[test]
    fn config_roundtrip_and_rejects_garbage() {
        let inj =
            FaultInjector::from_config("seed=7 rate=128 kinds=torn,enospc points=a.b").unwrap();
        assert_eq!(inj.seed, 7);
        assert_eq!(inj.rate, 128);
        assert_eq!(inj.kinds, vec![FaultKind::TornWrite, FaultKind::Enospc]);
        assert_eq!(inj.points, Some(vec!["a.b".to_string()]));
        assert!(FaultInjector::from_config("seed=x rate=1").is_err());
        assert!(FaultInjector::from_config("rate=1").is_err());
        assert!(FaultInjector::from_config("seed=1 rate=1 kinds=bogus").is_err());
        assert!(FaultInjector::from_config("seed=1 rate=1 nonsense").is_err());
    }

    #[test]
    fn write_atomic_verifies_and_retries_through_faults() {
        let dir = tmp_dir("atomic");
        // A high fault rate with a generous retry budget: the write
        // must still land intact.
        let inj = FaultInjector::new(3, 512);
        let path = dir.join("out.txt");
        let payload = b"canonical payload, long enough to tear somewhere\n";
        let retry = RetryPolicy {
            attempts: 64,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let result = retry.run(|| {
            let fault = inj.decide("test.write");
            let tmp = dir.join("out.txt.tmp");
            let outcome = (|| {
                let mut f = fs::File::create(&tmp)?;
                let wrote = faulty_write(&mut f, payload, fault)?;
                if wrote != payload.len() {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "short"));
                }
                fsync(&f, fault)?;
                drop(f);
                if matches!(fault, Some(Fault { kind: FaultKind::RenameFail, .. })) {
                    return Err(injected_errno(FaultKind::RenameFail));
                }
                fs::rename(&tmp, &path)
            })();
            if outcome.is_err() {
                let _ = fs::remove_file(&tmp);
            }
            outcome
        });
        result.unwrap();
        assert_eq!(fs::read(&path).unwrap(), payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_clean_path_writes_bytes() {
        let dir = tmp_dir("clean");
        let path =
            write_atomic(&dir, "f.json", b"{}\n", "test.point", &RetryPolicy::io()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{}\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_line_seals_a_torn_tail_so_salvage_never_parses_it() {
        let dir = tmp_dir("append");
        let log = AppendLog::new(dir.join("log"), "test.append");
        // The debris parses: a bare newline would make it a record.
        fs::write(log.path(), "ok: 1\nok: 2 tor").unwrap();
        log.append("ok: 3").unwrap();
        let text = fs::read_to_string(log.path()).unwrap();
        assert_eq!(text, format!("ok: 1\nok: 2 tor{TORN_MARKER}\nok: 3\n"));
        let parse = |l: &str| l.strip_prefix("ok: ").map(str::to_string).ok_or("no".to_string());
        let (records, issues) = log.load(parse).unwrap();
        assert_eq!(records, ["1", "3"]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].line, 2);
        assert!(issues[0].message.contains("not trusted"), "{}", issues[0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_log_salvages_by_one_rule() {
        let dir = tmp_dir("appendlog");
        let log = AppendLog::new(dir.join("log"), "test.append");
        let parse = |l: &str| l.strip_prefix("ok: ").map(str::to_string).ok_or("no".to_string());
        // A missing file is an empty log.
        assert_eq!(log.load(parse).unwrap(), (vec![], vec![]));
        log.append("ok: 1").unwrap();
        log.append_batch(b"ok: 2\n\nbad\n").unwrap();
        // Blank lines are skipped, a rejected line is an issue with its
        // 1-based line number, invalid UTF-8 fails only its own line.
        let mut raw = fs::read(log.path()).unwrap();
        raw.extend_from_slice(b"ok: \xff\xfe\n");
        // The final line parses but has no newline: never trusted.
        raw.extend_from_slice(b"ok: 3");
        fs::write(log.path(), raw).unwrap();
        let (records, issues) = log.load(parse).unwrap();
        assert_eq!(records, ["1", "2", "\u{fffd}\u{fffd}"]);
        assert_eq!(issues.len(), 2);
        assert_eq!((issues[0].line, issues[0].message.as_str()), (4, "no"));
        assert_eq!(issues[1].line, 6);
        assert!(issues[1].message.contains("truncated final line"));
        assert!(issues[1].to_string().starts_with("line 6: "));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_recognized_and_delay_scales() {
        assert!(is_enospc(&io::Error::from_raw_os_error(28)));
        assert!(!is_enospc(&io::Error::from_raw_os_error(5)));
        let p = RetryPolicy::io();
        assert!(p.delay(0, true) >= p.delay(0, false));
        assert!(p.delay(3, false) >= p.delay(0, false));
        assert!(p.delay(12, false) <= p.max_backoff);
    }

    #[test]
    fn torn_write_leaves_a_prefix_as_debris() {
        let dir = tmp_dir("torn");
        let path = dir.join("out");
        let payload = b"pid=12345 worker=1\n";
        let inj = FaultInjector::new(9, 1024).with_kinds(vec![FaultKind::TornWrite]);
        let fault = inj.decide("test.torn");
        assert!(fault.is_some());
        let mut f = fs::File::create(&path).unwrap();
        assert!(faulty_write(&mut f, payload, fault).is_err());
        drop(f);
        // The file exists with a strict prefix of the payload — the
        // shape every salvage path must handle.
        let debris = fs::read(&path).unwrap();
        assert!(debris.len() < payload.len());
        assert!(payload.starts_with(&debris[..]));
        let _ = fs::remove_dir_all(&dir);
    }
}
