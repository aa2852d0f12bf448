//! Structured events and the log they are written to.
//!
//! An [`Event`] is a name, a *logical* timestamp and a flat list of
//! typed fields. [`Obs::event`] renders it straight into the handle's
//! one [`EventLog`], which numbers lines in arrival order under one
//! lock.
//!
//! Determinism: sequence numbers follow arrival order, so an event
//! stream is reproducible exactly when events are recorded from a
//! single control thread (the pipeline loop, the checker's merge loop).
//! All Mocket instrumentation follows that rule; worker threads update
//! metrics only.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::fsio::{points, AppendLog};
use crate::json::{push_escaped, push_f64};
use crate::metrics::MetricsRegistry;

/// File name of the event sink inside a campaign directory.
pub const EVENTS_FILE_NAME: &str = "events.jsonl";

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter-like value.
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Fraction or rate. Must not carry wall-clock time — that belongs
    /// in [`TIMING_PREFIX`](crate::metrics::TIMING_PREFIX) metrics.
    F64(f64),
    /// Flag.
    Bool(bool),
    /// Free-form text (action names, outcome kinds, hashes).
    Str(String),
}

macro_rules! from_impl {
    ($t:ty, $variant:ident, $conv:expr) => {
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant($conv(v))
            }
        }
    };
}

from_impl!(u64, U64, |v| v);
from_impl!(usize, U64, |v| v as u64);
from_impl!(u32, U64, |v: u32| u64::from(v));
from_impl!(i64, I64, |v| v);
from_impl!(f64, F64, |v| v);
from_impl!(bool, Bool, |v| v);
from_impl!(String, Str, |v| v);

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, dot-separated (`check.wave`, `case.verdict`).
    pub name: &'static str,
    /// Logical timestamp: wave number, step counter, case index —
    /// whatever monotone counter the recording site owns. Never
    /// wall-clock.
    pub ts: u64,
    /// Typed payload, in recording order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    /// `seq` is the sink-assigned sequence number.
    pub fn to_json_line(&self, seq: u64) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 16);
        out.push_str(&format!("{{\"seq\":{seq},\"ts\":{},\"event\":", self.ts));
        push_escaped(&mut out, self.name);
        for (k, v) in &self.fields {
            out.push(',');
            push_escaped(&mut out, k);
            out.push(':');
            match v {
                FieldValue::U64(n) => out.push_str(&n.to_string()),
                FieldValue::I64(n) => out.push_str(&n.to_string()),
                FieldValue::F64(n) => push_f64(&mut out, *n),
                FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                FieldValue::Str(s) => push_escaped(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

/// One run's event log: every line rendered once, numbered in arrival
/// order under one lock, and staged for the file behind it (none for an
/// in-memory log, which keeps every line).
///
/// A file-backed log pushes its staged lines to disk in whole-line
/// batches through the fault-injectable [`crate::fsio`] append path
/// (fault point `obs.flush`), so a torn batch is rolled back or
/// isolated rather than corrupting the stream mid-line.
pub struct EventLog {
    staged: Mutex<Staged>,
    file: Option<AppendLog>,
}

struct Staged {
    lines: String,
    seq: u64,
}

/// Append the staged lines once they cross this size even without an
/// explicit `flush()` call.
const STAGE_LIMIT: usize = 64 * 1024;

impl EventLog {
    fn new(file: Option<AppendLog>) -> Self {
        EventLog {
            staged: Mutex::new(Staged {
                lines: String::new(),
                seq: 0,
            }),
            file,
        }
    }

    /// Creates (truncating) `events.jsonl` under `dir`, and removes a
    /// `run-summary.json` beside it: the two files describe one run, and
    /// a run that ends without a summary (a campaign worker that finds
    /// every shard done) must not leave an earlier run's beside its own
    /// events.
    fn create(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(EVENTS_FILE_NAME);
        fs::File::create(&path)?;
        match fs::remove_file(dir.join(crate::summary::RUN_SUMMARY_FILE_NAME)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        Ok(EventLog::new(Some(AppendLog::new(path, points::OBS_FLUSH))))
    }

    /// Everything an in-memory log recorded, exactly as `events.jsonl`
    /// would hold it.
    pub fn to_jsonl(&self) -> String {
        self.lock().lines.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Staged> {
        self.staged.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, event: &Event) {
        let mut staged = self.lock();
        let line = event.to_json_line(staged.seq);
        staged.seq += 1;
        staged.lines.push_str(&line);
        staged.lines.push('\n');
        if let Some(file) = &self.file {
            if staged.lines.len() >= STAGE_LIMIT {
                staged.append_to(file);
            }
        }
    }

    fn flush(&self) {
        if let Some(file) = &self.file {
            self.lock().append_to(file);
        }
    }
}

impl Staged {
    fn append_to(&mut self, file: &AppendLog) {
        if self.lines.is_empty() {
            return;
        }
        // Sink errors must never fail a campaign: `AppendLog` retries
        // under the io policy (which absorbs injected faults and
        // transient ENOSPC), then the batch is dropped rather than
        // grown unboundedly.
        let _ = file.append_batch(self.lines.as_bytes());
        self.lines.clear();
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        if let Some(file) = &self.file {
            let staged = self.staged.get_mut().unwrap_or_else(|e| e.into_inner());
            staged.append_to(file);
        }
    }
}

/// Failure to prepare a campaign observability directory: the path
/// that could not be prepared plus the underlying io error.
#[derive(Debug)]
pub struct ObsDirError {
    /// The directory that was being prepared.
    pub path: PathBuf,
    /// What went wrong.
    pub source: io::Error,
}

impl fmt::Display for ObsDirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot prepare observability directory {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for ObsDirError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The observability handle threaded through the pipeline. Cheap to
/// clone; cloning shares the event log and the metrics registry.
///
/// A disabled handle ([`Obs::disabled`]) has no log, never allocates on
/// the event path and is the default everywhere, so instrumented code
/// costs nothing when observability is off.
#[derive(Clone)]
pub struct Obs {
    log: Option<Arc<EventLog>>,
    metrics: Arc<MetricsRegistry>,
    dir: Option<Arc<PathBuf>>,
}

impl Obs {
    fn with_log(log: Option<Arc<EventLog>>, dir: Option<&Path>) -> Self {
        Obs {
            log,
            metrics: Arc::new(MetricsRegistry::default()),
            dir: dir.map(|d| Arc::new(d.to_path_buf())),
        }
    }

    /// A no-op handle: events are dropped, metrics still accumulate
    /// (they are cheap and useful for tests).
    pub fn disabled() -> Self {
        Obs::with_log(None, None)
    }

    /// An enabled handle with an in-memory log, for tests.
    pub fn in_memory() -> (Self, Arc<EventLog>) {
        let log = Arc::new(EventLog::new(None));
        (Obs::with_log(Some(log.clone()), None), log)
    }

    /// An enabled handle writing `events.jsonl` under `dir`; the
    /// directory also becomes the default home of `run-summary.json`.
    /// The directory (and any missing parents) is created; failure is
    /// reported as a typed, pathful [`ObsDirError`].
    pub fn jsonl_in(dir: &Path) -> Result<Self, ObsDirError> {
        let log = EventLog::create(dir).map_err(|source| ObsDirError {
            path: dir.to_path_buf(),
            source,
        })?;
        Ok(Obs::with_log(Some(Arc::new(log)), Some(dir)))
    }

    /// Whether event recording is live.
    pub fn enabled(&self) -> bool {
        self.log.is_some()
    }

    /// The campaign directory this handle writes into, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_ref().map(|d| d.as_path())
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records one event; see the module docs for the
    /// single-control-thread determinism rule.
    pub fn event(&self, name: &'static str, ts: u64, fields: Vec<(&'static str, FieldValue)>) {
        if let Some(log) = &self.log {
            log.record(&Event { name, ts, fields });
        }
    }

    /// Appends the staged lines to the log's file. Call at sequential
    /// control points (end of a stage, end of the run, before an
    /// unwind continues).
    pub fn flush(&self) {
        if let Some(log) = &self.log {
            log.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_escapes_and_orders_fields() {
        let e = Event {
            name: "case.verdict",
            ts: 3,
            fields: vec![
                ("outcome", "failed \"hard\"\n".into()),
                ("attempts", 2u64.into()),
                ("flaky", false.into()),
                ("ratio", 0.5f64.into()),
            ],
        };
        assert_eq!(
            e.to_json_line(7),
            "{\"seq\":7,\"ts\":3,\"event\":\"case.verdict\",\
             \"outcome\":\"failed \\\"hard\\\"\\n\",\"attempts\":2,\
             \"flaky\":false,\"ratio\":0.5}"
        );
    }

    #[test]
    fn disabled_handle_drops_events_but_keeps_metrics() {
        let obs = Obs::disabled();
        obs.event("x", 0, vec![]);
        obs.flush();
        obs.metrics().add("c", 2);
        assert_eq!(obs.metrics().counter("c"), 2);
    }

    #[test]
    fn events_land_in_arrival_order_from_any_thread() {
        let (obs, log) = Obs::in_memory();
        obs.event("tick", 0, vec![("i", 0u64.into())]);
        let worker = obs.clone();
        std::thread::spawn(move || worker.event("worker.tick", 1, vec![]))
            .join()
            .unwrap();
        obs.event("tick", 2, vec![]);
        // No flush: every event is in the log the moment it is recorded.
        assert_eq!(
            log.to_jsonl(),
            "{\"seq\":0,\"ts\":0,\"event\":\"tick\",\"i\":0}\n\
             {\"seq\":1,\"ts\":1,\"event\":\"worker.tick\"}\n\
             {\"seq\":2,\"ts\":2,\"event\":\"tick\"}\n"
        );
    }

    #[test]
    fn two_handles_keep_separate_logs() {
        let (a, log_a) = Obs::in_memory();
        let (b, log_b) = Obs::in_memory();
        a.event("a", 0, vec![]);
        b.event("b", 0, vec![]);
        b.event("b", 1, vec![]);
        assert_eq!(log_a.to_jsonl(), "{\"seq\":0,\"ts\":0,\"event\":\"a\"}\n");
        assert_eq!(log_b.to_jsonl().lines().count(), 2);
        assert!(log_b.to_jsonl().lines().all(|l| l.contains("\"event\":\"b\"")));
    }

    #[test]
    fn obs_dir_error_is_typed_and_pathful() {
        let file = std::env::temp_dir().join(format!("mocket-obs-file-{}", std::process::id()));
        fs::write(&file, b"not a directory").unwrap();
        // A file where the directory should be: create_dir_all fails.
        let err = match Obs::jsonl_in(&file) {
            Ok(_) => panic!("jsonl_in over a file must fail"),
            Err(e) => e,
        };
        assert_eq!(err.path, file);
        let msg = err.to_string();
        assert!(
            msg.contains("cannot prepare observability directory"),
            "unexpected message: {msg}"
        );
        assert!(msg.contains(&file.display().to_string()));
        assert!(std::error::Error::source(&err).is_some());
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn jsonl_in_creates_missing_parents() {
        let base = std::env::temp_dir().join(format!("mocket-obs-deep-{}", std::process::id()));
        let dir = base.join("a").join("b");
        let _ = fs::remove_dir_all(&base);
        let obs = Obs::jsonl_in(&dir).unwrap();
        obs.event("x", 0, vec![]);
        obs.flush();
        assert!(dir.join(EVENTS_FILE_NAME).is_file());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn jsonl_in_writes_one_object_per_line() {
        let dir = std::env::temp_dir().join(format!("mocket-obs-test-{}", std::process::id()));
        let obs = Obs::jsonl_in(&dir).unwrap();
        obs.event("run.done", 5, vec![("ok", true.into())]);
        obs.flush();
        let text = fs::read_to_string(dir.join(EVENTS_FILE_NAME)).unwrap();
        assert_eq!(
            text,
            "{\"seq\":0,\"ts\":5,\"event\":\"run.done\",\"ok\":true}\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
