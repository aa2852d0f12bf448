//! Structured events and the recording pipeline.
//!
//! An [`Event`] is a name, a *logical* timestamp and a flat list of
//! typed fields. Events flow through a per-thread buffer into a
//! [`Recorder`] sink; the hot path (buffer push) takes no lock, the
//! sink lock is taken once per batch.
//!
//! Determinism: the sink assigns sequence numbers in arrival order, so
//! an event stream is reproducible exactly when events are recorded
//! from a single control thread (the pipeline loop, the checker's
//! merge loop). All Mocket instrumentation follows that rule; worker
//! threads update metrics only.

use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::fsio::{points, AppendLog};
use crate::json::{push_escaped, push_f64};
use crate::metrics::MetricsRegistry;

/// File name of the event sink inside a campaign directory.
pub const EVENTS_FILE_NAME: &str = "events.jsonl";

/// Events are flushed to the sink in batches of this size.
const BATCH: usize = 64;

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

/// An event sink. Batches arrive in recording order per thread; the
/// sink assigns global sequence numbers in arrival order.
pub trait Recorder: Send + Sync {
    /// Consumes a batch of events.
    fn record_batch(&self, events: Vec<Event>);
    /// Forces buffered output to its backing store.
    fn flush(&self) {}
}

/// Discards everything.
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record_batch(&self, _events: Vec<Event>) {}
}

/// Keeps events in memory — the test sink.
#[derive(Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
}

impl MemoryRecorder {
    /// Snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Renders the recorded stream exactly as `events.jsonl` would.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, e) in self.events.lock().unwrap().iter().enumerate() {
            out.push_str(&e.to_json_line(seq as u64));
            out.push('\n');
        }
        out
    }
}

impl Recorder for MemoryRecorder {
    fn record_batch(&self, events: Vec<Event>) {
        self.events.lock().unwrap().extend(events);
    }
}

/// Appends one JSON object per line to `events.jsonl`.
///
/// Lines are staged in memory and pushed to disk in whole-line
/// batches through the fault-injectable [`crate::fsio`] append path
/// (fault point `obs.flush`), so a torn batch is rolled back or
/// isolated rather than corrupting the stream mid-line.
pub struct JsonlRecorder {
    inner: Mutex<JsonlInner>,
    log: AppendLog,
}

struct JsonlInner {
    staged: String,
    seq: u64,
}

/// Flush the staged buffer once it crosses this size even without an
/// explicit `flush()` call.
const JSONL_STAGE_LIMIT: usize = 64 * 1024;

impl JsonlRecorder {
    /// Creates (truncating) `events.jsonl` under `dir`, and removes a
    /// `run-summary.json` beside it: the two files describe one run, and
    /// a run that ends without a summary (a campaign worker that finds
    /// every shard done) must not leave an earlier run's beside its own
    /// events.
    pub fn create(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(EVENTS_FILE_NAME);
        fs::File::create(&path)?;
        match fs::remove_file(dir.join(crate::summary::RUN_SUMMARY_FILE_NAME)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        Ok(JsonlRecorder {
            inner: Mutex::new(JsonlInner {
                staged: String::new(),
                seq: 0,
            }),
            log: AppendLog::new(path, points::OBS_FLUSH),
        })
    }

    /// The path of the sink file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    fn flush_staged(&self, inner: &mut JsonlInner) {
        if inner.staged.is_empty() {
            return;
        }
        // Sink errors must never fail a campaign: retry via the
        // unified policy (which absorbs injected faults and transient
        // ENOSPC), then drop the batch rather than grow unboundedly.
        let _ = self.log.append_batch(inner.staged.as_bytes());
        inner.staged.clear();
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.flush_staged(&mut inner);
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

impl Recorder for JsonlRecorder {
    fn record_batch(&self, events: Vec<Event>) {
        let mut inner = self.inner.lock().unwrap();
        for e in events {
            let line = e.to_json_line(inner.seq);
            inner.seq += 1;
            inner.staged.push_str(&line);
            inner.staged.push('\n');
        }
        if inner.staged.len() >= JSONL_STAGE_LIMIT {
            self.flush_staged(&mut inner);
        }
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().unwrap();
        self.flush_staged(&mut inner);
    }
}

// Per-thread event buffers, keyed by the owning `Obs` id so two live
// handles never interleave buffers. Each buffer holds a weak link to
// its sink so the thread-exit destructor can drain what is left: a
// worker that dies (or a pipeline thread unwinding past its explicit
// `flush()`) must not silently drop up to `BATCH - 1` events.
struct LocalBuf {
    id: u64,
    recorder: Weak<dyn Recorder>,
    events: Vec<Event>,
}

#[derive(Default)]
struct LocalBuffers {
    bufs: Vec<LocalBuf>,
}

impl Drop for LocalBuffers {
    fn drop(&mut self) {
        for buf in self.bufs.drain(..) {
            if buf.events.is_empty() {
                continue;
            }
            // A dead sink (all `Obs` handles gone) has no readers left;
            // only then is dropping the tail acceptable.
            if let Some(rec) = buf.recorder.upgrade() {
                rec.record_batch(buf.events);
                rec.flush();
            }
        }
    }
}

thread_local! {
    static LOCAL_BUFFERS: RefCell<LocalBuffers> = RefCell::new(LocalBuffers::default());
}

static NEXT_OBS_ID: AtomicU64 = AtomicU64::new(1);

/// The observability handle threaded through the pipeline. Cheap to
/// clone; cloning shares the recorder and the metrics registry.
///
/// A disabled handle ([`Obs::disabled`]) never allocates on the event
/// path and is the default everywhere, so instrumented code costs
/// nothing when observability is off.
#[derive(Clone)]
pub struct Obs {
    id: u64,
    enabled: bool,
    recorder: Arc<dyn Recorder>,
    metrics: Arc<MetricsRegistry>,
    dir: Option<Arc<PathBuf>>,
}

impl Obs {
    /// A no-op handle: events are dropped before buffering, metrics
    /// still accumulate (they are cheap and useful for tests).
    pub fn disabled() -> Self {
        Obs {
            id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
            enabled: false,
            recorder: Arc::new(NullRecorder),
            metrics: Arc::new(MetricsRegistry::default()),
            dir: None,
        }
    }

    /// An enabled handle with an in-memory sink, for tests.
    pub fn in_memory() -> (Self, Arc<MemoryRecorder>) {
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs {
            id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
            enabled: true,
            recorder: rec.clone(),
            metrics: Arc::new(MetricsRegistry::default()),
            dir: None,
        };
        (obs, rec)
    }

    /// An enabled handle writing `events.jsonl` under `dir`; the
    /// directory also becomes the default home of `run-summary.json`.
    /// The directory (and any missing parents) is created; failure is
    /// reported as a typed, pathful [`ObsDirError`].
    pub fn jsonl_in(dir: &Path) -> Result<Self, ObsDirError> {
        let rec = JsonlRecorder::create(dir).map_err(|source| ObsDirError {
            path: dir.to_path_buf(),
            source,
        })?;
        Ok(Obs {
            id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
            enabled: true,
            recorder: Arc::new(rec),
            metrics: Arc::new(MetricsRegistry::default()),
            dir: Some(Arc::new(dir.to_path_buf())),
        })
    }

    /// Whether event recording is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The campaign directory this handle writes into, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_ref().map(|d| d.as_path())
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records one event. Buffered per thread; see the module docs for
    /// the single-control-thread determinism rule.
    pub fn event(&self, name: &'static str, ts: u64, fields: Vec<(&'static str, FieldValue)>) {
        if !self.enabled {
            return;
        }
        let full = LOCAL_BUFFERS.with(|buffers| {
            let mut buffers = buffers.borrow_mut();
            let buf = match buffers.bufs.iter_mut().position(|b| b.id == self.id) {
                Some(i) => &mut buffers.bufs[i],
                None => {
                    buffers.bufs.push(LocalBuf {
                        id: self.id,
                        recorder: Arc::downgrade(&self.recorder),
                        events: Vec::with_capacity(BATCH),
                    });
                    buffers.bufs.last_mut().unwrap()
                }
            };
            buf.events.push(Event { name, ts, fields });
            if buf.events.len() >= BATCH {
                Some(std::mem::take(&mut buf.events))
            } else {
                None
            }
        });
        if let Some(batch) = full {
            self.recorder.record_batch(batch);
        }
    }

    /// Drains this thread's buffer into the sink and flushes the sink.
    /// Call at sequential control points (end of a wave, end of a
    /// stage, end of the run).
    pub fn flush(&self) {
        if !self.enabled {
            return;
        }
        let batch = LOCAL_BUFFERS.with(|buffers| {
            let mut buffers = buffers.borrow_mut();
            buffers
                .bufs
                .iter_mut()
                .find(|b| b.id == self.id)
                .map(|b| std::mem::take(&mut b.events))
        });
        if let Some(batch) = batch {
            if !batch.is_empty() {
                self.recorder.record_batch(batch);
            }
        }
        self.recorder.flush();
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
    fn buffered_events_reach_sink_in_order() {
        let (obs, rec) = Obs::in_memory();
        for i in 0..10 {
            obs.event("tick", i, vec![("i", i.into())]);
        }
        // Not yet flushed and below batch size: sink still empty.
        assert!(rec.events().is_empty());
        obs.flush();
        let events = rec.events();
        assert_eq!(events.len(), 10);
        assert!(events.iter().enumerate().all(|(i, e)| e.ts == i as u64));
    }

    #[test]
    fn batch_overflow_flushes_automatically() {
        let (obs, rec) = Obs::in_memory();
        for i in 0..(BATCH as u64 + 3) {
            obs.event("tick", i, vec![]);
        }
        assert_eq!(rec.events().len(), BATCH);
        obs.flush();
        assert_eq!(rec.events().len(), BATCH + 3);
    }

    #[test]
    fn two_handles_do_not_share_buffers() {
        let (a, rec_a) = Obs::in_memory();
        let (b, rec_b) = Obs::in_memory();
        a.event("a", 0, vec![]);
        b.event("b", 0, vec![]);
        a.flush();
        b.flush();
        assert_eq!(rec_a.events().len(), 1);
        assert_eq!(rec_a.events()[0].name, "a");
        assert_eq!(rec_b.events().len(), 1);
        assert_eq!(rec_b.events()[0].name, "b");
    }

    #[test]
    fn thread_exit_drains_buffered_events() {
        let (obs, rec) = Obs::in_memory();
        let handle = {
            let obs = obs.clone();
            std::thread::spawn(move || {
                // Fewer than BATCH events and no flush(): before the
                // Drop-drain fix these were lost with the thread.
                for i in 0..5u64 {
                    obs.event("worker.tick", i, vec![]);
                }
            })
        };
        handle.join().unwrap();
        let events = rec.events();
        assert_eq!(events.len(), 5, "thread exit must drain its buffer");
        assert!(events.iter().enumerate().all(|(i, e)| e.ts == i as u64));
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
    fn jsonl_recorder_writes_one_object_per_line() {
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
