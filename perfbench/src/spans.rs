//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call
//! into a product layer (name, start, end, parent, case id), kept in
//! memory, and written to `spans.jsonl` when the run ends. A layer's
//! self time is its span's duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The plan index of the case the span belongs to, when it
    /// belongs to one (every SUT call does; set-up spans do not).
    pub case: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recording thread (0 = the round's main thread; campaign worker
    /// threads are 1..).
    pub thread: usize,
}

struct Inner {
    spans: Vec<Span>,
    /// Open-span stack per recording thread.
    stacks: BTreeMap<usize, Vec<usize>>,
    case: BTreeMap<usize, u64>,
}

/// A cloneable handle; the disabled recorder (untraced runs) records
/// nothing and costs one branch per call.
#[derive(Clone)]
pub struct Recorder {
    origin: Instant,
    inner: Option<Arc<Mutex<Inner>>>,
    thread: usize,
}

impl Recorder {
    pub fn disabled() -> Self {
        Recorder {
            origin: Instant::now(),
            inner: None,
            thread: 0,
        }
    }

    pub fn enabled() -> Self {
        Recorder {
            origin: Instant::now(),
            inner: Some(Arc::new(Mutex::new(Inner {
                spans: Vec::new(),
                stacks: BTreeMap::new(),
                case: BTreeMap::new(),
            }))),
            thread: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The same recorder, recording under another thread id: spans
    /// opened through the returned handle nest among themselves, under
    /// `parent` — not under whatever the other threads have open.
    pub fn for_thread(&self, thread: usize, parent: Option<usize>) -> Self {
        if let Some(inner) = &self.inner {
            let mut g = inner.lock().expect("span recorder lock poisoned");
            g.stacks.insert(thread, parent.into_iter().collect());
        }
        Recorder {
            origin: self.origin,
            inner: self.inner.clone(),
            thread,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags every span opened on this thread from now on with `case`.
    pub fn set_case(&self, case: u64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("span recorder lock poisoned")
                .case
                .insert(self.thread, case);
        }
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn enter(&self, name: &'static str) -> Option<usize> {
        let inner = self.inner.as_ref()?;
        let start_ns = self.now_ns();
        let mut g = inner.lock().expect("span recorder lock poisoned");
        let id = g.spans.len();
        let parent = g.stacks.entry(self.thread).or_default().last().copied();
        let case = g.case.get(&self.thread).copied();
        g.spans.push(Span {
            id,
            parent,
            case,
            name,
            start_ns,
            end_ns: start_ns,
            thread: self.thread,
        });
        g.stacks.entry(self.thread).or_default().push(id);
        Some(id)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&self, id: Option<usize>) {
        let (Some(inner), Some(id)) = (self.inner.as_ref(), id) else {
            return;
        };
        let end_ns = self.now_ns();
        let mut g = inner.lock().expect("span recorder lock poisoned");
        g.spans[id].end_ns = end_ns;
        let stack = g.stacks.entry(self.thread).or_default();
        if stack.last() == Some(&id) {
            stack.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured interval as a child of the
    /// innermost open span (for a phase whose end is only known in
    /// hindsight, such as "until the first case could run").
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut g = inner.lock().expect("span recorder lock poisoned");
        let id = g.spans.len();
        let parent = g.stacks.entry(self.thread).or_default().last().copied();
        g.spans.push(Span {
            id,
            parent,
            case: None,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            thread: self.thread,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner
                .lock()
                .expect("span recorder lock poisoned")
                .spans
                .clone(),
            None => Vec::new(),
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (clipped to the interval; children may overlap one another, as
/// spans of parallel worker threads under one parent do).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time per span name, in seconds, summed over all spans of that
/// name: duration minus the part covered by child spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e9;
    }
    out
}

/// One JSON object per span, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"case\":");
        match s.case {
            Some(c) => {
                let _ = write!(out, "{c}");
            }
            None => out.push_str("null"),
        }
        let _ = writeln!(
            out,
            ",\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.thread, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            case: None,
            name,
            start_ns: start,
            end_ns: end,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; a 10..60 with its own child b 20..40; c 70..90.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(1), "b", 20, 40),
            span(3, Some(0), "c", 70, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 30e-9); // 100 - 50 - 20: b is a's child, not root's
        assert_eq!(st["a"], 30e-9);
        assert_eq!(st["b"], 20e-9);
        assert_eq!(st["c"], 20e-9);
        let sum: f64 = st.values().sum();
        assert!(
            (sum - 100e-9).abs() < 1e-15,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        // Two worker threads under one parent: 10..60 and 40..90
        // overlap by 20; a third child pokes out past the parent's end.
        let spans = vec![
            span(0, None, "workers", 0, 100),
            span(1, Some(0), "w", 10, 60),
            span(2, Some(0), "w", 40, 90),
            span(3, Some(0), "late", 95, 130),
        ];
        let st = self_times(&spans);
        // Union inside the parent: 10..90 (80) + 95..100 (5).
        assert_eq!(st["workers"], 15e-9);
        assert_eq!(st["w"], 100e-9);
    }

    #[test]
    fn recorder_nests_by_call_order_and_tags_cases() {
        let rec = Recorder::enabled();
        let root = rec.enter("root");
        rec.set_case(7);
        rec.scope("child", || rec.scope("grandchild", || ()));
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[0].case, None);
        assert_eq!(spans[1].case, Some(7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_jsonl(&spans).lines().count() == 3);
    }

    #[test]
    fn thread_handles_nest_under_the_given_parent_only() {
        let rec = Recorder::enabled();
        let root = rec.enter("root");
        let w1 = rec.for_thread(1, root);
        let w2 = rec.for_thread(2, root);
        let a = w1.enter("a");
        let b = w2.enter("b"); // must not become a child of "a"
        w1.exit(a);
        w2.exit(b);
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        let id = rec.enter("x");
        assert_eq!(id, None);
        rec.exit(id);
        assert!(rec.spans().is_empty());
    }
}
