//! Causal message-level tracing.
//!
//! A [`Tracer`] records one test case's execution as a flat list of
//! [`CausalEvent`]s: scheduler releases, per-node execution spans,
//! and every network-level message fate (send / recv / drop /
//! duplicate). Message events are linked into causal edges by
//! a per-trace message id — a `recv` carries the `msg` id of the
//! `send` that produced it — and every event carries the scheduler
//! context active when it happened: the step index, the released
//! action, and the spec edge that step exercised. The result is the
//! happens-before DAG of the case, annotated with its
//! `(action, spec-edge)` mapping.
//!
//! # Determinism contract
//!
//! Events are recorded only from schedule-driven points (a scheduler
//! release, a node step executing under it, the network calls made
//! inside that step) — never from timing-dependent points such as
//! offer polls. Sequence numbers, message ids and Lamport clocks are
//! assigned in recording order, which the sequential runner makes
//! deterministic. Only the tracer stamps `vt`: nanoseconds since the
//! case began on the clock it was created with. The pipeline gives it
//! the run clock only when that is virtual, where a case's time from
//! its start depends only on the seed and the case — the same bytes
//! whichever process ran it. Otherwise `vt` is `0` (wall clock never
//! leaks into a trace); compare across backends with `vt` zeroed —
//! see [`strip_virtual_time`].
//!
//! A disabled tracer (the default) is a `None` behind a cheap clone:
//! every recording call is a branch on a discriminant and returns
//! immediately, and the [`MsgTag`] stamped on wire messages is a
//! `Copy` default — the fast no-op path campaigns run unless
//! `--trace` is given.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::fsio::{points, AppendLog, LineIssue};
use crate::json::{parse_flat_object, push_escaped};

/// The per-case trace file name.
pub const TRACE_FILE_NAME: &str = "trace.jsonl";

/// The tag a traced run stamps on every wire message.
///
/// `trace == 0` means untraced (the disabled-tracer default): the tag
/// rides along as a few dead bytes of envelope metadata and nothing
/// is ever recorded about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgTag {
    /// Trace identity (case index + 1 so it is nonzero when live).
    pub trace: u64,
    /// The sender's Lamport clock at send time.
    pub lamport: u64,
    /// Per-trace message id: links a recv back to its send.
    pub seq: u64,
}

impl MsgTag {
    /// Whether this message was sent under a live tracer. Not named
    /// `is_traced`: `scripts/lint.sh` rejects every `pub fn *_traced`
    /// as a variant-ladder sibling, and that grep has to stay empty.
    pub fn is_live(&self) -> bool {
        self.trace != 0
    }
}

/// What a [`CausalEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalKind {
    /// Case started (note = case hash).
    CaseBegin,
    /// Case finished (note = outcome label).
    CaseEnd,
    /// The scheduler released a matched offer to a node.
    Release,
    /// The scheduler triggered an external fault / user request.
    External,
    /// A node began executing one step.
    StepBegin,
    /// The node step finished.
    StepEnd,
    /// A message entered the network.
    Send,
    /// A receive action consumed a message.
    Recv,
    /// A scheduled drop fault discarded a message.
    Drop,
    /// A fault added another copy of a message.
    Duplicate,
    /// A node crashed (scheduled fault or teardown).
    Crash,
    /// A node restarted.
    Restart,
}

impl CausalKind {
    /// The stable label written to `trace.jsonl`.
    pub fn label(&self) -> &'static str {
        match self {
            CausalKind::CaseBegin => "case",
            CausalKind::CaseEnd => "case.end",
            CausalKind::Release => "release",
            CausalKind::External => "external",
            CausalKind::StepBegin => "step",
            CausalKind::StepEnd => "step.end",
            CausalKind::Send => "send",
            CausalKind::Recv => "recv",
            CausalKind::Drop => "drop",
            CausalKind::Duplicate => "dup",
            CausalKind::Crash => "crash",
            CausalKind::Restart => "restart",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<CausalKind> {
        Some(match label {
            "case" => CausalKind::CaseBegin,
            "case.end" => CausalKind::CaseEnd,
            "release" => CausalKind::Release,
            "external" => CausalKind::External,
            "step" => CausalKind::StepBegin,
            "step.end" => CausalKind::StepEnd,
            "send" => CausalKind::Send,
            "recv" => CausalKind::Recv,
            "drop" => CausalKind::Drop,
            "dup" => CausalKind::Duplicate,
            "crash" => CausalKind::Crash,
            "restart" => CausalKind::Restart,
            _ => return None,
        })
    }
}

/// One recorded trace event. Optional fields are omitted from the
/// JSON line when absent, so lines stay compact and deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalEvent {
    /// Position in the trace (per-case, dense from 0).
    pub seq: u64,
    /// What happened.
    pub kind: CausalKind,
    /// The case index the trace belongs to.
    pub case: u64,
    /// Nanoseconds since the case began on the run clock under the
    /// simulation backend; always `0` on the wall-clock backend.
    pub vt: u64,
    /// The node the event happened on (sender for message events).
    pub node: Option<u64>,
    /// The other endpoint of a message event.
    pub peer: Option<u64>,
    /// Per-trace message id (send and its recv/drop/dup share it).
    pub msg: Option<u64>,
    /// Lamport clock after the event, for message events.
    pub lamport: Option<u64>,
    /// Scheduler step index active when the event was recorded.
    pub step: Option<u64>,
    /// Spec-level action name of that step.
    pub action: Option<String>,
    /// Spec edge id that step exercised (the `(action, spec-edge)`
    /// mapping required of every trace edge).
    pub edge: Option<u64>,
    /// Free-form annotation (case hash, outcome, fault detail).
    pub note: Option<String>,
}

impl CausalEvent {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        self.push_json_line(&mut out);
        out
    }

    /// Appends the event's JSON line (no trailing newline) to `out`.
    fn push_json_line(&self, out: &mut String) {
        let _ = write!(out, "{{\"seq\":{},\"case\":{},\"kind\":", self.seq, self.case);
        push_escaped(out, self.kind.label());
        let _ = write!(out, ",\"vt\":{}", self.vt);
        let ids = [
            ("node", self.node),
            ("peer", self.peer),
            ("msg", self.msg),
            ("lamport", self.lamport),
            ("step", self.step),
        ];
        for (key, id) in ids {
            if let Some(id) = id {
                let _ = write!(out, ",\"{key}\":{id}");
            }
        }
        if let Some(a) = &self.action {
            out.push_str(",\"action\":");
            push_escaped(out, a);
        }
        if let Some(e) = self.edge {
            let _ = write!(out, ",\"edge\":{e}");
        }
        if let Some(n) = &self.note {
            out.push_str(",\"note\":");
            push_escaped(out, n);
        }
        out.push('}');
    }

    /// Parses one `trace.jsonl` line.
    pub fn parse_line(line: &str) -> Result<CausalEvent, String> {
        let pairs = parse_flat_object(line)?;
        let mut ev = CausalEvent {
            seq: 0,
            kind: CausalKind::CaseBegin,
            case: 0,
            vt: 0,
            node: None,
            peer: None,
            msg: None,
            lamport: None,
            step: None,
            action: None,
            edge: None,
            note: None,
        };
        let mut saw_kind = false;
        for (key, value) in pairs {
            let num = || {
                value
                    .as_u64()
                    .ok_or_else(|| format!("field {key:?} is not a u64"))
            };
            let text = || {
                value
                    .as_str()
                    .ok_or_else(|| format!("{key} is not a string"))
            };
            match key.as_str() {
                "seq" => ev.seq = num()?,
                "case" => ev.case = num()?,
                "vt" => ev.vt = num()?,
                "node" => ev.node = Some(num()?),
                "peer" => ev.peer = Some(num()?),
                "msg" => ev.msg = Some(num()?),
                "lamport" => ev.lamport = Some(num()?),
                "step" => ev.step = Some(num()?),
                "edge" => ev.edge = Some(num()?),
                "kind" => {
                    let label = text()?;
                    ev.kind = CausalKind::from_label(label)
                        .ok_or_else(|| format!("unknown kind {label:?}"))?;
                    saw_kind = true;
                }
                "action" => ev.action = Some(text()?.to_string()),
                "note" => ev.note = Some(text()?.to_string()),
                other => return Err(format!("unknown trace key {other:?}")),
            }
        }
        if !saw_kind {
            return Err("missing kind".into());
        }
        Ok(ev)
    }
}

/// The scheduler context active while a step executes: everything a
/// network event recorded inside the step inherits.
#[derive(Debug, Clone, Default)]
struct StepContext {
    step: Option<u64>,
    action: Option<String>,
    edge: Option<u64>,
}

/// What the next event continues from: the message-id counter, the
/// per-node Lamport clocks, the step context and the open node step.
#[derive(Debug, Clone, Default)]
struct Counters {
    next_msg: u64,
    lamport: BTreeMap<u64, u64>,
    ctx: StepContext,
    /// The node whose step span is open.
    open_step: Option<u64>,
}

/// Where a trace stood: how many events it held and its counters. A
/// mark stands in for a copy of those events ([`Tracer::resume_from`]).
#[derive(Debug, Clone, Default)]
pub struct TraceMark {
    events: usize,
    counters: Counters,
}

/// Reads the run clock, in nanoseconds.
pub type ClockReader = Box<dyn Fn() -> u64 + Send>;

struct TracerState {
    case: u64,
    /// The run clock; `None` stamps every `vt` 0.
    clock: Option<ClockReader>,
    /// The clock reading when the case began: `vt` counts from here.
    epoch: u64,
    /// Spec edge per step index, preloaded from the case's edge path
    /// so releases can stamp the `(action, spec-edge)` mapping.
    edge_path: Vec<u64>,
    counters: Counters,
    events: Vec<CausalEvent>,
}

impl TracerState {
    /// Appends one event of `kind`, stamped with the next sequence
    /// number, the step context and the time since the case began.
    fn record(&mut self, kind: CausalKind) -> &mut CausalEvent {
        let vt = self.clock.as_ref().map_or(0, |now| now().saturating_sub(self.epoch));
        let ctx = &self.counters.ctx;
        let ev = CausalEvent {
            seq: self.events.len() as u64,
            kind,
            case: self.case,
            vt,
            node: None,
            peer: None,
            msg: None,
            lamport: None,
            step: ctx.step,
            action: ctx.action.clone(),
            edge: ctx.edge,
            note: None,
        };
        self.events.push(ev);
        self.events.last_mut().expect("just pushed")
    }

    /// Enters step `step` of the case, running `action`.
    fn enter(&mut self, step: u64, action: &str) {
        self.counters.ctx = StepContext {
            step: Some(step),
            action: Some(action.to_string()),
            edge: self.edge_path.get(step as usize).copied(),
        };
    }
}

/// A cheap-clone handle recording one case's causal trace.
///
/// The default ([`Tracer::disabled`]) is inert: every method is a
/// single branch and the handle clones as a `None`. A live tracer
/// ([`Tracer::for_case`]) shares one state behind a mutex; the
/// sequential harness only ever records from one thread at a time
/// (the case thread while it runs, its caller before and after), so
/// recording order is deterministic.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerState>>>,
}

impl Tracer {
    /// The inert tracer: records nothing, costs a branch per call.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A live tracer for case `case` (trace id `case + 1`), beginning
    /// now: every event's `vt` is the nanoseconds `clock` has advanced
    /// since this call, or 0 without a clock.
    pub fn for_case(case: u64, clock: Option<ClockReader>) -> Tracer {
        let epoch = clock.as_ref().map_or(0, |now| now());
        Tracer {
            inner: Some(Arc::new(Mutex::new(TracerState {
                case,
                clock,
                epoch,
                edge_path: Vec::new(),
                counters: Counters::default(),
                events: Vec::new(),
            }))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut TracerState) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut state = inner.lock().unwrap_or_else(|e| e.into_inner());
        Some(f(&mut state))
    }

    /// Where this trace stands now. The disabled tracer's mark is
    /// empty.
    pub fn mark(&self) -> TraceMark {
        self.with(|s| TraceMark {
            events: s.events.len(),
            counters: s.counters.clone(),
        })
        .unwrap_or_default()
    }

    /// Continues this case's trace as if it had run the steps another
    /// case's trace `prefix` ran up to `mark`: takes over the events
    /// before the mark and its counters. Call it right after the case
    /// marker. Each copied event gets this trace's case, the case
    /// marker its note; `vt` counts from each case's start, so it stays.
    pub fn resume_from(&self, prefix: &[CausalEvent], mark: &TraceMark) {
        self.with(|s| {
            let begin = s.events.iter().find(|e| e.kind == CausalKind::CaseBegin);
            let note = begin.and_then(|e| e.note.clone());
            let case = s.case;
            s.events = prefix[..mark.events]
                .iter()
                .map(|ev| {
                    let mut ev = ev.clone();
                    ev.case = case;
                    if ev.kind == CausalKind::CaseBegin {
                        ev.note.clone_from(&note);
                    }
                    ev
                })
                .collect();
            s.counters = mark.counters.clone();
        });
    }

    /// Preloads the spec edge exercised by each step, index-aligned
    /// with the case's action sequence.
    pub fn set_edge_path(&self, edges: Vec<u64>) {
        self.with(|s| s.edge_path = edges);
    }

    /// Records the case-begin marker (note = the case's stable hash).
    pub fn begin_case(&self, hash: &str) {
        self.with(|s| {
            s.record(CausalKind::CaseBegin).note = Some(hash.to_string());
        });
    }

    /// Records the case-end marker (note = outcome label).
    pub fn end_case(&self, outcome: &str) {
        self.with(|s| {
            s.counters.ctx = StepContext::default();
            s.record(CausalKind::CaseEnd).note = Some(outcome.to_string());
        });
    }

    /// Records a scheduler release: step `step` released `action` on
    /// `node`. Sets the step context every later event inherits.
    pub fn release(&self, step: u64, node: u64, action: &str) {
        self.with(|s| {
            s.enter(step, action);
            s.record(CausalKind::Release).node = Some(node);
        });
    }

    /// Records an external fault / user-request trigger at `step`.
    pub fn external(&self, step: u64, action: &str) {
        self.with(|s| {
            s.enter(step, action);
            s.record(CausalKind::External);
        });
    }

    /// Records the start of one node step (cluster execution span).
    pub fn step_begin(&self, node: u64) {
        self.with(|s| {
            s.counters.open_step = Some(node);
            s.record(CausalKind::StepBegin).node = Some(node);
        });
    }

    /// Records the end of the node step started last.
    pub fn step_end(&self, node: u64) {
        self.with(|s| {
            s.counters.open_step = None;
            s.record(CausalKind::StepEnd).node = Some(node);
        });
    }

    /// Ends the open node step span, if any: the step the watchdog
    /// abandoned never ends it itself.
    pub fn close_step(&self) {
        if let Some(Some(node)) = self.with(|s| s.counters.open_step) {
            self.step_end(node);
        }
    }

    /// Records a send from `from` to `to` and returns the tag to
    /// stamp on the wire message. The disabled tracer returns the
    /// zero tag without recording.
    pub fn on_send(&self, from: u64, to: u64) -> MsgTag {
        self.with(|s| {
            let clock = s.counters.lamport.entry(from).or_insert(0);
            *clock += 1;
            let lamport = *clock;
            let msg = s.counters.next_msg;
            s.counters.next_msg += 1;
            let trace = s.case + 1;
            let ev = s.record(CausalKind::Send);
            ev.node = Some(from);
            ev.peer = Some(to);
            ev.msg = Some(msg);
            ev.lamport = Some(lamport);
            MsgTag {
                trace,
                lamport,
                seq: msg,
            }
        })
        .unwrap_or_default()
    }

    /// Records `node` consuming a message sent by `from` under `tag`
    /// (the causal edge: this event's `msg` id is the send's).
    pub fn on_recv(&self, node: u64, from: u64, tag: MsgTag) {
        self.record_message(CausalKind::Recv, node, from, tag, None);
    }

    /// Records a message addressed to `node` being discarded.
    pub fn on_drop(&self, node: u64, from: u64, tag: MsgTag, why: &str) {
        self.record_message(CausalKind::Drop, node, from, tag, Some(why));
    }

    /// Records a duplicate copy appearing in `node`'s inbox. The copy
    /// keeps the original tag, so both eventual recvs share the
    /// send's `msg` id.
    pub fn on_duplicate(&self, node: u64, from: u64, tag: MsgTag) {
        self.record_message(CausalKind::Duplicate, node, from, tag, None);
    }

    fn record_message(
        &self,
        kind: CausalKind,
        node: u64,
        from: u64,
        tag: MsgTag,
        note: Option<&str>,
    ) {
        self.with(|s| {
            let lamport = if kind == CausalKind::Recv {
                let clock = s.counters.lamport.entry(node).or_insert(0);
                *clock = (*clock).max(tag.lamport) + 1;
                Some(*clock)
            } else {
                tag.is_live().then_some(tag.lamport)
            };
            let ev = s.record(kind);
            ev.node = Some(node);
            ev.peer = Some(from);
            ev.msg = tag.is_live().then_some(tag.seq);
            ev.lamport = lamport;
            ev.note = note.map(str::to_string);
        });
    }

    /// Records a node crash.
    pub fn crash(&self, node: u64) {
        self.with(|s| {
            s.record(CausalKind::Crash).node = Some(node);
        });
    }

    /// Records a node restart.
    pub fn restart(&self, node: u64) {
        self.with(|s| {
            s.record(CausalKind::Restart).node = Some(node);
        });
    }

    /// Drains and returns everything recorded so far.
    pub fn take_events(&self) -> Vec<CausalEvent> {
        self.with(|s| std::mem::take(&mut s.events)).unwrap_or_default()
    }
}

/// Renders events as `trace.jsonl` content (one JSON object per
/// line, trailing newline after each).
pub fn to_jsonl(events: &[CausalEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128);
    for ev in events {
        ev.push_json_line(&mut out);
        out.push('\n');
    }
    out
}

/// Parses `trace.jsonl` content under the [`AppendLog`] salvage rule:
/// malformed lines and a torn final line are issues, never events.
pub fn parse_trace(text: &str) -> (Vec<CausalEvent>, Vec<LineIssue>) {
    AppendLog::salvage(text, CausalEvent::parse_line)
}

/// Appends rendered events to the `trace.jsonl` at `path` as one
/// [`AppendLog`] batch.
pub fn append_trace(path: &Path, events: &[CausalEvent]) -> io::Result<()> {
    if events.is_empty() {
        return Ok(());
    }
    AppendLog::new(path, points::TRACE_APPEND).append_batch(to_jsonl(events).as_bytes())
}

/// Copies `events` with `vt` zeroed: the shape wall-clock-backend
/// traces already have, used to compare causal edge sets across
/// backends (timestamps may differ; the happens-before DAG may not).
pub fn strip_virtual_time(events: &[CausalEvent]) -> Vec<CausalEvent> {
    events
        .iter()
        .cloned()
        .map(|mut ev| {
            ev.vt = 0;
            ev
        })
        .collect()
}

/// Chrome `trace_event` ticks: virtual nanoseconds become
/// microseconds when present; otherwise the event sequence number
/// keeps lanes ordered.
fn chrome_ts(ev: &CausalEvent) -> u64 {
    if ev.vt > 0 {
        ev.vt / 1_000
    } else {
        ev.seq
    }
}

fn chrome_name(ev: &CausalEvent) -> String {
    match &ev.action {
        Some(a) => format!("{} {a}", ev.kind.label()),
        None => ev.kind.label().to_string(),
    }
}

/// Renders a trace as Chrome `trace_event` JSON (load in
/// `chrome://tracing` or Perfetto): one process per case, one lane
/// (`tid`) per node, `B`/`E` spans for node steps, flow arrows from
/// each send to its recvs — the space-time diagram of the case.
pub fn chrome_trace(events: &[CausalEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |entry: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&entry);
    };
    for ev in events {
        let pid = ev.case;
        // The scheduler itself gets lane 0; nodes are 1-based ids.
        let tid = ev.node.unwrap_or(0);
        let ts = chrome_ts(ev);
        let name = chrome_name(ev);
        let mut esc_name = String::new();
        push_escaped(&mut esc_name, &name);
        let common = format!("\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"name\":{esc_name}");
        match ev.kind {
            CausalKind::StepBegin => emit(format!("{{\"ph\":\"B\",\"cat\":\"step\",{common}}}")),
            CausalKind::StepEnd => emit(format!("{{\"ph\":\"E\",\"cat\":\"step\",{common}}}")),
            CausalKind::Send => {
                emit(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"msg\",{common}}}"
                ));
                if let Some(msg) = ev.msg {
                    emit(format!(
                        "{{\"ph\":\"s\",\"cat\":\"msg\",\"id\":{msg},{common}}}"
                    ));
                }
            }
            CausalKind::Recv => {
                emit(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"msg\",{common}}}"
                ));
                if let Some(msg) = ev.msg {
                    emit(format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"msg\",\"id\":{msg},{common}}}"
                    ));
                }
            }
            _ => emit(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"trace\",{common}}}"
            )),
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A reader of the settable run clock `now`.
    fn reader(now: &Arc<AtomicU64>) -> Option<ClockReader> {
        let now = Arc::clone(now);
        Some(Box::new(move || now.load(Ordering::SeqCst)))
    }

    fn tick(now: &AtomicU64, nanos: u64) {
        now.fetch_add(nanos, Ordering::SeqCst);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_tags_zero() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let tag = t.on_send(1, 2);
        assert_eq!(tag, MsgTag::default());
        assert!(!tag.is_live());
        t.on_recv(2, 1, tag);
        t.release(0, 1, "A");
        t.crash(1);
        assert!(t.take_events().is_empty());
    }

    /// `vt` is the run clock's advance since the tracer was made; a
    /// tracer without a clock stamps 0 however far the clock runs.
    #[test]
    fn vt_counts_from_the_case_start_and_is_zero_without_a_clock() {
        let now = Arc::new(AtomicU64::new(7_000));
        let (timed, untimed) = (Tracer::for_case(0, reader(&now)), Tracer::for_case(0, None));
        for t in [&timed, &untimed] {
            t.begin_case("aaaa");
        }
        tick(&now, 50);
        for t in [&timed, &untimed] {
            t.release(0, 1, "A");
        }
        let vts = |t: &Tracer| t.take_events().iter().map(|e| e.vt).collect::<Vec<_>>();
        assert_eq!(vts(&timed), [0, 50]);
        assert_eq!(vts(&untimed), [0, 0]);
    }

    #[test]
    fn send_recv_link_through_msg_id_and_lamport_advances() {
        let t = Tracer::for_case(3, None);
        t.release(0, 1, "Vote");
        let tag = t.on_send(1, 2);
        assert!(tag.is_live());
        assert_eq!(tag.trace, 4);
        t.on_recv(2, 1, tag);
        let events = t.take_events();
        assert_eq!(events.len(), 3);
        let send = &events[1];
        let recv = &events[2];
        assert_eq!(send.kind, CausalKind::Send);
        assert_eq!(recv.kind, CausalKind::Recv);
        assert_eq!(send.msg, recv.msg, "causal edge: shared msg id");
        assert_eq!(send.lamport, Some(1));
        assert_eq!(recv.lamport, Some(2), "recv = max(local, sender)+1");
        // Both inherit the release's step context.
        for ev in [send, recv] {
            assert_eq!(ev.step, Some(0));
            assert_eq!(ev.action.as_deref(), Some("Vote"));
        }
    }

    #[test]
    fn edge_path_stamps_the_spec_edge_mapping() {
        let t = Tracer::for_case(0, None);
        t.set_edge_path(vec![7, 9]);
        t.release(0, 1, "A");
        t.on_send(1, 2);
        t.external(1, "Crash");
        let events = t.take_events();
        assert_eq!(events[0].edge, Some(7));
        assert_eq!(events[1].edge, Some(7), "net event inherits step edge");
        assert_eq!(events[2].edge, Some(9));
    }

    /// Case 1 resumed at a mark of case 0 taken after their shared
    /// step writes exactly what case 1 run from its own start writes,
    /// whenever either case began on the run clock.
    #[test]
    fn a_resumed_trace_equals_the_fresh_one() {
        let now = Arc::new(AtomicU64::new(1_000));
        // Case `case` from its start to the end of the step the two
        // cases share: 20 ns of run time.
        let run = |case: u64, hash: &str| {
            let t = Tracer::for_case(case, reader(&now));
            t.set_edge_path(vec![4, 8 + case]);
            t.begin_case(hash);
            let tag = t.on_send(1, 2);
            tick(&now, 10);
            t.release(0, 2, "Recv");
            t.step_begin(2);
            t.on_recv(2, 1, tag);
            tick(&now, 10);
            t.step_end(2);
            t
        };
        let second_step = |t: &Tracer, action: &str| {
            tick(&now, 10);
            t.external(1, action);
            t.crash(1);
            t.end_case("passed");
        };
        let fresh = run(1, "bbbb");
        second_step(&fresh, "Crash");

        now.store(0, Ordering::SeqCst);
        let prefix = run(0, "aaaa");
        let mark = prefix.mark();
        second_step(&prefix, "Restart");
        let prefix = prefix.take_events();

        now.store(5_000, Ordering::SeqCst);
        let resumed = Tracer::for_case(1, reader(&now));
        resumed.set_edge_path(vec![4, 9]);
        resumed.begin_case("bbbb");
        resumed.resume_from(&prefix, &mark);
        // The runner charges the prefix's run time before going on.
        tick(&now, 20);
        second_step(&resumed, "Crash");
        let (fresh, resumed) = (fresh.take_events(), resumed.take_events());
        assert_eq!(to_jsonl(&resumed), to_jsonl(&fresh));
        assert_eq!(fresh.last().map(|e| e.vt), Some(30));
    }

    #[test]
    fn resuming_the_disabled_tracer_records_nothing() {
        let t = Tracer::for_case(0, None);
        t.release(0, 1, "A");
        let (mark, events) = (t.mark(), t.take_events());
        let off = Tracer::disabled();
        off.resume_from(&events, &mark);
        assert!(off.take_events().is_empty());
        assert_eq!(off.mark().events, 0);
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let now = Arc::new(AtomicU64::new(0));
        let t = Tracer::for_case(1, reader(&now));
        t.begin_case("abcd");
        tick(&now, 100);
        t.release(0, 2, "Append \"x\"");
        tick(&now, 50);
        let tag = t.on_send(2, 3);
        t.on_duplicate(3, 2, tag);
        t.on_drop(3, 2, tag, "partition");
        tick(&now, 30);
        t.step_begin(2);
        t.step_end(2);
        t.crash(3);
        t.end_case("passed");
        let events = t.take_events();
        let text = to_jsonl(&events);
        let (back, issues) = parse_trace(&text);
        assert!(issues.is_empty(), "{issues:?}");
        assert_eq!(back, events);
    }

    #[test]
    fn parse_trace_salvages_torn_lines() {
        let good = Tracer::for_case(0, None);
        good.release(0, 1, "A");
        let text = to_jsonl(&good.take_events());
        // A `delay` line of a build that still held messages back, a
        // garbage line and a truncated final line are all reported and
        // skipped; intact lines load.
        let delay = r#"{"seq":1,"case":0,"kind":"delay","vt":0,"node":2,"peer":1,"msg":1}"#;
        let dirty = format!("{text}{delay}\nnot json\n{}", &text[..text.len() - 3]);
        let (events, issues) = parse_trace(&dirty);
        assert_eq!(events.len(), 1);
        assert_eq!(issues.len(), 3, "{issues:?}");
        assert!(issues[0].message.contains("unknown kind"), "{issues:?}");
        assert!(issues[2].message.contains("truncated final line"));
    }

    #[test]
    fn same_call_sequence_is_byte_identical() {
        let now = Arc::new(AtomicU64::new(0));
        let run = || {
            let t = Tracer::for_case(5, reader(&now));
            t.set_edge_path(vec![1, 2, 3]);
            t.begin_case("ffff");
            for step in 0..3u64 {
                tick(&now, 100);
                t.release(step, 1 + step % 2, "Act");
                let tag = t.on_send(1, 2);
                t.on_recv(2, 1, tag);
            }
            t.end_case("passed");
            to_jsonl(&t.take_events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn strip_virtual_time_zeroes_only_vt() {
        let now = Arc::new(AtomicU64::new(0));
        let t = Tracer::for_case(0, reader(&now));
        tick(&now, 999);
        t.release(0, 1, "A");
        let events = t.take_events();
        assert_eq!(events[0].vt, 999);
        let stripped = strip_virtual_time(&events);
        assert_eq!(stripped[0].vt, 0);
        assert_eq!(stripped[0].action, events[0].action);
    }

    #[test]
    fn chrome_trace_is_flat_json_with_flow_arrows() {
        let now = Arc::new(AtomicU64::new(0));
        let t = Tracer::for_case(0, reader(&now));
        tick(&now, 1000);
        t.release(0, 1, "A");
        t.step_begin(1);
        tick(&now, 1000);
        let tag = t.on_send(1, 2);
        tick(&now, 1000);
        t.step_end(1);
        t.step_begin(2);
        tick(&now, 1000);
        t.on_recv(2, 1, tag);
        tick(&now, 1000);
        t.step_end(2);
        let json = chrome_trace(&t.take_events());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"s\""), "flow start: {json}");
        assert!(json.contains("\"ph\":\"f\""), "flow end");
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        // Every event names pid/tid/ts — the strict-parser contract
        // the CI smoke validates.
        assert!(!json.contains("\"pid\":,"));
    }

    #[test]
    fn append_trace_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("mocket-causal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(TRACE_FILE_NAME);
        let t = Tracer::for_case(0, None);
        t.begin_case("aaaa");
        let first = t.take_events();
        append_trace(&path, &first).unwrap();
        let t2 = Tracer::for_case(1, None);
        t2.begin_case("bbbb");
        append_trace(&path, &t2.take_events()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (events, issues) = parse_trace(&text);
        assert!(issues.is_empty(), "{issues:?}");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].case, 0);
        assert_eq!(events[1].case, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
