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
//! deterministic. The only timing-dependent field is `vt`, the
//! virtual timestamp: under the simulation backend it is the shared
//! `SimClock` reading (deterministic per seed, so sim traces are
//! byte-identical per seed); on the wall-clock backend it is always
//! `0` (wall clock never leaks into a trace). Comparing a wall-clock
//! trace against a sim trace therefore means comparing the events
//! with `vt` zeroed — see [`strip_virtual_time`].
//!
//! A disabled tracer (the default) is a `None` behind a cheap clone:
//! every recording call is a branch on a discriminant and returns
//! immediately, and the [`MsgTag`] stamped on wire messages is a
//! `Copy` default — the fast no-op path campaigns run unless
//! `--trace` is given.

use std::collections::BTreeMap;
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
    /// Virtual timestamp in nanoseconds: the shared sim clock under
    /// the simulation backend, always `0` on the wall-clock backend.
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
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"seq\":{},\"case\":{},\"kind\":",
            self.seq, self.case
        ));
        push_escaped(&mut out, self.kind.label());
        out.push_str(&format!(",\"vt\":{}", self.vt));
        if let Some(n) = self.node {
            out.push_str(&format!(",\"node\":{n}"));
        }
        if let Some(p) = self.peer {
            out.push_str(&format!(",\"peer\":{p}"));
        }
        if let Some(m) = self.msg {
            out.push_str(&format!(",\"msg\":{m}"));
        }
        if let Some(l) = self.lamport {
            out.push_str(&format!(",\"lamport\":{l}"));
        }
        if let Some(s) = self.step {
            out.push_str(&format!(",\"step\":{s}"));
        }
        if let Some(a) = &self.action {
            out.push_str(",\"action\":");
            push_escaped(&mut out, a);
        }
        if let Some(e) = self.edge {
            out.push_str(&format!(",\"edge\":{e}"));
        }
        if let Some(n) = &self.note {
            out.push_str(",\"note\":");
            push_escaped(&mut out, n);
        }
        out.push('}');
        out
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

#[derive(Debug, Clone, Default)]
struct TracerState {
    case: u64,
    next_seq: u64,
    next_msg: u64,
    /// Per-node Lamport clocks.
    clocks: BTreeMap<u64, u64>,
    /// Spec edge per step index, preloaded from the case's edge path
    /// so releases can stamp the `(action, spec-edge)` mapping.
    edge_path: Vec<u64>,
    ctx: StepContext,
    /// The node whose step span is open.
    open_step: Option<u64>,
    events: Vec<CausalEvent>,
}

impl TracerState {
    fn record(&mut self, kind: CausalKind, vt: u64) -> &mut CausalEvent {
        let ev = CausalEvent {
            seq: self.next_seq,
            kind,
            case: self.case,
            vt,
            node: None,
            peer: None,
            msg: None,
            lamport: None,
            step: self.ctx.step,
            action: self.ctx.action.clone(),
            edge: self.ctx.edge,
            note: None,
        };
        self.next_seq += 1;
        self.events.push(ev);
        self.events.last_mut().expect("just pushed")
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
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerState>>>,
}

impl Tracer {
    /// The inert tracer: records nothing, costs a branch per call.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A live tracer for case `case` (trace id `case + 1`).
    pub fn for_case(case: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TracerState {
                case,
                ..TracerState::default()
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

    /// A detached copy of everything recorded so far: recording into
    /// either leaves the other unchanged. The disabled tracer forks
    /// into itself.
    pub fn fork(&self) -> Tracer {
        Tracer {
            inner: self.with(|s| Arc::new(Mutex::new(s.clone()))),
        }
    }

    /// Continues this case's trace from `prefix`, a fork of another
    /// case's trace taken after the steps the two cases share, as if
    /// this case had run those steps itself. Call it right after the
    /// case marker. The prefix's events and its sequence, message-id,
    /// Lamport and step-context counters are taken over; each event is
    /// re-stamped with this trace's case (the case marker with this
    /// trace's note), and each event the cluster or network stamped
    /// from the clock is shifted by `vt_shift`, the distance between
    /// the two cases' start times. The runner's own markers (case,
    /// release, external) carry a literal 0 and stay put.
    pub fn resume_from(&self, prefix: &Tracer, vt_shift: u64) {
        let Some(prefix) = prefix.with(|s| s.clone()) else {
            return;
        };
        self.with(|s| {
            let begin = s.events.iter().find(|e| e.kind == CausalKind::CaseBegin);
            let note = begin.and_then(|e| e.note.clone());
            let (case, edge_path) = (s.case, std::mem::take(&mut s.edge_path));
            *s = TracerState {
                case,
                edge_path,
                ..prefix
            };
            for ev in &mut s.events {
                ev.case = case;
                match ev.kind {
                    CausalKind::CaseBegin => ev.note.clone_from(&note),
                    CausalKind::CaseEnd | CausalKind::Release | CausalKind::External => {}
                    _ => ev.vt = ev.vt.saturating_add(vt_shift),
                }
            }
        });
    }

    /// Preloads the spec edge exercised by each step, index-aligned
    /// with the case's action sequence.
    pub fn set_edge_path(&self, edges: Vec<u64>) {
        self.with(|s| s.edge_path = edges);
    }

    /// Records the case-begin marker (note = the case's stable hash).
    pub fn begin_case(&self, hash: &str, vt: u64) {
        self.with(|s| {
            s.record(CausalKind::CaseBegin, vt).note = Some(hash.to_string());
        });
    }

    /// Records the case-end marker (note = outcome label).
    pub fn end_case(&self, outcome: &str, vt: u64) {
        self.with(|s| {
            s.ctx = StepContext::default();
            s.record(CausalKind::CaseEnd, vt).note = Some(outcome.to_string());
        });
    }

    /// Records a scheduler release: step `step` released `action` on
    /// `node`. Sets the step context every later event inherits.
    pub fn release(&self, step: u64, node: u64, action: &str, vt: u64) {
        self.with(|s| {
            s.ctx = StepContext {
                step: Some(step),
                action: Some(action.to_string()),
                edge: s.edge_path.get(step as usize).copied(),
            };
            s.record(CausalKind::Release, vt).node = Some(node);
        });
    }

    /// Records an external fault / user-request trigger at `step`.
    pub fn external(&self, step: u64, action: &str, vt: u64) {
        self.with(|s| {
            s.ctx = StepContext {
                step: Some(step),
                action: Some(action.to_string()),
                edge: s.edge_path.get(step as usize).copied(),
            };
            s.record(CausalKind::External, vt);
        });
    }

    /// Records the start of one node step (cluster execution span).
    pub fn step_begin(&self, node: u64, vt: u64) {
        self.with(|s| {
            s.open_step = Some(node);
            s.record(CausalKind::StepBegin, vt).node = Some(node);
        });
    }

    /// Records the end of the node step started last.
    pub fn step_end(&self, node: u64, vt: u64) {
        self.with(|s| {
            s.open_step = None;
            s.record(CausalKind::StepEnd, vt).node = Some(node);
        });
    }

    /// Ends the open node step span, if any: the step the watchdog
    /// abandoned never ends it itself.
    pub fn close_step(&self, vt: u64) {
        if let Some(Some(node)) = self.with(|s| s.open_step) {
            self.step_end(node, vt);
        }
    }

    /// Records a send from `from` to `to` and returns the tag to
    /// stamp on the wire message. The disabled tracer returns the
    /// zero tag without recording.
    pub fn on_send(&self, from: u64, to: u64, vt: u64) -> MsgTag {
        self.with(|s| {
            let clock = s.clocks.entry(from).or_insert(0);
            *clock += 1;
            let lamport = *clock;
            let msg = s.next_msg;
            s.next_msg += 1;
            let trace = s.case + 1;
            let ev = s.record(CausalKind::Send, vt);
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
    pub fn on_recv(&self, node: u64, from: u64, tag: MsgTag, vt: u64) {
        self.record_message(CausalKind::Recv, node, from, tag, vt, None);
    }

    /// Records a message addressed to `node` being discarded.
    pub fn on_drop(&self, node: u64, from: u64, tag: MsgTag, vt: u64, why: &str) {
        self.record_message(CausalKind::Drop, node, from, tag, vt, Some(why));
    }

    /// Records a duplicate copy appearing in `node`'s inbox. The copy
    /// keeps the original tag, so both eventual recvs share the
    /// send's `msg` id.
    pub fn on_duplicate(&self, node: u64, from: u64, tag: MsgTag, vt: u64) {
        self.record_message(CausalKind::Duplicate, node, from, tag, vt, None);
    }

    fn record_message(
        &self,
        kind: CausalKind,
        node: u64,
        from: u64,
        tag: MsgTag,
        vt: u64,
        note: Option<&str>,
    ) {
        self.with(|s| {
            let lamport = if kind == CausalKind::Recv {
                let clock = s.clocks.entry(node).or_insert(0);
                *clock = (*clock).max(tag.lamport) + 1;
                Some(*clock)
            } else {
                tag.is_live().then_some(tag.lamport)
            };
            let ev = s.record(kind, vt);
            ev.node = Some(node);
            ev.peer = Some(from);
            ev.msg = tag.is_live().then_some(tag.seq);
            ev.lamport = lamport;
            ev.note = note.map(str::to_string);
        });
    }

    /// Records a node crash.
    pub fn crash(&self, node: u64, vt: u64) {
        self.with(|s| {
            s.record(CausalKind::Crash, vt).node = Some(node);
        });
    }

    /// Records a node restart.
    pub fn restart(&self, node: u64, vt: u64) {
        self.with(|s| {
            s.record(CausalKind::Restart, vt).node = Some(node);
        });
    }

    /// Drains and returns everything recorded so far.
    pub fn take_events(&self) -> Vec<CausalEvent> {
        self.with(std::mem::take)
            .map(|s: TracerState| s.events)
            .unwrap_or_default()
    }
}

/// Renders events as `trace.jsonl` content (one JSON object per
/// line, trailing newline after each).
pub fn to_jsonl(events: &[CausalEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json_line());
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

    #[test]
    fn disabled_tracer_records_nothing_and_tags_zero() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let tag = t.on_send(1, 2, 0);
        assert_eq!(tag, MsgTag::default());
        assert!(!tag.is_live());
        t.on_recv(2, 1, tag, 0);
        t.release(0, 1, "A", 0);
        t.crash(1, 0);
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn send_recv_link_through_msg_id_and_lamport_advances() {
        let t = Tracer::for_case(3);
        t.release(0, 1, "Vote", 10);
        let tag = t.on_send(1, 2, 20);
        assert!(tag.is_live());
        assert_eq!(tag.trace, 4);
        t.on_recv(2, 1, tag, 30);
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
        let t = Tracer::for_case(0);
        t.set_edge_path(vec![7, 9]);
        t.release(0, 1, "A", 0);
        t.on_send(1, 2, 0);
        t.external(1, "Crash", 0);
        let events = t.take_events();
        assert_eq!(events[0].edge, Some(7));
        assert_eq!(events[1].edge, Some(7), "net event inherits step edge");
        assert_eq!(events[2].edge, Some(9));
    }

    #[test]
    fn a_fork_is_detached_from_its_original() {
        let t = Tracer::for_case(0);
        t.release(0, 1, "A", 0);
        let fork = t.fork();
        t.on_send(1, 2, 5);
        assert_eq!(fork.take_events().len(), 1);
        assert_eq!(t.take_events().len(), 2);
        assert!(!Tracer::disabled().fork().is_enabled());
    }

    /// Case 1 resumed from a fork of case 0 after their shared step
    /// writes exactly what case 1 run from its own start writes.
    #[test]
    fn a_resumed_trace_equals_the_fresh_one() {
        // Case `case` from its start at virtual time `t0` to the end
        // of the step the two cases share.
        let run = |case: u64, hash: &str, t0: u64| {
            let t = Tracer::for_case(case);
            t.set_edge_path(vec![4, 8 + case]);
            t.begin_case(hash, 0);
            let tag = t.on_send(1, 2, t0);
            t.release(0, 2, "Recv", 0);
            t.step_begin(2, t0 + 10);
            t.on_recv(2, 1, tag, t0 + 20);
            t.step_end(2, t0 + 30);
            t
        };
        let second_step = |t: &Tracer, t0: u64| {
            t.external(1, "Crash", 0);
            t.crash(1, t0 + 40);
            t.end_case("passed", 0);
        };
        let fresh = run(1, "bbbb", 1000);
        second_step(&fresh, 1000);

        let prefix = run(0, "aaaa", 0).fork();
        let resumed = Tracer::for_case(1);
        resumed.set_edge_path(vec![4, 9]);
        resumed.begin_case("bbbb", 0);
        resumed.resume_from(&prefix, 1000);
        second_step(&resumed, 1000);
        assert_eq!(to_jsonl(&resumed.take_events()), to_jsonl(&fresh.take_events()));
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let t = Tracer::for_case(1);
        t.begin_case("abcd", 0);
        t.release(0, 2, "Append \"x\"", 100);
        let tag = t.on_send(2, 3, 150);
        t.on_duplicate(3, 2, tag, 160);
        t.on_drop(3, 2, tag, 170, "partition");
        t.step_begin(2, 180);
        t.step_end(2, 200);
        t.crash(3, 210);
        t.end_case("passed", 300);
        let events = t.take_events();
        let text = to_jsonl(&events);
        let (back, issues) = parse_trace(&text);
        assert!(issues.is_empty(), "{issues:?}");
        assert_eq!(back, events);
    }

    #[test]
    fn parse_trace_salvages_torn_lines() {
        let good = Tracer::for_case(0);
        good.release(0, 1, "A", 0);
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
        let run = || {
            let t = Tracer::for_case(5);
            t.set_edge_path(vec![1, 2, 3]);
            t.begin_case("ffff", 0);
            for step in 0..3u64 {
                t.release(step, 1 + step % 2, "Act", step * 100);
                let tag = t.on_send(1, 2, step * 100 + 10);
                t.on_recv(2, 1, tag, step * 100 + 20);
            }
            t.end_case("passed", 400);
            to_jsonl(&t.take_events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn strip_virtual_time_zeroes_only_vt() {
        let t = Tracer::for_case(0);
        t.release(0, 1, "A", 999);
        let events = t.take_events();
        let stripped = strip_virtual_time(&events);
        assert_eq!(stripped[0].vt, 0);
        assert_eq!(stripped[0].action, events[0].action);
    }

    #[test]
    fn chrome_trace_is_flat_json_with_flow_arrows() {
        let t = Tracer::for_case(0);
        t.release(0, 1, "A", 1000);
        t.step_begin(1, 1000);
        let tag = t.on_send(1, 2, 2000);
        t.step_end(1, 3000);
        t.step_begin(2, 3000);
        t.on_recv(2, 1, tag, 4000);
        t.step_end(2, 5000);
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
        let t = Tracer::for_case(0);
        t.begin_case("aaaa", 0);
        let first = t.take_events();
        append_trace(&path, &first).unwrap();
        let t2 = Tracer::for_case(1);
        t2.begin_case("bbbb", 0);
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
