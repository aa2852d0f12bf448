//! The simulated network.
//!
//! A message sent between nodes lands in the destination's inbox as
//! an owned value: the sender gives it up, so the receiver shares no
//! memory with it. Delivery is *not* automatic: a message sits in the
//! inbox until the destination node executes a receive action for it
//! — which is exactly what lets Mocket's scheduler decide delivery
//! order. Drop and duplicate faults manipulate inbox contents directly
//! (§4.1.2).
//!
//! An installed [`FaultPlan`] (see [`crate::faults`]) may hold a send
//! back for a seeded link delay, inside [`Net::send`]; a held message
//! joins its inbox once the network's clock passes its deadline, so
//! the scheduler's view of "inbox = deliverable messages" stays intact.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use mocket_obs::causal::{MsgTag, Tracer};
use mocket_sim::{Clock, RealClock};

use crate::faults::FaultPlan;

/// A node identifier.
pub type NodeId = u64;

/// An envelope in an inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// The payload.
    pub msg: M,
    /// Causal-trace tag stamped at send time (all-zero when tracing
    /// is off — the default). Not part of the message value.
    pub tag: MsgTag,
}

/// A message held back by the fault plan.
#[derive(Debug, Clone)]
struct Delayed<M> {
    /// The clock reading, in nanoseconds, at which it joins its inbox.
    until: u64,
    env: Envelope<M>,
}

/// The simulated network of one deployment. The deployment owns it
/// and lends it to one node step at a time, so it needs no lock, and
/// copying the deployment copies it.
#[derive(Clone)]
pub struct Net<M> {
    inboxes: BTreeMap<NodeId, Vec<Envelope<M>>>,
    delayed: BTreeMap<NodeId, Vec<Delayed<M>>>,
    plan: Option<FaultPlan>,
    /// The time source delay deadlines run against: wall clock by
    /// default, the shared `SimClock` under the virtual-time backend
    /// (see [`Net::set_clock`]). A copy of the network shares it.
    clock: Arc<dyn Clock>,
    /// Causal-trace recorder for message fates; inert by default.
    tracer: Tracer,
}

impl<M> Net<M> {
    /// Current clock reading in nanoseconds.
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.clock.now().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Virtual timestamp for trace events: the clock reading under a
    /// virtual clock, `0` under a real one (wall clock never leaks
    /// into traces — see the causal determinism contract).
    fn vtime(&self) -> u64 {
        if self.clock.is_virtual() {
            self.now_nanos()
        } else {
            0
        }
    }

    /// Releases every held message for `dest` whose deadline has
    /// passed, earliest deadline first (ties keep enqueue order), to
    /// the back of the inbox. Called at every observation point so
    /// the scheduler's "inbox = deliverable messages" view tracks the
    /// clock without any background activity.
    fn release_due(&mut self, dest: NodeId) {
        let now = self.now_nanos();
        let Some(queue) = self.delayed.get_mut(&dest) else {
            return;
        };
        let mut matured = Vec::new();
        let mut i = 0;
        while i < queue.len() {
            if queue[i].until <= now {
                matured.push(queue.remove(i));
            } else {
                i += 1;
            }
        }
        if queue.is_empty() {
            self.delayed.remove(&dest);
        }
        if !matured.is_empty() {
            matured.sort_by_key(|d| d.until);
            self.inboxes
                .entry(dest)
                .or_default()
                .extend(matured.into_iter().map(|d| d.env));
        }
    }
}

impl<M> fmt::Debug for Net<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("nodes", &self.inboxes.len())
            .field("in_flight", &self.inboxes.values().map(Vec::len).sum::<usize>())
            .field("delayed", &self.delayed.values().map(Vec::len).sum::<usize>())
            .finish_non_exhaustive()
    }
}

impl<M: Clone> Net<M> {
    /// Creates a network with inboxes for `nodes`.
    pub fn new<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        Net {
            inboxes: nodes.into_iter().map(|n| (n, Vec::new())).collect(),
            delayed: BTreeMap::new(),
            plan: None,
            clock: Arc::new(RealClock::new()),
            tracer: Tracer::disabled(),
        }
    }

    /// Replaces the time source that delay deadlines run against. The
    /// virtual-time backend installs its shared `SimClock` here so
    /// held messages mature in virtual time; the default is a private
    /// real clock.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Installs (or replaces) the causal tracer consulted on every
    /// send, receive and message fault. The default is the inert
    /// tracer, which records nothing and stamps all-zero tags.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sends `msg` from `from` to `to`: into the destination inbox, or
    /// held until the clock passes the deadline the installed
    /// [`FaultPlan`] (if any) sets. Held messages are invisible until
    /// they mature.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let now = self.now_nanos();
        // Surface held messages whose deadline has passed ahead of
        // this one.
        self.release_due(to);
        let vt = self.vtime();
        let tag = self.tracer.on_send(from, to, vt);
        let env = Envelope { from, msg, tag };
        match self.plan.as_mut().and_then(|plan| plan.hold(from, to)) {
            Some(nanos) => {
                self.delayed.entry(to).or_default().push(Delayed {
                    until: now.saturating_add(nanos),
                    env,
                });
                self.tracer.on_delay(to, from, tag, vt);
            }
            None => self.inboxes.entry(to).or_default().push(env),
        }
    }

    /// `node`'s inbox (oldest first). Held messages whose deadline has
    /// passed surface first.
    pub fn inbox(&mut self, node: NodeId) -> &[Envelope<M>] {
        self.release_due(node);
        self.inboxes.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Removes and returns the first inbox message of `node` matching
    /// `pred` (receive action).
    pub fn take_matching<F>(&mut self, node: NodeId, pred: F) -> Option<Envelope<M>>
    where
        F: Fn(&Envelope<M>) -> bool,
    {
        let env = self.remove_matching(node, pred)?;
        self.tracer.on_recv(node, env.from, env.tag, self.vtime());
        Some(env)
    }

    /// Removes the first matching message without delivering it
    /// (message-drop fault).
    pub fn drop_matching<F>(&mut self, node: NodeId, pred: F) -> Option<Envelope<M>>
    where
        F: Fn(&Envelope<M>) -> bool,
    {
        let env = self.remove_matching(node, pred)?;
        self.tracer
            .on_drop(node, env.from, env.tag, self.vtime(), "scheduled");
        Some(env)
    }

    fn remove_matching<F>(&mut self, node: NodeId, pred: F) -> Option<Envelope<M>>
    where
        F: Fn(&Envelope<M>) -> bool,
    {
        self.release_due(node);
        let inbox = self.inboxes.get_mut(&node)?;
        let idx = inbox.iter().position(pred)?;
        Some(inbox.remove(idx))
    }

    /// Duplicates the first matching message in place
    /// (message-duplicate fault).
    pub fn duplicate_matching<F>(&mut self, node: NodeId, pred: F) -> Option<Envelope<M>>
    where
        F: Fn(&Envelope<M>) -> bool,
    {
        self.release_due(node);
        let inbox = self.inboxes.get_mut(&node)?;
        let idx = inbox.iter().position(pred)?;
        let copy = inbox[idx].clone();
        inbox.insert(idx + 1, copy.clone());
        self.tracer
            .on_duplicate(node, copy.from, copy.tag, self.vtime());
        Some(copy)
    }

    /// Installs a seed-driven fault plan consulted on every
    /// subsequent send. Replaces any previous plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_sim::SimClock;
    use std::time::Duration;

    /// Messages still in the network: deliverable or held back.
    fn in_flight<M>(net: &Net<M>) -> usize {
        net.inboxes.values().map(Vec::len).sum::<usize>()
            + net.delayed.values().map(Vec::len).sum::<usize>()
    }

    #[test]
    fn send_and_take_roundtrip() {
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, "hello".to_string());
        assert_eq!(net.inbox(2).len(), 1);
        assert_eq!(net.inbox(1).len(), 0);
        let env = net.take_matching(2, |_| true).unwrap();
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, "hello");
        assert_eq!(in_flight(&net), 0);
    }

    #[test]
    fn take_matching_respects_predicate_and_order() {
        let mut net: Net<String> = Net::new([1, 2]);
        for m in ["a", "b", "a"] {
            net.send(1, 2, m.to_string());
        }
        let env = net.take_matching(2, |e| e.msg == "a").unwrap();
        assert_eq!(env.msg, "a");
        // Remaining: b, a — first matching "a" is now the last one.
        let inbox = net.inbox(2);
        assert_eq!(
            inbox.iter().map(|e| e.msg.as_str()).collect::<Vec<_>>(),
            ["b", "a"]
        );
        assert!(net.take_matching(2, |e| e.msg == "zzz").is_none());
    }

    #[test]
    fn duplicate_inserts_adjacent_copy() {
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, "x".to_string());
        net.duplicate_matching(2, |_| true).unwrap();
        assert_eq!(net.inbox(2).len(), 2);
    }

    #[test]
    fn drop_removes_without_delivery() {
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, "x".to_string());
        net.drop_matching(2, |_| true).unwrap();
        assert_eq!(net.inbox(2).len(), 0);
        assert_eq!(in_flight(&net), 0);
    }

    #[test]
    fn unknown_destination_gets_an_inbox() {
        // Late-joining nodes (restart with a fresh id) still receive.
        let mut net: Net<String> = Net::new([1]);
        net.send(1, 9, "x".to_string());
        assert_eq!(net.inbox(9).len(), 1);
    }

    #[test]
    fn time_based_delay_matures_on_the_injected_clock() {
        let mut net: Net<String> = Net::new([1, 2]);
        let clock = Arc::new(SimClock::new());
        net.set_clock(clock.clone());
        // Holds fall in [base, 2 * base) with no spread.
        net.install_fault_plan(FaultPlan::new(5, Duration::from_millis(1), Duration::ZERO));
        for i in 0..20 {
            net.send(1, 2, format!("m{i}"));
        }
        let at_once = net.inbox(2).len();
        assert!(at_once < 20, "some sends are held at virtual t=0");
        assert_eq!(in_flight(&net), 20, "held messages stay in flight");
        // Short of any possible deadline: still held.
        clock.advance(Duration::from_micros(999));
        assert_eq!(net.inbox(2).len(), at_once);
        // Past the maximum possible deadline: released, and purely by
        // observation — no send needed to tick it.
        clock.advance(Duration::from_millis(2));
        assert_eq!(net.inbox(2).len(), 20);
        assert!(net.delayed.is_empty());
    }

    #[test]
    fn time_held_messages_release_in_deadline_order() {
        let mut net: Net<String> = Net::new([1, 2]);
        let clock = Arc::new(SimClock::new());
        net.set_clock(clock.clone());
        // Hold three messages with explicit deadlines, out of order.
        for (at, name) in [(30u64, "c"), (10, "a"), (20, "b")] {
            net.delayed.entry(2).or_default().push(Delayed {
                until: at * 1_000_000,
                env: Envelope {
                    from: 1,
                    msg: name.to_string(),
                    tag: MsgTag::default(),
                },
            });
        }
        clock.advance(Duration::from_millis(40));
        let order: Vec<&str> = net.inbox(2).iter().map(|e| e.msg.as_str()).collect();
        assert_eq!(order, ["a", "b", "c"], "earliest deadline first");
    }

    #[test]
    fn untraced_messages_carry_the_zero_tag() {
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, "x".to_string());
        let env = net.take_matching(2, |_| true).unwrap();
        assert_eq!(env.tag, MsgTag::default());
        assert!(!env.tag.is_live());
    }

    #[test]
    fn tracer_records_message_fates_with_shared_ids() {
        use mocket_obs::causal::CausalKind;
        let mut net: Net<String> = Net::new([1, 2]);
        let tracer = Tracer::for_case(0);
        net.set_tracer(tracer.clone());
        net.send(1, 2, "x".to_string());
        net.duplicate_matching(2, |_| true).unwrap();
        let env = net.take_matching(2, |_| true).unwrap();
        assert!(env.tag.is_live());
        net.take_matching(2, |_| true).unwrap();
        net.send(1, 2, "y".to_string());
        net.drop_matching(2, |_| true).unwrap();
        let events = tracer.take_events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                CausalKind::Send,
                CausalKind::Duplicate,
                CausalKind::Recv,
                CausalKind::Recv,
                CausalKind::Send,
                CausalKind::Drop,
            ]
        );
        // Both recvs of the duplicated message link to the original
        // send's msg id; the dropped send links to its own drop.
        assert_eq!(events[2].msg, events[0].msg);
        assert_eq!(events[3].msg, events[0].msg);
        assert_eq!(events[5].msg, events[4].msg);
        assert_eq!(events[5].note.as_deref(), Some("scheduled"));
        // Threaded/real clock: vt stays zero everywhere.
        assert!(events.iter().all(|e| e.vt == 0));
    }

    #[test]
    fn timed_replay_is_deterministic_under_a_sim_clock() {
        let run = |seed: u64| {
            let mut net: Net<String> = Net::new([1, 2, 3]);
            let clock = Arc::new(SimClock::new());
            net.set_clock(clock.clone());
            net.install_fault_plan(FaultPlan::new(
                seed,
                Duration::from_millis(2),
                Duration::from_millis(1),
            ));
            let mut visible = Vec::new();
            for i in 0..200u64 {
                let from = 1 + i % 3;
                let to = 1 + (i + 1) % 3;
                net.send(from, to, format!("m{i}"));
                visible.push(net.inbox(to).len());
                clock.advance(Duration::from_micros(500));
            }
            clock.advance(Duration::from_millis(10));
            let inboxes: Vec<_> = (1..=3).map(|n| net.inbox(n).to_vec()).collect();
            (visible, inboxes)
        };
        assert_eq!(run(42), run(42), "same seed, byte-identical outcome");
        assert_ne!(run(42).0, run(43).0, "different seeds diverge");
    }
}
