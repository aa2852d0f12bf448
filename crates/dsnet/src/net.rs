//! The simulated network.
//!
//! A message sent between nodes lands in the destination's inbox as
//! an owned value: the sender gives it up, so the receiver shares no
//! memory with it. Delivery is *not* automatic: a message sits in the
//! inbox until the destination node executes a receive action for it
//! — which is exactly what lets Mocket's scheduler decide delivery
//! order. Drop and duplicate faults manipulate inbox contents directly
//! (§4.1.2). Nothing is held back: a message is deliverable the moment
//! it is sent, and any delay is just another schedule.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use mocket_obs::causal::{MsgTag, Tracer};
use mocket_sim::{Clock, RealClock};

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

/// The simulated network of one deployment. The deployment owns it
/// and lends it to one node step at a time, so it needs no lock, and
/// copying the deployment copies it.
#[derive(Clone)]
pub struct Net<M> {
    inboxes: BTreeMap<NodeId, Vec<Envelope<M>>>,
    /// The time source of trace `vt` stamps: wall clock by default
    /// (stamped 0), the shared `SimClock` under the virtual-time
    /// backend (see [`Net::set_clock`]). A copy of the network shares
    /// it.
    clock: Arc<dyn Clock>,
    /// Causal-trace recorder for message fates; inert by default.
    tracer: Tracer,
}

impl<M> Net<M> {
    /// Virtual timestamp for trace events: the clock reading under a
    /// virtual clock, `0` under a real one (wall clock never leaks
    /// into traces — see the causal determinism contract).
    fn vtime(&self) -> u64 {
        if self.clock.is_virtual() {
            u64::try_from(self.clock.now().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        }
    }
}

impl<M> fmt::Debug for Net<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("nodes", &self.inboxes.len())
            .field("in_flight", &self.inboxes.values().map(Vec::len).sum::<usize>())
            .finish_non_exhaustive()
    }
}

impl<M: Clone> Net<M> {
    /// Creates a network with inboxes for `nodes`.
    pub fn new<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        Net {
            inboxes: nodes.into_iter().map(|n| (n, Vec::new())).collect(),
            clock: Arc::new(RealClock::new()),
            tracer: Tracer::disabled(),
        }
    }

    /// Replaces the time source of trace `vt` stamps. The virtual-time
    /// backend installs its shared `SimClock` here; the default is a
    /// private real clock, which stamps 0.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Installs (or replaces) the causal tracer consulted on every
    /// send, receive and message fault. The default is the inert
    /// tracer, which records nothing and stamps all-zero tags.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sends `msg` from `from` to `to`: it joins the back of the
    /// destination inbox at once.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let tag = self.tracer.on_send(from, to, self.vtime());
        self.inboxes.entry(to).or_default().push(Envelope { from, msg, tag });
    }

    /// `node`'s inbox (oldest first): every message sent to it that no
    /// action has taken yet.
    pub fn inbox(&self, node: NodeId) -> &[Envelope<M>] {
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
        let inbox = self.inboxes.get_mut(&node)?;
        let idx = inbox.iter().position(pred)?;
        let copy = inbox[idx].clone();
        inbox.insert(idx + 1, copy.clone());
        self.tracer
            .on_duplicate(node, copy.from, copy.tag, self.vtime());
        Some(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Messages still in the network.
    fn in_flight<M>(net: &Net<M>) -> usize {
        net.inboxes.values().map(Vec::len).sum::<usize>()
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
}
