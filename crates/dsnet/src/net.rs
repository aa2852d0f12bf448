//! The simulated network.
//!
//! Messages sent between nodes land in the destination's inbox after
//! a wire-encoding round trip. Delivery is *not* automatic: a message
//! sits in the inbox until the destination node executes a receive
//! action for it — which is exactly what lets Mocket's scheduler
//! decide delivery order. Drop and duplicate faults manipulate inbox
//! contents directly (§4.1.2).
//!
//! Two fault sources compose on top of that base behaviour, both of
//! them applied inside [`Net::send`] so the scheduler's view of
//! "inbox = deliverable messages" stays intact:
//!
//! * **Scripted partitions** ([`Net::partition`] / [`Net::heal`])
//!   silently discard traffic between a node pair, in both
//!   directions, until healed.
//! * **A [`FaultPlan`]** (see [`crate::faults`]) makes a
//!   deterministic, seed-driven drop / duplicate / delay / reorder /
//!   partition decision for every send.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use mocket_obs::causal::{MsgTag, Tracer};
use mocket_sim::{Clock, RealClock};

use crate::faults::{FaultDecision, FaultPlan, TraceEntry};
use crate::wire::{Wire, WireError};

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
    /// is off — the default). Not part of the wire encoding.
    pub tag: MsgTag,
}

/// What releases a delayed message back into its inbox.
#[derive(Debug, Clone, Copy)]
enum Hold {
    /// Legacy count-based delay: matures once this many further
    /// sends have been enqueued for the same destination.
    Sends(u32),
    /// Time-based delay: matures once the network's clock reaches
    /// this absolute nanosecond deadline.
    Until(u64),
}

/// A message held back by a delay fault.
#[derive(Debug, Clone)]
struct Delayed<M> {
    hold: Hold,
    env: Envelope<M>,
}

/// The simulated network of one deployment. The deployment owns it
/// and lends it to one node step at a time, so it needs no lock, and
/// copying the deployment copies it.
#[derive(Clone)]
pub struct Net<M> {
    inboxes: BTreeMap<NodeId, Vec<Envelope<M>>>,
    delayed: BTreeMap<NodeId, Vec<Delayed<M>>>,
    /// Scripted cuts: normalized node pairs that cannot talk.
    partitions: BTreeSet<(NodeId, NodeId)>,
    plan: Option<FaultPlan>,
    /// The time source delay deadlines and time-mode partitions run
    /// against: wall clock by default, the shared `SimClock` under
    /// the virtual-time backend (see [`Net::set_clock`]). A copy of
    /// the network shares it.
    clock: Arc<dyn Clock>,
    /// Causal-trace recorder for message fates; inert by default.
    tracer: Tracer,
    sent: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    delayed_count: u64,
    reordered: u64,
    partition_dropped: u64,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
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

    /// Ages the count-held part of `dest`'s delayed queue by one send
    /// and releases matured messages to the back of the inbox. Called
    /// once per send addressed to `dest`, whatever the send's own
    /// fate. Time-held messages are untouched here — they mature in
    /// [`release_due`](Self::release_due).
    fn tick_delayed(&mut self, dest: NodeId) {
        let Some(queue) = self.delayed.get_mut(&dest) else {
            return;
        };
        let mut released = Vec::new();
        let mut i = 0;
        while i < queue.len() {
            match &mut queue[i].hold {
                Hold::Sends(n) if *n <= 1 => released.push(queue.remove(i).env),
                Hold::Sends(n) => {
                    *n -= 1;
                    i += 1;
                }
                Hold::Until(_) => i += 1,
            }
        }
        if !released.is_empty() {
            self.inboxes.entry(dest).or_default().extend(released);
        }
    }

    /// Releases every time-held message for `dest` whose deadline has
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
            match queue[i].hold {
                Hold::Until(at) if at <= now => {
                    let d = queue.remove(i);
                    matured.push((at, d.env));
                }
                _ => i += 1,
            }
        }
        if queue.is_empty() {
            self.delayed.remove(&dest);
        }
        if !matured.is_empty() {
            matured.sort_by_key(|&(at, _)| at);
            self.inboxes
                .entry(dest)
                .or_default()
                .extend(matured.into_iter().map(|(_, env)| env));
        }
    }
}

impl<M> fmt::Debug for Net<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("nodes", &self.inboxes.len())
            .field("in_flight", &self.inboxes.values().map(Vec::len).sum::<usize>())
            .field("delayed", &self.delayed.values().map(Vec::len).sum::<usize>())
            .field("sent", &self.sent)
            .finish_non_exhaustive()
    }
}

/// Counters describing network activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Messages sent.
    pub sent: u64,
    /// Messages taken by receivers.
    pub delivered: u64,
    /// Messages removed by drop faults.
    pub dropped: u64,
    /// Copies added by duplicate faults.
    pub duplicated: u64,
    /// Messages held back by delay faults.
    pub delayed: u64,
    /// Messages that jumped the queue (reorder faults).
    pub reordered: u64,
    /// Messages discarded by a partition (scripted or planned).
    pub partition_dropped: u64,
}

impl<M: Wire + Clone> Net<M> {
    /// Creates a network with inboxes for `nodes`.
    pub fn new<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        Net {
            inboxes: nodes.into_iter().map(|n| (n, Vec::new())).collect(),
            delayed: BTreeMap::new(),
            partitions: BTreeSet::new(),
            plan: None,
            clock: Arc::new(RealClock::new()),
            tracer: Tracer::disabled(),
            sent: 0,
            delivered: 0,
            dropped: 0,
            duplicated: 0,
            delayed_count: 0,
            reordered: 0,
            partition_dropped: 0,
        }
    }

    /// Replaces the time source that delay deadlines and time-mode
    /// partition heals run against. The virtual-time backend installs
    /// its shared `SimClock` here so time-based faults mature in
    /// virtual time; the default is a private real clock.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Installs (or replaces) the causal tracer consulted on every
    /// send, receive and message fault. The default is the inert
    /// tracer, which records nothing and stamps all-zero tags.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sends `msg` from `from` to `to`, round-tripping it through its
    /// wire encoding so no memory is shared across the boundary.
    ///
    /// Scripted partitions and the installed [`FaultPlan`] (if any)
    /// are consulted here; every path leaves the inbox in a state the
    /// scheduler can reason about (delayed messages are invisible
    /// until they mature).
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: &M) -> Result<(), WireError> {
        let msg = msg.wire_roundtrip()?;
        let now = self.now_nanos();
        self.sent += 1;
        // Age the destination's delayed queue by this send *first*:
        // messages delayed by earlier sends mature ahead of this one,
        // and a delay fault on this send cannot release itself. Then
        // surface any time-held messages whose deadline has passed.
        self.tick_delayed(to);
        self.release_due(to);
        let vt = self.vtime();
        let tag = self.tracer.on_send(from, to, vt);

        if self.partitions.contains(&pair(from, to)) {
            self.partition_dropped += 1;
            self.tracer.on_drop(to, from, tag, vt, "partition");
            return Ok(());
        }

        let decision = match self.plan.as_mut() {
            Some(plan) => {
                let (decision, edict) = plan.decide_at(from, to, now);
                let partitioned = edict.is_some() || plan.is_partitioned_at(from, to, now);
                if decision == FaultDecision::Drop && partitioned {
                    self.partition_dropped += 1;
                    self.tracer.on_drop(to, from, tag, vt, "partition");
                    return Ok(());
                }
                decision
            }
            None => FaultDecision::Deliver,
        };

        let env = Envelope { from, msg, tag };
        match decision {
            FaultDecision::Deliver => {
                self.inboxes.entry(to).or_default().push(env);
            }
            FaultDecision::Drop => {
                self.dropped += 1;
                self.tracer.on_drop(to, from, tag, vt, "fault");
            }
            FaultDecision::Duplicate => {
                let inbox = self.inboxes.entry(to).or_default();
                inbox.push(env.clone());
                inbox.push(env);
                self.duplicated += 1;
                self.tracer.on_duplicate(to, from, tag, vt);
            }
            FaultDecision::Delay { after_sends } => {
                self.delayed.entry(to).or_default().push(Delayed {
                    hold: Hold::Sends(after_sends),
                    env,
                });
                self.delayed_count += 1;
                self.tracer.on_delay(to, from, tag, vt);
            }
            FaultDecision::DelayFor { nanos } => {
                self.delayed.entry(to).or_default().push(Delayed {
                    hold: Hold::Until(now.saturating_add(nanos)),
                    env,
                });
                self.delayed_count += 1;
                self.tracer.on_delay(to, from, tag, vt);
            }
            FaultDecision::Reorder => {
                self.inboxes.entry(to).or_default().insert(0, env);
                self.reordered += 1;
            }
        }
        Ok(())
    }

    /// `node`'s inbox (oldest first). Time-held delayed messages whose
    /// deadline has passed surface first.
    pub fn inbox(&mut self, node: NodeId) -> &[Envelope<M>] {
        self.release_due(node);
        self.inboxes.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Number of messages waiting for `node`.
    pub fn inbox_len(&mut self, node: NodeId) -> usize {
        self.inbox(node).len()
    }

    /// Removes and returns the first inbox message of `node` matching
    /// `pred` (receive action).
    pub fn take_matching<F>(&mut self, node: NodeId, pred: F) -> Option<Envelope<M>>
    where
        F: Fn(&Envelope<M>) -> bool,
    {
        let env = self.remove_matching(node, pred)?;
        self.delivered += 1;
        self.tracer.on_recv(node, env.from, env.tag, self.vtime());
        Some(env)
    }

    /// Removes the first matching message without counting it as a
    /// delivery (message-drop fault).
    pub fn drop_matching<F>(&mut self, node: NodeId, pred: F) -> Option<Envelope<M>>
    where
        F: Fn(&Envelope<M>) -> bool,
    {
        let env = self.remove_matching(node, pred)?;
        self.dropped += 1;
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
        self.duplicated += 1;
        self.tracer
            .on_duplicate(node, copy.from, copy.tag, self.vtime());
        Some(copy)
    }

    /// Cuts the link between `a` and `b` in both directions until
    /// [`Net::heal`] (scripted partition fault).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(pair(a, b));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&pair(a, b));
    }

    /// Installs a seed-driven fault plan consulted on every
    /// subsequent send. Replaces any previous plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// The installed plan's decision trace so far (empty without a
    /// plan).
    pub fn fault_trace(&self) -> &[TraceEntry] {
        self.plan.as_ref().map_or(&[], FaultPlan::trace)
    }

    /// Messages currently held back by delay faults for `node`
    /// (matured time-held messages surface to the inbox first).
    pub fn delayed_len(&mut self, node: NodeId) -> usize {
        self.release_due(node);
        self.delayed.get(&node).map(Vec::len).unwrap_or(0)
    }

    /// Activity counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            sent: self.sent,
            delivered: self.delivered,
            dropped: self.dropped,
            duplicated: self.duplicated,
            delayed: self.delayed_count,
            reordered: self.reordered,
            partition_dropped: self.partition_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Messages still in the network: deliverable or held back.
    fn in_flight<M: Wire + Clone>(net: &Net<M>) -> usize {
        net.inboxes.values().map(Vec::len).sum::<usize>()
            + net.delayed.values().map(Vec::len).sum::<usize>()
    }

    #[test]
    fn send_and_take_roundtrip() {
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, &"hello".to_string()).unwrap();
        assert_eq!(net.inbox_len(2), 1);
        assert_eq!(net.inbox_len(1), 0);
        let env = net.take_matching(2, |_| true).unwrap();
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, "hello");
        assert_eq!(in_flight(&net), 0);
        let stats = net.stats();
        assert_eq!((stats.sent, stats.delivered), (1, 1));
    }

    #[test]
    fn take_matching_respects_predicate_and_order() {
        let mut net: Net<String> = Net::new([1, 2]);
        for m in ["a", "b", "a"] {
            net.send(1, 2, &m.to_string()).unwrap();
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
        net.send(1, 2, &"x".to_string()).unwrap();
        net.duplicate_matching(2, |_| true).unwrap();
        assert_eq!(net.inbox_len(2), 2);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn drop_removes_without_delivery() {
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, &"x".to_string()).unwrap();
        net.drop_matching(2, |_| true).unwrap();
        assert_eq!(net.inbox_len(2), 0);
        let stats = net.stats();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn unknown_destination_gets_an_inbox() {
        // Late-joining nodes (restart with a fresh id) still receive.
        let mut net: Net<String> = Net::new([1]);
        net.send(1, 9, &"x".to_string()).unwrap();
        assert_eq!(net.inbox_len(9), 1);
    }

    #[test]
    fn scripted_partition_blocks_both_directions_until_healed() {
        let mut net: Net<String> = Net::new([1, 2, 3]);
        net.partition(1, 2);
        net.send(1, 2, &"a".to_string()).unwrap();
        net.send(2, 1, &"b".to_string()).unwrap();
        // Unrelated links are unaffected.
        net.send(1, 3, &"c".to_string()).unwrap();
        assert_eq!(net.inbox_len(1) + net.inbox_len(2), 0);
        assert_eq!(net.inbox_len(3), 1);
        assert_eq!(net.stats().partition_dropped, 2);
        net.heal(1, 2);
        net.send(1, 2, &"d".to_string()).unwrap();
        assert_eq!(net.inbox_len(2), 1);
    }

    #[test]
    fn delay_fault_holds_message_until_matured() {
        use crate::faults::{FaultPlan, FaultPlanConfig};
        let mut net: Net<String> = Net::new([1, 2]);
        // A plan that always delays by exactly 1 send.
        let cfg = FaultPlanConfig {
            delay_per_mille: 1000,
            max_delay: 1,
            ..FaultPlanConfig::quiescent()
        };
        net.install_fault_plan(FaultPlan::with_config(5, cfg));
        net.send(1, 2, &"first".to_string()).unwrap();
        assert_eq!(net.inbox_len(2), 0, "held back");
        assert_eq!(net.delayed_len(2), 1);
        assert_eq!(in_flight(&net), 1, "delayed messages stay in flight");
        // The next send matures it (and is itself delayed).
        net.send(1, 2, &"second".to_string()).unwrap();
        let inbox = net.inbox(2);
        assert_eq!(
            inbox.iter().map(|e| e.msg.as_str()).collect::<Vec<_>>(),
            ["first"]
        );
        assert_eq!(net.delayed_len(2), 1);
        assert_eq!(net.stats().delayed, 2);
    }

    #[test]
    fn reorder_fault_jumps_the_queue() {
        use crate::faults::{FaultPlan, FaultPlanConfig};
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, &"old".to_string()).unwrap();
        let cfg = FaultPlanConfig {
            reorder_per_mille: 1000,
            delay_per_mille: 0,
            ..FaultPlanConfig::quiescent()
        };
        net.install_fault_plan(FaultPlan::with_config(5, cfg));
        net.send(1, 2, &"new".to_string()).unwrap();
        let inbox = net.inbox(2);
        assert_eq!(
            inbox.iter().map(|e| e.msg.as_str()).collect::<Vec<_>>(),
            ["new", "old"]
        );
        assert_eq!(net.stats().reordered, 1);
    }

    #[test]
    fn fault_plan_runs_are_replayable_from_the_seed() {
        use crate::faults::{FaultPlan, FaultPlanConfig};
        let run = |seed: u64| {
            let mut net: Net<String> = Net::new([1, 2, 3]);
            net.install_fault_plan(FaultPlan::with_config(
                seed,
                FaultPlanConfig::aggressive(),
            ));
            for i in 0..400u64 {
                let from = 1 + i % 3;
                let to = 1 + (i + 1) % 3;
                net.send(from, to, &format!("m{i}")).unwrap();
            }
            let inboxes: Vec<_> = (1..=3).map(|n| net.inbox(n).to_vec()).collect();
            (net.fault_trace().to_vec(), inboxes, net.stats())
        };
        assert_eq!(run(42), run(42), "same seed, byte-identical outcome");
        assert_ne!(run(42).0, run(43).0, "different seeds diverge");
    }

    /// Conservation law: every sent copy (plus duplicates) ends up
    /// delivered, dropped, partition-dropped, or still in flight.
    fn assert_conserved<Msg: Wire + Clone>(net: &Net<Msg>) {
        let s = net.stats();
        assert_eq!(
            s.sent + s.duplicated,
            s.delivered + s.dropped + s.partition_dropped + in_flight(net) as u64,
            "message ledger out of balance: {s:?}"
        );
    }

    #[test]
    fn fault_accounting_keeps_the_ledger_balanced() {
        use crate::faults::{FaultPlan, FaultPlanConfig};
        let mut net: Net<String> = Net::new([1, 2, 3]);
        net.install_fault_plan(FaultPlan::with_config(
            99,
            FaultPlanConfig::aggressive(),
        ));
        for i in 0..300u64 {
            let from = 1 + i % 3;
            let to = 1 + (i + 1) % 3;
            net.send(from, to, &format!("m{i}")).unwrap();
            if i % 11 == 0 {
                net.take_matching(to, |_| true);
            }
            assert_conserved(&net);
        }
    }

    #[test]
    fn time_based_delay_matures_on_the_injected_clock() {
        use crate::faults::{FaultPlan, FaultPlanConfig};
        use mocket_sim::SimClock;
        use std::time::Duration;

        let mut net: Net<String> = Net::new([1, 2]);
        let clock = Arc::new(SimClock::new());
        net.set_clock(clock.clone());
        // Every send delayed by exactly delay_nanos (no spread, and
        // jitter scales with rolls so allow the full [base, 2*base)).
        let cfg = FaultPlanConfig {
            delay_per_mille: 1000,
            delay_nanos: 1_000_000, // 1ms base
            ..FaultPlanConfig::quiescent()
        };
        net.install_fault_plan(FaultPlan::with_config(5, cfg));
        net.send(1, 2, &"held".to_string()).unwrap();
        assert_eq!(net.inbox_len(2), 0, "held back at virtual t=0");
        assert_eq!(net.delayed_len(2), 1);
        assert_eq!(in_flight(&net), 1, "delayed messages stay in flight");
        // Short of any possible deadline: still held.
        clock.advance(Duration::from_micros(999));
        assert_eq!(net.inbox_len(2), 0);
        // Past the maximum possible deadline (2*base): released, and
        // purely by observation — no send needed to tick it.
        clock.advance(Duration::from_millis(2));
        assert_eq!(net.inbox_len(2), 1);
        assert_eq!(net.delayed_len(2), 0);
        let env = net.take_matching(2, |_| true).unwrap();
        assert_eq!(env.msg, "held");
        assert_eq!(net.stats().delayed, 1);
    }

    #[test]
    fn time_held_messages_release_in_deadline_order() {
        use mocket_sim::SimClock;
        use std::time::Duration;

        let mut net: Net<String> = Net::new([1, 2]);
        let clock = Arc::new(SimClock::new());
        net.set_clock(clock.clone());
        // Build the held queue by hand through the plan-free path:
        // install per-message plans is clumsy, so drive decide order
        // via two separate sends under configs with different bases.
        // Simpler: hold three messages with explicit deadlines.
        {
            for (at, name) in [(30u64, "c"), (10, "a"), (20, "b")] {
                net.delayed.entry(2).or_default().push(Delayed {
                    hold: Hold::Until(at * 1_000_000),
                    env: Envelope {
                        from: 1,
                        msg: name.to_string(),
                        tag: MsgTag::default(),
                    },
                });
                net.delayed_count += 1;
            }
        }
        clock.advance(Duration::from_millis(40));
        let order: Vec<&str> = net.inbox(2).iter().map(|e| e.msg.as_str()).collect();
        assert_eq!(order, ["a", "b", "c"], "earliest deadline first");
    }

    #[test]
    fn untraced_messages_carry_the_zero_tag() {
        let mut net: Net<String> = Net::new([1, 2]);
        net.send(1, 2, &"x".to_string()).unwrap();
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
        net.send(1, 2, &"x".to_string()).unwrap();
        net.duplicate_matching(2, |_| true).unwrap();
        let env = net.take_matching(2, |_| true).unwrap();
        assert!(env.tag.is_live());
        net.take_matching(2, |_| true).unwrap();
        net.partition(1, 2);
        net.send(1, 2, &"y".to_string()).unwrap();
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
        // send's msg id; the partitioned send links to its own drop.
        assert_eq!(events[2].msg, events[0].msg);
        assert_eq!(events[3].msg, events[0].msg);
        assert_eq!(events[5].msg, events[4].msg);
        assert_eq!(events[5].note.as_deref(), Some("partition"));
        // Threaded/real clock: vt stays zero everywhere.
        assert!(events.iter().all(|e| e.vt == 0));
    }

    #[test]
    fn timed_replay_is_deterministic_under_a_sim_clock() {
        use crate::faults::{FaultPlan, FaultPlanConfig};
        use mocket_sim::SimClock;
        use std::time::Duration;

        let run = |seed: u64| {
            let mut net: Net<String> = Net::new([1, 2, 3]);
            let clock = Arc::new(SimClock::new());
            net.set_clock(clock.clone());
            net.install_fault_plan(FaultPlan::with_config(
                seed,
                FaultPlanConfig::timed_delays(
                    Duration::from_millis(2),
                    Duration::from_millis(1),
                ),
            ));
            for i in 0..200u64 {
                let from = 1 + i % 3;
                let to = 1 + (i + 1) % 3;
                net.send(from, to, &format!("m{i}")).unwrap();
                clock.advance(Duration::from_micros(500));
            }
            clock.advance(Duration::from_millis(10));
            let inboxes: Vec<_> = (1..=3).map(|n| net.inbox(n).to_vec()).collect();
            (net.fault_trace().to_vec(), inboxes, net.stats())
        };
        assert_eq!(run(42), run(42), "same seed, byte-identical outcome");
        assert_ne!(run(42).0, run(43).0, "different seeds diverge");
    }
}
