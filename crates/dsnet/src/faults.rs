//! Deterministic, seed-driven fault plans for the simulated network.
//!
//! Model-guided testing scales with fault-schedule diversity: beyond
//! the scripted drop/duplicate faults of §4.1.2, long campaigns want
//! message *delay*, *reorder* and node-pair *partitions*, injected
//! reproducibly so a revealing schedule can be replayed bit-for-bit
//! from its seed. A [`FaultPlan`] makes every decision from a private
//! xorshift stream keyed only by the seed and the sequence of sends,
//! so two runs with the same seed and the same send sequence make
//! identical decisions — the property the determinism tests pin down.
//!
//! The plan never delivers anything by itself: it is consulted by
//! [`crate::net::Net::send`], and its verdicts only rearrange inbox
//! contents. The scheduler remains in control of delivery order,
//! exactly like the hand-scripted faults.

use std::collections::BTreeMap;
use std::fmt;

use crate::net::NodeId;

/// A failure to parse the textual fault-plan format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// What was wrong with the input.
    pub message: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault-plan parse error: {}", self.message)
    }
}

impl std::error::Error for FaultParseError {}

/// What the plan decided for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally (append to the destination inbox).
    Deliver,
    /// Remove the message (message-drop fault).
    Drop,
    /// Deliver two copies (message-duplicate fault).
    Duplicate,
    /// Hold the message back until `after_sends` further messages
    /// have been enqueued for the same destination (message delay,
    /// legacy count-based form).
    Delay {
        /// How many subsequent sends to that destination mature it.
        after_sends: u32,
    },
    /// Hold the message back for a clock duration (message delay,
    /// time-based form). The duration is *relative* to the send, so
    /// the decision stays a pure function of `(seed, send index)`
    /// whatever clock the network runs under; the network turns it
    /// into an absolute deadline on its injected [`Clock`].
    ///
    /// [`Clock`]: mocket_sim::Clock
    DelayFor {
        /// How long to hold the message, in clock nanoseconds.
        nanos: u64,
    },
    /// Deliver at the *front* of the destination inbox instead of the
    /// back (message reorder).
    Reorder,
}

/// One partition edict from the plan: isolate `a` from `b` (both
/// directions) until the cut heals — after `heal_after_sends` further
/// global sends (legacy count mode) or after `heal_after_nanos` of
/// clock time (time mode, when non-zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionEdict {
    /// One side of the cut.
    pub a: NodeId,
    /// The other side.
    pub b: NodeId,
    /// Global sends after which the cut heals (count mode; ignored
    /// when `heal_after_nanos` is non-zero).
    pub heal_after_sends: u64,
    /// Clock nanoseconds after which the cut heals (time mode;
    /// zero means the legacy count mode applies).
    pub heal_after_nanos: u64,
}

/// When a raised partition heals: bookkeeping for the two edict
/// modes. Count-mode cuts expire by the plan's own send sequence;
/// time-mode cuts expire by the clock time the network reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HealAt {
    /// Heals once the plan's send sequence reaches this value.
    AfterSeq(u64),
    /// Heals once clock time reaches this nanosecond deadline.
    AtNanos(u64),
}

/// One recorded decision, for replay comparison and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Global send sequence number (0-based).
    pub seq: u64,
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// The verdict.
    pub decision: FaultDecision,
    /// A partition the plan raised on this send, if any.
    pub partition: Option<PartitionEdict>,
}

/// Probabilities in per-mille (0..=1000) so the plan stays integral
/// and bit-reproducible. The defaults are mild: mostly clean delivery
/// with occasional single-message faults and rare short partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlanConfig {
    /// Chance a message is dropped.
    pub drop_per_mille: u32,
    /// Chance a message is duplicated.
    pub duplicate_per_mille: u32,
    /// Chance a message is delayed.
    pub delay_per_mille: u32,
    /// Maximum delay, in subsequent sends to the same destination.
    pub max_delay: u32,
    /// Chance a message jumps the queue (reorder).
    pub reorder_per_mille: u32,
    /// Chance a send raises a partition between its endpoints.
    pub partition_per_mille: u32,
    /// Partition duration, in global sends.
    pub partition_heal_after: u64,
    /// Base virtual delay for delay faults, in clock nanoseconds.
    /// Zero (the default, and the only value pre-PR-9 plans can
    /// express) keeps the legacy count-based `Delay { after_sends }`
    /// form; non-zero switches delay decisions to the time-based
    /// [`FaultDecision::DelayFor`] form.
    pub delay_nanos: u64,
    /// Per-link RTT spread, in clock nanoseconds: each node pair gets
    /// a deterministic extra offset in `[0, link_spread_nanos]`
    /// derived from the seed, so links have stable, distinct virtual
    /// round-trip times. Only meaningful with `delay_nanos > 0`.
    pub link_spread_nanos: u64,
    /// Partition duration in clock nanoseconds. Zero keeps the legacy
    /// count-based `partition_heal_after`; non-zero heals cuts by
    /// clock time instead.
    pub heal_nanos: u64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            drop_per_mille: 20,
            duplicate_per_mille: 20,
            delay_per_mille: 40,
            max_delay: 3,
            reorder_per_mille: 40,
            partition_per_mille: 5,
            partition_heal_after: 20,
            delay_nanos: 0,
            link_spread_nanos: 0,
            heal_nanos: 0,
        }
    }
}

impl FaultPlanConfig {
    /// A plan that never injects anything (useful as an explicit
    /// baseline in campaigns that sweep fault intensity).
    pub fn quiescent() -> Self {
        FaultPlanConfig {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            max_delay: 0,
            reorder_per_mille: 0,
            partition_per_mille: 0,
            partition_heal_after: 0,
            delay_nanos: 0,
            link_spread_nanos: 0,
            heal_nanos: 0,
        }
    }

    /// An aggressive mix for stress campaigns.
    pub fn aggressive() -> Self {
        FaultPlanConfig {
            drop_per_mille: 80,
            duplicate_per_mille: 60,
            delay_per_mille: 120,
            max_delay: 5,
            reorder_per_mille: 120,
            partition_per_mille: 25,
            partition_heal_after: 40,
            delay_nanos: 0,
            link_spread_nanos: 0,
            heal_nanos: 0,
        }
    }

    /// A latency-realistic mix for the virtual-time backend: frequent
    /// time-based delays with a per-link RTT spread, no drops or
    /// partitions, so schedules explore timeout-adjacent interleavings
    /// without losing traffic. `base` is the base one-way delay.
    pub fn timed_delays(base: std::time::Duration, spread: std::time::Duration) -> Self {
        FaultPlanConfig {
            delay_per_mille: 400,
            max_delay: 0,
            delay_nanos: u64::try_from(base.as_nanos()).unwrap_or(u64::MAX),
            link_spread_nanos: u64::try_from(spread.as_nanos()).unwrap_or(u64::MAX),
            ..FaultPlanConfig::quiescent()
        }
    }

    /// Serializes into the single-line `key=value` format (the same
    /// hand-rolled text style as `TestCase`), e.g.
    /// `drop=20 dup=20 delay=40 max_delay=3 reorder=40 partition=5 heal=20`.
    ///
    /// The virtual-time keys (`delay_ns`, `link_ns`, `heal_ns`) are
    /// appended only when non-zero, so every configuration a pre-PR-9
    /// artifact could express serializes to exactly the bytes it
    /// always did — the replay back-compat guarantee.
    pub fn serialize(&self) -> String {
        let mut out = format!(
            "drop={} dup={} delay={} max_delay={} reorder={} partition={} heal={}",
            self.drop_per_mille,
            self.duplicate_per_mille,
            self.delay_per_mille,
            self.max_delay,
            self.reorder_per_mille,
            self.partition_per_mille,
            self.partition_heal_after,
        );
        if self.delay_nanos != 0 {
            out.push_str(&format!(" delay_ns={}", self.delay_nanos));
        }
        if self.link_spread_nanos != 0 {
            out.push_str(&format!(" link_ns={}", self.link_spread_nanos));
        }
        if self.heal_nanos != 0 {
            out.push_str(&format!(" heal_ns={}", self.heal_nanos));
        }
        out
    }

    /// Parses the [`serialize`](Self::serialize) format. The seven
    /// legacy keys must appear exactly once; the virtual-time keys
    /// (`delay_ns`, `link_ns`, `heal_ns`) are optional and default to
    /// zero, so pre-PR-9 plan lines parse unchanged. Unknown keys and
    /// malformed numbers are typed errors, never panics.
    pub fn deserialize(input: &str) -> Result<Self, FaultParseError> {
        let mut cfg = FaultPlanConfig::quiescent();
        let mut seen = [false; 10];
        for token in input.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| FaultParseError {
                message: format!("token {token:?} is not key=value"),
            })?;
            let num = |v: &str| {
                v.parse::<u64>().map_err(|e| FaultParseError {
                    message: format!("bad number for {key}: {e}"),
                })
            };
            let idx = match key {
                "drop" => {
                    cfg.drop_per_mille = num(value)? as u32;
                    0
                }
                "dup" => {
                    cfg.duplicate_per_mille = num(value)? as u32;
                    1
                }
                "delay" => {
                    cfg.delay_per_mille = num(value)? as u32;
                    2
                }
                "max_delay" => {
                    cfg.max_delay = num(value)? as u32;
                    3
                }
                "reorder" => {
                    cfg.reorder_per_mille = num(value)? as u32;
                    4
                }
                "partition" => {
                    cfg.partition_per_mille = num(value)? as u32;
                    5
                }
                "heal" => {
                    cfg.partition_heal_after = num(value)?;
                    6
                }
                "delay_ns" => {
                    cfg.delay_nanos = num(value)?;
                    7
                }
                "link_ns" => {
                    cfg.link_spread_nanos = num(value)?;
                    8
                }
                "heal_ns" => {
                    cfg.heal_nanos = num(value)?;
                    9
                }
                other => {
                    return Err(FaultParseError {
                        message: format!("unknown key {other:?}"),
                    })
                }
            };
            if seen[idx] {
                return Err(FaultParseError {
                    message: format!("duplicate key {key:?}"),
                });
            }
            seen[idx] = true;
        }
        // Only the seven legacy keys are mandatory; the `_ns` keys
        // appeared in PR 9 and old artifacts legitimately lack them.
        if let Some(missing) = seen[..7].iter().position(|&s| !s) {
            let names = [
                "drop",
                "dup",
                "delay",
                "max_delay",
                "reorder",
                "partition",
                "heal",
            ];
            return Err(FaultParseError {
                message: format!("missing key {:?}", names[missing]),
            });
        }
        Ok(cfg)
    }
}

/// A deterministic fault schedule.
///
/// All randomness comes from a private xorshift64 stream (the same
/// recurrence as `mocket_runtime::XorShift`, duplicated here because
/// `dsnet` sits below the runtime in the crate graph). The stream is
/// advanced a fixed number of times per consulted send, so decisions
/// depend only on `(seed, send index)` — never on wall clock, thread
/// timing, or map iteration order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    seed: u64,
    state: u64,
    seq: u64,
    trace: Vec<TraceEntry>,
    /// Pair → when the cut heals (send count or clock deadline).
    partitions: BTreeMap<(NodeId, NodeId), HealAt>,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FaultPlan {
    /// Creates a plan from a seed and explicit intensities.
    pub fn with_config(seed: u64, cfg: FaultPlanConfig) -> Self {
        FaultPlan {
            cfg,
            seed,
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
            seq: 0,
            trace: Vec::new(),
            partitions: BTreeMap::new(),
        }
    }

    /// Serializes the plan's *identity* — seed plus intensities, the
    /// two values that fully determine every decision — as one line:
    /// `seed=42 drop=20 ...`. Mid-run progress is deliberately not
    /// serialized; a deserialized plan starts from send 0, which is
    /// exactly what a replay wants.
    pub fn serialize(&self) -> String {
        format!("seed={} {}", self.seed, self.cfg.serialize())
    }

    /// Parses the [`serialize`](Self::serialize) format into a fresh
    /// plan (at send 0, empty trace).
    pub fn deserialize(input: &str) -> Result<Self, FaultParseError> {
        let input = input.trim();
        let (seed_tok, rest) = input.split_once(char::is_whitespace).ok_or_else(|| {
            FaultParseError {
                message: "expected `seed=N` followed by intensities".into(),
            }
        })?;
        let seed_val = seed_tok
            .strip_prefix("seed=")
            .ok_or_else(|| FaultParseError {
                message: format!("expected leading seed=N, got {seed_tok:?}"),
            })?;
        let seed = seed_val.parse::<u64>().map_err(|e| FaultParseError {
            message: format!("bad seed: {e}"),
        })?;
        Ok(FaultPlan::with_config(
            seed,
            FaultPlanConfig::deserialize(rest)?,
        ))
    }

    fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn roll(&mut self) -> u32 {
        (self.next_u64() % 1000) as u32
    }

    /// Every decision made so far, in order.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Whether the plan partitions `a` from `b` at clock time
    /// `now_nanos` (count-mode cuts still expire by send sequence).
    pub fn is_partitioned_at(&self, a: NodeId, b: NodeId, now_nanos: u64) -> bool {
        self.partitions
            .get(&pair(a, b))
            .is_some_and(|&heal_at| match heal_at {
                HealAt::AfterSeq(s) => self.seq < s,
                HealAt::AtNanos(t) => now_nanos < t,
            })
    }

    /// Deterministic per-link RTT offset in `[0, link_spread_nanos]`:
    /// a pure function of the seed and the normalized node pair, so a
    /// given link keeps the same extra latency for the whole run and
    /// across replays.
    fn link_offset_nanos(&self, a: NodeId, b: NodeId) -> u64 {
        if self.cfg.link_spread_nanos == 0 {
            return 0;
        }
        let (lo, hi) = pair(a, b);
        // SplitMix64-style mix over (seed, lo, hi) — independent of
        // the decision stream so it never perturbs roll alignment.
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [lo, hi] {
            h ^= v;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        h % (self.cfg.link_spread_nanos + 1)
    }

    /// Decides the fate of one send at clock time `now_nanos`. Called
    /// by the network once per [`crate::net::Net::send`].
    /// Plans without virtual-time fields never read the clock.
    ///
    /// The decision itself is still a pure function of `(seed, send
    /// index, endpoints, config)` — time-based delays record a
    /// *relative* hold duration — but time-mode partitions raise and
    /// heal against the clock, which is what makes per-link RTT
    /// schedules latency-realistic under the virtual-time backend.
    ///
    /// A raised partition swallows the triggering message too: the
    /// verdict accompanying a `PartitionEdict` is always `Drop`.
    pub fn decide_at(
        &mut self,
        from: NodeId,
        to: NodeId,
        now_nanos: u64,
    ) -> (FaultDecision, Option<PartitionEdict>) {
        // Fixed number of stream advances per send (4): decisions at
        // send k are independent of which branches earlier sends took.
        let rolls = [self.roll(), self.roll(), self.roll(), self.roll()];
        let seq = self.seq;

        // Heal cuts that expired before this send.
        self.partitions.retain(|_, &mut heal_at| match heal_at {
            HealAt::AfterSeq(s) => s > seq,
            HealAt::AtNanos(t) => t > now_nanos,
        });

        let mut partition = None;
        let decision = if self.is_partitioned_at(from, to, now_nanos) {
            FaultDecision::Drop
        } else if rolls[0] < self.cfg.partition_per_mille {
            let (edict, heal_at) = if self.cfg.heal_nanos > 0 {
                (
                    PartitionEdict {
                        a: from,
                        b: to,
                        heal_after_sends: 0,
                        heal_after_nanos: self.cfg.heal_nanos,
                    },
                    HealAt::AtNanos(now_nanos.saturating_add(self.cfg.heal_nanos)),
                )
            } else {
                (
                    PartitionEdict {
                        a: from,
                        b: to,
                        heal_after_sends: self.cfg.partition_heal_after,
                        heal_after_nanos: 0,
                    },
                    HealAt::AfterSeq(seq + self.cfg.partition_heal_after),
                )
            };
            self.partitions.insert(pair(from, to), heal_at);
            partition = Some(edict);
            FaultDecision::Drop
        } else if rolls[1] < self.cfg.drop_per_mille {
            FaultDecision::Drop
        } else if rolls[1] < self.cfg.drop_per_mille + self.cfg.duplicate_per_mille {
            FaultDecision::Duplicate
        } else if rolls[2] < self.cfg.delay_per_mille && self.cfg.delay_nanos > 0 {
            // Time-based delay: base + stable per-link offset + a
            // per-message jitter in [0, delay_nanos) keyed off the
            // same roll the legacy form consumed.
            let jitter = (u64::from(rolls[3])).saturating_mul(self.cfg.delay_nanos) / 1000;
            FaultDecision::DelayFor {
                nanos: self
                    .cfg
                    .delay_nanos
                    .saturating_add(self.link_offset_nanos(from, to))
                    .saturating_add(jitter),
            }
        } else if rolls[2] < self.cfg.delay_per_mille && self.cfg.max_delay > 0 {
            FaultDecision::Delay {
                after_sends: 1 + rolls[3] % self.cfg.max_delay,
            }
        } else if rolls[2] < self.cfg.delay_per_mille + self.cfg.reorder_per_mille {
            FaultDecision::Reorder
        } else {
            FaultDecision::Deliver
        };

        self.trace.push(TraceEntry {
            seq,
            from,
            to,
            decision,
            partition,
        });
        self.seq += 1;
        (decision, partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(plan: &mut FaultPlan, sends: u64) -> Vec<TraceEntry> {
        for i in 0..sends {
            let from = 1 + i % 3;
            let to = 1 + (i + 1) % 3;
            plan.decide_at(from, to, 0);
        }
        plan.trace().to_vec()
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::with_config(42, FaultPlanConfig::aggressive());
        let mut b = FaultPlan::with_config(42, FaultPlanConfig::aggressive());
        assert_eq!(drive(&mut a, 500), drive(&mut b, 500));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::with_config(1, FaultPlanConfig::aggressive());
        let mut b = FaultPlan::with_config(2, FaultPlanConfig::aggressive());
        assert_ne!(drive(&mut a, 500), drive(&mut b, 500));
    }

    #[test]
    fn quiescent_plan_always_delivers() {
        let mut p = FaultPlan::with_config(7, FaultPlanConfig::quiescent());
        for e in drive(&mut p, 200) {
            assert_eq!(e.decision, FaultDecision::Deliver);
            assert!(e.partition.is_none());
        }
    }

    #[test]
    fn aggressive_plan_exercises_every_fault_kind() {
        let mut p = FaultPlan::with_config(3, FaultPlanConfig::aggressive());
        let trace = drive(&mut p, 3000);
        let has = |f: &dyn Fn(&TraceEntry) -> bool| trace.iter().any(f);
        assert!(has(&|e| e.decision == FaultDecision::Drop));
        assert!(has(&|e| e.decision == FaultDecision::Duplicate));
        assert!(has(&|e| matches!(e.decision, FaultDecision::Delay { .. })));
        assert!(has(&|e| e.decision == FaultDecision::Reorder));
        assert!(has(&|e| e.partition.is_some()));
    }

    #[test]
    fn partitions_swallow_messages_until_healed() {
        let mut p = FaultPlan::with_config(9, FaultPlanConfig::quiescent());
        // Raise a partition by hand through the config-independent
        // bookkeeping: simulate what a Partition edict does.
        p.partitions.insert(pair(1, 2), HealAt::AfterSeq(p.seq + 3));
        assert!(p.is_partitioned_at(1, 2, 0));
        assert!(p.is_partitioned_at(2, 1, 0), "cuts are symmetric");
        let (d, _) = p.decide_at(1, 2, 0);
        assert_eq!(d, FaultDecision::Drop);
        let (d, _) = p.decide_at(2, 1, 0);
        assert_eq!(d, FaultDecision::Drop);
        let (d, _) = p.decide_at(1, 2, 0);
        assert_eq!(d, FaultDecision::Drop);
        // Healed: the fourth send goes through.
        let (d, _) = p.decide_at(1, 2, 0);
        assert_eq!(d, FaultDecision::Deliver);
        assert!(!p.is_partitioned_at(1, 2, 0));
    }

    #[test]
    fn config_text_roundtrip() {
        for cfg in [
            FaultPlanConfig::default(),
            FaultPlanConfig::quiescent(),
            FaultPlanConfig::aggressive(),
        ] {
            let text = cfg.serialize();
            assert_eq!(FaultPlanConfig::deserialize(&text).unwrap(), cfg, "{text}");
        }
    }

    #[test]
    fn config_deserialize_rejects_garbage() {
        assert!(FaultPlanConfig::deserialize("").is_err(), "missing keys");
        assert!(FaultPlanConfig::deserialize("drop").is_err(), "no =");
        assert!(FaultPlanConfig::deserialize("drop=x").is_err(), "bad number");
        assert!(
            FaultPlanConfig::deserialize("bogus=1").is_err(),
            "unknown key"
        );
        let doubled = format!("{} drop=1", FaultPlanConfig::default().serialize());
        assert!(
            FaultPlanConfig::deserialize(&doubled).is_err(),
            "duplicate key"
        );
    }

    #[test]
    fn seeded_plan_roundtrip_replays_identically() {
        let mut original = FaultPlan::with_config(42, FaultPlanConfig::aggressive());
        let text = original.serialize();
        let mut replayed = FaultPlan::deserialize(&text).unwrap();
        assert_eq!(replayed.seed, 42);
        assert_eq!(replayed.cfg, original.cfg);
        assert_eq!(drive(&mut original, 500), drive(&mut replayed, 500));
    }

    #[test]
    fn plan_deserialize_rejects_garbage() {
        assert!(FaultPlan::deserialize("").is_err());
        assert!(FaultPlan::deserialize("drop=1").is_err(), "seed missing");
        assert!(FaultPlan::deserialize("seed=zzz drop=1").is_err());
    }

    #[test]
    fn delay_is_bounded_by_config() {
        let mut cfg = FaultPlanConfig::aggressive();
        cfg.max_delay = 2;
        let mut p = FaultPlan::with_config(11, cfg);
        for e in drive(&mut p, 2000) {
            if let FaultDecision::Delay { after_sends } = e.decision {
                assert!((1..=2).contains(&after_sends));
            }
        }
    }

    /// The exact plan line every PR-2..8 artifact embeds. It must
    /// parse and re-serialize to the same bytes forever.
    #[test]
    fn legacy_plan_line_roundtrips_byte_identically() {
        let legacy = "seed=42 drop=20 dup=20 delay=40 max_delay=3 reorder=40 partition=5 heal=20";
        let plan = FaultPlan::deserialize(legacy).unwrap();
        assert_eq!(plan.serialize(), legacy);
        assert_eq!(plan.cfg.delay_nanos, 0);
        assert_eq!(plan.cfg.link_spread_nanos, 0);
        assert_eq!(plan.cfg.heal_nanos, 0);
        // And it decides exactly like a hand-built legacy plan.
        let mut a = FaultPlan::deserialize(legacy).unwrap();
        let mut b = FaultPlan::with_config(42, FaultPlanConfig::default());
        assert_eq!(drive(&mut a, 300), drive(&mut b, 300));
    }

    #[test]
    fn timed_config_roundtrips_and_legacy_reader_rejects_it() {
        use std::time::Duration;
        let cfg = FaultPlanConfig {
            heal_nanos: 7_000_000,
            ..FaultPlanConfig::timed_delays(Duration::from_millis(10), Duration::from_millis(3))
        };
        let text = cfg.serialize();
        assert!(text.ends_with("delay_ns=10000000 link_ns=3000000 heal_ns=7000000"));
        assert_eq!(FaultPlanConfig::deserialize(&text).unwrap(), cfg);
        let doubled = format!("{text} delay_ns=1");
        assert!(
            FaultPlanConfig::deserialize(&doubled).is_err(),
            "duplicate delay_ns"
        );
    }

    #[test]
    fn timed_delays_are_pure_functions_of_seed_and_send_index() {
        use std::time::Duration;
        let cfg = FaultPlanConfig::timed_delays(Duration::from_millis(2), Duration::from_millis(1));
        let run = |clock_skew: u64| {
            let mut p = FaultPlan::with_config(17, cfg);
            (0..500u64)
                .map(|i| {
                    let from = 1 + i % 3;
                    let to = 1 + (i + 1) % 3;
                    // Wildly different clock readings must not change
                    // the decision stream (no time-mode partitions).
                    p.decide_at(from, to, i * clock_skew).0
                })
                .collect::<Vec<_>>()
        };
        let decisions = run(0);
        assert_eq!(decisions, run(1_000_000), "clock-independent decisions");
        let base = cfg.delay_nanos;
        let cap = base + cfg.link_spread_nanos + base; // base + link + jitter < 2*base + spread
        let mut seen_delay = false;
        for d in &decisions {
            if let FaultDecision::DelayFor { nanos } = d {
                seen_delay = true;
                assert!((base..=cap).contains(nanos), "delay {nanos} out of range");
            }
            assert!(!matches!(d, FaultDecision::Delay { .. }), "no count delays");
        }
        assert!(seen_delay, "the timed mix must actually delay");
    }

    #[test]
    fn per_link_offsets_are_stable_and_symmetric() {
        use std::time::Duration;
        let cfg = FaultPlanConfig::timed_delays(Duration::from_millis(1), Duration::from_millis(5));
        let p = FaultPlan::with_config(23, cfg);
        let ab = p.link_offset_nanos(1, 2);
        assert_eq!(ab, p.link_offset_nanos(2, 1), "offset ignores direction");
        assert_eq!(ab, FaultPlan::with_config(23, cfg).link_offset_nanos(1, 2));
        assert!(ab <= cfg.link_spread_nanos);
        // A small sweep of links must produce at least two distinct
        // offsets — otherwise the spread does nothing.
        let offsets: std::collections::BTreeSet<u64> = (1..=6u64)
            .flat_map(|a| (a + 1..=6).map(move |b| (a, b)))
            .map(|(a, b)| p.link_offset_nanos(a, b))
            .collect();
        assert!(offsets.len() > 1, "links share one RTT: {offsets:?}");
    }

    #[test]
    fn time_mode_partitions_heal_by_the_clock_not_by_sends() {
        let cfg = FaultPlanConfig {
            partition_per_mille: 1000,
            heal_nanos: 1_000_000, // 1ms
            ..FaultPlanConfig::quiescent()
        };
        let mut p = FaultPlan::with_config(5, cfg);
        let (d, edict) = p.decide_at(1, 2, 0);
        assert_eq!(d, FaultDecision::Drop);
        let edict = edict.expect("first send raises the cut");
        assert_eq!(edict.heal_after_nanos, 1_000_000);
        assert_eq!(edict.heal_after_sends, 0);
        // Any number of sends before the deadline stay cut (the cut
        // swallows them, so no new edict is raised on the same pair).
        for _ in 0..50 {
            let (d, e) = p.decide_at(1, 2, 500_000);
            assert_eq!(d, FaultDecision::Drop);
            assert!(e.is_none(), "existing cut swallows, never re-raises");
        }
        assert!(p.is_partitioned_at(1, 2, 999_999));
        assert!(!p.is_partitioned_at(1, 2, 1_000_000));
        // At the deadline the link heals... and with partition
        // probability 1000 the next send immediately re-raises it.
        let (d, e) = p.decide_at(1, 2, 1_000_000);
        assert_eq!(d, FaultDecision::Drop);
        assert!(e.is_some(), "healed link re-raises a fresh cut");
    }
}
