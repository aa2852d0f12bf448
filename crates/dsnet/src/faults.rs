//! Deterministic, seed-driven link delay for the simulated network.
//!
//! A [`FaultPlan`] gives every node pair a stable round-trip time and
//! holds a share of the sends on it for that RTT plus a per-message
//! jitter. Every hold comes from a private xorshift stream keyed only
//! by the seed and the sequence of sends, so two runs with the same
//! seed and the same send sequence hold the same messages for the
//! same durations.
//!
//! The plan never delivers anything by itself: it is consulted by
//! [`crate::net::Net::send`], and a held message only reaches its
//! inbox later. The scheduler remains in control of delivery order.
//! Message loss and duplication are scheduled actions
//! ([`crate::net::Net::drop_matching`] and
//! [`crate::net::Net::duplicate_matching`], §4.1.2), not plan
//! decisions.

use std::time::Duration;

use crate::net::NodeId;

/// A deterministic per-link delay schedule.
///
/// All randomness comes from a private xorshift64 stream (the same
/// recurrence as `mocket_runtime::XorShift`, duplicated here because
/// `dsnet` sits below the runtime in the crate graph). The stream is
/// advanced four times per send, so holds depend only on `(seed, send
/// index, endpoints)`, never on wall clock, thread timing, or map
/// iteration order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Base one-way delay, in clock nanoseconds.
    base_nanos: u64,
    /// Per-link RTT spread, in clock nanoseconds: each node pair gets
    /// a stable extra offset in `[0, spread_nanos]`.
    spread_nanos: u64,
    state: u64,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl FaultPlan {
    /// A plan that holds about 40 % of sends for `base` plus the
    /// link's offset in `[0, spread]` plus a jitter in `[0, base)`.
    pub fn new(seed: u64, base: Duration, spread: Duration) -> Self {
        FaultPlan {
            seed,
            base_nanos: nanos(base),
            spread_nanos: nanos(spread),
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    fn roll(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state % 1000
    }

    /// Deterministic per-link RTT offset in `[0, spread_nanos]`: a
    /// pure function of the seed and the normalized node pair, so a
    /// given link keeps the same extra latency for the whole run and
    /// across replays.
    fn link_offset_nanos(&self, a: NodeId, b: NodeId) -> u64 {
        if self.spread_nanos == 0 {
            return 0;
        }
        // SplitMix64-style mix over (seed, lo, hi), independent of
        // the hold stream so it never perturbs roll alignment.
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [a.min(b), a.max(b)] {
            h ^= v;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        h % (self.spread_nanos + 1)
    }

    /// How long to hold one send from `from` to `to`, in clock
    /// nanoseconds, or `None` to deliver it at once. Called by the
    /// network once per [`crate::net::Net::send`].
    pub fn hold(&mut self, from: NodeId, to: NodeId) -> Option<u64> {
        // Four stream advances per send; the third picks whether to
        // hold, the fourth the jitter.
        let rolls = [self.roll(), self.roll(), self.roll(), self.roll()];
        (rolls[2] < 400).then(|| {
            let jitter = rolls[3].saturating_mul(self.base_nanos) / 1000;
            self.base_nanos
                .saturating_add(self.link_offset_nanos(from, to))
                .saturating_add(jitter)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds of `sends` sends cycling over the links 1→2, 2→3, 3→1.
    fn drive(plan: &mut FaultPlan, sends: u64) -> Vec<Option<u64>> {
        (0..sends)
            .map(|i| plan.hold(1 + i % 3, 1 + (i + 1) % 3))
            .collect()
    }

    fn millis_plan(seed: u64, base_ms: u64, spread_ms: u64) -> FaultPlan {
        FaultPlan::new(
            seed,
            Duration::from_millis(base_ms),
            Duration::from_millis(spread_ms),
        )
    }

    /// The hold stream every `--rtt-ms 5 --rtt-spread-ms 2` run with
    /// seed 42 starts from. A change here changes the `vt` stamps and
    /// delivery order of every such run.
    #[test]
    fn seed_42_hold_stream_is_pinned() {
        let expected = [
            None, Some(5817788), None, None, None, Some(10276535), None, None,
            Some(10376535), None, Some(5702788), Some(8326535), None, Some(6162788), None, None,
            Some(8537788), None, None, None, None, None, None, None,
            None, None, Some(7706535), Some(7374495), None, None, None, Some(7442788),
            Some(10136535), None, None, Some(11556535), None, Some(7722788), Some(11371535), Some(6954495),
            None, Some(11066535), Some(7674495), None, None, Some(8264495), None, Some(7951535),
            None, None, None, None, None, Some(6941535), None, None,
            Some(7816535), Some(8994495), None, None, Some(9589495), Some(6237788), Some(7426535), None,
        ];
        assert_eq!(drive(&mut millis_plan(42, 5, 2), 64), expected);
    }

    #[test]
    fn holds_are_pure_functions_of_the_seed_and_bounded() {
        let holds = drive(&mut millis_plan(17, 2, 1), 500);
        assert_eq!(holds, drive(&mut millis_plan(17, 2, 1), 500));
        assert_ne!(holds, drive(&mut millis_plan(18, 2, 1), 500));
        // base + link offset + jitter < 2 * base + spread.
        let (base, cap) = (2_000_000, 2_000_000 + 1_000_000 + 2_000_000);
        let held: Vec<u64> = holds.into_iter().flatten().collect();
        assert!(!held.is_empty(), "the plan must actually hold");
        assert!(held.iter().all(|n| (base..=cap).contains(n)), "{held:?}");
    }

    #[test]
    fn per_link_offsets_are_stable_and_symmetric() {
        let p = millis_plan(23, 1, 5);
        let ab = p.link_offset_nanos(1, 2);
        assert_eq!(ab, p.link_offset_nanos(2, 1), "offset ignores direction");
        assert_eq!(ab, millis_plan(23, 1, 5).link_offset_nanos(1, 2));
        assert!(ab <= p.spread_nanos);
        // A small sweep of links must produce at least two distinct
        // offsets — otherwise the spread does nothing.
        let offsets: std::collections::BTreeSet<u64> = (1..=6u64)
            .flat_map(|a| (a + 1..=6).map(move |b| (a, b)))
            .map(|(a, b)| p.link_offset_nanos(a, b))
            .collect();
        assert!(offsets.len() > 1, "links share one RTT: {offsets:?}");
    }
}
