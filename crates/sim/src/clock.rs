//! The clock abstraction: real wall time vs. simulated virtual time.
//!
//! Everything in the harness that measures or times out goes through
//! [`Clock`]. Nothing waits on one: the harness releases one action at
//! a time, so the only way time is spent on purpose is an explicit
//! [`charge`](Clock::charge) — a hung case's budget, or the steps a
//! resumed case did not re-run. Under [`RealClock`] *now* is an
//! `Instant` delta and a charge is a no-op (real time moves on its
//! own). Under [`SimClock`] *now* is a counter and a charge moves it,
//! so the observed durations are identical on every run with the same
//! inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source that can be charged time.
///
/// `now()` is relative to an arbitrary per-clock epoch; only
/// differences are meaningful, exactly like `Instant`.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Charges `d` to this clock as time the system spent: a virtual
    /// clock jumps forward by `d` at once; a real clock does nothing.
    fn charge(&self, d: Duration);

    /// Whether this clock's time is virtual (moved only by charges).
    fn is_virtual(&self) -> bool;
}

/// Wall-clock time: an `Instant` delta.
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A real clock whose epoch is the moment of creation.
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Real time cannot be charged: it passes on its own.
    fn charge(&self, _d: Duration) {}

    fn is_virtual(&self) -> bool {
        false
    }
}

/// Virtual time: an atomic nanosecond counter.
///
/// Time only moves when something advances it — a
/// [`charge`](Clock::charge) or an [`advance`](Self::advance) — and
/// only forwards, so
/// cooperating components sharing one clock can never move it
/// backwards.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// A virtual clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time in nanoseconds since epoch (zero).
    pub fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Moves time forward by `d`, saturating at the end of time.
    pub fn advance(&self, d: Duration) {
        let d = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let _ = self
            .nanos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |now| {
                Some(now.saturating_add(d))
            });
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_nanos())
    }

    /// A charge is an instant jump: nothing is ever pending on this
    /// clock, so there is nothing to wake on the way.
    fn charge(&self, d: Duration) {
        self.advance(d);
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_starts_at_zero_and_only_moves_forward() {
        let c = SimClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now(), Duration::from_millis(5));
        c.advance(Duration::ZERO);
        assert_eq!(c.now(), Duration::from_millis(5));
        c.advance(Duration::MAX);
        assert_eq!(c.now_nanos(), u64::MAX, "saturates, never wraps");
    }

    #[test]
    fn a_charge_is_an_instant_virtual_jump() {
        let c = SimClock::new();
        let wall = Instant::now();
        c.charge(Duration::from_secs(3600));
        assert_eq!(c.now(), Duration::from_secs(3600));
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "an hour of virtual charge must not cost wall time"
        );
        assert!(c.is_virtual());
    }

    #[test]
    fn sim_charge_is_advance() {
        let (charged, advanced) = (SimClock::new(), SimClock::new());
        for d in [Duration::from_nanos(1), Duration::from_millis(50), Duration::ZERO] {
            charged.charge(d);
            advanced.advance(d);
            assert_eq!(charged.now_nanos(), advanced.now_nanos());
        }
        assert_eq!(charged.now_nanos(), 50_000_001);
    }

    #[test]
    fn a_real_clock_measures_wall_time_and_ignores_charges() {
        let c = RealClock::new();
        let t0 = c.now();
        let wall = Instant::now();
        c.charge(Duration::from_secs(3600));
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "a charge on the wall clock must not block"
        );
        while wall.elapsed() < Duration::from_millis(2) {}
        assert!(c.now() - t0 >= Duration::from_millis(2));
        assert!(!c.is_virtual());
    }
}
