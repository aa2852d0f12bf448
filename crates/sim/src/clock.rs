//! The clock abstraction: real wall time vs. simulated virtual time.
//!
//! Everything in the harness that waits, measures, or times out goes
//! through [`Clock`]. Under [`RealClock`] the calls are exactly what
//! they replace (`Instant::now()` deltas and `thread::sleep`). Under
//! [`SimClock`] *now* is a counter and *sleep* is an instant jump:
//! a hung step's budget costs zero wall time, and the observed
//! durations are identical on every run with the same inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source plus a way to wait on it.
///
/// `now()` is relative to an arbitrary per-clock epoch; only
/// differences are meaningful, exactly like `Instant`.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Waits for `d` to elapse on this clock. Real clocks block the
    /// thread; virtual clocks jump forward instantly.
    fn sleep(&self, d: Duration);

    /// Whether sleeps are virtual-time jumps (no wall time passes).
    fn is_virtual(&self) -> bool;
}

/// Wall-clock time: `Instant` + `thread::sleep`.
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

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn is_virtual(&self) -> bool {
        false
    }
}

/// Virtual time: an atomic nanosecond counter.
///
/// Time only moves when something advances it — a `sleep` or an
/// explicit [`advance`](Self::advance) — and only forwards, so
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

    /// A virtual sleep is an instant jump: nothing is ever pending on
    /// this clock, so there is nothing to wake on the way.
    fn sleep(&self, d: Duration) {
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
    fn sleep_is_an_instant_virtual_jump() {
        let c = SimClock::new();
        let wall = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert_eq!(c.now(), Duration::from_secs(3600));
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "an hour of virtual sleep must not cost wall time"
        );
        assert!(c.is_virtual());
    }

    #[test]
    fn sim_sleep_is_advance() {
        let (slept, advanced) = (SimClock::new(), SimClock::new());
        for d in [Duration::from_nanos(1), Duration::from_millis(50), Duration::ZERO] {
            slept.sleep(d);
            advanced.advance(d);
            assert_eq!(slept.now_nanos(), advanced.now_nanos());
        }
        assert_eq!(slept.now_nanos(), 50_000_001);
    }

    #[test]
    fn real_clock_measures_and_sleeps_wall_time() {
        let c = RealClock::new();
        let t0 = c.now();
        c.sleep(Duration::from_millis(2));
        assert!(c.now() - t0 >= Duration::from_millis(2));
        assert!(!c.is_virtual());
    }
}
