//! Deterministic-simulation primitives for the Mocket harness.
//!
//! Two pieces, dependency-free so every layer of the stack can use
//! them:
//!
//! - [`Clock`] — the real-vs-virtual time abstraction. [`RealClock`]
//!   is `Instant` + `thread::sleep`; [`SimClock`] is an atomic
//!   nanosecond counter where sleeping is an instant jump.
//! - [`SimRng`] — the simulation's private SplitMix64 stream.
//!
//! The harness releases one action at a time, so nothing is ever
//! pending in virtual time: there is no event queue and no timer
//! heap, only the counter and the seed.
//!
//! [`SimHandle`] bundles the shared clock and the seed; one handle is
//! threaded through a whole run (pipeline config + cluster backend) so
//! every component counts the same virtual time.

mod clock;
mod rng;

pub use clock::{Clock, RealClock, SimClock};
pub use rng::SimRng;

use std::sync::Arc;

/// One simulation context: the shared virtual clock plus the seed that
/// derives every per-component RNG stream. Cloning shares the clock —
/// a clone observes (and advances) the same virtual time.
#[derive(Debug, Clone)]
pub struct SimHandle {
    /// The virtual clock every component of the run shares.
    pub clock: Arc<SimClock>,
    /// Seed for the run's deterministic randomness.
    pub seed: u64,
}

impl SimHandle {
    /// A fresh simulation at virtual time zero.
    pub fn new(seed: u64) -> Self {
        SimHandle {
            clock: Arc::new(SimClock::new()),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn handle_clones_share_the_clock() {
        let h = SimHandle::new(42);
        let h2 = h.clone();
        h.clock.advance(Duration::from_millis(7));
        assert_eq!(h2.clock.now_nanos(), 7_000_000);
        assert_eq!(h2.seed, 42);
    }
}
