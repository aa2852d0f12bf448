//! Uncontrolled (random-schedule) execution.
//!
//! Outside Mocket's controlled testing, a deployment can be driven by
//! picking a random enabled action each step. This is how the
//! protocol crates test their own liveness (a leader is eventually
//! elected under arbitrary schedules) and how the examples demonstrate
//! the targets are real running systems, not test fixtures.

use mocket_core::sut::{SutError, SystemUnderTest};
use mocket_core::watchdog::{guard, on_case_thread};
use mocket_core::RunConfig;

/// A tiny deterministic xorshift generator so random runs are
/// reproducible from a seed.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (zero is mapped to a fixed constant).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform pick in `0..n` (n > 0).
    pub fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() as usize) % n
    }
}

/// Statistics from a random run.
#[derive(Debug, Clone, Default)]
pub struct RandomRunStats {
    /// Actions executed.
    pub executed: usize,
    /// The distinct action names executed, with counts.
    pub action_counts: std::collections::BTreeMap<String, usize>,
}

/// Runs up to `steps` random enabled actions on a case thread that
/// owns `sut`, and hands the deployment back; stops at the first poll
/// that offers nothing, since polling again would offer nothing again.
/// A call that outlives [`RunConfig::fast`]'s per-action budget
/// abandons the deployment with its thread and fails with
/// [`SutError::NodeFailure`].
pub fn run_random(
    sut: Box<dyn SystemUnderTest>,
    steps: usize,
    seed: u64,
) -> Result<(RandomRunStats, Box<dyn SystemUnderTest>), SutError> {
    let budget = RunConfig::fast().per_action_budget;
    let ran = on_case_thread(sut, budget, move |sut| {
        let mut rng = XorShift::new(seed);
        let mut stats = RandomRunStats::default();
        for _ in 0..steps {
            let mut offers = guard(None, || sut.offers())?;
            if offers.is_empty() {
                break;
            }
            let offer = offers.swap_remove(rng.pick(offers.len()));
            guard(Some(offer.node), || sut.execute(&offer))?;
            *stats.action_counts.entry(offer.action.name).or_insert(0) += 1;
            stats.executed += 1;
        }
        Ok(stats)
    });
    match ran {
        Ok((stats, sut)) => stats.map(|stats| (stats, sut)),
        Err(hung) => Err(SutError::NodeFailure {
            node: hung.node.unwrap_or_default(),
            message: "unresponsive".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Backend, Cluster, NodeApp, NodeCx, NodeId};
    use crate::sutadapter::{ClusterSut, ScriptDriver};
    use mocket_core::sut::MsgEvent;
    use mocket_dsnet::Net;
    use mocket_tla::{ActionInstance, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Offers `a` and `b` until it has stepped five times; counts the
    /// polls in the counter it is booted with.
    #[derive(Clone)]
    struct StepApp {
        n: i64,
        polls: Arc<AtomicUsize>,
    }

    impl NodeApp for StepApp {
        type Msg = u64;
        type Config = Arc<AtomicUsize>;

        fn boot(_id: NodeId, polls: &Self::Config, _cx: &mut NodeCx<'_, u64>) -> Self {
            StepApp { n: 0, polls: polls.clone() }
        }
        fn enabled(&self, _net: &Net<u64>) -> Vec<ActionInstance> {
            self.polls.fetch_add(1, Ordering::SeqCst);
            if self.n < 5 {
                vec![ActionInstance::nullary("a"), ActionInstance::nullary("b")]
            } else {
                vec![]
            }
        }
        fn execute(
            &mut self,
            _action: &ActionInstance,
            _cx: &mut NodeCx<'_, u64>,
        ) -> Vec<MsgEvent> {
            self.n += 1;
            vec![]
        }
        fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
            visit("n", Value::Int(self.n));
        }
    }

    /// The run stops at its first empty poll: five polls that each
    /// execute one action, then one that offers nothing.
    #[test]
    fn random_run_stops_after_one_empty_poll() {
        let polls = Arc::new(AtomicUsize::new(0));
        let cluster = Cluster::<StepApp>::new(polls.clone(), Net::new([1]), Backend::Threads);
        let mut sut: Box<dyn SystemUnderTest> =
            Box::new(ClusterSut::new(cluster, vec![1], ScriptDriver::new("a")));
        sut.deploy().unwrap();
        let (stats, mut sut) = run_random(sut, 100, 7).unwrap();
        assert_eq!(stats.executed, 5);
        assert_eq!(polls.load(Ordering::SeqCst), 6, "one empty poll, then stop");
        let total: usize = stats.action_counts.values().sum();
        assert_eq!(total, 5);
        sut.teardown();
    }

    #[test]
    fn xorshift_is_deterministic_and_spread() {
        let mut a = XorShift::new(1);
        let mut b = XorShift::new(1);
        let va: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..5).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = XorShift::new(2);
        assert_ne!(va[0], c.next_u64());
        let picks: Vec<usize> = (0..100).map(|_| a.pick(3)).collect();
        for v in 0..3 {
            assert!(picks.contains(&v));
        }
    }
}
