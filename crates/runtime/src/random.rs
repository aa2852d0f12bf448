//! Uncontrolled (random-schedule) execution.
//!
//! Outside Mocket's controlled testing, a cluster can be driven by
//! picking a random enabled action each step. This is how the
//! protocol crates test their own liveness (a leader is eventually
//! elected under arbitrary schedules) and how the examples demonstrate
//! the targets are real running systems, not test fixtures.

use mocket_tla::ActionInstance;

use crate::cluster::{Cluster, ClusterError, NodeId};

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
    /// Steps where no action was enabled (quiescent polls).
    pub quiescent_polls: usize,
    /// The distinct action names executed, with counts.
    pub action_counts: std::collections::BTreeMap<String, usize>,
}

/// Runs up to `steps` random enabled actions; stops early after
/// `max_quiescent` consecutive polls with nothing enabled.
pub fn run_random(
    cluster: &mut Cluster,
    steps: usize,
    seed: u64,
    max_quiescent: usize,
) -> Result<RandomRunStats, ClusterError> {
    let mut rng = XorShift::new(seed);
    let mut stats = RandomRunStats::default();
    let mut quiescent = 0usize;
    for _ in 0..steps {
        let offers: Vec<(NodeId, ActionInstance)> = cluster.offers()?;
        if offers.is_empty() {
            stats.quiescent_polls += 1;
            quiescent += 1;
            if quiescent >= max_quiescent {
                break;
            }
            continue;
        }
        quiescent = 0;
        let (node, action) = offers[rng.pick(offers.len())].clone();
        cluster.execute(node, &action)?;
        *stats.action_counts.entry(action.name).or_insert(0) += 1;
        stats.executed += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Backend, NodeApp, NodeFactory};
    use crate::registry::{Shadow, VarRegistry};
    use mocket_core::sut::MsgEvent;
    use std::sync::Arc;

    struct StepApp {
        registry: Arc<VarRegistry>,
        n: Shadow<i64>,
    }

    impl NodeApp for StepApp {
        fn enabled(&mut self) -> Vec<ActionInstance> {
            if *self.n.get() < 5 {
                vec![ActionInstance::nullary("a"), ActionInstance::nullary("b")]
            } else {
                vec![]
            }
        }
        fn execute(&mut self, _action: &ActionInstance) -> Vec<MsgEvent> {
            self.n.update(|v| v + 1);
            vec![]
        }
        fn registry(&self) -> Arc<VarRegistry> {
            self.registry.clone()
        }
    }

    #[test]
    fn random_run_executes_until_quiescent() {
        let factory: NodeFactory = Box::new(|_| {
            let registry = VarRegistry::new();
            let n = Shadow::new("n", 0i64, registry.clone());
            Box::new(StepApp { registry, n }) as Box<dyn NodeApp>
        });
        let mut cluster = Cluster::new(factory, Backend::Threads);
        cluster.start(&[1]);
        let stats = run_random(&mut cluster, 100, 7, 2).unwrap();
        assert_eq!(stats.executed, 5);
        assert!(stats.quiescent_polls >= 1);
        let total: usize = stats.action_counts.values().sum();
        assert_eq!(total, 5);
        cluster.shutdown();
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
