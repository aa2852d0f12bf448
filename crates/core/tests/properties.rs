//! Randomized (seed-driven) tests for traversal, partial-order
//! reduction and test-case handling over randomly generated state
//! graphs, driven by a local deterministic xorshift generator.

use mocket_checker::StateGraph;
use mocket_core::{
    edge_coverage_paths, node_coverage_paths, partial_order_reduction, random_walk_paths, TestCase,
    TraversalConfig,
};
use mocket_tla::{ActionInstance, State, Value};

/// Deterministic xorshift64 generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() as usize) % n
    }
}

/// A random connected-ish graph: `n` nodes, edges from each node to
/// random targets with random action labels; node 0 is initial.
fn arb_graph(rng: &mut Rng) -> StateGraph {
    let n = 2 + rng.pick(18);
    let edge_count = 1 + rng.pick(59);
    let mut g = StateGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            g.insert_state(State::from_pairs([("n", Value::Int(i as i64))]))
                .0
        })
        .collect();
    g.mark_initial(ids[0]);
    for _ in 0..edge_count {
        let f = ids[rng.pick(n)];
        let t = ids[rng.pick(n)];
        let label = rng.pick(5);
        g.add_edge(f, ActionInstance::new(format!("a{label}"), vec![]), t);
    }
    g
}

/// Edges reachable from the initial states (the coverage upper bound).
fn reachable_edges(g: &StateGraph) -> usize {
    let reach = g.reachable();
    g.edges().iter().filter(|e| reach[e.from.0]).count()
}

const CASES: u64 = 120;

#[test]
fn edge_coverage_is_complete_on_reachable_edges() {
    for seed in 1..=CASES {
        let g = arb_graph(&mut Rng::new(seed));
        let r = edge_coverage_paths(&g, &TraversalConfig::default());
        // Without end states or exclusions, the DFS must walk every
        // edge reachable from the initial state exactly once.
        assert_eq!(r.edges_visited, reachable_edges(&g), "seed {seed}");
        let mut walked = std::collections::HashSet::new();
        for p in &r.paths {
            for e in p {
                walked.insert(*e);
            }
        }
        assert_eq!(walked.len(), r.edges_visited, "seed {seed}");
    }
}

#[test]
fn every_generated_path_is_walkable_from_an_initial_state() {
    for seed in 1..=CASES {
        let g = arb_graph(&mut Rng::new(seed.wrapping_mul(31)));
        let r = edge_coverage_paths(&g, &TraversalConfig::default());
        for p in &r.paths {
            let first = g.edge(p[0]);
            assert!(g.initial_states().contains(&first.from), "seed {seed}");
            for w in p.windows(2) {
                assert_eq!(g.edge(w[0]).to, g.edge(w[1]).from, "seed {seed}");
            }
        }
    }
}

#[test]
fn test_cases_from_paths_validate_and_roundtrip() {
    for seed in 1..=CASES {
        let g = arb_graph(&mut Rng::new(seed.wrapping_mul(17)));
        let r = edge_coverage_paths(&g, &TraversalConfig::default());
        for p in r.paths.iter().take(10) {
            let tc = TestCase::from_edge_path(&g, p).expect("traversal paths are non-empty");
            assert!(tc.validate_against(&g).is_ok(), "seed {seed}");
            let back = TestCase::deserialize(&tc.serialize()).unwrap();
            assert_eq!(back, tc, "seed {seed}");
        }
    }
}

#[test]
fn por_exclusions_are_sound() {
    for seed in 1..=CASES {
        let g = arb_graph(&mut Rng::new(seed.wrapping_mul(101)));
        let por = partial_order_reduction(&g);
        // 1. Kept orders are never excluded.
        for d in &por.diamonds {
            assert!(!por.excluded_edges.contains(&d.kept.0), "seed {seed}");
            assert!(!por.excluded_edges.contains(&d.kept.1), "seed {seed}");
        }
        // 2. Each diamond's dropped order schedules exactly the same
        //    two actions as its kept order (that is what makes the
        //    order redundant).
        for d in &por.diamonds {
            let kept: std::collections::BTreeSet<_> = [
                g.edge(d.kept.0).action.name.clone(),
                g.edge(d.kept.1).action.name.clone(),
            ]
            .into();
            let dropped: std::collections::BTreeSet<_> = [
                g.edge(d.dropped.0).action.name.clone(),
                g.edge(d.dropped.1).action.name.clone(),
            ]
            .into();
            assert_eq!(kept, dropped, "seed {seed}");
            // Both orders reconverge.
            assert_eq!(g.edge(d.kept.1).to, d.target, "seed {seed}");
            assert_eq!(g.edge(d.dropped.1).to, d.target, "seed {seed}");
        }
        // 3. Excluded edges all come from some diamond's dropped
        //    order. (Reachability of *other* labels behind a dropped
        //    bridge edge is NOT guaranteed — the §7.2 limitation; the
        //    pipeline tests exercise that trade-off directly.)
        for e in &por.excluded_edges {
            assert!(
                por.diamonds
                    .iter()
                    .any(|d| d.dropped.0 == *e || d.dropped.1 == *e),
                "seed {seed}"
            );
        }
        let full = edge_coverage_paths(&g, &TraversalConfig::default());
        let reduced = edge_coverage_paths(
            &g,
            &TraversalConfig::default().with_excluded_edges(por.excluded_edges.clone()),
        );
        assert!(reduced.edges_visited <= full.edges_visited, "seed {seed}");
    }
}

#[test]
fn node_coverage_visits_no_more_edges_than_edge_coverage() {
    for seed in 1..=CASES {
        let g = arb_graph(&mut Rng::new(seed.wrapping_mul(7)));
        let ec = edge_coverage_paths(&g, &TraversalConfig::default());
        let nc = node_coverage_paths(&g, &TraversalConfig::default());
        assert!(nc.edges_visited <= ec.edges_visited, "seed {seed}");
    }
}

#[test]
fn random_walks_never_exceed_bounds() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed.wrapping_mul(13));
        let g = arb_graph(&mut rng);
        let walk_seed = 1 + rng.next_u64() % 1000;
        let r = random_walk_paths(&g, 20, 7, walk_seed);
        assert!(r.paths.len() <= 20, "seed {seed}");
        for p in &r.paths {
            assert!(p.len() <= 7, "seed {seed}");
            let first = g.edge(p[0]);
            assert!(g.initial_states().contains(&first.from), "seed {seed}");
        }
        assert!(r.edges_visited <= g.edge_count(), "seed {seed}");
    }
}

#[test]
fn max_path_len_is_respected() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed.wrapping_mul(43));
        let g = arb_graph(&mut rng);
        let cap = 1 + rng.pick(5);
        let mut cfg = TraversalConfig::default();
        cfg.max_path_len = cap;
        let r = edge_coverage_paths(&g, &cfg);
        for p in &r.paths {
            assert!(p.len() <= cap, "seed {seed}");
        }
    }
}
