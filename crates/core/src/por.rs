//! Partial-order reduction (§4.2.2).
//!
//! Two actions `a1`, `a2` enabled in the same state `s0` are
//! *commutative* when both schedule orders reach the same state:
//! `s0 -a1-> s1 -a2-> s3` and `s0 -a2-> s2 -a1-> s3`. Testing both
//! orders is redundant, so one order is chosen and the other's edges
//! are removed from the traversal's coverage targets. Excluded edges
//! stay in the graph — only their status as coverage targets changes,
//! exactly as the paper describes.

use std::collections::HashSet;

use mocket_checker::{EdgeId, NodeId, StateGraph};

/// A detected commutative diamond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diamond {
    /// The shared source state.
    pub source: NodeId,
    /// The shared target state.
    pub target: NodeId,
    /// The kept order: `first_kept` then its continuation.
    pub kept: (EdgeId, EdgeId),
    /// The dropped order (its edges leave the coverage target set).
    pub dropped: (EdgeId, EdgeId),
}

/// Result of the reduction analysis.
#[derive(Debug, Clone, Default)]
pub struct PorResult {
    /// All diamonds found.
    pub diamonds: Vec<Diamond>,
    /// Edges excluded from coverage. An edge is only excluded when
    /// *every* diamond it participates in drops it, and never when a
    /// kept order needs it.
    pub excluded_edges: HashSet<EdgeId>,
}

/// Analyzes the graph for commutative diamonds and chooses one order
/// per diamond.
///
/// The choice is deterministic: the order whose first action instance
/// is smaller (by the total order on [`mocket_tla::ActionInstance`])
/// is kept. The paper chooses randomly; determinism makes runs
/// reproducible without changing which schedules are considered
/// redundant.
pub fn partial_order_reduction(graph: &StateGraph) -> PorResult {
    let mut diamonds = Vec::new();
    let mut dropped: HashSet<EdgeId> = HashSet::new();
    let mut kept: HashSet<EdgeId> = HashSet::new();

    for (node, _) in graph.states() {
        let out = graph.out_edges(node);
        for (i, &e1) in out.iter().enumerate() {
            for &e2 in &out[i + 1..] {
                let edge1 = graph.edge(e1);
                let edge2 = graph.edge(e2);
                if edge1.action == edge2.action {
                    continue;
                }
                // Find continuation edges closing the diamond:
                // e1.to -edge2.action-> t and e2.to -edge1.action-> t.
                let cont1 = graph
                    .out_edges(edge1.to)
                    .iter()
                    .copied()
                    .find(|&c| graph.edge(c).action == edge2.action);
                let cont2 = graph
                    .out_edges(edge2.to)
                    .iter()
                    .copied()
                    .find(|&c| graph.edge(c).action == edge1.action);
                if let (Some(c1), Some(c2)) = (cont1, cont2) {
                    if graph.edge(c1).to == graph.edge(c2).to
                        && is_genuine_diamond(node, edge1.to, edge2.to, graph.edge(c1).to)
                    {
                        // Commutative: keep the order starting with
                        // the smaller action instance.
                        let (keep_first, keep_cont, drop_first, drop_cont) =
                            if edge1.action <= edge2.action {
                                (e1, c1, e2, c2)
                            } else {
                                (e2, c2, e1, c1)
                            };
                        diamonds.push(Diamond {
                            source: node,
                            target: graph.edge(c1).to,
                            kept: (keep_first, keep_cont),
                            dropped: (drop_first, drop_cont),
                        });
                        kept.insert(keep_first);
                        kept.insert(keep_cont);
                        dropped.insert(drop_first);
                        dropped.insert(drop_cont);
                    }
                }
            }
        }
    }

    // Never exclude an edge some kept order needs.
    let excluded_edges: HashSet<EdgeId> = dropped.difference(&kept).copied().collect();
    PorResult {
        diamonds,
        excluded_edges,
    }
}

/// A genuine commutative diamond reorders the *same two events*: the
/// source and the two intermediates are distinct, and neither closing
/// edge is a self-loop.
///
/// Self-loops fake the closing condition: with `s1 -b-> s1`, the pair
/// `s0 -a-> s1` / `s0 -b-> s2 -a-> s1` matches on final state without
/// reordering the same two events, and dropping the "redundant" order
/// would exclude the only coverage path through `s2`. The same holds
/// when a first edge loops on the source or both intermediates
/// coincide. A target equal to the *source* is fine, though: that is a
/// real commuting cycle (e.g. `Inc`/`Dec` around a counter) where both
/// orders schedule the same pair of actions.
fn is_genuine_diamond(source: NodeId, mid1: NodeId, mid2: NodeId, target: NodeId) -> bool {
    mid1 != mid2 && mid1 != source && mid2 != source && target != mid1 && target != mid2
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::{ActionInstance, State, Value};

    fn st(n: i64) -> State {
        State::from_pairs([("n", Value::Int(n))])
    }

    /// 0 -a-> 1 -b-> 3 and 0 -b-> 2 -a-> 3: a perfect diamond.
    fn diamond_graph() -> (StateGraph, Vec<NodeId>) {
        let mut g = StateGraph::new();
        let n: Vec<_> = (0..4).map(|i| g.insert_state(st(i)).0).collect();
        g.mark_initial(n[0]);
        g.add_edge(n[0], ActionInstance::nullary("a"), n[1]);
        g.add_edge(n[0], ActionInstance::nullary("b"), n[2]);
        g.add_edge(n[1], ActionInstance::nullary("b"), n[3]);
        g.add_edge(n[2], ActionInstance::nullary("a"), n[3]);
        (g, n)
    }

    #[test]
    fn detects_diamond_and_excludes_one_order() {
        let (g, n) = diamond_graph();
        let r = partial_order_reduction(&g);
        assert_eq!(r.diamonds.len(), 1);
        let d = &r.diamonds[0];
        assert_eq!(d.source, n[0]);
        assert_eq!(d.target, n[3]);
        // "a" < "b", so the a-then-b order is kept: excluded edges are
        // 0 -b-> 2 and 2 -a-> 3.
        assert_eq!(r.excluded_edges.len(), 2);
        for e in &r.excluded_edges {
            let edge = g.edge(*e);
            assert!(
                (edge.from == n[0] && edge.action.name == "b")
                    || (edge.from == n[2] && edge.action.name == "a")
            );
        }
    }

    #[test]
    fn non_commuting_actions_are_untouched() {
        // 0 -a-> 1 -b-> 3, 0 -b-> 2 -a-> 4 (different targets).
        let mut g = StateGraph::new();
        let n: Vec<_> = (0..5).map(|i| g.insert_state(st(i)).0).collect();
        g.mark_initial(n[0]);
        g.add_edge(n[0], ActionInstance::nullary("a"), n[1]);
        g.add_edge(n[0], ActionInstance::nullary("b"), n[2]);
        g.add_edge(n[1], ActionInstance::nullary("b"), n[3]);
        g.add_edge(n[2], ActionInstance::nullary("a"), n[4]);
        let r = partial_order_reduction(&g);
        assert!(r.diamonds.is_empty());
        assert!(r.excluded_edges.is_empty());
    }

    #[test]
    fn same_action_different_params_commute() {
        // Request(1) and Request(2) from two clients commuting.
        let a1 = ActionInstance::new("Req", vec![Value::Int(1)]);
        let a2 = ActionInstance::new("Req", vec![Value::Int(2)]);
        let mut g = StateGraph::new();
        let n: Vec<_> = (0..4).map(|i| g.insert_state(st(i)).0).collect();
        g.mark_initial(n[0]);
        g.add_edge(n[0], a1.clone(), n[1]);
        g.add_edge(n[0], a2.clone(), n[2]);
        g.add_edge(n[1], a2, n[3]);
        g.add_edge(n[2], a1, n[3]);
        let r = partial_order_reduction(&g);
        assert_eq!(r.diamonds.len(), 1);
    }

    #[test]
    fn kept_edges_survive_overlapping_diamonds() {
        // Two diamonds sharing the kept continuation edge: an edge
        // dropped by one diamond but kept by another must NOT be
        // excluded.
        let (g, _) = diamond_graph();
        let r = partial_order_reduction(&g);
        for d in &r.diamonds {
            assert!(!r.excluded_edges.contains(&d.kept.0));
            assert!(!r.excluded_edges.contains(&d.kept.1));
        }
    }

    #[test]
    fn self_loop_pseudo_diamond_is_rejected() {
        // Counterexample: 0 -a-> 1, 0 -b-> 2, 1 -b-> 1 (self-loop),
        // 2 -a-> 1. Both "orders" end in state 1, but the self-loop is
        // b applied *at state 1*, not a reordering of the b that moves
        // 0 to 2. Treating this as a diamond dropped 0 -b-> 2 and
        // 2 -a-> 1 — the only coverage path through state 2.
        let mut g = StateGraph::new();
        let n: Vec<_> = (0..3).map(|i| g.insert_state(st(i)).0).collect();
        g.mark_initial(n[0]);
        g.add_edge(n[0], ActionInstance::nullary("a"), n[1]);
        let to_two = g.add_edge(n[0], ActionInstance::nullary("b"), n[2]);
        g.add_edge(n[1], ActionInstance::nullary("b"), n[1]);
        let from_two = g.add_edge(n[2], ActionInstance::nullary("a"), n[1]);
        let r = partial_order_reduction(&g);
        assert!(r.diamonds.is_empty(), "self-loop shape is not a diamond");
        assert!(r.excluded_edges.is_empty());
        // Edge coverage must still reach state 2 after reduction.
        let config =
            crate::traversal::TraversalConfig::default().with_excluded_edges(r.excluded_edges);
        let t = crate::traversal::edge_coverage_paths(&g, &config);
        let covered: HashSet<EdgeId> = t.paths.iter().flatten().copied().collect();
        assert!(covered.contains(&to_two), "path into state 2 lost");
        assert!(covered.contains(&from_two), "path out of state 2 lost");
    }

    #[test]
    fn reduction_composes_with_traversal() {
        let (g, _) = diamond_graph();
        let r = partial_order_reduction(&g);
        let config =
            crate::traversal::TraversalConfig::default().with_excluded_edges(r.excluded_edges);
        let t = crate::traversal::edge_coverage_paths(&g, &config);
        // Only the kept order remains: a single path a;b.
        assert_eq!(t.paths.len(), 1);
        let names: Vec<_> = t.paths[0]
            .iter()
            .map(|&e| g.edge(e).action.name.clone())
            .collect();
        assert_eq!(names, ["a", "b"]);
    }
}
