//! The state-space graph.
//!
//! The model checker's output — and Mocket's central input — is a
//! directed graph whose nodes are verified states and whose edges are
//! action instances (Figure 2 of the paper). Edges carry stable ids so
//! the edge-coverage traversal and partial-order reduction can mark
//! them individually.
//!
//! Three representation choices keep large graphs cheap:
//!
//! * The graph stores [`State`]s and nothing of its own per value: a
//!   state is a pointer to its model's shared schema plus one small
//!   slice of pointers into `mocket-tla`'s process-wide value pool, so
//!   a distinct variable value exists once however many nodes — of
//!   this graph, of its DOT re-import, of test cases cut from either —
//!   bind it (see `mocket_tla::state`). Node equality during dedup is
//!   a pointer comparison per variable until the first difference.
//! * The fingerprint dedup index is one plain map. Insertion takes
//!   `&mut StateGraph` and a probe takes `&StateGraph`, so the parallel
//!   explorer's workers, which share the graph during a wave, probe it
//!   freely, and the borrow checker keeps the merge — the only writer —
//!   out until the wave is over.
//! * Out-adjacency starts as per-node vectors while the graph is being
//!   built and is compacted into CSR form (offsets + one flat edge
//!   array) by [`StateGraph::finish`] — traversal and partial-order
//!   reduction iterate out-edges constantly, and the CSR form is one
//!   allocation instead of one per node.

use std::collections::HashMap;

use mocket_tla::{ActionInstance, State};

/// Index of a state in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of an edge in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// A transition: `from --action--> to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source state.
    pub from: NodeId,
    /// The action instance labeling the transition.
    pub action: ActionInstance,
    /// Destination state.
    pub to: NodeId,
}

/// Ids of the states sharing one fingerprint. Almost every fingerprint
/// maps to exactly one state, so the single-id case stays inline and
/// allocation-free; genuine 64-bit collisions spill into a vector.
#[derive(Debug, Clone)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn ids(&self) -> &[u32] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, id]),
            Bucket::Many(ids) => ids.push(id),
        }
    }
}

/// Out-adjacency: growable while the graph is under construction,
/// compacted to CSR by [`StateGraph::finish`].
#[derive(Debug, Clone)]
enum OutAdjacency {
    Building(Vec<Vec<EdgeId>>),
    Csr { offsets: Vec<u32>, list: Vec<EdgeId> },
}

impl OutAdjacency {
    fn out_edges(&self, id: usize) -> &[EdgeId] {
        match self {
            OutAdjacency::Building(per_node) => &per_node[id],
            OutAdjacency::Csr { offsets, list } => {
                &list[offsets[id] as usize..offsets[id + 1] as usize]
            }
        }
    }
}

/// A state-space graph with fingerprint-deduplicated states.
#[derive(Debug, Clone, Default)]
pub struct StateGraph {
    states: Vec<State>,
    /// Fingerprint → ids of the states that hash to it.
    index: HashMap<u64, Bucket>,
    edges: Vec<Edge>,
    out: OutAdjacency,
    initial: Vec<NodeId>,
}

impl Default for OutAdjacency {
    fn default() -> Self {
        OutAdjacency::Building(Vec::new())
    }
}

impl StateGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        StateGraph::default()
    }

    /// Number of distinct states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The initial states (in insertion order).
    pub fn initial_states(&self) -> &[NodeId] {
        &self.initial
    }

    /// The state stored at `id`.
    pub fn state(&self, id: NodeId) -> &State {
        &self.states[id.0]
    }

    /// The edge stored at `id`.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Out-edges of `id`, in insertion order.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        self.out.out_edges(id.0)
    }

    /// The action instances enabled at `id` according to the graph.
    pub fn enabled_at(&self, id: NodeId) -> Vec<&ActionInstance> {
        self.out_edges(id)
            .iter()
            .map(|e| &self.edges[e.0].action)
            .collect()
    }

    /// Iterates over `(NodeId, &State)`.
    pub fn states(&self) -> impl Iterator<Item = (NodeId, &State)> {
        self.states.iter().enumerate().map(|(i, s)| (NodeId(i), s))
    }

    /// Inserts `state` if new, returning its id and whether it was new.
    pub fn insert_state(&mut self, state: State) -> (NodeId, bool) {
        let fp = state.fingerprint();
        self.insert_with_fingerprint(state, fp)
    }

    /// [`StateGraph::insert_state`] with a caller-supplied fingerprint
    /// (the parallel explorer's workers hash successors off-thread).
    pub(crate) fn insert_with_fingerprint(&mut self, state: State, fp: u64) -> (NodeId, bool) {
        if let Some(id) = self.resolve(fp, &state) {
            return (id, false);
        }
        let id = self.states.len();
        assert!(id <= u32::MAX as usize, "state space exceeds u32 ids");
        self.index
            .entry(fp)
            .and_modify(|bucket| bucket.push(id as u32))
            .or_insert(Bucket::One(id as u32));
        self.states.push(state);
        if let OutAdjacency::Building(per_node) = &mut self.out {
            per_node.push(Vec::new());
        } else {
            // A finished graph being grown again: reopen it.
            self.reopen();
            if let OutAdjacency::Building(per_node) = &mut self.out {
                per_node.push(Vec::new());
            }
        }
        (NodeId(id), true)
    }

    /// Resolves `state` (with fingerprint `fp`) to its node id, if the
    /// graph already holds it. Fingerprints collide with vanishing
    /// probability, but when they do the colliding states are
    /// distinct: each candidate is compared by full state equality.
    pub(crate) fn resolve(&self, fp: u64, state: &State) -> Option<NodeId> {
        self.index
            .get(&fp)?
            .ids()
            .iter()
            .copied()
            .find(|&i| &self.states[i as usize] == state)
            .map(|i| NodeId(i as usize))
    }

    /// Looks up a state without inserting it.
    pub fn find_state(&self, state: &State) -> Option<NodeId> {
        self.resolve(state.fingerprint(), state)
    }

    /// Marks `id` as an initial state.
    pub fn mark_initial(&mut self, id: NodeId) {
        if !self.initial.contains(&id) {
            self.initial.push(id);
        }
    }

    /// Adds an edge; duplicate `(from, action, to)` triples are merged.
    pub fn add_edge(&mut self, from: NodeId, action: ActionInstance, to: NodeId) -> EdgeId {
        for &eid in self.out.out_edges(from.0) {
            let e = &self.edges[eid.0];
            if e.to == to && e.action == action {
                return eid;
            }
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { from, action, to });
        if matches!(self.out, OutAdjacency::Csr { .. }) {
            self.reopen();
        }
        if let OutAdjacency::Building(per_node) = &mut self.out {
            per_node[from.0].push(id);
        }
        id
    }

    /// Compacts the graph after construction: converts out-adjacency
    /// to CSR form and releases spare capacity in state and edge
    /// storage. Idempotent; the explorer calls it once exploration is
    /// complete, and further mutation transparently reopens the graph.
    pub fn finish(&mut self) {
        if let OutAdjacency::Building(per_node) = &self.out {
            let total: usize = per_node.iter().map(Vec::len).sum();
            assert!(total <= u32::MAX as usize, "edge count exceeds u32 offsets");
            let mut offsets = Vec::with_capacity(per_node.len() + 1);
            let mut list = Vec::with_capacity(total);
            offsets.push(0u32);
            for node_edges in per_node {
                list.extend_from_slice(node_edges);
                offsets.push(list.len() as u32);
            }
            self.out = OutAdjacency::Csr { offsets, list };
        }
        self.states.shrink_to_fit();
        self.edges.shrink_to_fit();
        self.initial.shrink_to_fit();
        for bucket in self.index.values_mut() {
            if let Bucket::Many(ids) = bucket {
                ids.shrink_to_fit();
            }
        }
        self.index.shrink_to_fit();
    }

    /// Rebuilds the growable adjacency from CSR form.
    fn reopen(&mut self) {
        if let OutAdjacency::Csr { offsets, list } = &self.out {
            let mut per_node: Vec<Vec<EdgeId>> = Vec::with_capacity(self.states.len());
            for w in offsets.windows(2) {
                per_node.push(list[w[0] as usize..w[1] as usize].to_vec());
            }
            self.out = OutAdjacency::Building(per_node);
        }
    }

    /// Nodes reachable from the initial states.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.states.len()];
        let mut stack: Vec<usize> = self.initial.iter().map(|n| n.0).collect();
        for &s in &stack {
            seen[s] = true;
        }
        while let Some(n) = stack.pop() {
            for &eid in self.out.out_edges(n) {
                let t = self.edges[eid.0].to.0;
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::Value;

    fn st(n: i64) -> State {
        State::from_pairs([("n", Value::Int(n))])
    }

    fn act(name: &str) -> ActionInstance {
        ActionInstance::nullary(name)
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = StateGraph::new();
        let (a, new_a) = g.insert_state(st(1));
        let (b, new_b) = g.insert_state(st(1));
        assert!(new_a && !new_b);
        assert_eq!(a, b);
        assert_eq!(g.state_count(), 1);
    }

    #[test]
    fn fingerprint_collisions_keep_distinct_states() {
        // Force two distinct states onto one fingerprint: the bucket
        // must keep both and resolve them by full state equality.
        let mut g = StateGraph::new();
        let (a, new_a) = g.insert_with_fingerprint(st(1), 0xdead_beef);
        let (b, new_b) = g.insert_with_fingerprint(st(2), 0xdead_beef);
        assert!(new_a && new_b);
        assert_ne!(a, b);
        assert_eq!(g.state_count(), 2);
        // Re-inserting either colliding state resolves to its own id.
        let (a2, new_a2) = g.insert_with_fingerprint(st(1), 0xdead_beef);
        let (b2, new_b2) = g.insert_with_fingerprint(st(2), 0xdead_beef);
        assert!(!new_a2 && !new_b2);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
        // Three-way pileup still works.
        let (c, new_c) = g.insert_with_fingerprint(st(3), 0xdead_beef);
        assert!(new_c);
        assert_eq!(g.state_count(), 3);
        assert_ne!(c, a);
        assert_ne!(c, b);
        // Resolution sees all collision candidates.
        assert_eq!(g.resolve(0xdead_beef, &st(2)), Some(b));
        assert_eq!(g.resolve(0xdead_beef, &st(9)), None);
    }

    #[test]
    fn add_edge_merges_duplicates() {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(st(1));
        let (b, _) = g.insert_state(st(2));
        let e1 = g.add_edge(a, act("Inc"), b);
        let e2 = g.add_edge(a, act("Inc"), b);
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        let e3 = g.add_edge(a, act("Jump"), b);
        assert_ne!(e1, e3);
        assert_eq!(g.out_edges(a).len(), 2);
    }

    #[test]
    fn finish_compacts_and_preserves_adjacency() {
        let mut g = StateGraph::new();
        let ids: Vec<_> = (0..4).map(|i| g.insert_state(st(i)).0).collect();
        g.mark_initial(ids[0]);
        g.add_edge(ids[0], act("A"), ids[1]);
        g.add_edge(ids[0], act("B"), ids[2]);
        g.add_edge(ids[1], act("C"), ids[3]);
        let before: Vec<Vec<EdgeId>> = ids.iter().map(|&i| g.out_edges(i).to_vec()).collect();
        g.finish();
        let after: Vec<Vec<EdgeId>> = ids.iter().map(|&i| g.out_edges(i).to_vec()).collect();
        assert_eq!(before, after);
        assert!(g.reachable().iter().all(|&r| r), "traversal works on the CSR form");
        // Finishing twice is a no-op.
        g.finish();
        assert_eq!(g.out_edges(ids[0]).len(), 2);
    }

    #[test]
    fn finished_graph_can_be_grown_again() {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(st(1));
        let (b, _) = g.insert_state(st(2));
        g.add_edge(a, act("Go"), b);
        g.finish();
        // Insert + edge after finish: the graph reopens transparently
        // (the DOT importer and tests build graphs incrementally).
        let (c, new) = g.insert_state(st(3));
        assert!(new);
        g.add_edge(b, act("On"), c);
        assert_eq!(g.out_edges(b), [EdgeId(1)]);
        assert_eq!(g.out_edges(a), [EdgeId(0)]);
    }

    #[test]
    fn reachability_follows_edges_from_initial_states() {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(st(1));
        let (b, _) = g.insert_state(st(2));
        let (c, _) = g.insert_state(st(3));
        g.mark_initial(a);
        g.add_edge(a, act("Go"), b);
        let r = g.reachable();
        assert!(r[a.0] && r[b.0] && !r[c.0]);
    }

    #[test]
    fn find_state_matches_insert() {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(st(7));
        assert_eq!(g.find_state(&st(7)), Some(a));
        assert_eq!(g.find_state(&st(8)), None);
    }
}
