//! Parallel deterministic state-space exploration.
//!
//! TLC explores in parallel over a shared fingerprint dedup table;
//! this module does the same while keeping one guarantee TLC does not
//! give: the resulting [`StateGraph`] — node numbering, edge order,
//! DOT export, statistics, even the counterexample on an invariant
//! violation — is **byte-identical to the sequential checker** for any
//! worker count and any bound configuration.
//!
//! The engine is wave-synchronized. Exploration proceeds over BFS
//! frontiers ("waves"):
//!
//! 1. **Expand** — worker threads pull contiguous frontier chunks from
//!    a shared work queue (an atomic cursor over the canonical
//!    frontier order) and compute every successor with the spec's
//!    action closures — the expensive part. Each successor is hashed
//!    once and probed against the graph's fingerprint index: states
//!    known from earlier waves resolve to their canonical id on the
//!    worker; unknown ones travel to the merge as `(state, fp)`
//!    payloads. The graph is immutably shared during a wave, so
//!    probes need no lock and never contend with a writer.
//! 2. **Merge** — the coordinator replays chunk results in canonical
//!    frontier order, replicating the sequential checker's exact
//!    decision sequence: the `max_states` bound is consulted before
//!    each node's results are consumed, depth/constraint cuts apply
//!    per node, intra-wave duplicates deduplicate through the same
//!    fingerprint index, edges append through the same
//!    duplicate-merging `add_edge`, and invariants run on each newly
//!    inserted state in discovery order — so the first violation and
//!    its shortest BFS counterexample trace match the sequential
//!    checker's exactly.
//!
//! Because ids are only ever assigned during the canonical-order
//! merge, no renumbering pass is needed: canonical (stable BFS)
//! numbering is identical to what the sequential checker produces,
//! regardless of how chunks interleaved across threads.
//!
//! Narrow waves (fewer nodes than `workers * SEQ_WAVE_FACTOR`) are
//! expanded inline on the coordinator: a two-node frontier cannot feed
//! four threads, and skipping the scoped spawn keeps tiny models as
//! fast as the purely sequential path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use mocket_tla::{successors_with, ActionDef, ActionInstance, State};

use crate::explore::{finish_obs, wave_event, CheckResult, CheckStats, ModelChecker, WorkerStats};
use crate::graph::{EdgeId, NodeId, StateGraph};

/// A frontier narrower than `workers * SEQ_WAVE_FACTOR` is expanded
/// inline instead of being fanned out to threads.
const SEQ_WAVE_FACTOR: usize = 4;

/// Upper bound on chunk size: small enough for dynamic load balancing
/// when successor costs are skewed, large enough to amortize the
/// work-queue cursor.
const MAX_CHUNK: usize = 256;

/// A successor produced by a worker, before canonical numbering.
enum SuccOut {
    /// Already in the graph (discovered in an earlier wave).
    Known(NodeId),
    /// Not in the pre-wave graph; carries the state and its
    /// fingerprint. May still turn out to be an intra-wave duplicate —
    /// the merge resolves that through the fingerprint index.
    Fresh(State, u64),
}

/// What a worker decided about one frontier node.
enum NodeOut {
    /// `depth >= max_depth`: kept but not expanded (marks truncation).
    DepthCut,
    /// The state constraint failed: kept but not expanded.
    ConstraintCut,
    /// Expanded: the successor list in spec action order.
    Expanded(Vec<(ActionInstance, SuccOut)>),
}

/// Runs the wave-synchronized parallel exploration. Only called with
/// `checker.workers >= 2`.
pub(crate) fn run(checker: ModelChecker) -> CheckResult {
    let start = checker.clock.now();
    let workers = checker.workers;
    let actions = checker.spec.actions();
    let mut graph = StateGraph::new();
    let mut stats = CheckStats::default();
    let mut per_worker = vec![WorkerStats::default(); workers];
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = Vec::new();
    let mut depth: Vec<usize> = Vec::new();
    let mut violation = None;
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut wave = 0usize;
    let mut wave_start = start;

    'outer: {
        // Initial states are processed exactly like the sequential
        // checker: in spec order, on the coordinator.
        for init in checker.spec.init_states() {
            stats.states_generated += 1;
            let (id, new) = graph.insert_state(init);
            graph.mark_initial(id);
            if new {
                parent.push(None);
                depth.push(0);
                if let Some(v) = checker.check_invariants(&graph, id, &parent) {
                    violation = Some(v);
                    break 'outer;
                }
                frontier.push(id);
            }
        }

        while !frontier.is_empty() {
            let outs = expand_wave(
                &checker,
                &actions,
                &graph,
                &frontier,
                &depth,
                workers,
                &mut per_worker,
            );

            // Merge in canonical frontier order, replicating the
            // sequential checker's decision sequence exactly.
            let mut next_frontier = Vec::new();
            for (i, out) in outs.into_iter().enumerate() {
                let node = frontier[i];
                if graph.state_count() >= checker.max_states {
                    stats.truncated = true;
                    break 'outer;
                }
                match out {
                    NodeOut::DepthCut => stats.truncated = true,
                    NodeOut::ConstraintCut => {}
                    NodeOut::Expanded(succs) => {
                        let d = depth[node.0] + 1;
                        for (action, succ) in succs {
                            stats.states_generated += 1;
                            let (id, new) = match succ {
                                SuccOut::Known(id) => (id, false),
                                SuccOut::Fresh(state, fp) => {
                                    graph.insert_with_fingerprint(state, fp)
                                }
                            };
                            let eid = graph.add_edge(node, action, id);
                            if new {
                                parent.push(Some((node, eid)));
                                depth.push(d);
                                if let Some(v) = checker.check_invariants(&graph, id, &parent) {
                                    violation = Some(v);
                                    break 'outer;
                                }
                                next_frontier.push(id);
                            }
                        }
                    }
                }
            }
            let now = checker.clock.now();
            wave_event(
                &checker.obs,
                wave,
                frontier.len(),
                &stats,
                &graph,
                now.saturating_sub(wave_start).as_secs_f64(),
            );
            wave_start = now;
            wave += 1;
            frontier = next_frontier;
        }
    }

    graph.finish();
    stats.distinct_states = graph.state_count();
    stats.edges = graph.edge_count();
    stats.depth = depth.iter().copied().max().unwrap_or(0);
    stats.elapsed = checker.clock.now().saturating_sub(start);
    stats.workers = workers;
    stats.per_worker = per_worker;
    finish_obs(&checker.obs, &stats, violation.is_some());
    CheckResult {
        graph,
        stats,
        violation,
    }
}

/// Expands one frontier wave, returning one [`NodeOut`] per frontier
/// node, in frontier order.
fn expand_wave(
    checker: &ModelChecker,
    actions: &[ActionDef],
    graph: &StateGraph,
    frontier: &[NodeId],
    depth: &[usize],
    workers: usize,
    per_worker: &mut [WorkerStats],
) -> Vec<NodeOut> {
    let expand_one = |node: NodeId, tally: &mut WorkerStats| -> NodeOut {
        if depth[node.0] >= checker.max_depth {
            return NodeOut::DepthCut;
        }
        if let Some(c) = &checker.constraint {
            if !c(graph.state(node)) {
                return NodeOut::ConstraintCut;
            }
        }
        let succ = successors_with(actions, graph.state(node));
        tally.nodes_expanded += 1;
        tally.states_generated += succ.len();
        NodeOut::Expanded(
            succ.into_iter()
                .map(|(action, next)| {
                    let fp = next.fingerprint();
                    match graph.resolve(fp, &next) {
                        Some(id) => (action, SuccOut::Known(id)),
                        None => (action, SuccOut::Fresh(next, fp)),
                    }
                })
                .collect(),
        )
    };

    if frontier.len() < workers * SEQ_WAVE_FACTOR {
        // Too narrow to feed the thread pool; expand inline.
        return frontier
            .iter()
            .map(|&n| expand_one(n, &mut per_worker[0]))
            .collect();
    }

    let chunk = (frontier.len() / (workers * SEQ_WAVE_FACTOR))
        .clamp(1, MAX_CHUNK);
    let n_chunks = frontier.len().div_ceil(chunk);
    // Each chunk is expanded by exactly one worker, so each slot is
    // set exactly once.
    let slots: Vec<OnceLock<Vec<NodeOut>>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let slots_ref = &slots;
    let cursor_ref = &cursor;
    let expand_ref = &expand_one;

    let mut wave_tallies = vec![WorkerStats::default(); workers];
    std::thread::scope(|scope| {
        for tally in &mut wave_tallies {
            scope.spawn(move || loop {
                let ci = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if ci >= n_chunks {
                    break;
                }
                let lo = ci * chunk;
                let hi = (lo + chunk).min(frontier.len());
                let outs: Vec<NodeOut> = frontier[lo..hi]
                    .iter()
                    .map(|&n| expand_ref(n, tally))
                    .collect();
                assert!(slots_ref[ci].set(outs).is_ok(), "chunk {ci} expanded twice");
            });
        }
    });
    for (agg, wave) in per_worker.iter_mut().zip(wave_tallies) {
        agg.nodes_expanded += wave.nodes_expanded;
        agg.states_generated += wave.states_generated;
    }

    slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("every chunk is expanded"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::dot::to_dot;
    use crate::invariant::Invariant;
    use mocket_tla::{ActionClass, Spec, Value, VarClass, VarDef};

    /// A two-counter spec with a wide frontier: `a` and `b` count
    /// independently, so level `d` has ~d states and the wave engine
    /// actually fans out.
    struct Grid {
        limit: i64,
    }

    impl Spec for Grid {
        fn name(&self) -> &str {
            "Grid"
        }

        fn variables(&self) -> Vec<VarDef> {
            vec![
                VarDef::new("a", VarClass::StateRelated),
                VarDef::new("b", VarClass::StateRelated),
            ]
        }

        fn init_states(&self) -> Vec<State> {
            vec![State::from_pairs([
                ("a", Value::Int(0)),
                ("b", Value::Int(0)),
            ])]
        }

        fn actions(&self) -> Vec<ActionDef> {
            let limit = self.limit;
            vec![
                ActionDef::nullary("IncA", ActionClass::SingleNode, move |s| {
                    let a = s.expect("a").expect_int();
                    (a < limit).then(|| s.with("a", Value::Int(a + 1)))
                }),
                ActionDef::nullary("IncB", ActionClass::SingleNode, move |s| {
                    let b = s.expect("b").expect_int();
                    (b < limit).then(|| s.with("b", Value::Int(b + 1)))
                }),
                ActionDef::nullary("Swap", ActionClass::SingleNode, |s| {
                    let a = s.expect("a").expect_int();
                    let b = s.expect("b").expect_int();
                    (a != b).then(|| {
                        s.with("a", Value::Int(b)).with("b", Value::Int(a))
                    })
                }),
            ]
        }
    }

    fn check(spec: Grid, workers: usize) -> CheckResult {
        ModelChecker::new(Arc::new(spec)).workers(workers).run()
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let seq = check(Grid { limit: 12 }, 1);
        let par = check(Grid { limit: 12 }, 4);
        assert_eq!(seq.stats.distinct_states, par.stats.distinct_states);
        assert_eq!(seq.stats.edges, par.stats.edges);
        assert_eq!(seq.stats.states_generated, par.stats.states_generated);
        assert_eq!(seq.stats.depth, par.stats.depth);
        assert_eq!(to_dot(&seq.graph), to_dot(&par.graph));
        assert_eq!(par.stats.workers, 4);
        assert_eq!(par.stats.per_worker.len(), 4);
        let expanded: usize = par.stats.per_worker.iter().map(|w| w.nodes_expanded).sum();
        assert_eq!(expanded, par.stats.distinct_states);
    }

    #[test]
    fn parallel_respects_max_states_identically() {
        let seq = ModelChecker::new(Arc::new(Grid { limit: 40 }))
            .workers(1)
            .max_states(500)
            .run();
        let par = ModelChecker::new(Arc::new(Grid { limit: 40 }))
            .workers(4)
            .max_states(500)
            .run();
        assert!(seq.stats.truncated && par.stats.truncated);
        assert_eq!(seq.stats.distinct_states, par.stats.distinct_states);
        assert_eq!(seq.stats.states_generated, par.stats.states_generated);
        assert_eq!(to_dot(&seq.graph), to_dot(&par.graph));
    }

    #[test]
    fn parallel_respects_max_depth_identically() {
        let seq = ModelChecker::new(Arc::new(Grid { limit: 40 }))
            .workers(1)
            .max_depth(9)
            .run();
        let par = ModelChecker::new(Arc::new(Grid { limit: 40 }))
            .workers(3)
            .max_depth(9)
            .run();
        assert!(seq.stats.truncated && par.stats.truncated);
        assert_eq!(seq.stats.depth, par.stats.depth);
        assert_eq!(to_dot(&seq.graph), to_dot(&par.graph));
    }

    #[test]
    fn parallel_constraint_matches() {
        let constrain = |s: &State| s.expect("a").expect_int() + s.expect("b").expect_int() < 14;
        let seq = ModelChecker::new(Arc::new(Grid { limit: 20 }))
            .workers(1)
            .constraint(constrain)
            .run();
        let par = ModelChecker::new(Arc::new(Grid { limit: 20 }))
            .workers(4)
            .constraint(constrain)
            .run();
        assert_eq!(to_dot(&seq.graph), to_dot(&par.graph));
    }

    #[test]
    fn parallel_violation_matches_sequential_trace() {
        let inv = || {
            Invariant::new("SumBelow", |s: &State| {
                s.expect("a").expect_int() + s.expect("b").expect_int() < 17
            })
        };
        let seq = ModelChecker::new(Arc::new(Grid { limit: 20 }))
            .workers(1)
            .invariant(inv())
            .run();
        let par = ModelChecker::new(Arc::new(Grid { limit: 20 }))
            .workers(4)
            .invariant(inv())
            .run();
        let vs = seq.violation.expect("sequential must violate");
        let vp = par.violation.expect("parallel must violate");
        assert_eq!(vs.invariant, vp.invariant);
        assert_eq!(vs.state, vp.state);
        // Same shortest counterexample, step for step.
        assert_eq!(vs.trace.len(), vp.trace.len());
        for ((sa, ss), (pa, ps)) in vs.trace.iter().zip(vp.trace.iter()) {
            assert_eq!(sa, pa);
            assert_eq!(ss, ps);
        }
        // And the partially explored graphs agree too.
        assert_eq!(to_dot(&seq.graph), to_dot(&par.graph));
    }

    #[test]
    fn event_stream_is_identical_across_worker_counts() {
        use mocket_obs::Obs;
        let run = |workers: usize, max_states: usize| {
            let (obs, rec) = Obs::in_memory();
            ModelChecker::new(Arc::new(Grid { limit: 12 }))
                .workers(workers)
                .max_states(max_states)
                .obs(obs.clone())
                .run();
            rec.to_jsonl()
        };
        // Full exploration and a mid-wave bound hit must both produce
        // byte-identical wave/done events for every worker count.
        for max_states in [usize::MAX, 60] {
            let base = run(1, max_states);
            assert!(base.contains("check.wave"));
            assert!(base.contains("check.done"));
            for workers in [2, 4] {
                assert_eq!(
                    run(workers, max_states),
                    base,
                    "workers={workers} max_states={max_states}"
                );
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let base = to_dot(&check(Grid { limit: 9 }, 1).graph);
        for workers in [2, 3, 5, 8] {
            let r = check(Grid { limit: 9 }, workers);
            assert_eq!(to_dot(&r.graph), base, "workers={workers}");
        }
    }
}
