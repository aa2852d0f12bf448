//! State storage: one allocation per distinct variable value.
//!
//! `mocket_tla::State` hash-conses its values through a process-wide
//! pool and stores them as a dense vector over an interned schema. These
//! tests pin what that must and must not change on a real model (the
//! Xraft bench model): how much is shared, across which graphs, that
//! the pool gives everything back, and that no output byte moved.
//!
//! The pool is process-wide and tests of one binary run on parallel
//! threads, so every test here takes `POOL` first.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Mutex, MutexGuard};

use mocket_checker::{from_dot, to_dot, ModelChecker, StateGraph};
use mocket_core::{edge_coverage_paths, partial_order_reduction, TestCase, TraversalConfig};
use mocket_tla::state::sweep_value_pool;
use mocket_tla::Value;

static POOL: Mutex<()> = Mutex::new(());

fn pool() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

fn xraft(workers: usize) -> StateGraph {
    let spec = mocket::targets::spec_named("xraft").unwrap();
    let result = ModelChecker::new(spec).workers(workers).run();
    assert!(result.ok());
    result.graph
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The addresses of the value allocations the graph's states point at,
/// and the distinct values themselves.
fn allocations(graph: &StateGraph) -> (HashSet<*const Value>, BTreeSet<&Value>) {
    let mut addrs = HashSet::new();
    let mut values = BTreeSet::new();
    for (_, state) in graph.states() {
        for (_, v) in state.iter() {
            addrs.insert(v as *const Value);
            values.insert(v);
        }
    }
    (addrs, values)
}

#[test]
fn a_distinct_value_is_one_allocation_across_explored_and_imported_graphs() {
    let _pool = pool();
    let explored = xraft(1);
    let imported = from_dot(&to_dot(&explored)).unwrap();
    let (explored_addrs, explored_values) = allocations(&explored);
    let (imported_addrs, imported_values) = allocations(&imported);
    assert_eq!(explored_values, imported_values);
    assert!(
        explored_values.len() < explored.state_count(),
        "the model binds {} states to {} distinct values",
        explored.state_count(),
        explored_values.len()
    );
    assert_eq!(explored_addrs.len(), explored_values.len());
    assert_eq!(imported_addrs, explored_addrs, "the two graphs share every value");
}

/// The ECPOR suite of a graph, under perfbench's path bound.
fn ecpor_cases(graph: &StateGraph) -> Vec<TestCase> {
    let mut cfg = TraversalConfig::default()
        .with_excluded_edges(partial_order_reduction(graph).excluded_edges);
    cfg.max_path_len = 60;
    edge_coverage_paths(graph, &cfg)
        .paths
        .iter()
        .filter_map(|p| TestCase::from_edge_path(graph, p))
        .collect()
}

#[test]
fn dot_bytes_and_case_hashes_are_the_parent_commits() {
    let _pool = pool();
    let graph = xraft(1);
    let dot = to_dot(&graph);
    assert_eq!((dot.len(), fnv1a(dot.bytes())), (4_069_418, 0x34ff_fc88_1aa0_98f3), "DOT bytes");

    let graph = from_dot(&dot).unwrap();
    let hashes: Vec<String> = ecpor_cases(&graph).iter().map(TestCase::stable_hash).collect();
    assert_eq!(hashes.len(), 2760);
    assert_eq!(hashes[0], "8df53bbfc9757ffd");
    assert_eq!(hashes[2759], "d714a6fb6974a735");
    let all = fnv1a(hashes.iter().flat_map(|h| h.bytes().chain([b'\n'])));
    assert_eq!(all, 0xe5cf_a987_51dd_8a34, "FNV-1a over every ECPOR case hash");
}

/// `stable_hash` folds each state in by its values' cached jumps; this
/// is the definition it must agree with, kept only here.
#[test]
fn every_case_hash_is_fnv1a_of_its_serialized_text() {
    let _pool = pool();
    let graph = from_dot(&to_dot(&xraft(1))).unwrap();
    let cases = ecpor_cases(&graph);
    assert_eq!(cases.len(), 2760);
    for (i, case) in cases.iter().enumerate() {
        let text = case.serialize();
        assert_eq!(case.stable_hash(), format!("{:016x}", fnv1a(text.bytes())), "case {i}:\n{text}");
    }
}

#[test]
fn dropping_every_graph_returns_the_pool_to_its_baseline() {
    let _pool = pool();
    let baseline = sweep_value_pool();
    let explored = xraft(1);
    let imported = from_dot(&to_dot(&explored)).unwrap();
    let (_, values) = allocations(&explored);
    let live = values.len();
    drop(values);
    assert!(sweep_value_pool() >= baseline + live, "live values stay pooled");
    drop(explored);
    assert!(sweep_value_pool() >= baseline + live, "one graph still holds them");
    drop(imported);
    assert_eq!(sweep_value_pool(), baseline);
}

#[test]
fn two_workers_share_the_pool_and_build_the_same_graph() {
    let _pool = pool();
    let one = xraft(1);
    let two = xraft(2);
    assert_eq!(to_dot(&one), to_dot(&two));
    let (one_addrs, values) = allocations(&one);
    let (two_addrs, _) = allocations(&two);
    assert_eq!(one_addrs.len(), values.len());
    assert_eq!(one_addrs, two_addrs, "both runs intern through the one pool");
}
