//! End-to-end determinism of the parallel checker on the real
//! protocol specs.
//!
//! The parallel engine promises output byte-identical to the
//! sequential checker for any worker count. The unit tests in
//! `mocket-checker` prove it on toy specs; these tests prove it on
//! the actual Raft and ZAB models the pipeline checks, including
//! under truncation bounds.

use std::sync::Arc;

use mocket::targets::spec_named;
use mocket_checker::{to_dot, CheckResult, ModelChecker};
use mocket_tla::Spec;

fn raft_spec() -> Arc<dyn Spec> {
    spec_named("xraft").unwrap()
}

fn zab_spec() -> Arc<dyn Spec> {
    spec_named("zab").unwrap()
}

fn check(spec: Arc<dyn Spec>, workers: usize) -> CheckResult {
    ModelChecker::new(spec).workers(workers).run()
}

fn assert_identical(seq: &CheckResult, par: &CheckResult, what: &str) {
    assert_eq!(
        seq.stats.distinct_states, par.stats.distinct_states,
        "{what}: distinct state counts diverge"
    );
    assert_eq!(
        seq.stats.edges, par.stats.edges,
        "{what}: edge counts diverge"
    );
    assert_eq!(
        seq.stats.states_generated, par.stats.states_generated,
        "{what}: generated state counts diverge"
    );
    assert_eq!(
        seq.stats.depth, par.stats.depth,
        "{what}: BFS depths diverge"
    );
    assert_eq!(
        to_dot(&seq.graph),
        to_dot(&par.graph),
        "{what}: DOT exports are not byte-identical"
    );
}

#[test]
fn raft_workers4_matches_sequential() {
    let seq = check(raft_spec(), 1);
    let par = check(raft_spec(), 4);
    assert!(seq.ok() && par.ok());
    assert!(
        seq.stats.distinct_states > 1000,
        "Raft model too small to exercise parallelism: {}",
        seq.stats.distinct_states
    );
    assert_identical(&seq, &par, "Raft xraft");
}

#[test]
fn zab_workers4_matches_sequential() {
    let seq = check(zab_spec(), 1);
    let par = check(zab_spec(), 4);
    assert!(seq.ok() && par.ok());
    assert!(
        seq.stats.distinct_states > 1000,
        "ZAB model too small to exercise parallelism: {}",
        seq.stats.distinct_states
    );
    assert_identical(&seq, &par, "ZAB small");
}

#[test]
fn raft_truncated_run_matches_sequential() {
    // Truncation is the subtle case: the sequential checker stops
    // mid-frontier when `max_states` trips, and the parallel merge
    // must cut at exactly the same node.
    let seq = ModelChecker::new(raft_spec())
        .workers(1)
        .max_states(700)
        .run();
    let par = ModelChecker::new(raft_spec())
        .workers(4)
        .max_states(700)
        .run();
    assert!(seq.stats.truncated && par.stats.truncated);
    assert_identical(&seq, &par, "Raft truncated");
}

#[test]
fn zab_depth_bounded_run_matches_sequential() {
    let seq = ModelChecker::new(zab_spec()).workers(1).max_depth(8).run();
    let par = ModelChecker::new(zab_spec()).workers(4).max_depth(8).run();
    assert!(seq.stats.truncated && par.stats.truncated);
    assert_identical(&seq, &par, "ZAB depth-bounded");
}
