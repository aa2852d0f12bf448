//! The concrete bug scenarios of the paper's Figures 8 and 9,
//! replayed step by step against AsyncRaft.
//!
//! Figure 8: a node restart cancels a vote, letting two candidates
//! collect the same voter in one term. Figure 9: a NoOp-discounting
//! vote check lets a stale-log candidate win an election it must
//! lose. The assertions check the *safety violation itself* in the
//! implementation, complementing the conformance tests that check
//! Mocket's verdicts.

use mocket::core::sut::SystemUnderTest;
use mocket::core::Offer;
use mocket::runtime::Backend;
use mocket::targets::by_name;
use mocket::tla::{ActionInstance, Value};

/// A free-running AsyncRaft cluster with the catalogue's `bug` switch.
fn xraft_cluster(bug: Option<&str>, servers: Vec<u64>) -> Box<dyn SystemUnderTest> {
    by_name("xraft", bug)
        .unwrap()
        .sut_on(servers, Backend::Threads, None)
}

fn offer(node: u64, name: &str, params: Vec<Value>) -> Offer {
    Offer {
        node,
        action: ActionInstance::new(name, params),
    }
}

/// Runs `name(params)` on `node`, panicking if it is not offered.
fn step(sut: &mut dyn SystemUnderTest, node: u64, name: &str, params: Vec<Value>) {
    let o = offer(node, name, params);
    let offers = sut.offers().expect("offers");
    assert!(
        offers.contains(&o),
        "expected {o} to be offered; offered: {offers:?}"
    );
    sut.execute(&o).expect("execute");
}

/// Handles the first inbox-borne offer with the given hook on `node`.
fn handle_first(sut: &mut dyn SystemUnderTest, node: u64, hook: &str) {
    let offers = sut.offers().expect("offers");
    let o = offers
        .iter()
        .find(|o| o.node == node && o.action.name == hook)
        .unwrap_or_else(|| panic!("{hook} not offered on node {node}: {offers:?}"))
        .clone();
    sut.execute(&o).expect("execute");
}

fn var_of(sut: &mut dyn SystemUnderTest, var: &str, node: u64) -> Value {
    let snap = sut.snapshot().expect("snapshot");
    snap.get(var)
        .unwrap_or_else(|| panic!("{var} not in snapshot"))
        .expect_apply(&Value::Int(node as i64))
        .clone()
}

#[test]
fn figure8_restart_cancels_a_vote() {
    // votedFor is never persisted: after a restart the voter forgets
    // its vote and grants the same term to a second candidate.
    let mut sut = xraft_cluster(Some("voted-for-not-persisted"), vec![1, 2, 3]);
    sut.deploy().expect("deploy");

    // Node 1 and node 3 become rival candidates of the same term.
    step(sut.as_mut(), 1, "onElectionTimeout", vec![Value::Int(1)]);
    step(sut.as_mut(), 3, "onElectionTimeout", vec![Value::Int(3)]);

    // Node 2 grants node 1.
    step(
        sut.as_mut(),
        1,
        "doRequestVote",
        vec![Value::Int(1), Value::Int(2)],
    );
    handle_first(sut.as_mut(), 2, "onRequestVoteRpc");
    assert_eq!(var_of(sut.as_mut(), "votedFor", 2), Value::Int(1));

    // Node 2 restarts — its vote evaporates (the bug).
    sut.execute_external(&ActionInstance::new("Restart", vec![Value::Int(2)]))
        .expect("restart");
    assert_eq!(
        var_of(sut.as_mut(), "votedFor", 2),
        Value::Nil,
        "the vote was forgotten"
    );

    // Node 3 now collects the same voter in the same term.
    step(
        sut.as_mut(),
        3,
        "doRequestVote",
        vec![Value::Int(3), Value::Int(2)],
    );
    handle_first(sut.as_mut(), 2, "onRequestVoteRpc");
    assert_eq!(
        var_of(sut.as_mut(), "votedFor", 2),
        Value::Int(3),
        "node 2 voted twice in one term — the Figure 8 violation"
    );
    sut.teardown();
}

#[test]
fn figure9_noop_discounting_elects_stale_candidate() {
    // Node 1 is an elected leader whose log holds a NoOp entry; node 2
    // never received it. With the NoOp-discounting check, node 1
    // wrongly grants the *empty-logged* node 2 a vote, electing a
    // leader whose log misses an entry a correct election protects.
    let mut sut = xraft_cluster(Some("noop-log-grant"), vec![1, 2]);
    sut.deploy().expect("deploy");

    // Elect node 1 at term 2; it appends its NoOp, never replicated.
    step(sut.as_mut(), 1, "onElectionTimeout", vec![Value::Int(1)]);
    step(
        sut.as_mut(),
        1,
        "doRequestVote",
        vec![Value::Int(1), Value::Int(2)],
    );
    handle_first(sut.as_mut(), 2, "onRequestVoteRpc");
    handle_first(sut.as_mut(), 1, "onRequestVoteResult");
    step(sut.as_mut(), 1, "becomeLeader", vec![Value::Int(1)]);
    assert_eq!(
        var_of(sut.as_mut(), "log", 1).len(),
        1,
        "the NoOp is in node 1's log"
    );
    assert!(var_of(sut.as_mut(), "log", 2).is_empty());

    // Node 2 runs for term 3 with an empty log.
    step(sut.as_mut(), 2, "onElectionTimeout", vec![Value::Int(2)]);
    step(
        sut.as_mut(),
        2,
        "doRequestVote",
        vec![Value::Int(2), Value::Int(1)],
    );
    // Node 1 must refuse (its log is longer) — the buggy check
    // discounts the NoOp and grants.
    handle_first(sut.as_mut(), 1, "onRequestVoteRpc");
    handle_first(sut.as_mut(), 2, "onRequestVoteResult");
    let offers = sut.offers().expect("offers");
    assert!(
        offers.contains(&offer(2, "becomeLeader", vec![Value::Int(2)])),
        "the stale candidate reached quorum — the Figure 9 violation"
    );
    step(sut.as_mut(), 2, "becomeLeader", vec![Value::Int(2)]);
    assert_eq!(
        var_of(sut.as_mut(), "state", 2),
        Value::str("STATE_LEADER"),
        "node 2 leads despite the stale log"
    );
    sut.teardown();
}

#[test]
fn conformant_voter_refuses_the_figure9_vote() {
    // The same schedule with the bug off: node 1 keeps its vote.
    let mut sut = xraft_cluster(None, vec![1, 2]);
    sut.deploy().expect("deploy");
    step(sut.as_mut(), 1, "onElectionTimeout", vec![Value::Int(1)]);
    step(
        sut.as_mut(),
        1,
        "doRequestVote",
        vec![Value::Int(1), Value::Int(2)],
    );
    handle_first(sut.as_mut(), 2, "onRequestVoteRpc");
    handle_first(sut.as_mut(), 1, "onRequestVoteResult");
    step(sut.as_mut(), 1, "becomeLeader", vec![Value::Int(1)]);
    step(sut.as_mut(), 2, "onElectionTimeout", vec![Value::Int(2)]);
    step(
        sut.as_mut(),
        2,
        "doRequestVote",
        vec![Value::Int(2), Value::Int(1)],
    );
    handle_first(sut.as_mut(), 1, "onRequestVoteRpc");
    // No grant was sent: node 2 never reaches quorum.
    let offers = sut.offers().expect("offers");
    assert!(
        !offers
            .iter()
            .any(|o| o.node == 2 && o.action.name == "becomeLeader"),
        "a conformant voter refuses the stale candidate"
    );
    sut.teardown();
}
