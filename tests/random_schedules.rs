//! Randomized testing of the target systems under random schedules:
//! safety invariants must hold on the conformant implementations no
//! matter how the scheduler interleaves actions. Seeds are fixed so
//! runs are reproducible.

use mocket::core::sut::SystemUnderTest;
use mocket::runtime::{run_random, Backend, ClusterSut};
use mocket::targets::by_name;
use mocket::tla::Value;

/// A free-running three-node cluster of the conformant `target`.
fn cluster(target: &str) -> ClusterSut {
    by_name(target, None)
        .unwrap()
        .sut_on(vec![1, 2, 3], Backend::Threads, None)
}

/// At most one Raft leader per term (election safety), read from the
/// runtime snapshot.
fn raft_election_safety(snapshot: &mocket::core::Snapshot) -> Result<(), String> {
    let (Some(Value::Fun(states)), Some(Value::Fun(terms))) =
        (snapshot.get("state"), snapshot.get("currentTerm"))
    else {
        return Err("missing state/currentTerm".into());
    };
    let mut leader_terms = Vec::new();
    for (node, role) in states {
        if role == &Value::str("STATE_LEADER") {
            let term = terms[node].expect_int();
            if leader_terms.contains(&term) {
                return Err(format!("two leaders in term {term}"));
            }
            leader_terms.push(term);
        }
    }
    Ok(())
}

const SEEDS: [u64; 12] = [1, 7, 42, 97, 311, 977, 1753, 2961, 4099, 5807, 7919, 9973];

#[test]
fn asyncraft_election_safety_under_random_schedules() {
    for seed in SEEDS {
        let mut sut = cluster("xraft");
        sut.deploy().expect("deploy");
        run_random(sut.cluster_mut(), 250, seed, 5).expect("random run");
        let snapshot = sut.snapshot().expect("snapshot");
        sut.teardown();
        assert!(
            raft_election_safety(&snapshot).is_ok(),
            "seed {seed}: {:?}",
            raft_election_safety(&snapshot)
        );
    }
}

#[test]
fn asyncraft_committed_logs_agree() {
    for seed in SEEDS {
        let mut sut = cluster("xraft");
        sut.deploy().expect("deploy");
        run_random(sut.cluster_mut(), 300, seed.wrapping_mul(31), 5).expect("random run");
        let snapshot = sut.snapshot().expect("snapshot");
        sut.teardown();
        let (Some(Value::Fun(logs)), Some(Value::Fun(commits))) =
            (snapshot.get("log"), snapshot.get("commitIndex"))
        else {
            panic!("missing log/commitIndex");
        };
        let nodes: Vec<&Value> = logs.keys().collect();
        for (x, i) in nodes.iter().enumerate() {
            for j in nodes.iter().skip(x + 1) {
                let c = commits[*i].expect_int().min(commits[*j].expect_int());
                for n in 1..=c {
                    assert_eq!(
                        logs[*i].index(n as usize),
                        logs[*j].index(n as usize),
                        "seed {seed}: committed prefixes diverge at {n}"
                    );
                }
            }
        }
    }
}

#[test]
fn zabkeeper_single_leader_under_random_schedules() {
    for seed in SEEDS {
        let mut sut = cluster("zab");
        sut.deploy().expect("deploy");
        run_random(sut.cluster_mut(), 250, seed.wrapping_mul(17), 5).expect("random run");
        let snapshot = sut.snapshot().expect("snapshot");
        sut.teardown();
        let Some(Value::Fun(states)) = snapshot.get("zkState") else {
            panic!("missing zkState");
        };
        let leaders = states
            .values()
            .filter(|v| *v == &Value::str("LEADING"))
            .count();
        assert!(leaders <= 1, "seed {seed}: at most one ZAB leader, got {leaders}");
    }
}
