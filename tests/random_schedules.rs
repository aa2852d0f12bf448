//! Randomized testing of the target systems under random schedules:
//! safety invariants must hold on the conformant implementations no
//! matter how the scheduler interleaves actions. Seeds are fixed so
//! runs are reproducible.

use mocket::core::sut::SystemUnderTest;
use mocket::core::Offer;
use mocket::runtime::{run_random, Backend, XorShift, DISK_LOSS_ACTION};
use mocket::targets::by_name;
use mocket::tla::{ActionInstance, Value};

/// A free-running three-node cluster of the conformant `target`.
fn cluster(target: &str) -> Box<dyn SystemUnderTest> {
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
        run_random(sut.as_mut(), 250, seed, 5).expect("random run");
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
        run_random(sut.as_mut(), 300, seed.wrapping_mul(31), 5).expect("random run");
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
        run_random(sut.as_mut(), 250, seed.wrapping_mul(17), 5).expect("random run");
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

/// One step of a mixed random schedule: a released offer, or a crash,
/// restart, disk loss or client request on a random node.
#[derive(Debug)]
enum Step {
    Offer(Offer),
    External(ActionInstance),
}

impl Step {
    /// Picks a step from `offers`; about one step in four is external.
    fn pick(rng: &mut XorShift, offers: &[Offer]) -> Step {
        const EXTERNAL: [&str; 4] = ["Crash", "Restart", DISK_LOSS_ACTION, "ClientRequest"];
        let roll = rng.pick(16);
        if roll < EXTERNAL.len() || offers.is_empty() {
            let node = Value::Int(1 + rng.pick(3) as i64);
            return Step::External(ActionInstance::new(EXTERNAL[roll % 4], vec![node]));
        }
        Step::Offer(offers[rng.pick(offers.len())].clone())
    }

    /// Takes the step; the outcome, errors included, as comparable text.
    fn take(&self, sut: &mut dyn SystemUnderTest) -> String {
        match self {
            Step::Offer(offer) => format!("{:?}", sut.execute(offer)),
            Step::External(action) => format!("{:?}", sut.execute_external(action)),
        }
    }
}

/// Everything the runner reads from a deployment between steps.
fn observe(sut: &mut dyn SystemUnderTest) -> (String, Vec<(String, Value)>) {
    let offers = format!("{:?}", sut.offers());
    (offers, sut.snapshot().expect("snapshot").vars)
}

/// A deployment is a value: a fork taken after any step of a mixed
/// random schedule answers the rest of the schedule exactly as the
/// original does (offers, reports, snapshots), and stepping a fork
/// never moves the original.
fn forks_replay_the_original(target: &str) {
    for seed in 1..=8u64 {
        let mut rng = XorShift::new(seed * 7919);
        let mut original = cluster(target);
        original.deploy().expect("deploy");
        let mut forks: Vec<Box<dyn SystemUnderTest>> = Vec::new();
        for i in 0..60 {
            forks.push(original.fork().expect("a cluster deployment forks"));
            let seen = observe(original.as_mut());
            let step = Step::pick(&mut rng, &original.offers().expect("offers"));
            let mut outcomes = Vec::new();
            for (born, fork) in forks.iter_mut().enumerate() {
                let ctx =
                    format!("{target} seed {seed}: fork of step {born} at step {i} ({step:?})");
                assert_eq!(observe(fork.as_mut()), seen, "{ctx}: observation");
                let fork_outcome = step.take(fork.as_mut());
                let now = observe(original.as_mut());
                assert_eq!(now, seen, "{ctx}: stepping the fork moved the original");
                outcomes.push((ctx, fork_outcome));
            }
            let outcome = step.take(original.as_mut());
            for (ctx, fork_outcome) in outcomes {
                assert_eq!(fork_outcome, outcome, "{ctx}: report");
            }
        }
        let end = observe(original.as_mut());
        for fork in &mut forks {
            let ctx = format!("{target} seed {seed}: final state");
            assert_eq!(observe(fork.as_mut()), end, "{ctx}");
        }
    }
}

#[test]
fn asyncraft_forks_replay_the_original() {
    forks_replay_the_original("xraft");
}

#[test]
fn syncraft_forks_replay_the_original() {
    forks_replay_the_original("raft-java");
}

#[test]
fn zabkeeper_forks_replay_the_original() {
    forks_replay_the_original("zab");
}
