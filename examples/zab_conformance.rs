//! ZabKeeper (the ZooKeeper ZAB analog) running two ways:
//!
//! 1. *Uncontrolled*: a random scheduler drives the real cluster
//!    (wire-encoded messages, durable storage) until a leader is
//!    elected, synchronized and a request is committed. The
//!    deployment is one owned world of nodes, network, disks and
//!    shadow registries; each step lends a node its context.
//! 2. *Controlled*: Mocket replays spec-verified test cases against
//!    it and confirms conformance.
//!
//! Run with: `cargo run --release --example zab_conformance`

use mocket::runtime::Backend;
use mocket::specs::zab::ZabSpecConfig;
use mocket::targets;
use mocket::zab::ZabBugs;

fn main() {
    // --- Uncontrolled random-schedule run -----------------------------
    let conformant = targets::by_name("zab", None).expect("catalogue target");
    let mut sut = conformant.sut_on(vec![1, 2, 3], Backend::Threads, None);
    sut.deploy().expect("deploy");
    let stats = mocket::runtime::run_random(sut.as_mut(), 4000, 7, 3).expect("random run");
    println!("Uncontrolled run: {} actions executed", stats.executed);
    for (action, count) in &stats.action_counts {
        println!("  {action:<22} x{count}");
    }
    let snapshot = sut.snapshot().expect("snapshot");
    let state = snapshot.get("zkState").expect("zkState");
    println!("final roles: {state}");
    sut.teardown();

    // --- Controlled conformance testing -------------------------------
    // The election + synchronization model (no client requests) is
    // small enough to run every POR-reduced case.
    let election = targets::zab(
        ZabSpecConfig {
            client_request_limit: 0,
            ..targets::zab_model()
        },
        ZabBugs::none(),
    );
    let mut pc = election.hunt_config();
    pc.por = true;
    pc.stop_at_first_bug = false;
    let result = election.run(pc, &Backend::Threads);
    println!(
        "\nControlled testing: {} states, {} EC paths -> {} after POR; \
         {} cases run, {} passed, {} inconsistencies",
        result.effort.states,
        result.effort.paths_ec,
        result.effort.paths_ec_por,
        result.effort.cases_run,
        result.passed,
        result.reports.len(),
    );
    assert!(
        result.reports.is_empty(),
        "conformant ZabKeeper must be clean"
    );
}
