//! Conformance, driven by the catalogue's typed constructors: each
//! conformant implementation must pass *every* generated test case of
//! its model with POR on — no inconsistencies. The full base models of
//! `raft-java` and `zab` take minutes to hours to run exhaustively, so
//! the suites deliberately narrow them (each narrowing is spelled here,
//! through `mocket::targets::{xraft, raft_java, zab}`). Also here:
//! `DiskLoss` on every target.

mod common;

use mocket::core::{PipelineConfig, PipelineResult, SystemUnderTest};
use mocket::raft_sync::SyncRaftBugs;
use mocket::runtime::Backend;
use mocket::specs::raft::RaftSpecConfig;
use mocket::specs::zab::ZabSpecConfig;
use mocket::targets::{self, Target};
use mocket::tla::{ActionInstance, Value};
use mocket::zab::ZabBugs;

/// The hunt configuration turned into a conformance run: POR on, every
/// case run.
fn every_case(target: &Target) -> PipelineConfig {
    let mut pc = target.hunt_config();
    pc.por = true;
    pc.stop_at_first_bug = false;
    pc
}

fn assert_clean(result: &PipelineResult) {
    assert!(
        result.reports.is_empty(),
        "conformant run must be clean; first report:\n{}",
        result.reports[0]
    );
    assert!(result.passed > 0);
    assert_eq!(result.passed, result.effort.cases_run);
}

#[test]
fn conformant_asyncraft_passes_every_test_case() {
    let target = common::small_xraft();
    assert_clean(&target.run(every_case(&target), &Backend::Threads));
}

#[test]
fn conformant_syncraft_passes_every_test_case() {
    let target = targets::raft_java(
        RaftSpecConfig {
            servers: vec![1, 2],
            ..targets::raft_java_model()
        },
        SyncRaftBugs::none(),
        false,
    );
    assert_clean(&target.run(every_case(&target), &Backend::Threads));
}

#[test]
fn conformant_syncraft_three_nodes_passes() {
    let target = targets::raft_java(
        RaftSpecConfig {
            max_term: 2,
            candidates: Some(vec![1]),
            ..targets::raft_java_model()
        },
        SyncRaftBugs::none(),
        false,
    );
    assert_clean(&target.run(every_case(&target), &Backend::Threads));
}

#[test]
fn conformant_zabkeeper_passes_every_test_case() {
    // Election + synchronization model (no client requests): small
    // enough to run every generated case.
    let target = targets::zab(
        ZabSpecConfig {
            client_request_limit: 0,
            ..targets::zab_model()
        },
        ZabBugs::none(),
    );
    assert_clean(&target.run(every_case(&target), &Backend::Threads));
}

#[test]
fn conformant_zabkeeper_broadcast_sample_passes() {
    // The catalogue's full model including broadcast, sampled: a capped
    // number of POR-reduced cases.
    let target = targets::by_name("zab", None).unwrap();
    let mut pc = every_case(&target);
    pc.max_test_cases = 800;
    let result = target.run(pc, &Backend::Threads);
    assert_clean(&result);
    assert_eq!(result.effort.cases_run, 800);
}

/// Node 1's slice of every per-node variable in the snapshot.
fn node1(sut: &mut dyn SystemUnderTest) -> Vec<(String, Value)> {
    let snapshot = sut.snapshot().expect("snapshot");
    let slice = |(name, value): &(String, Value)| {
        let at_node1 = value.apply(&Value::Int(1))?.clone();
        Some((name.clone(), at_node1))
    };
    snapshot.vars.iter().filter_map(slice).collect()
}

#[test]
fn disk_loss_restarts_empty_and_plain_restart_keeps_the_disk_on_every_target() {
    for name in targets::TARGETS {
        let target = targets::by_name(name, None).unwrap();
        let mut deployment = target.sut_on(vec![1, 2, 3], Backend::Threads, None);
        let sut = deployment.as_mut();
        sut.deploy().expect("deploy");
        let fresh = node1(sut);
        // Long enough for node 1 to persist terms, votes or epochs.
        mocket::runtime::run_random(sut, 400, 11, 5).expect("random run");

        let restart = |sut: &mut dyn SystemUnderTest, action: &str| {
            sut.execute_external(&ActionInstance::new(action, vec![Value::Int(1)]))
                .unwrap_or_else(|e| panic!("{name}: {action}: {e}"));
        };
        restart(sut, "Restart");
        assert_ne!(node1(sut), fresh, "{name}: Restart recovers the disk");
        restart(sut, "DiskLoss");
        assert_eq!(node1(sut), fresh, "{name}: DiskLoss comes back empty");
        sut.teardown();
    }
}
