//! End-to-end Mocket runs against SyncRaft, including the two
//! official-specification bug rows of Table 2.

use std::sync::Arc;

use mocket_core::{BugReport, Pipeline, PipelineConfig, RunConfig};
use mocket_raft_sync::{make_sut, make_sut_full, mapping, SyncRaftBugs};
use mocket_runtime::Backend;
use mocket_specs::raft::{RaftSpec, RaftSpecConfig};

/// Every inconsistent-state report must carry a divergence
/// explanation: a per-variable diff plus a nearest-verified-state
/// verdict, both rendered into the report text.
fn assert_explained(report: &BugReport) {
    let e = report
        .explanation
        .as_ref()
        .expect("inconsistent-state report must carry an explanation");
    assert!(
        !e.diffs.is_empty(),
        "explanation must diff at least one variable"
    );
    let rendered = report.to_string();
    assert!(rendered.contains("Explanation:"), "not rendered:\n{rendered}");
    assert!(
        rendered.contains("verified state"),
        "nearest-verified-state verdict missing:\n{rendered}"
    );
}

fn pipeline(
    cfg: RaftSpecConfig,
    with_update_term: bool,
    por: bool,
    stop_at_first: bool,
) -> Pipeline {
    let mut pc = PipelineConfig::default();
    pc.por = por;
    pc.stop_at_first_bug = stop_at_first;
    pc.run = RunConfig::fast();
    Pipeline::new(Arc::new(RaftSpec::new(cfg)), mapping(with_update_term), pc)
        .expect("mapping is valid")
}

#[test]
fn conformant_syncraft_passes_every_test_case() {
    let cfg = RaftSpecConfig::raft_java(vec![1, 2]);
    let p = pipeline(cfg, false, true, false);
    let result = p
        .run(|| Box::new(make_sut(vec![1, 2], SyncRaftBugs::none())));
    assert!(
        result.reports.is_empty(),
        "conformant run must be clean; first report:\n{}",
        result.reports[0]
    );
    assert_eq!(result.passed, result.effort.cases_run);
}

#[test]
fn conformant_syncraft_three_nodes_passes() {
    let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
    cfg.max_term = 2;
    cfg.candidates = Some(vec![1]);
    let p = pipeline(cfg, false, true, false);
    let result = p
        .run(|| Box::new(make_sut(vec![1, 2, 3], SyncRaftBugs::none())));
    assert!(
        result.reports.is_empty(),
        "conformant run must be clean; first report:\n{}",
        result.reports[0]
    );
}

#[test]
fn ignored_vote_response_is_missing_action() {
    // Raft-java bug #1: candidate 1 collects replies from 2 and 3;
    // the implementation drops the second one on the floor.
    let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
    cfg.max_term = 2;
    cfg.client_request_limit = 0;
    cfg.candidates = Some(vec![1]);
    let p = pipeline(cfg, false, false, true);
    let result = p
        .run(|| {
            Box::new(make_sut(
                vec![1, 2, 3],
                SyncRaftBugs {
                    ignore_extra_vote_response: true,
                    ..SyncRaftBugs::none()
                },
            ))
        });
    let report = result.reports.first().expect("bug must be detected");
    assert_eq!(report.inconsistency.kind(), "Missing action");
    assert_eq!(report.inconsistency.subject(), "HandleRequestVoteResponse");
}

#[test]
fn log_truncation_bug_is_inconsistent_log() {
    // Raft-java bug #2 (the deep one): two elections, a conflicting
    // entry, and an off-by-one truncation.
    let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
    cfg.max_term = 3;
    cfg.client_request_limit = 2;
    cfg.candidates = Some(vec![1, 2]);
    cfg.max_in_flight = 1;
    let mut pc = PipelineConfig::default();
    pc.por = false;
    pc.stop_at_first_bug = true;
    pc.max_path_len = 40;
    // Focus on the scenario class (§4.2.1's developer-guided
    // scoping): two elections and both client writes.
    pc.case_filter = Some(Arc::new(|names: &[&str]| {
        names.iter().filter(|n| **n == "BecomeLeader").count() >= 2
            && names.iter().filter(|n| **n == "ClientRequest").count() >= 2
    }));
    let p =
        Pipeline::new(Arc::new(RaftSpec::new(cfg)), mapping(false), pc).expect("mapping is valid");
    let result = p
        .run(|| {
            Box::new(make_sut(
                vec![1, 2, 3],
                SyncRaftBugs {
                    log_truncation_bug: true,
                    ..SyncRaftBugs::none()
                },
            ))
        });
    let report = result.reports.first().expect("bug must be detected");
    assert_eq!(report.inconsistency.kind(), "Inconsistent state");
    assert_eq!(report.inconsistency.subject(), "log");
    assert_explained(report);
}

#[test]
fn spec_bug_missing_reply_manifests_quickly() {
    // Official-spec bug #2 (Figure 11): the return-to-follower branch
    // neither consumes nor replies; the conformant implementation does
    // both in one step, so the message pool diverges. Needs a
    // candidate receiving a same-term AppendEntries: three servers,
    // two rival candidates.
    let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
    cfg.max_term = 2;
    cfg.candidates = Some(vec![1, 3]);
    cfg.bug_missing_reply = true;
    let p = pipeline(cfg, false, false, true);
    let result = p
        .run(|| Box::new(make_sut(vec![1, 2, 3], SyncRaftBugs::none())));
    let report = result.reports.first().expect("spec bug must surface");
    assert_eq!(report.inconsistency.kind(), "Inconsistent state");
    assert_eq!(report.inconsistency.subject(), "messages");
    assert_explained(report);
}

#[test]
fn official_spec_update_term_is_missing_action_without_mapping_region() {
    // Official spec, natural mapping: the implementation has no
    // standalone UpdateTerm, so the first scheduled UpdateTerm is a
    // missing action (Table 2, Raft-spec issue #2).
    let cfg = RaftSpecConfig::official_buggy(vec![1, 2]);
    let p = pipeline(cfg, true, false, true);
    let result = p
        .run(|| {
            Box::new(make_sut_full(
                vec![1, 2],
                SyncRaftBugs::none(),
                false,
                Backend::Threads,
                None,
            ))
        });
    let report = result.reports.first().expect("spec bug must surface");
    assert_eq!(report.inconsistency.kind(), "Missing action");
    assert_eq!(report.inconsistency.subject(), "UpdateTerm");
    // The paper's Table 2 reports this row at 5 actions; the exact
    // length depends on traversal order, but it stays shallow.
    assert!(
        report.test_case.len() <= 40,
        "manifests early: {}",
        report.test_case.len()
    );
}

#[test]
fn official_spec_update_term_is_inconsistent_messages_with_mapping_region() {
    // Official spec, stepDown-region mapping: executing UpdateTerm
    // runs the whole handler, so the message the spec keeps in flight
    // is consumed (Table 2, Raft-spec issue #1).
    let cfg = RaftSpecConfig::official_buggy(vec![1, 2]);
    let p = pipeline(cfg, true, false, true);
    let result = p
        .run(|| {
            Box::new(make_sut_full(
                vec![1, 2],
                SyncRaftBugs::none(),
                true,
                Backend::Threads,
                None,
            ))
        });
    let report = result.reports.first().expect("spec bug must surface");
    assert_eq!(report.inconsistency.kind(), "Inconsistent state");
    assert_eq!(report.inconsistency.subject(), "messages");
    assert_explained(report);
}
