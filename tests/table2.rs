//! Table 2, driven by the catalogue: every row of
//! `mocket::targets::TABLE2` must fire with its expected inconsistency
//! kind and subject — on the wall-clock backend and, identically, under
//! the simulation — and inconsistent-state rows must explain themselves.
//! Plus the one spec-bug hunt that is not a Table-2 row, and the
//! failure-triage round trip on one row: minimizer invariant, artifact
//! through disk, replay on a fresh and on a fixed cluster.

use mocket::core::{replay, BugReport, ReplayArtifact};
use mocket::raft_sync::SyncRaftBugs;
use mocket::runtime::Backend;
use mocket::sim::SimHandle;
use mocket::specs::raft::RaftSpecConfig;
use mocket::targets::{self, by_name, TABLE2};

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

/// Hunts the row named `bug` on both backends and checks the catalogue's
/// expected verdict, then the row's own `extra` assertions.
fn fires(bug: &str, extra: impl Fn(&BugReport)) {
    let row = TABLE2
        .iter()
        .find(|row| row.bug == bug)
        .expect("row in the catalogue");
    for backend in [Backend::Threads, Backend::Sim(SimHandle::new(42))] {
        let target = row.target();
        let result = target.run(target.hunt_config(), &backend);
        let report = result
            .reports
            .first()
            .unwrap_or_else(|| panic!("{} must be detected", row.id));
        assert_eq!(
            (report.inconsistency.kind(), report.inconsistency.subject()),
            (row.kind, row.subject.to_string()),
            "{}",
            row.id
        );
        if row.kind == "Inconsistent state" {
            assert_explained(report);
        }
        extra(report);
    }
}

#[test]
fn xraft_bug1_duplicate_vote_counting_is_inconsistent_votes_granted() {
    fires("duplicate-vote-counting", |_| {});
}

#[test]
fn xraft_bug2_voted_for_not_persisted_is_inconsistent_voted_for() {
    fires("voted-for-not-persisted", |_| {});
}

#[test]
fn xraft_bug3_noop_log_grant_is_unexpected_handle_request_vote_response() {
    fires("noop-log-grant", |_| {});
}

#[test]
fn raft_java_bug1_ignored_vote_response_is_missing_action() {
    fires("ignore-extra-vote-response", |_| {});
}

#[test]
fn raft_java_bug2_log_truncation_is_inconsistent_log() {
    fires("log-truncation", |_| {});
}

#[test]
fn zookeeper_bug1_election_echo_storm_is_unexpected_handle_vote() {
    fires("election-echo-storm", |report| {
        // Unexpected actions have no per-variable diff, but the explainer
        // still searches for a verified state where the offer is enabled.
        let e = report
            .explanation
            .as_ref()
            .expect("unexpected-action report must carry an explanation");
        assert!(e.action.contains("HandleVote"));
        assert!(
            report.to_string().contains("verified state"),
            "nearest-verified-state verdict missing:\n{report}"
        );
    });
}

#[test]
fn zookeeper_bug2_epoch_marker_race_is_missing_start_election() {
    fires("epoch-marker-race", |_| {});
}

#[test]
fn raft_spec_issue1_update_term_region_is_inconsistent_messages() {
    fires("spec-update-term", |_| {});
}

#[test]
fn raft_spec_issue2_update_term_is_missing_action_without_mapping_region() {
    // The paper reports this row at 5 actions; the exact length depends
    // on traversal order, but it stays shallow.
    fires("spec-missing-reply", |report| {
        assert!(
            report.test_case.len() <= 40,
            "manifests early: {}",
            report.test_case.len()
        );
    });
}

#[test]
fn spec_bug_missing_reply_manifests_quickly() {
    // Official-spec bug #2 (Figure 11) on its own: the return-to-follower
    // branch neither consumes nor replies; the conformant implementation
    // does both in one step, so the message pool diverges. Needs a
    // candidate receiving a same-term AppendEntries: three servers,
    // two rival candidates.
    let target = targets::raft_java(
        RaftSpecConfig {
            max_term: 2,
            candidates: Some(vec![1, 3]),
            bug_missing_reply: true,
            ..targets::raft_java_model()
        },
        SyncRaftBugs::none(),
        false,
    );
    let result = target.run(target.hunt_config(), &Backend::Threads);
    let report = result.reports.first().expect("spec bug must surface");
    assert_eq!(report.inconsistency.kind(), "Inconsistent state");
    assert_eq!(report.inconsistency.subject(), "messages");
    assert_explained(report);
}

#[test]
fn minimized_raft_failure_validates_and_replays_to_the_same_kind() {
    let dir = std::env::temp_dir().join(format!("mocket-raft-triage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let target = by_name("xraft", Some("voted-for-not-persisted")).unwrap();
    let mut pc = target.hunt_config();
    pc.triage.campaign_dir = Some(dir.clone());
    pc.triage.spec_config = "xraft bug2".into();
    let result = target.run(pc, &Backend::Threads);

    // The bug is found and confirmed deterministic.
    let report = result.reports.first().expect("bug #2 must be detected");
    assert_eq!(report.inconsistency.kind(), "Inconsistent state");
    assert!(
        report.determinism.is_deterministic(),
        "{:?}",
        report.determinism
    );

    // Minimizer invariant: never longer, still a valid graph path.
    if let Some(min) = &report.minimized {
        assert!(min.len() <= report.test_case.len());
        assert!(min.validate_against(&result.graph).is_ok());
    }

    // The persisted artifact replays to the same inconsistency kind
    // against a completely fresh cluster.
    let path = result.artifacts.first().expect("artifact written");
    let artifact = ReplayArtifact::load(path).unwrap();
    assert_eq!(artifact.kind, report.inconsistency.kind());
    assert_eq!(
        artifact.original_len,
        report.test_case.len(),
        "artifact records the pre-shrink length"
    );
    let fresh = target.sut(Backend::Threads);
    let (verdict, _) = replay(&artifact, fresh, &target.registry).unwrap();
    assert!(verdict.reproduced(), "{verdict:?}");

    // A fixed build does NOT reproduce: replay distinguishes "still
    // broken" from "fixed" for free.
    let fixed = by_name("xraft", None).unwrap().sut(Backend::Threads);
    let (verdict, _) = replay(&artifact, fixed, &target.registry).unwrap();
    assert!(
        !verdict.reproduced(),
        "fixed build must not reproduce: {verdict:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
