//! Failure triage end-to-end: campaign → replay artifact → fresh
//! replay → resumed campaign.
//!
//! Runs a short campaign against AsyncRaft with the Table 2 Bug #2
//! flag (`votedFor` forgotten across a restart), which:
//!
//! 1. confirms the failure by re-running it with the identical
//!    configuration and classifies it deterministic/flaky,
//! 2. shrinks the revealing schedule with graph-validated delta
//!    debugging,
//! 3. persists a self-contained replay artifact in the campaign
//!    directory, and
//! 4. journals every completed case, so re-running the campaign skips
//!    straight past the finished work.
//!
//! The artifact is then loaded back from disk and replayed against a
//! *fresh* cluster in this same process — the "send a bug report
//! someone else can actually reproduce" workflow.
//!
//! Run with: `cargo run --release --example replay`
//!
//! Exits non-zero if any stage misbehaves (CI uses this as the triage
//! smoke test).

use mocket::core::{replay, ReplayArtifact};
use mocket::runtime::Backend;
use mocket::targets::by_name;

fn main() {
    let campaign_dir = std::env::temp_dir().join("mocket-replay-example");
    let _ = std::fs::remove_dir_all(&campaign_dir);

    let target = by_name("xraft", Some("voted-for-not-persisted")).expect("catalogue row");
    let configure = || {
        let mut pc = target.hunt_config();
        pc.triage.campaign_dir = Some(campaign_dir.clone());
        pc.triage.spec_config = "target=xraft bug=voted-for-not-persisted".into();
        pc
    };

    println!("== campaign: AsyncRaft with Bug #2 (votedFor not persisted) ==");
    let result = target.run(configure(), &Backend::Threads);

    let report = result.reports.first().expect("the bug must be detected");
    println!(
        "found: {} after {} cases; reproducibility: {}",
        report.inconsistency.kind(),
        result.effort.cases_run,
        report.determinism,
    );
    assert!(
        report.determinism.is_deterministic(),
        "Bug #2 is deterministic under controlled scheduling"
    );
    if let Some(min) = &report.minimized {
        println!(
            "minimized: {} of {} actions",
            min.len(),
            report.test_case.len()
        );
        assert!(min.len() <= report.test_case.len());
    }
    assert!(
        result.journal_issues.is_empty(),
        "persistence must be clean: {:?}",
        result.journal_issues
    );

    // Load the artifact back from disk — a fresh process would start
    // exactly here, with nothing but the file.
    let artifact_path = result.artifacts.first().expect("artifact written");
    println!("\n== replaying {} ==", artifact_path.display());
    let artifact = ReplayArtifact::load(artifact_path).expect("artifact loads");
    assert_eq!(artifact.kind, report.inconsistency.kind());
    assert!(
        artifact.test_case.len() <= report.test_case.len(),
        "stored reproducer is never longer than the revealing case"
    );

    let mut fresh = target.sut(Backend::Threads, None);
    let (verdict, stats) =
        replay(&artifact, &mut fresh, &target.registry).expect("replay run completes");
    println!(
        "replay verdict after {} actions: {}",
        stats.actions_executed,
        if verdict.reproduced() {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );
    assert!(
        verdict.reproduced(),
        "replaying the artifact must hit the same inconsistency kind: {verdict:?}"
    );

    // Resume: the journal remembers every completed case, so a second
    // run of the same campaign skips straight to new work.
    println!("\n== resuming the campaign from its journal ==");
    let resumed = target.run(configure(), &Backend::Threads);
    println!(
        "resumed: {} cases skipped from the journal, {} run fresh",
        resumed.skipped_from_journal,
        resumed.effort.cases_run - resumed.skipped_from_journal,
    );
    assert!(
        resumed.skipped_from_journal > 0,
        "the resumed campaign must skip journaled cases"
    );

    let _ = std::fs::remove_dir_all(&campaign_dir);
    println!("\ntriage pipeline OK: confirm → shrink → persist → replay → resume");
}
