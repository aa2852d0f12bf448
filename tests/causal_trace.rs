//! Causal-trace integration: the message-level trace layer wired
//! through the whole pipeline.
//!
//! Pinned here:
//! - a failing case's replay artifact embeds its causal trace, and the
//!   trace's scheduler events carry the `(action, spec-edge)` mapping
//!   for every released step (the tentpole's acceptance bar);
//! - message-fate events (send/recv) inherit the step context, so a
//!   wire message is attributable to the spec edge in flight;
//! - the artifact round-trips through its text format with the trace
//!   intact, and `replay` still accepts a trace-bearing artifact;
//! - traces stay off (and the trace file absent) when `trace` is not
//!   requested — the fast no-op path.

use std::path::{Path, PathBuf};

use mocket::core::ReplayArtifact;
use mocket::obs::causal::{CausalEvent, CausalKind};
use mocket::obs::TRACE_FILE_NAME;
use mocket::runtime::Backend;
use mocket::sim::SimHandle;
use mocket::targets::by_name;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocket-causal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the seeded ignore-extra-vote-response campaign (which fails
/// with missing actions) under `--sim`, returning the campaign dir.
fn run_buggy_raft(dir: &Path, trace: bool) {
    let target = by_name("raft-java", Some("ignore-extra-vote-response")).unwrap();
    let mut pc = target.hunt_config();
    pc.stop_at_first_bug = false;
    pc.max_test_cases = 6;
    pc.trace = trace;
    pc.triage.campaign_dir = Some(dir.to_path_buf());
    let result = target.run(pc, &Backend::Sim(SimHandle::new(42)));
    assert!(
        !result.reports.is_empty(),
        "the seeded bug must produce failures"
    );
}

fn load_artifacts(dir: &Path) -> Vec<ReplayArtifact> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().to_str().map(str::to_string))
        .filter(|n| n.starts_with("case-") && n.ends_with(".artifact"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|n| ReplayArtifact::load(&dir.join(n)).expect("artifact parses"))
        .collect()
}

#[test]
fn failing_case_artifact_embeds_trace_with_spec_edge_mapping() {
    let dir = scratch("artifact");
    run_buggy_raft(&dir, true);

    let artifacts = load_artifacts(&dir);
    assert!(!artifacts.is_empty(), "failures must persist artifacts");
    let traced: Vec<&ReplayArtifact> =
        artifacts.iter().filter(|a| !a.trace.is_empty()).collect();
    assert!(
        !traced.is_empty(),
        "a traced campaign must embed causal traces in its artifacts"
    );
    for artifact in traced {
        let events: Vec<CausalEvent> = artifact
            .trace
            .iter()
            .map(|line| CausalEvent::parse_line(line).expect("embedded trace line parses"))
            .collect();
        assert!(
            events.iter().any(|e| e.kind == CausalKind::CaseBegin),
            "trace opens with its case"
        );
        // Every scheduler release must carry the (action, spec-edge)
        // mapping: the step it released, the spec action's name and
        // the spec edge id that step exercised.
        let releases: Vec<&CausalEvent> = events
            .iter()
            .filter(|e| e.kind == CausalKind::Release)
            .collect();
        assert!(
            !releases.is_empty(),
            "the failing case released at least one action before diverging"
        );
        for rel in &releases {
            assert!(rel.step.is_some(), "release without a step: {rel:?}");
            assert!(
                rel.action.as_deref().is_some_and(|a| !a.is_empty()),
                "release without an action: {rel:?}"
            );
            assert!(
                rel.edge.is_some(),
                "release without its spec edge: {rel:?}"
            );
        }
        // Message-fate events recorded during a step inherit that
        // step's context, so each wire message maps to the spec edge
        // in flight when it was sent.
        let sends: Vec<&CausalEvent> = events
            .iter()
            .filter(|e| e.kind == CausalKind::Send)
            .collect();
        for send in &sends {
            assert!(send.node.is_some() && send.peer.is_some() && send.msg.is_some());
            assert!(
                send.step.is_some() && send.edge.is_some(),
                "send outside any step context: {send:?}"
            );
        }
        // The artifact round-trips with the trace intact.
        let back = ReplayArtifact::deserialize(&artifact.serialize()).unwrap();
        assert_eq!(&back, artifact);
    }
    // The campaign-level trace file exists and holds every case.
    let trace_text = std::fs::read_to_string(dir.join(TRACE_FILE_NAME)).unwrap();
    let (all_events, issues) = mocket::obs::causal::parse_trace(&trace_text);
    assert!(issues.is_empty(), "{issues:?}");
    assert!(
        all_events.iter().any(|e| e.kind == CausalKind::CaseEnd),
        "campaign trace records case outcomes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_run_writes_no_trace_and_artifacts_stay_lean() {
    let dir = scratch("untraced");
    run_buggy_raft(&dir, false);
    assert!(
        !dir.join(TRACE_FILE_NAME).exists(),
        "tracing off must leave no trace file"
    );
    for artifact in load_artifacts(&dir) {
        assert!(
            artifact.trace.is_empty(),
            "untraced artifacts must not embed traces"
        );
        assert!(!artifact.serialize().contains("trace:"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
