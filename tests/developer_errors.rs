//! The §5.4 lesson: errors *developers* introduce while applying
//! Mocket — a miswritten annotation name, an unmapped element — and
//! the multi-round workflow that shakes them out: validate, fix the
//! mapping, regenerate, re-test — and a flag given to a subcommand
//! that does not read it.

use std::process::Command;

use mocket::core::mapping::ActionBinding;
use mocket::core::{MappingIssue, MappingRegistry, Pipeline, PipelineConfig};
use mocket::raft_async::XraftBugs;
use mocket::runtime::Backend;
use mocket::specs::raft::RaftSpecConfig;
use mocket::targets::{self, Target};
use mocket::tla::ActionClass;

/// Conformant AsyncRaft against an election-only model (no faults, no
/// client requests) — deliberately not a catalogue model.
fn small_target() -> Target {
    targets::xraft(
        RaftSpecConfig {
            dup_limit: 0,
            restart_limit: 0,
            client_request_limit: 0,
            ..targets::xraft_model()
        },
        XraftBugs::none(),
    )
}

#[test]
fn miswritten_action_name_is_caught_before_testing() {
    // The §5.4 example: annotating a method with a wrong action name.
    let mut registry = mocket::raft_async::mapping();
    registry.map_action(
        "BecomeLeadr", // typo
        "becomeLeader2",
        ActionClass::SingleNode,
        ActionBinding::Method,
    );
    let err = Pipeline::new(small_target().spec, registry, PipelineConfig::default())
        .err()
        .expect("validation must fail fast");
    assert!(err.contains(&MappingIssue::UnknownSpecName("BecomeLeadr".into())));
}

#[test]
fn wrong_hook_binding_surfaces_as_missing_action_then_fixed_mapping_passes() {
    // Round 1: the developer bound BecomeLeader to a hook name the
    // implementation never notifies. Validation cannot see that (the
    // spec name is right); it surfaces during system testing as a
    // missing action — the false positive §5.4 describes.
    let mut wrong = MappingRegistry::new();
    // Copy the correct mapping but rebind one action.
    for vm in mocket::raft_async::mapping().variables() {
        match &vm.target {
            Some(mocket::core::VarTarget::ClassField { impl_name }) => {
                if vm.compare == mocket::core::mapping::CompareMode::Cardinality {
                    wrong.map_class_field_cardinality(vm.spec_name.clone(), impl_name.clone());
                } else {
                    wrong.map_class_field(vm.spec_name.clone(), impl_name.clone());
                }
            }
            Some(mocket::core::VarTarget::MessagePool { pool, bag }) => {
                wrong.map_message_pool(pool.clone(), *bag);
            }
            _ => {}
        }
    }
    for am in mocket::raft_async::mapping().actions() {
        let impl_name = if am.spec_name == "BecomeLeader" {
            "becomeTheLeader" // wrong hook name
        } else {
            &am.impl_name
        };
        wrong.map_action(am.spec_name.clone(), impl_name, am.class, am.binding);
    }
    for (spec_c, impl_c) in [
        ("Follower", "STATE_FOLLOWER"),
        ("Candidate", "STATE_CANDIDATE"),
        ("Leader", "STATE_LEADER"),
    ] {
        wrong.bind_const(
            mocket::tla::Value::str(spec_c),
            mocket::tla::Value::str(impl_c),
        );
    }

    let mut pc = PipelineConfig::default();
    pc.por = true;
    pc.stop_at_first_bug = true;
    let target = small_target();
    let pipeline =
        Pipeline::new(target.spec.clone(), wrong, pc).expect("spec names are all valid");
    let result = pipeline.run(|| target.sut(Backend::Threads));
    let report = result
        .reports
        .first()
        .expect("the wrong binding must surface as an inconsistency");
    assert_eq!(report.inconsistency.kind(), "Missing action");
    assert_eq!(report.inconsistency.subject(), "BecomeLeader");

    // Round 2: fix the mapping, regenerate, re-test — clean.
    let mut pc = PipelineConfig::default();
    pc.por = true;
    pc.stop_at_first_bug = true;
    let result = target.run(pc, &Backend::Threads);
    assert!(
        result.reports.is_empty(),
        "after the fix the multi-round re-test is clean"
    );
}

#[test]
fn unmapped_message_variable_is_reported() {
    let mut registry = mocket::raft_async::mapping();
    // Rebuild without the message pool by starting fresh.
    let mut broken = MappingRegistry::new();
    for vm in registry.variables() {
        if let Some(mocket::core::VarTarget::ClassField { impl_name }) = &vm.target {
            broken.map_class_field(vm.spec_name.clone(), impl_name.clone());
        }
    }
    for am in registry.actions() {
        broken.map_action(
            am.spec_name.clone(),
            am.impl_name.clone(),
            am.class,
            am.binding,
        );
    }
    let err = Pipeline::new(small_target().spec, broken, PipelineConfig::default())
        .err()
        .expect("validation must fail");
    assert!(err
        .iter()
        .any(|i| matches!(i, MappingIssue::UnmappedVariable(v) if v == "messages")));
    let _ = &mut registry;
}

/// A flag its subcommand does not read exits 2 naming it, also where
/// another subcommand reads it: `test --campaign-dir D` would otherwise
/// run the hunt and leave D empty.
#[test]
fn a_flag_its_subcommand_does_not_read_exits_2_naming_it() {
    let dir = std::env::temp_dir().join(format!("mocket-foreign-flag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let hunt = ["test", "xraft", "--bug", "duplicate-vote-counting", "--sim"];
    for (argv, flag) in [
        ([&hunt[..], &["--campaign-dir", dir_arg]].concat(), "--campaign-dir"),
        ([&hunt[..], &["--workers", "2"]].concat(), "--workers"),
        ([&hunt[..], &["--shard-size", "4"]].concat(), "--shard-size"),
        (vec!["check", "xraft", "--sim"], "--sim"),
        (vec!["campaign", "xraft", "--worker-id", "0"], "--worker-id"),
        (vec!["report", "--obs-dir", dir_arg, "--trace"], "--trace"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mocket-cli"))
            .args(&argv)
            .output()
            .expect("spawn mocket-cli");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "one line, got: {stderr}");
        assert!(stderr.contains(flag), "must name {flag}, got: {stderr}");
        assert!(stderr.contains(argv[0]), "must name {}, got: {stderr}", argv[0]);
    }
    assert!(!dir.exists(), "a rejected command writes nothing");
}
