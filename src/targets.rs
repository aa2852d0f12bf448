//! The target catalogue: every system under test and every Table-2
//! bug, defined once.
//!
//! A [`Target`] pairs a (narrowed) specification with its mapping
//! (§4.1) and a builder for the instrumented deployment (§4.3). The
//! three typed constructors ([`xraft`], [`raft_java`], [`zab`]) hold
//! the `Arc<dyn Spec>` / `mapping()` / `make_sut_full` plumbing;
//! [`TABLE2`] lists the paper's nine bugs in paper order as data, and
//! [`by_name`] resolves the CLI's `(target, bug)` names. The CLI, the
//! Table-2 bench, the examples and the root conformance suites all
//! read this module, so a model narrowing or a bug switch is written
//! down in exactly one place.

use std::sync::Arc;

use mocket_core::{
    MappingIssue, MappingRegistry, Pipeline, PipelineConfig, PipelineResult, RunConfig,
    SystemUnderTest,
};
use mocket_dsnet::{FaultPlan, NodeId};
use mocket_raft_async::XraftBugs;
use mocket_raft_sync::SyncRaftBugs;
use mocket_runtime::Backend;
use mocket_specs::cachemax::CacheMax;
use mocket_specs::raft::{RaftSpec, RaftSpecConfig};
use mocket_specs::zab::{ZabSpec, ZabSpecConfig};
use mocket_tla::Spec;
use mocket_zab::ZabBugs;

/// A specification, its mapping and its deployment builder.
pub struct Target {
    /// The CLI target name: `xraft`, `raft-java` or `zab`.
    pub name: &'static str,
    /// The (narrowed) model the test cases are generated from.
    pub spec: Arc<dyn Spec>,
    /// The spec↔implementation mapping.
    pub registry: MappingRegistry,
    /// Developer-guided scoping (§4.2.1) a hunt on this target applies.
    pub case_filter: Option<fn(&[&str]) -> bool>,
    servers: Vec<NodeId>,
    build: Box<dyn Fn(Vec<NodeId>, Backend, Option<FaultPlan>) -> Box<dyn SystemUnderTest>>,
}

impl Target {
    fn new(
        name: &'static str,
        servers: &[i64],
        spec: impl Spec + 'static,
        registry: MappingRegistry,
        build: impl Fn(Vec<NodeId>, Backend, Option<FaultPlan>) -> Box<dyn SystemUnderTest> + 'static,
    ) -> Target {
        Target {
            name,
            spec: Arc::new(spec),
            registry,
            case_filter: None,
            servers: servers.iter().map(|&i| i as NodeId).collect(),
            build: Box::new(build),
        }
    }

    /// A fresh deployment of the model's servers (one per test case).
    pub fn sut(&self, backend: Backend, faults: Option<FaultPlan>) -> Box<dyn SystemUnderTest> {
        self.sut_on(self.servers.clone(), backend, faults)
    }

    /// The same implementation on other servers — for free-running
    /// clusters that no specification drives.
    pub fn sut_on(
        &self,
        servers: Vec<NodeId>,
        backend: Backend,
        faults: Option<FaultPlan>,
    ) -> Box<dyn SystemUnderTest> {
        (self.build)(servers, backend, faults)
    }

    /// The one bug-hunt configuration: no POR, stop at the first
    /// report, paths capped at 60 actions, fast runner deadlines, this
    /// target's scoping filter.
    pub fn hunt_config(&self) -> PipelineConfig {
        let mut pc = PipelineConfig::default();
        pc.por = false;
        pc.stop_at_first_bug = true;
        pc.max_path_len = 60;
        pc.run = RunConfig::fast();
        pc.case_filter = self.case_filter.map(|f| Arc::new(f) as _);
        pc
    }

    /// The pipeline over this target's spec and mapping.
    pub fn pipeline(&self, pc: PipelineConfig) -> Result<Pipeline, Vec<MappingIssue>> {
        Pipeline::new(self.spec.clone(), self.registry.clone(), pc)
    }

    /// Runs `pc` against fault-free deployments on `backend`, counting
    /// time on the simulation's clock when there is one.
    pub fn run(&self, mut pc: PipelineConfig, backend: &Backend) -> PipelineResult {
        if let Backend::Sim(handle) = backend {
            pc.clock = handle.clock.clone();
        }
        let pipeline = self.pipeline(pc).expect("catalogue mappings validate");
        pipeline.run(|| self.sut(backend.clone(), None))
    }
}

/// AsyncRaft (the Xraft analog) against `cfg`.
pub fn xraft(cfg: RaftSpecConfig, bugs: XraftBugs) -> Target {
    let registry = mocket_raft_async::mapping();
    Target::new("xraft", &cfg.servers.clone(), RaftSpec::new(cfg), registry, move |s, b, f| {
        Box::new(mocket_raft_async::make_sut_full(s, bugs.clone(), b, f))
    })
}

/// SyncRaft (the Raft-java analog) against `cfg`. `UpdateTerm` is
/// mapped exactly when the model has it as an independent action;
/// `expose_update_term` is the §6.1 mapping variant of `make_sut_full`.
pub fn raft_java(cfg: RaftSpecConfig, bugs: SyncRaftBugs, expose_update_term: bool) -> Target {
    let registry = mocket_raft_sync::mapping(cfg.bug_update_term_independent);
    Target::new("raft-java", &cfg.servers.clone(), RaftSpec::new(cfg), registry, move |s, b, f| {
        Box::new(mocket_raft_sync::make_sut_full(s, bugs.clone(), expose_update_term, b, f))
    })
}

/// ZabKeeper (the ZooKeeper analog) against `cfg`.
pub fn zab(cfg: ZabSpecConfig, bugs: ZabBugs) -> Target {
    let registry = mocket_zab::mapping();
    Target::new("zab", &cfg.servers.clone(), ZabSpec::new(cfg), registry, move |s, b, f| {
        Box::new(mocket_zab::make_sut_full(s, bugs.clone(), b, f))
    })
}

/// The base model of each target (what `mocket-cli test <target>` runs
/// against the conformant implementation).
pub fn xraft_model() -> RaftSpecConfig {
    RaftSpecConfig::xraft(vec![1, 2])
}

/// See [`xraft_model`].
pub fn raft_java_model() -> RaftSpecConfig {
    RaftSpecConfig::raft_java(vec![1, 2, 3])
}

/// See [`xraft_model`].
pub fn zab_model() -> ZabSpecConfig {
    ZabSpecConfig::small(vec![1, 2])
}

fn raft_official_model() -> RaftSpecConfig {
    RaftSpecConfig::official_buggy(vec![1, 2])
}

/// Raft-java bug #2 needs two elections and both client writes.
fn two_elections_two_writes(names: &[&str]) -> bool {
    let count = |action: &str| names.iter().filter(|n| **n == action).count();
    count("BecomeLeader") >= 2 && count("ClientRequest") >= 2
}

/// One row of the paper's Table 2.
pub struct Row {
    /// The paper's row label.
    pub id: &'static str,
    /// `Impl. Bug` or `Spec. Bug`.
    pub class: &'static str,
    /// CLI name: `mocket-cli test <target> --bug <bug>`.
    pub target: &'static str,
    /// See `target`.
    pub bug: &'static str,
    /// The expected inconsistency kind.
    pub kind: &'static str,
    /// The expected inconsistency subject (variable or action).
    pub subject: &'static str,
    /// The narrowed model, the seeded switch and the scoping filter.
    build: fn() -> Target,
}

impl Row {
    /// The hunt target of this row.
    pub fn target(&self) -> Target {
        (self.build)()
    }
}

const IMPL: &str = "Impl. Bug";
const SPEC: &str = "Spec. Bug";
const STATE: &str = "Inconsistent state";
const MISSING: &str = "Missing action";
const UNEXPECTED: &str = "Unexpected action";

/// Table 2, in paper order.
#[rustfmt::skip]
pub static TABLE2: [Row; 9] = [
    Row { id: "Xraft Bug #1 (new)", class: IMPL, target: "xraft", bug: "duplicate-vote-counting",
          kind: STATE, subject: "votesGranted", build: || xraft(
              RaftSpecConfig { restart_limit: 0, client_request_limit: 0, ..xraft_model() },
              XraftBugs { duplicate_vote_counting: true, ..XraftBugs::none() }) },
    Row { id: "Xraft Bug #2 (new)", class: IMPL, target: "xraft", bug: "voted-for-not-persisted",
          kind: STATE, subject: "votedFor", build: || xraft(
              RaftSpecConfig { dup_limit: 0, client_request_limit: 0, ..xraft_model() },
              XraftBugs { voted_for_not_persisted: true, ..XraftBugs::none() }) },
    Row { id: "Xraft Bug #3 (new)", class: IMPL, target: "xraft", bug: "noop-log-grant",
          kind: UNEXPECTED, subject: "HandleRequestVoteResponse", build: || xraft(
              RaftSpecConfig { dup_limit: 0, restart_limit: 0, client_request_limit: 0, max_term: 3,
                               ..xraft_model() },
              XraftBugs { noop_log_grant: true, ..XraftBugs::none() }) },
    Row { id: "Raft-java Bug #1", class: IMPL, target: "raft-java",
          bug: "ignore-extra-vote-response", kind: MISSING, subject: "HandleRequestVoteResponse",
          build: || raft_java(
              RaftSpecConfig { max_term: 2, client_request_limit: 0, candidates: Some(vec![1]),
                               ..raft_java_model() },
              SyncRaftBugs { ignore_extra_vote_response: true, ..SyncRaftBugs::none() }, false) },
    Row { id: "Raft-java Bug #2", class: IMPL, target: "raft-java", bug: "log-truncation",
          kind: STATE, subject: "log", build: || Target {
              case_filter: Some(two_elections_two_writes),
              ..raft_java(
                  RaftSpecConfig::raft_java_log_conflict(),
                  SyncRaftBugs { log_truncation_bug: true, ..SyncRaftBugs::none() }, false) } },
    Row { id: "ZooKeeper Bug #1", class: IMPL, target: "zab", bug: "election-echo-storm",
          kind: UNEXPECTED, subject: "HandleVote", build: || zab(
              zab_model(), ZabBugs { election_echo_storm: true, ..ZabBugs::none() }) },
    Row { id: "ZooKeeper Bug #2", class: IMPL, target: "zab", bug: "epoch-marker-race",
          kind: MISSING, subject: "StartElection", build: || zab(
              ZabSpecConfig { restart_limit: 1, client_request_limit: 0, ..zab_model() },
              ZabBugs { epoch_marker_race: true, ..ZabBugs::none() }) },
    // The two official-spec issues: a conformant implementation against
    // the buggy specification, under the two §6.1 mappings of UpdateTerm.
    Row { id: "Raft-spec issue #1 (new)", class: SPEC, target: "raft-java",
          bug: "spec-update-term", kind: STATE, subject: "messages",
          build: || raft_java(raft_official_model(), SyncRaftBugs::none(), true) },
    Row { id: "Raft-spec issue #2 (new)", class: SPEC, target: "raft-java",
          bug: "spec-missing-reply", kind: MISSING, subject: "UpdateTerm",
          build: || raft_java(raft_official_model(), SyncRaftBugs::none(), false) },
];

/// The CLI's target names.
pub const TARGETS: [&str; 3] = ["xraft", "raft-java", "zab"];

/// The CLI's spec names (`check` / `generate`).
pub const SPECS: [&str; 5] = ["cachemax", "xraft", "raft-java", "raft-official", "zab"];

/// The bug names of `target`, in table order.
pub fn bugs_of(target: &str) -> Vec<&'static str> {
    TABLE2.iter().filter(|r| r.target == target).map(|r| r.bug).collect()
}

/// Resolves a CLI `(target, bug)` name: no bug is the conformant
/// implementation against the target's base model, a bug its Table-2
/// row. The error lists the valid names.
pub fn by_name(target: &str, bug: Option<&str>) -> Result<Target, String> {
    let found = match (target, bug) {
        ("xraft", None) => Some(xraft(xraft_model(), XraftBugs::none())),
        ("raft-java", None) => Some(raft_java(raft_java_model(), SyncRaftBugs::none(), false)),
        ("zab", None) => Some(zab(zab_model(), ZabBugs::none())),
        (_, None) => None,
        (_, Some(bug)) => TABLE2
            .iter()
            .find(|r| r.target == target && r.bug == bug)
            .map(Row::target),
    };
    found.ok_or_else(|| {
        let valid: Vec<String> = TARGETS
            .iter()
            .map(|t| format!("{t} [{}]", bugs_of(t).join(", ")))
            .collect();
        let bug = bug.map(|b| format!(" --bug {b}")).unwrap_or_default();
        format!("unknown target `{target}{bug}` (valid targets [bugs]: {})", valid.join("; "))
    })
}

/// Resolves a CLI spec name (see [`SPECS`]).
pub fn spec_named(name: &str) -> Result<Arc<dyn Spec>, String> {
    match name {
        "cachemax" => Ok(Arc::new(CacheMax::paper_model())),
        "raft-official" => Ok(Arc::new(RaftSpec::new(raft_official_model()))),
        _ => by_name(name, None)
            .map(|t| t.spec)
            .map_err(|_| format!("unknown spec `{name}` (valid: {})", SPECS.join(", "))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_maps_onto_its_spec() {
        for row in &TABLE2 {
            let t = row.target();
            assert_eq!(t.name, row.target, "{}", row.id);
            let issues = t.registry.validate(t.spec.as_ref());
            assert!(issues.is_empty(), "{}: {issues:?}", row.id);
        }
        for name in TARGETS {
            let t = by_name(name, None).unwrap();
            assert!(t.registry.validate(t.spec.as_ref()).is_empty(), "{name}");
        }
    }

    #[test]
    fn by_name_round_trips_the_nine_rows_in_paper_order() {
        let names: Vec<(&str, &str)> = TABLE2.iter().map(|r| (r.target, r.bug)).collect();
        let listed: Vec<(&str, &str)> = TARGETS
            .iter()
            .flat_map(|t| bugs_of(t).into_iter().map(move |b| (*t, b)))
            .collect();
        assert_eq!(names.len(), 9);
        for name in &names {
            assert!(listed.contains(name), "{name:?} missing from the listing");
            assert_eq!(by_name(name.0, Some(name.1)).unwrap().name, name.0);
        }
        assert_eq!(TABLE2[4].bug, "log-truncation");
        assert!(TABLE2[4].target().case_filter.is_some(), "the deep row is scoped");
        assert!(TABLE2[..7].iter().all(|r| r.class == IMPL));
        assert!(TABLE2[7..].iter().all(|r| r.class == SPEC));
    }

    #[test]
    fn unknown_names_are_rejected_with_the_valid_ones() {
        let unknown = [("raft", None), ("xraft", Some("log-truncation")), ("zab", Some(""))];
        for (target, bug) in unknown {
            let err = by_name(target, bug).err().expect("must be rejected");
            for row in &TABLE2 {
                assert!(err.contains(row.bug), "{err}");
            }
            assert!(!err.contains('\n'), "one line: {err}");
        }
        let err = spec_named("raft").err().expect("must be rejected");
        assert!(SPECS.iter().all(|s| err.contains(s)), "{err}");
        for name in SPECS {
            assert!(spec_named(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn log_truncation_row_runs_the_shared_deep_model() {
        // One definition: the row, `mocket_bench::raft_java_model()`
        // (pinned from its side in crates/bench/src/lib.rs) and through
        // it perfbench's `raftjava-graph` all call this constructor.
        let deep = RaftSpecConfig::raft_java_log_conflict();
        let by_hand = RaftSpecConfig {
            max_term: 3,
            client_request_limit: 2,
            candidates: Some(vec![1, 2]),
            max_in_flight: 1,
            ..raft_java_model()
        };
        assert_eq!(deep, by_hand);
        let check = |spec| mocket_checker::ModelChecker::new(spec).run().stats;
        let (row, model) = (check(TABLE2[4].target().spec), check(Arc::new(RaftSpec::new(deep))));
        assert_eq!(
            (row.distinct_states, row.edges, row.depth),
            (model.distinct_states, model.edges, model.depth)
        );
    }
}
