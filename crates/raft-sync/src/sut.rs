//! Wiring SyncRaft to Mocket: mapping, external driver, SUT factory.
//!
//! The sync-communication variant has no drop/duplicate faults
//! (§5.2), so its mapping omits the two overriding switches. The
//! official-specification testing of §6.1 additionally maps the
//! spec's independent `UpdateTerm` onto the implementation's
//! `stepDown` region (see [`make_sut_full`]).

use mocket_core::mapping::{ActionBinding, MappingRegistry};
use mocket_dsnet::{Net, NodeId};
use mocket_runtime::{Backend, Cluster, ClusterSut, ScriptDriver};
use mocket_tla::{ActionClass, Value};

use crate::bugs::SyncRaftBugs;

use crate::node::{SyncRaftNode, ROLE_CANDIDATE, ROLE_FOLLOWER, ROLE_LEADER};

/// The spec↔implementation mapping for SyncRaft.
///
/// `with_update_term` additionally binds the official spec's
/// `UpdateTerm` action to the `stepDown` code region (needed when
/// testing against [`mocket_specs::raft::RaftSpecConfig::official_buggy`]).
pub fn mapping(with_update_term: bool) -> MappingRegistry {
    let mut r = MappingRegistry::new();
    r.map_message_pool("messages", true)
        .map_class_field("state", "role")
        .map_class_field("currentTerm", "term")
        .map_class_field("votedFor", "votedFor")
        .map_class_field("votesGranted", "votes")
        .map_class_field("log", "log")
        .map_class_field("commitIndex", "commitIndex")
        .map_class_field("nextIndex", "nextIndex")
        .map_class_field("matchIndex", "matchIndex");
    r.map_action(
        "Timeout",
        "electionTimer",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "RequestVote",
        "sendVoteRequest",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandleRequestVoteRequest",
        "onVoteRequest",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleRequestVoteResponse",
        "onVoteReply",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "BecomeLeader",
        "electLeader",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "ClientRequest",
        "run_client.sh",
        ActionClass::UserRequest,
        ActionBinding::Script,
    )
    .map_action(
        "AppendEntries",
        "sendEntries",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandleAppendEntriesRequest",
        "onAppendEntries",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleAppendEntriesResponse",
        "onAppendReply",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "AdvanceCommitIndex",
        "advanceCommit",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "Restart",
        "restart_node.sh",
        ActionClass::ExternalFault,
        ActionBinding::Script,
    )
    .map_action(
        "Crash",
        "kill_node.sh",
        ActionClass::ExternalFault,
        ActionBinding::Script,
    );
    if with_update_term {
        r.map_action(
            "UpdateTerm",
            "stepDown",
            ActionClass::MessageReceive,
            ActionBinding::Snippet,
        );
    }
    r.bind_const(Value::str("Follower"), Value::str(ROLE_FOLLOWER));
    r.bind_const(Value::str("Candidate"), Value::str(ROLE_CANDIDATE));
    r.bind_const(Value::str("Leader"), Value::str(ROLE_LEADER));
    r
}

/// Builds a deployable SyncRaft cluster (conformant or with seeded
/// bugs) as a Mocket system under test.
///
/// `expose_update_term`: whether the `stepDown` region notifies the
/// testbed standalone. With `false` (the natural mapping) the official
/// spec's independent `UpdateTerm` is a *missing action*; with `true`
/// executing it runs the whole handler and the message pool diverges
/// (*inconsistent state* `messages`) — the two spec-bug rows of
/// Table 2.
///
/// `fault_plan`: an optional seed-driven fault plan installed on the
/// network before deployment. Under [`Backend::Sim`] the network
/// additionally runs on the simulation's shared virtual clock, so
/// time-based delay faults and time-mode partition heals mature in
/// virtual time.
pub fn make_sut_full(
    servers: Vec<NodeId>,
    bugs: SyncRaftBugs,
    expose_update_term: bool,
    backend: Backend,
    fault_plan: Option<mocket_dsnet::FaultPlan>,
) -> ClusterSut<SyncRaftNode> {
    let mut net = Net::new(servers.iter().copied());
    if let Some(plan) = fault_plan {
        net.install_fault_plan(plan);
    }
    let config = (servers.clone(), bugs, expose_update_term);
    let cluster = Cluster::new(config, net, backend);
    ClusterSut::new(cluster, servers, ScriptDriver::new("clientWrite"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_specs::raft::{RaftSpec, RaftSpecConfig};

    #[test]
    fn mapping_is_valid_for_the_sync_spec() {
        let spec = RaftSpec::new(RaftSpecConfig::raft_java(vec![1, 2, 3]));
        let issues = mapping(false).validate(&spec);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn official_spec_requires_update_term_mapping() {
        let spec = RaftSpec::new(RaftSpecConfig::official_buggy(vec![1, 2]));
        assert!(
            !mapping(false).validate(&spec).is_empty(),
            "UpdateTerm must be reported unmapped"
        );
        assert!(mapping(true).validate(&spec).is_empty());
    }
}
