//! Wiring ZabKeeper to Mocket: mapping, external driver, SUT factory.
//!
//! Table 1's ZooKeeper row: two message-related variables mapped to
//! testbed pools (`le_msgs` and `bc_msgs`, both plain sets), the
//! state-related variables mapped to annotated fields, and the
//! election entry points mapped as code snippets (Figure 5 maps
//! `StartElection` and `HandleVote` with `Action.begin`/`end`).

use mocket_core::mapping::{ActionBinding, MappingRegistry};
use mocket_dsnet::{Net, NodeId};
use mocket_runtime::{Backend, Cluster, ClusterSut, ScriptDriver};
use mocket_tla::ActionClass;

use crate::bugs::ZabBugs;
use crate::node::ZabNode;

/// The spec↔implementation mapping for ZabKeeper.
pub fn mapping() -> MappingRegistry {
    let mut r = MappingRegistry::new();
    r.map_message_pool("le_msgs", false)
        .map_message_pool("bc_msgs", false)
        .map_class_field("zbState", "zkState")
        .map_class_field("vote", "currentVote")
        .map_class_field("voteTable", "recvSet")
        .map_class_field("leaderOf", "following")
        .map_class_field("acceptedEpoch", "acceptedEpoch")
        .map_class_field("currentEpoch", "currentEpoch")
        .map_class_field("history", "dataLog")
        .map_class_field("lastCommitted", "lastCommitted")
        .map_class_field("synced", "syncedSet")
        .map_class_field("epochAcks", "epochAckSet")
        .map_class_field("acks", "ackSet");
    // Election entry points are code snippets (Figure 5); the rest
    // are whole methods.
    r.map_action(
        "StartElection",
        "lookForLeader",
        ActionClass::SingleNode,
        ActionBinding::Snippet,
    )
    .map_action(
        "SendVote",
        "sendNotification",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandleVote",
        "handleNotification",
        ActionClass::MessageReceive,
        ActionBinding::Snippet,
    )
    .map_action(
        "DecideLeader",
        "finishElection",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "SendNewEpoch",
        "proposeNewEpoch",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandleNewEpoch",
        "onNewEpoch",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleEpochAck",
        "onEpochAck",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleNewLeader",
        "onNewLeader",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleAckLd",
        "onAckLd",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "ClientRequest",
        "zkCli_create.sh",
        ActionClass::UserRequest,
        ActionBinding::Script,
    )
    .map_action(
        "SendProposal",
        "sendProposal",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandlePropose",
        "onProposal",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleAck",
        "onAck",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "CommitProposal",
        "commitProposal",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "SendCommit",
        "sendCommitMsg",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandleCommit",
        "onCommit",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "Restart",
        "restart_zk.sh",
        ActionClass::ExternalFault,
        ActionBinding::Script,
    )
    .map_action(
        "Crash",
        "kill_zk.sh",
        ActionClass::ExternalFault,
        ActionBinding::Script,
    );
    r
}

/// Builds a deployable ZabKeeper cluster as a Mocket system under
/// test, on an explicit cluster backend. The fourth parameter is
/// always `None` (see [`mocket_dsnet::FaultPlan`]).
pub fn make_sut_full(
    servers: Vec<NodeId>,
    bugs: ZabBugs,
    backend: Backend,
    _: Option<mocket_dsnet::FaultPlan>,
) -> ClusterSut<ZabNode> {
    let net = Net::new(servers.iter().copied());
    let cluster = Cluster::new((servers.clone(), bugs), net, backend);
    ClusterSut::new(cluster, servers, ScriptDriver::new("createZNode"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_specs::zab::{ZabSpec, ZabSpecConfig};

    #[test]
    fn mapping_is_valid_for_the_zab_spec() {
        let spec = ZabSpec::new(ZabSpecConfig::small(vec![1, 2]));
        let issues = mapping().validate(&spec);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn mapping_loc_is_table1_scale() {
        let loc = mapping().mapping_loc();
        assert!((50..=250).contains(&loc), "mapping LOC {loc}");
    }
}
