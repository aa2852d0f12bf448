//! Wiring AsyncRaft to Mocket: mapping, external driver, SUT factory.
//!
//! This module is the §4.1 "map the specification to the
//! implementation" step for the Xraft analog: every spec variable and
//! action is bound to its implementation counterpart, constants are
//! translated, and the external faults / user requests are implemented
//! as testbed-side drivers (the paper's scripts and overriding
//! switches).

use mocket_core::mapping::{ActionBinding, MappingRegistry};
use mocket_core::sut::{record_int_field, ExecReport, MsgEvent, SutError};
use mocket_dsnet::{Net, NodeId};
use mocket_runtime::{Backend, Cluster, ClusterSut, ExternalDriver, ScriptDriver};
use mocket_tla::{ActionClass, ActionInstance, Value};

use crate::bugs::XraftBugs;
use crate::msg::RaftMsg;
use crate::node::{AsyncRaftNode, POOL, STATE_CANDIDATE, STATE_FOLLOWER, STATE_LEADER};

/// Builds the spec↔implementation mapping for AsyncRaft (Table 1's
/// "Mapping" column for Xraft).
pub fn mapping() -> MappingRegistry {
    let mut r = MappingRegistry::new();
    // Variables (§4.1.1).
    r.map_message_pool("messages", true)
        .map_class_field("state", "state")
        .map_class_field("currentTerm", "currentTerm")
        .map_class_field("votedFor", "votedFor")
        .map_class_field_cardinality("votesGranted", "votesGranted")
        .map_class_field("log", "log")
        .map_class_field("commitIndex", "commitIndex")
        .map_class_field("nextIndex", "nextIndex")
        .map_class_field("matchIndex", "matchIndex");
    // Actions (§4.1.2).
    r.map_action(
        "Timeout",
        "onElectionTimeout",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "RequestVote",
        "doRequestVote",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandleRequestVoteRequest",
        "onRequestVoteRpc",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleRequestVoteResponse",
        "onRequestVoteResult",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "BecomeLeader",
        "becomeLeader",
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
        "doReplicateLog",
        ActionClass::MessageSend,
        ActionBinding::Method,
    )
    .map_action(
        "HandleAppendEntriesRequest",
        "onAppendEntriesRpc",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "HandleAppendEntriesResponse",
        "onAppendEntriesResult",
        ActionClass::MessageReceive,
        ActionBinding::Method,
    )
    .map_action(
        "AdvanceCommitIndex",
        "advanceCommitIndex",
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
    )
    .map_action(
        "DropMessage",
        "drop_switch",
        ActionClass::ExternalFault,
        ActionBinding::Script,
    )
    .map_action(
        "DuplicateMessage",
        "dup_switch",
        ActionClass::ExternalFault,
        ActionBinding::Script,
    );
    // Constants (§4.1.3).
    r.bind_const(Value::str("Follower"), Value::str(STATE_FOLLOWER));
    r.bind_const(Value::str("Candidate"), Value::str(STATE_CANDIDATE));
    r.bind_const(Value::str("Leader"), Value::str(STATE_LEADER));
    r
}

/// Testbed-side driver for external faults and user requests: the
/// shared scripts plus the drop/duplicate overriding switches.
#[derive(Clone)]
struct XraftDriver {
    scripts: ScriptDriver,
}

impl ExternalDriver<AsyncRaftNode> for XraftDriver {
    fn execute(
        &mut self,
        cluster: &mut Cluster<AsyncRaftNode>,
        action: &ActionInstance,
    ) -> Result<ExecReport, SutError> {
        let drop = match action.name.as_str() {
            "DropMessage" => true,
            "DuplicateMessage" => false,
            _ => return self.scripts.execute(cluster, action),
        };
        let wanted = action.params.first().ok_or_else(|| {
            SutError::External(format!(
                "{}: missing parameter 0 (got 0 parameters)",
                action.name
            ))
        })?;
        let dest = record_int_field(wanted, "mdest")? as NodeId;
        let net = cluster.net_mut();
        let matches = |env: &mocket_dsnet::Envelope<RaftMsg>| env.msg.to_value() == *wanted;
        let (pool, msg) = (POOL.into(), wanted.clone());
        let (found, event, verb) = if drop {
            let found = net.drop_matching(dest, matches);
            (found, MsgEvent::Drop { pool, msg }, "drop")
        } else {
            let found = net.duplicate_matching(dest, matches);
            (found, MsgEvent::Duplicate { pool, msg }, "duplicate")
        };
        found.ok_or_else(|| SutError::External(format!("no such message to {verb}: {wanted}")))?;
        Ok(ExecReport {
            msg_events: vec![event],
        })
    }
}

/// Builds a deployable AsyncRaft cluster as a Mocket system under
/// test, on an explicit cluster backend. Every call creates a fresh
/// network and fresh durable storage (one cluster per test case,
/// §4.3.2). Disk-loss faults erase a node's storage, so the next
/// restart recovers nothing (unlike a plain Restart, which reloads
/// whatever the node persisted). The fourth parameter is always
/// `None` (see [`mocket_dsnet::FaultPlan`]).
pub fn make_sut_full(
    servers: Vec<NodeId>,
    bugs: XraftBugs,
    backend: Backend,
    _: Option<mocket_dsnet::FaultPlan>,
) -> ClusterSut<AsyncRaftNode, impl ExternalDriver<AsyncRaftNode>> {
    let net = Net::new(servers.iter().copied());
    let cluster = Cluster::new((servers.clone(), bugs), net, backend);
    let scripts = ScriptDriver::new("clientSet");
    ClusterSut::new(cluster, servers, XraftDriver { scripts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_core::SystemUnderTest;
    use mocket_specs::raft::{RaftSpec, RaftSpecConfig};

    #[test]
    fn mapping_is_valid_for_the_xraft_spec() {
        let spec = RaftSpec::new(RaftSpecConfig::xraft(vec![1, 2]));
        let issues = mapping().validate(&spec);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn parameterless_message_faults_are_typed_errors() {
        let mut sut = make_sut_full(vec![1, 2], XraftBugs::none(), Backend::Threads, None);
        sut.deploy().unwrap();
        for name in ["DropMessage", "DuplicateMessage"] {
            let err = sut
                .execute_external(&ActionInstance::nullary(name))
                .unwrap_err();
            assert!(matches!(err, SutError::External(_)), "{name}: {err:?}");
        }
        sut.teardown();
    }

    #[test]
    fn mapping_loc_is_table1_scale() {
        // Table 1 reports 151 LOC for Xraft's mapping; ours is the
        // same order of magnitude with the same weighting rule.
        let loc = mapping().mapping_loc();
        assert!((50..=200).contains(&loc), "mapping LOC {loc}");
    }
}
