//! Wiring AsyncRaft to Mocket: mapping, external driver, SUT factory.
//!
//! This module is the §4.1 "map the specification to the
//! implementation" step for the Xraft analog: every spec variable and
//! action is bound to its implementation counterpart, constants are
//! translated, and the external faults / user requests are implemented
//! as testbed-side drivers (the paper's scripts and overriding
//! switches).

use std::sync::Arc;

use mocket_core::mapping::{ActionBinding, MappingRegistry};
use mocket_core::sut::{record_int_field, ExecReport, MsgEvent, SutError};
use mocket_dsnet::{ClusterStorage, Net, NodeId};
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
struct XraftDriver {
    net: Arc<Net<RaftMsg>>,
    scripts: ScriptDriver,
}

impl ExternalDriver for XraftDriver {
    fn execute(
        &mut self,
        cluster: &mut Cluster,
        action: &ActionInstance,
    ) -> Result<ExecReport, SutError> {
        match action.name.as_str() {
            "DropMessage" => {
                let wanted = &action.params[0];
                let dest = record_int_field(wanted, "mdest")? as NodeId;
                self.net
                    .drop_matching(dest, |env| env.msg.to_value() == *wanted)
                    .ok_or_else(|| {
                        SutError::External(format!("no such message to drop: {wanted}"))
                    })?;
                Ok(ExecReport {
                    msg_events: vec![MsgEvent::Drop {
                        pool: POOL.into(),
                        msg: wanted.clone(),
                    }],
                })
            }
            "DuplicateMessage" => {
                let wanted = &action.params[0];
                let dest = record_int_field(wanted, "mdest")? as NodeId;
                self.net
                    .duplicate_matching(dest, |env| env.msg.to_value() == *wanted)
                    .ok_or_else(|| {
                        SutError::External(format!("no such message to duplicate: {wanted}"))
                    })?;
                Ok(ExecReport {
                    msg_events: vec![MsgEvent::Duplicate {
                        pool: POOL.into(),
                        msg: wanted.clone(),
                    }],
                })
            }
            _ => self.scripts.execute(cluster, action),
        }
    }
}

/// Builds a deployable AsyncRaft cluster as a Mocket system under
/// test, on an explicit cluster backend, plus an optional seed-driven
/// fault plan installed on the network before deployment. Every call
/// creates a fresh network and fresh durable storage (one cluster per
/// test case, §4.3.2). Under [`Backend::Sim`] the network runs on the
/// simulation's shared virtual clock, so time-based delay faults
/// mature deterministically in virtual time.
pub fn make_sut_full(
    servers: Vec<NodeId>,
    bugs: XraftBugs,
    backend: Backend,
    fault_plan: Option<mocket_dsnet::FaultPlan>,
) -> ClusterSut {
    let net = Net::new(servers.iter().copied());
    if let Backend::Sim(handle) = &backend {
        net.set_clock(handle.clock.clone());
    }
    if let Some(plan) = fault_plan {
        net.install_fault_plan(plan);
    }
    let storage: Arc<ClusterStorage<Value>> = ClusterStorage::new();
    let factory_net = net.clone();
    let factory_servers = servers.clone();
    let factory_storage = storage.clone();
    let cluster = Cluster::new(
        Box::new(move |id| {
            Box::new(AsyncRaftNode::new(
                id,
                factory_servers.clone(),
                bugs.clone(),
                factory_net.clone(),
                factory_storage.for_node(id),
            )) as Box<dyn mocket_runtime::NodeApp>
        }),
        backend,
    )
    // Disk-loss faults erase the node's durable storage; the next
    // restart recovers nothing (unlike a plain Restart, which reloads
    // whatever the node persisted).
    .with_disk_wiper(Box::new(move |id| {
        storage.for_node(id).wipe();
    }));
    let trace_net = net.clone();
    ClusterSut::new(
        cluster,
        servers,
        Box::new(XraftDriver {
            net,
            scripts: ScriptDriver::new("clientSet"),
        }),
    )
    .with_tracer_hook(Box::new(move |t| trace_net.set_tracer(t.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_specs::raft::{RaftSpec, RaftSpecConfig};

    #[test]
    fn mapping_is_valid_for_the_xraft_spec() {
        let spec = RaftSpec::new(RaftSpecConfig::xraft(vec![1, 2]));
        let issues = mapping().validate(&spec);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn mapping_loc_is_table1_scale() {
        // Table 1 reports 151 LOC for Xraft's mapping; ours is the
        // same order of magnitude with the same weighting rule.
        let loc = mapping().mapping_loc();
        assert!((50..=200).contains(&loc), "mapping LOC {loc}");
    }
}
