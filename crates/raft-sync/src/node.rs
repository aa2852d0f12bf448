//! The SyncRaft node (Raft-java analog).
//!
//! Independently structured from AsyncRaft: a `Role` enum, a
//! [`crate::logstore::LogStore`] for the log, synchronous-RPC style
//! messaging with no drop/duplicate faults, and no NoOp entry on
//! election — the implementation choices §5.2 attributes to
//! Raft-java. Hook names follow Raft-java's method names.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mocket_core::sut::MsgEvent;
use mocket_dsnet::{Net, NodeId, Storage};
use mocket_runtime::{NodeApp, Shadow, VarRegistry};
use mocket_tla::{ActionInstance, Value};

use crate::bugs::SyncRaftBugs;
use crate::logstore::{LogEntry, LogStore};
use crate::msg::Rpc;

/// Raft-java role names (constant-mapped to the spec's).
pub const ROLE_FOLLOWER: &str = "NODE_STATE_FOLLOWER";
/// Candidate role.
pub const ROLE_CANDIDATE: &str = "NODE_STATE_CANDIDATE";
/// Leader role.
pub const ROLE_LEADER: &str = "NODE_STATE_LEADER";

/// The message pool name.
pub const POOL: &str = "messages";

/// A SyncRaft node.
pub struct SyncRaftNode {
    id: NodeId,
    servers: Vec<NodeId>,
    bugs: SyncRaftBugs,
    /// Mirror the official spec's `UpdateTerm` as a standalone hook
    /// (see `sut::make_sut_full`): when false, the `stepDown`
    /// region never notifies on its own, which is what makes the
    /// official spec's independent `UpdateTerm` a *missing action*.
    expose_update_term: bool,
    net: Arc<Net<Rpc>>,
    storage: Arc<Storage<Value>>,
    registry: Arc<VarRegistry>,

    role: Shadow<String>,
    term: Shadow<i64>,
    voted_for: Shadow<Value>,
    votes: Shadow<Value>,
    voters: BTreeSet<NodeId>,
    commit: Shadow<i64>,
    log: LogStore,
    next_index: BTreeMap<NodeId, i64>,
    match_index: BTreeMap<NodeId, i64>,
    /// Raft-java bug #1 bookkeeping: once one vote reply is processed
    /// in a round, the callback is deregistered and later replies are
    /// silently discarded.
    vote_reply_seen: bool,
}

impl SyncRaftNode {
    /// Creates (or restarts) a node, recovering durable state.
    pub fn new(
        id: NodeId,
        servers: Vec<NodeId>,
        bugs: SyncRaftBugs,
        expose_update_term: bool,
        net: Arc<Net<Rpc>>,
        storage: Arc<Storage<Value>>,
    ) -> Self {
        let registry = VarRegistry::new();
        let term = storage.get("term").and_then(|v| v.as_int()).unwrap_or(1);
        let voted_for = storage.get("votedFor").unwrap_or(Value::Nil);
        let log = LogStore::open(storage.clone(), bugs.log_truncation_bug);
        let mut node = SyncRaftNode {
            id,
            role: Shadow::new("role", ROLE_FOLLOWER.to_string(), registry.clone()),
            term: Shadow::new("term", term, registry.clone()),
            voted_for: Shadow::new("votedFor", voted_for, registry.clone()),
            votes: Shadow::new("votes", Value::empty_set(), registry.clone()),
            voters: BTreeSet::new(),
            commit: Shadow::new("commitIndex", 0, registry.clone()),
            log,
            next_index: servers.iter().map(|&j| (j, 1)).collect(),
            match_index: servers.iter().map(|&j| (j, 0)).collect(),
            vote_reply_seen: false,
            servers,
            bugs,
            expose_update_term,
            net,
            storage,
            registry,
        };
        node.mirror_log();
        node.mirror_indexes();
        node
    }

    fn quorum(&self) -> usize {
        self.servers.len() / 2 + 1
    }

    fn mirror_log(&mut self) {
        self.registry.write("log", self.log.to_value());
    }

    fn mirror_indexes(&mut self) {
        self.registry.write(
            "nextIndex",
            Value::Fun(
                self.next_index
                    .iter()
                    .map(|(&j, &v)| (Value::Int(j as i64), Value::Int(v)))
                    .collect(),
            ),
        );
        self.registry.write(
            "matchIndex",
            Value::Fun(
                self.match_index
                    .iter()
                    .map(|(&j, &v)| (Value::Int(j as i64), Value::Int(v)))
                    .collect(),
            ),
        );
    }

    fn set_votes(&mut self) {
        self.votes.set(Value::set(
            self.voters.iter().map(|&v| Value::Int(v as i64)),
        ));
    }

    fn persist_term(&self) {
        self.storage.put("term", Value::Int(*self.term.get()));
    }

    fn persist_vote(&self) {
        self.storage.put("votedFor", self.voted_for.get().clone());
    }

    /// Raft-java's `stepDown`: adopt a higher term as follower.
    fn step_down(&mut self, term: i64) {
        self.term.set(term);
        self.persist_term();
        self.role.set(ROLE_FOLLOWER.to_string());
        self.voted_for.set(Value::Nil);
        self.persist_vote();
        self.vote_reply_seen = false;
    }

    fn send(&self, rpc: Rpc) -> MsgEvent {
        let value = rpc.to_value();
        self.net
            .send(self.id, rpc.dest(), &rpc)
            .expect("wire encode");
        MsgEvent::Send {
            pool: POOL.into(),
            msg: value,
        }
    }

    fn take(&self, wanted: &Value) -> Option<Rpc> {
        self.net
            .take_matching(self.id, |env| env.msg.to_value() == *wanted)
            .map(|env| env.msg)
    }

    fn log_up_to_date(&self, last_term: i64, last_index: i64) -> bool {
        last_term > self.log.last_term()
            || (last_term == self.log.last_term() && last_index >= self.log.len())
    }

    // ------------------------------------------------------------------
    // Handlers (Raft-java method analogs).
    // ------------------------------------------------------------------

    fn election_timer(&mut self) -> Vec<MsgEvent> {
        let term = *self.term.get() + 1;
        self.term.set(term);
        self.persist_term();
        self.role.set(ROLE_CANDIDATE.to_string());
        self.voted_for.set(Value::Int(self.id as i64));
        self.persist_vote();
        self.voters.clear();
        self.voters.insert(self.id);
        self.set_votes();
        self.vote_reply_seen = false;
        Vec::new()
    }

    fn send_vote_request(&mut self, peer: NodeId) -> Vec<MsgEvent> {
        vec![self.send(Rpc::VoteCall {
            term: *self.term.get(),
            last_log_term: self.log.last_term(),
            last_log_index: self.log.len(),
            from: self.id,
            to: peer,
        })]
    }

    fn on_vote_request(&mut self, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(wanted) else {
            return Vec::new();
        };
        let mut events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: rpc.to_value(),
        }];
        let Rpc::VoteCall {
            term,
            last_log_term,
            last_log_index,
            from,
            ..
        } = rpc
        else {
            return events;
        };
        if term > *self.term.get() {
            self.step_down(term);
        }
        if term < *self.term.get() {
            return events;
        }
        let free =
            self.voted_for.get() == &Value::Nil || self.voted_for.get() == &Value::Int(from as i64);
        if free && self.log_up_to_date(last_log_term, last_log_index) {
            self.voted_for.set(Value::Int(from as i64));
            self.persist_vote();
            events.push(self.send(Rpc::VoteReply {
                term: *self.term.get(),
                granted: true,
                from: self.id,
                to: from,
            }));
        }
        events
    }

    fn on_vote_reply(&mut self, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(wanted) else {
            return Vec::new();
        };
        let events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: rpc.to_value(),
        }];
        let Rpc::VoteReply {
            term,
            granted,
            from,
            ..
        } = rpc
        else {
            return events;
        };
        if granted && self.role.get() == ROLE_CANDIDATE && term == *self.term.get() {
            self.voters.insert(from);
            self.set_votes();
            self.vote_reply_seen = true;
        }
        events
    }

    fn elect_leader(&mut self) -> Vec<MsgEvent> {
        self.role.set(ROLE_LEADER.to_string());
        let next = self.log.len() + 1;
        for &j in &self.servers.clone() {
            self.next_index.insert(j, next);
            self.match_index.insert(j, 0);
        }
        self.mirror_indexes();
        Vec::new()
    }

    fn client_write(&mut self, datum: i64) -> Vec<MsgEvent> {
        let term = *self.term.get();
        self.log.append(LogEntry { term, data: datum });
        self.mirror_log();
        Vec::new()
    }

    fn send_entries(&mut self, peer: NodeId) -> Vec<MsgEvent> {
        let next = self.next_index[&peer];
        let prev_index = next - 1;
        let prev_term = self.log.term_at(prev_index);
        let entries: Vec<LogEntry> = self.log.get(next).cloned().into_iter().collect();
        let commit = (*self.commit.get()).min(prev_index + entries.len() as i64);
        vec![self.send(Rpc::AppendCall {
            term: *self.term.get(),
            prev_index,
            prev_term,
            entries,
            commit,
            from: self.id,
            to: peer,
        })]
    }

    fn on_append_entries(&mut self, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(wanted) else {
            return Vec::new();
        };
        let mut events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: rpc.to_value(),
        }];
        let Rpc::AppendCall {
            term,
            prev_index,
            prev_term,
            entries,
            commit,
            from,
            ..
        } = rpc
        else {
            return events;
        };
        if term > *self.term.get() {
            self.step_down(term);
        }
        let my_term = *self.term.get();
        if term < my_term {
            events.push(self.send(Rpc::AppendReply {
                term: my_term,
                ok: false,
                match_index: 0,
                from: self.id,
                to: from,
            }));
            return events;
        }
        if self.role.get() == ROLE_CANDIDATE {
            // Same-term leader exists: back to follower, keep the vote.
            self.role.set(ROLE_FOLLOWER.to_string());
        }
        if self.role.get() == ROLE_LEADER {
            return events;
        }
        let log_ok = prev_index == 0
            || (prev_index <= self.log.len() && self.log.term_at(prev_index) == prev_term);
        if !log_ok {
            events.push(self.send(Rpc::AppendReply {
                term: my_term,
                ok: false,
                match_index: 0,
                from: self.id,
                to: from,
            }));
            return events;
        }
        self.log.splice(prev_index, &entries);
        self.mirror_log();
        let match_len = prev_index + entries.len() as i64;
        let new_commit = (*self.commit.get()).max(commit.min(self.log.len()));
        self.commit.set(new_commit);
        events.push(self.send(Rpc::AppendReply {
            term: my_term,
            ok: true,
            match_index: match_len,
            from: self.id,
            to: from,
        }));
        events
    }

    fn on_append_reply(&mut self, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(wanted) else {
            return Vec::new();
        };
        let events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: rpc.to_value(),
        }];
        let Rpc::AppendReply {
            term,
            ok,
            match_index,
            from,
            ..
        } = rpc
        else {
            return events;
        };
        if self.role.get() == ROLE_LEADER && term == *self.term.get() {
            if ok {
                self.next_index.insert(from, match_index + 1);
                self.match_index.insert(from, match_index);
            } else {
                let cur = self.next_index[&from];
                self.next_index.insert(from, (cur - 1).max(1));
            }
            self.mirror_indexes();
        }
        events
    }

    fn advance_commit(&mut self) -> Vec<MsgEvent> {
        if let Some(best) = self.computable_commit() {
            self.commit.set(best);
        }
        Vec::new()
    }

    fn computable_commit(&self) -> Option<i64> {
        let commit = *self.commit.get();
        let my_term = *self.term.get();
        let mut best = commit;
        for n in (commit + 1)..=self.log.len() {
            if self.log.term_at(n) != my_term {
                continue;
            }
            let acks = 1 + self
                .servers
                .iter()
                .filter(|&&j| j != self.id && self.match_index[&j] >= n)
                .count();
            if acks >= self.quorum() {
                best = n;
            }
        }
        (best > commit).then_some(best)
    }
}

impl NodeApp for SyncRaftNode {
    fn enabled(&mut self) -> Vec<ActionInstance> {
        let mut offers = Vec::new();
        let me = Value::Int(self.id as i64);
        let role = self.role.get().clone();

        if role != ROLE_LEADER {
            offers.push(ActionInstance::new("electionTimer", vec![me.clone()]));
        }
        if role == ROLE_CANDIDATE {
            for &j in &self.servers {
                if j != self.id && !self.voters.contains(&j) {
                    offers.push(ActionInstance::new(
                        "sendVoteRequest",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
            }
            if self.voters.len() >= self.quorum() {
                offers.push(ActionInstance::new("electLeader", vec![me.clone()]));
            }
        }
        if role == ROLE_LEADER {
            for &j in &self.servers {
                if j != self.id
                    && (self.log.len() >= self.next_index[&j]
                        || *self.commit.get() > self.match_index[&j])
                {
                    offers.push(ActionInstance::new(
                        "sendEntries",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
            }
            if self.computable_commit().is_some() {
                offers.push(ActionInstance::new("advanceCommit", vec![me.clone()]));
            }
        }

        for env in self.net.inbox(self.id) {
            let hook = match env.msg {
                Rpc::VoteCall { .. } => "onVoteRequest",
                Rpc::VoteReply { .. } => {
                    // Raft-java bug #1: after the first processed vote
                    // reply the callback is gone — later replies are
                    // discarded without ever notifying the testbed.
                    if self.bugs.ignore_extra_vote_response && self.vote_reply_seen {
                        continue;
                    }
                    "onVoteReply"
                }
                Rpc::AppendCall { .. } => "onAppendEntries",
                Rpc::AppendReply { .. } => "onAppendReply",
            };
            let offer = ActionInstance::new(hook, vec![env.msg.to_value()]);
            if !offers.contains(&offer) {
                offers.push(offer);
            }
            // The official spec's independent UpdateTerm, mapped onto
            // the stepDown region: only notifies standalone when the
            // adapter exposes it.
            if self.expose_update_term {
                let mterm = env.msg.to_value().expect_field("mterm").expect_int();
                if mterm > *self.term.get() {
                    let offer = ActionInstance::new("stepDown", vec![env.msg.to_value()]);
                    if !offers.contains(&offer) {
                        offers.push(offer);
                    }
                }
            }
        }
        offers
    }

    fn execute(&mut self, action: &ActionInstance) -> Vec<MsgEvent> {
        match action.name.as_str() {
            "electionTimer" => self.election_timer(),
            "sendVoteRequest" => self.send_vote_request(action.params[1].expect_int() as NodeId),
            "onVoteRequest" => self.on_vote_request(&action.params[0]),
            "onVoteReply" => self.on_vote_reply(&action.params[0]),
            "electLeader" => self.elect_leader(),
            "clientWrite" => self.client_write(action.params[0].expect_int()),
            "sendEntries" => self.send_entries(action.params[1].expect_int() as NodeId),
            "onAppendEntries" => self.on_append_entries(&action.params[0]),
            "onAppendReply" => self.on_append_reply(&action.params[0]),
            "advanceCommit" => self.advance_commit(),
            // Scheduling the stepDown region runs the *whole* handler
            // it lives in — the implementation cannot update the term
            // without also processing the message, which is exactly
            // the inconsistency the official spec's bug #1 causes.
            "stepDown" => {
                let m = &action.params[0];
                match m.expect_field("mtype").expect_str() {
                    "RequestVoteRequest" => self.on_vote_request(m),
                    "RequestVoteResponse" => self.on_vote_reply(m),
                    "AppendEntriesRequest" => self.on_append_entries(m),
                    _ => self.on_append_reply(m),
                }
            }
            other => panic!("unknown action {other}"),
        }
    }

    fn registry(&self) -> Arc<VarRegistry> {
        self.registry.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_dsnet::ClusterStorage;

    fn cluster(n: u64, bugs: SyncRaftBugs) -> (Vec<SyncRaftNode>, Arc<Net<Rpc>>) {
        let servers: Vec<NodeId> = (1..=n).collect();
        let net = Net::new(servers.iter().copied());
        let storage = ClusterStorage::new();
        let nodes = servers
            .iter()
            .map(|&id| {
                SyncRaftNode::new(
                    id,
                    servers.clone(),
                    bugs.clone(),
                    false,
                    net.clone(),
                    storage.for_node(id),
                )
            })
            .collect();
        (nodes, net)
    }

    fn exec(n: &mut SyncRaftNode, name: &str, params: Vec<Value>) -> Vec<MsgEvent> {
        n.execute(&ActionInstance::new(name, params))
    }

    #[test]
    fn election_without_noop() {
        let (mut nodes, net) = cluster(3, SyncRaftBugs::none());
        exec(&mut nodes[0], "electionTimer", vec![Value::Int(1)]);
        exec(
            &mut nodes[0],
            "sendVoteRequest",
            vec![Value::Int(1), Value::Int(2)],
        );
        let call = net.inbox(2)[0].msg.to_value();
        exec(&mut nodes[1], "onVoteRequest", vec![call]);
        let reply = net.inbox(1)[0].msg.to_value();
        exec(&mut nodes[0], "onVoteReply", vec![reply]);
        exec(&mut nodes[0], "electLeader", vec![Value::Int(1)]);
        assert_eq!(nodes[0].role.get(), ROLE_LEADER);
        assert!(nodes[0].log.is_empty(), "Raft-java appends no NoOp");
    }

    #[test]
    fn second_vote_reply_counts_when_conformant() {
        let (mut nodes, net) = cluster(3, SyncRaftBugs::none());
        exec(&mut nodes[0], "electionTimer", vec![Value::Int(1)]);
        for j in [2usize, 3] {
            exec(
                &mut nodes[0],
                "sendVoteRequest",
                vec![Value::Int(1), Value::Int(j as i64)],
            );
            let call = net.inbox(j as u64)[0].msg.to_value();
            exec(&mut nodes[j - 1], "onVoteRequest", vec![call]);
        }
        // Two replies waiting; both must be offered.
        let reply1 = net.inbox(1)[0].msg.to_value();
        exec(&mut nodes[0], "onVoteReply", vec![reply1]);
        let offers = nodes[0].enabled();
        assert!(
            offers.iter().any(|a| a.name == "onVoteReply"),
            "second reply still offered: {offers:?}"
        );
    }

    #[test]
    fn extra_vote_reply_discarded_with_bug() {
        let bugs = SyncRaftBugs {
            ignore_extra_vote_response: true,
            ..SyncRaftBugs::none()
        };
        let (mut nodes, net) = cluster(3, bugs);
        exec(&mut nodes[0], "electionTimer", vec![Value::Int(1)]);
        for j in [2usize, 3] {
            exec(
                &mut nodes[0],
                "sendVoteRequest",
                vec![Value::Int(1), Value::Int(j as i64)],
            );
            let call = net.inbox(j as u64)[0].msg.to_value();
            exec(&mut nodes[j - 1], "onVoteRequest", vec![call]);
        }
        let reply1 = net.inbox(1)[0].msg.to_value();
        exec(&mut nodes[0], "onVoteReply", vec![reply1]);
        let offers = nodes[0].enabled();
        assert!(
            !offers.iter().any(|a| a.name == "onVoteReply"),
            "the deregistered callback never notifies: {offers:?}"
        );
    }

    #[test]
    fn conflicting_entry_is_replaced_when_conformant() {
        let (mut nodes, net) = cluster(3, SyncRaftBugs::none());
        // Node 2 has a stale entry from term 2.
        nodes[1].step_down(2);
        nodes[1].log.append(LogEntry { term: 2, data: 1 });
        nodes[1].mirror_log();
        // Node 1 leads term 3 and ships a conflicting entry.
        exec(&mut nodes[0], "electionTimer", vec![Value::Int(1)]);
        exec(&mut nodes[0], "electionTimer", vec![Value::Int(1)]);
        nodes[0].elect_leader();
        nodes[0].client_write(9);
        exec(
            &mut nodes[0],
            "sendEntries",
            vec![Value::Int(1), Value::Int(2)],
        );
        let call = net.inbox(2)[0].msg.to_value();
        exec(&mut nodes[1], "onAppendEntries", vec![call]);
        assert_eq!(nodes[1].log.len(), 1);
        assert_eq!(nodes[1].log.get(1).unwrap().term, 3);
    }

    #[test]
    fn truncation_bug_keeps_conflicting_entry() {
        let bugs = SyncRaftBugs {
            log_truncation_bug: true,
            ..SyncRaftBugs::none()
        };
        let (mut nodes, net) = cluster(3, bugs);
        nodes[1].step_down(2);
        nodes[1].log.append(LogEntry { term: 2, data: 1 });
        nodes[1].mirror_log();
        exec(&mut nodes[0], "electionTimer", vec![Value::Int(1)]);
        exec(&mut nodes[0], "electionTimer", vec![Value::Int(1)]);
        nodes[0].elect_leader();
        nodes[0].client_write(9);
        exec(
            &mut nodes[0],
            "sendEntries",
            vec![Value::Int(1), Value::Int(2)],
        );
        let call = net.inbox(2)[0].msg.to_value();
        exec(&mut nodes[1], "onAppendEntries", vec![call]);
        assert_eq!(nodes[1].log.len(), 2, "the stale entry survived");
        assert_eq!(nodes[1].log.get(1).unwrap().term, 2);
    }
}
