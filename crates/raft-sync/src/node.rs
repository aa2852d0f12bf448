//! The SyncRaft node (Raft-java analog).
//!
//! Independently structured from AsyncRaft: a `Role` enum, a
//! [`crate::logstore::LogStore`] for the log, synchronous-RPC style
//! messaging with no drop/duplicate faults, and no NoOp entry on
//! election — the implementation choices §5.2 attributes to
//! Raft-java. Hook names follow Raft-java's method names.

use std::collections::{BTreeMap, BTreeSet};

use mocket_core::sut::MsgEvent;
use mocket_dsnet::{Net, NodeId};
use mocket_runtime::{NodeApp, NodeCx};
use mocket_tla::{ActionInstance, Value};

use crate::bugs::SyncRaftBugs;
use crate::logstore::{LogEntry, LogStore};
use crate::msg::Rpc;

type Cx<'a> = NodeCx<'a, Rpc>;

/// Raft-java role names (constant-mapped to the spec's).
pub const ROLE_FOLLOWER: &str = "NODE_STATE_FOLLOWER";
/// Candidate role.
pub const ROLE_CANDIDATE: &str = "NODE_STATE_CANDIDATE";
/// Leader role.
pub const ROLE_LEADER: &str = "NODE_STATE_LEADER";

/// The message pool name.
pub const POOL: &str = "messages";

/// A SyncRaft node.
#[derive(Clone)]
pub struct SyncRaftNode {
    id: NodeId,
    servers: Vec<NodeId>,
    bugs: SyncRaftBugs,
    /// Mirror the official spec's `UpdateTerm` as a standalone hook
    /// (see `sut::make_sut_full`): when false, the `stepDown`
    /// region never notifies on its own, which is what makes the
    /// official spec's independent `UpdateTerm` a *missing action*.
    expose_update_term: bool,

    role: &'static str,
    term: i64,
    voted_for: Value,
    /// Who granted this candidate a vote; the mapped `votes` field.
    voters: BTreeSet<NodeId>,
    commit: i64,
    log: LogStore,
    next_index: BTreeMap<NodeId, i64>,
    match_index: BTreeMap<NodeId, i64>,
    /// Raft-java bug #1 bookkeeping: once one vote reply is processed
    /// in a round, the callback is deregistered and later replies are
    /// silently discarded.
    vote_reply_seen: bool,
}

impl SyncRaftNode {
    fn quorum(&self) -> usize {
        self.servers.len() / 2 + 1
    }

    fn persist_term(&self, cx: &mut Cx<'_>) {
        cx.disk.put("term", Value::Int(self.term));
    }

    fn persist_vote(&self, cx: &mut Cx<'_>) {
        cx.disk.put("votedFor", self.voted_for.clone());
    }

    /// Raft-java's `stepDown`: adopt a higher term as follower.
    fn step_down(&mut self, cx: &mut Cx<'_>, term: i64) {
        self.term = term;
        self.persist_term(cx);
        self.role = ROLE_FOLLOWER;
        self.voted_for = Value::Nil;
        self.persist_vote(cx);
        self.vote_reply_seen = false;
    }

    fn send(&self, cx: &mut Cx<'_>, rpc: Rpc) -> MsgEvent {
        let value = rpc.to_value();
        cx.net.send(self.id, rpc.dest(), rpc);
        MsgEvent::Send {
            pool: POOL.into(),
            msg: value,
        }
    }

    fn take(&self, cx: &mut Cx<'_>, wanted: &Value) -> Option<Rpc> {
        cx.net
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

    fn election_timer(&mut self, cx: &mut Cx<'_>) -> Vec<MsgEvent> {
        self.term += 1;
        self.persist_term(cx);
        self.role = ROLE_CANDIDATE;
        self.voted_for = Value::Int(self.id as i64);
        self.persist_vote(cx);
        self.voters.clear();
        self.voters.insert(self.id);
        self.vote_reply_seen = false;
        Vec::new()
    }

    fn send_vote_request(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        vec![self.send(
            cx,
            Rpc::VoteCall {
                term: self.term,
                last_log_term: self.log.last_term(),
                last_log_index: self.log.len(),
                from: self.id,
                to: peer,
            },
        )]
    }

    fn on_vote_request(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(cx, wanted) else {
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
        if term > self.term {
            self.step_down(cx, term);
        }
        if term < self.term {
            return events;
        }
        let free = self.voted_for == Value::Nil || self.voted_for == Value::Int(from as i64);
        if free && self.log_up_to_date(last_log_term, last_log_index) {
            self.voted_for = Value::Int(from as i64);
            self.persist_vote(cx);
            events.push(self.send(
                cx,
                Rpc::VoteReply {
                    term: self.term,
                    granted: true,
                    from: self.id,
                    to: from,
                },
            ));
        }
        events
    }

    fn on_vote_reply(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(cx, wanted) else {
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
        if granted && self.role == ROLE_CANDIDATE && term == self.term {
            self.voters.insert(from);
            self.vote_reply_seen = true;
        }
        events
    }

    fn elect_leader(&mut self) -> Vec<MsgEvent> {
        self.role = ROLE_LEADER;
        let next = self.log.len() + 1;
        for &j in &self.servers.clone() {
            self.next_index.insert(j, next);
            self.match_index.insert(j, 0);
        }
        Vec::new()
    }

    fn client_write(&mut self, cx: &mut Cx<'_>, datum: i64) -> Vec<MsgEvent> {
        let term = self.term;
        self.log.append(cx.disk, LogEntry { term, data: datum });
        Vec::new()
    }

    fn send_entries(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        let next = self.next_index[&peer];
        let prev_index = next - 1;
        let prev_term = self.log.term_at(prev_index);
        let entries: Vec<LogEntry> = self.log.get(next).cloned().into_iter().collect();
        let commit = self.commit.min(prev_index + entries.len() as i64);
        vec![self.send(
            cx,
            Rpc::AppendCall {
                term: self.term,
                prev_index,
                prev_term,
                entries,
                commit,
                from: self.id,
                to: peer,
            },
        )]
    }

    fn on_append_entries(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(cx, wanted) else {
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
        if term > self.term {
            self.step_down(cx, term);
        }
        let my_term = self.term;
        if term < my_term {
            events.push(self.send(
                cx,
                Rpc::AppendReply {
                    term: my_term,
                    ok: false,
                    match_index: 0,
                    from: self.id,
                    to: from,
                },
            ));
            return events;
        }
        if self.role == ROLE_CANDIDATE {
            // Same-term leader exists: back to follower, keep the vote.
            self.role = ROLE_FOLLOWER;
        }
        if self.role == ROLE_LEADER {
            return events;
        }
        let log_ok = prev_index == 0
            || (prev_index <= self.log.len() && self.log.term_at(prev_index) == prev_term);
        if !log_ok {
            events.push(self.send(
                cx,
                Rpc::AppendReply {
                    term: my_term,
                    ok: false,
                    match_index: 0,
                    from: self.id,
                    to: from,
                },
            ));
            return events;
        }
        self.log.splice(cx.disk, prev_index, &entries);
        let match_len = prev_index + entries.len() as i64;
        self.commit = self.commit.max(commit.min(self.log.len()));
        events.push(self.send(
            cx,
            Rpc::AppendReply {
                term: my_term,
                ok: true,
                match_index: match_len,
                from: self.id,
                to: from,
            },
        ));
        events
    }

    fn on_append_reply(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(rpc) = self.take(cx, wanted) else {
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
        if self.role == ROLE_LEADER && term == self.term {
            if ok {
                self.next_index.insert(from, match_index + 1);
                self.match_index.insert(from, match_index);
            } else {
                let cur = self.next_index[&from];
                self.next_index.insert(from, (cur - 1).max(1));
            }
        }
        events
    }

    fn advance_commit(&mut self) -> Vec<MsgEvent> {
        if let Some(best) = self.computable_commit() {
            self.commit = best;
        }
        Vec::new()
    }

    fn computable_commit(&self) -> Option<i64> {
        let commit = self.commit;
        let my_term = self.term;
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
    type Msg = Rpc;
    /// The membership, the seeded bug switches and whether `stepDown`
    /// notifies standalone (see `sut::make_sut_full`).
    type Config = (Vec<NodeId>, SyncRaftBugs, bool);

    /// Boots (or restarts) a node, recovering durable state.
    fn boot(id: NodeId, config: &Self::Config, cx: &mut Cx<'_>) -> Self {
        let (servers, bugs, expose_update_term) = config.clone();
        let term = cx.disk.get("term").and_then(Value::as_int).unwrap_or(1);
        let voted_for = cx.disk.get("votedFor").cloned().unwrap_or(Value::Nil);
        let log = LogStore::open(cx.disk, bugs.log_truncation_bug);
        SyncRaftNode {
            id,
            role: ROLE_FOLLOWER,
            term,
            voted_for,
            voters: BTreeSet::new(),
            commit: 0,
            log,
            next_index: servers.iter().map(|&j| (j, 1)).collect(),
            match_index: servers.iter().map(|&j| (j, 0)).collect(),
            vote_reply_seen: false,
            servers,
            bugs,
            expose_update_term,
        }
    }

    fn enabled(&self, net: &Net<Rpc>) -> Vec<ActionInstance> {
        let mut offers = Vec::new();
        let me = Value::Int(self.id as i64);
        let role = self.role;

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
                    && (self.log.len() >= self.next_index[&j] || self.commit > self.match_index[&j])
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

        for env in net.inbox(self.id) {
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
                if mterm > self.term {
                    let offer = ActionInstance::new("stepDown", vec![env.msg.to_value()]);
                    if !offers.contains(&offer) {
                        offers.push(offer);
                    }
                }
            }
        }
        offers
    }

    fn execute(&mut self, action: &ActionInstance, cx: &mut Cx<'_>) -> Vec<MsgEvent> {
        match action.name.as_str() {
            "electionTimer" => self.election_timer(cx),
            "sendVoteRequest" => {
                self.send_vote_request(cx, action.params[1].expect_int() as NodeId)
            }
            "onVoteRequest" => self.on_vote_request(cx, &action.params[0]),
            "onVoteReply" => self.on_vote_reply(cx, &action.params[0]),
            "electLeader" => self.elect_leader(),
            "clientWrite" => self.client_write(cx, action.params[0].expect_int()),
            "sendEntries" => self.send_entries(cx, action.params[1].expect_int() as NodeId),
            "onAppendEntries" => self.on_append_entries(cx, &action.params[0]),
            "onAppendReply" => self.on_append_reply(cx, &action.params[0]),
            "advanceCommit" => self.advance_commit(),
            // Scheduling the stepDown region runs the *whole* handler
            // it lives in — the implementation cannot update the term
            // without also processing the message, which is exactly
            // the inconsistency the official spec's bug #1 causes.
            "stepDown" => {
                let m = &action.params[0];
                match m.expect_field("mtype").expect_str() {
                    "RequestVoteRequest" => self.on_vote_request(cx, m),
                    "RequestVoteResponse" => self.on_vote_reply(cx, m),
                    "AppendEntriesRequest" => self.on_append_entries(cx, m),
                    _ => self.on_append_reply(cx, m),
                }
            }
            other => panic!("unknown action {other}"),
        }
    }

    fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
        visit("role", Value::str(self.role));
        visit("term", Value::Int(self.term));
        visit("votedFor", self.voted_for.clone());
        visit(
            "votes",
            Value::set(self.voters.iter().map(|&v| Value::Int(v as i64))),
        );
        visit("log", self.log.to_value());
        visit("commitIndex", Value::Int(self.commit));
        visit("nextIndex", peer_fun(&self.next_index));
        visit("matchIndex", peer_fun(&self.match_index));
    }
}

/// A per-peer index map as the specification's function `[j |-> v]`.
fn peer_fun(map: &BTreeMap<NodeId, i64>) -> Value {
    Value::fun(
        map.iter()
            .map(|(&j, &v)| (Value::Int(j as i64), Value::Int(v))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_dsnet::Storage;

    /// Nodes `1..=n` driven by hand: `nodes[i]` is node `i + 1`, with
    /// its disk at the same index.
    struct Bed {
        net: Net<Rpc>,
        disks: Vec<Storage<Value>>,
        nodes: Vec<SyncRaftNode>,
    }

    impl Bed {
        fn new(n: u64, bugs: SyncRaftBugs) -> Bed {
            let servers: Vec<NodeId> = (1..=n).collect();
            let config = (servers.clone(), bugs, false);
            let mut bed = Bed {
                net: Net::new(servers.iter().copied()),
                disks: vec![Storage::default(); n as usize],
                nodes: Vec::new(),
            };
            for id in servers {
                let node = SyncRaftNode::boot(id, &config, &mut bed.cx(id));
                bed.nodes.push(node);
            }
            bed
        }

        fn cx(&mut self, id: NodeId) -> Cx<'_> {
            let i = id as usize - 1;
            NodeCx {
                net: &mut self.net,
                disk: &mut self.disks[i],
            }
        }

        /// Runs `f` on node `id` with its context.
        fn on<T>(&mut self, id: NodeId, f: impl FnOnce(&mut SyncRaftNode, &mut Cx<'_>) -> T) -> T {
            let mut node = self.nodes[id as usize - 1].clone();
            let out = f(&mut node, &mut self.cx(id));
            self.nodes[id as usize - 1] = node;
            out
        }

        fn exec(&mut self, id: NodeId, name: &str, params: Vec<Value>) -> Vec<MsgEvent> {
            self.on(id, |node, cx| {
                node.execute(&ActionInstance::new(name, params), cx)
            })
        }

        /// The oldest message waiting for `id`, in the spec domain.
        fn head(&mut self, id: NodeId) -> Value {
            self.net.inbox(id)[0].msg.to_value()
        }
    }

    #[test]
    fn election_without_noop() {
        let mut bed = Bed::new(3, SyncRaftBugs::none());
        bed.exec(1, "electionTimer", vec![Value::Int(1)]);
        bed.exec(1, "sendVoteRequest", vec![Value::Int(1), Value::Int(2)]);
        let call = bed.head(2);
        bed.exec(2, "onVoteRequest", vec![call]);
        let reply = bed.head(1);
        bed.exec(1, "onVoteReply", vec![reply]);
        bed.exec(1, "electLeader", vec![Value::Int(1)]);
        assert_eq!(bed.nodes[0].role, ROLE_LEADER);
        assert!(bed.nodes[0].log.is_empty(), "Raft-java appends no NoOp");
    }

    #[test]
    fn second_vote_reply_counts_when_conformant() {
        let mut bed = Bed::new(3, SyncRaftBugs::none());
        bed.exec(1, "electionTimer", vec![Value::Int(1)]);
        for j in [2, 3] {
            bed.exec(
                1,
                "sendVoteRequest",
                vec![Value::Int(1), Value::Int(j as i64)],
            );
            let call = bed.head(j);
            bed.exec(j, "onVoteRequest", vec![call]);
        }
        // Two replies waiting; both must be offered.
        let reply1 = bed.head(1);
        bed.exec(1, "onVoteReply", vec![reply1]);
        let offers = bed.nodes[0].enabled(&bed.net);
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
        let mut bed = Bed::new(3, bugs);
        bed.exec(1, "electionTimer", vec![Value::Int(1)]);
        for j in [2, 3] {
            bed.exec(
                1,
                "sendVoteRequest",
                vec![Value::Int(1), Value::Int(j as i64)],
            );
            let call = bed.head(j);
            bed.exec(j, "onVoteRequest", vec![call]);
        }
        let reply1 = bed.head(1);
        bed.exec(1, "onVoteReply", vec![reply1]);
        let offers = bed.nodes[0].enabled(&bed.net);
        assert!(
            !offers.iter().any(|a| a.name == "onVoteReply"),
            "the deregistered callback never notifies: {offers:?}"
        );
    }

    #[test]
    fn conflicting_entry_is_replaced_when_conformant() {
        let mut bed = Bed::new(3, SyncRaftBugs::none());
        // Node 2 has a stale entry from term 2.
        bed.on(2, |node, cx| {
            node.step_down(cx, 2);
            node.log.append(cx.disk, LogEntry { term: 2, data: 1 });
        });
        // Node 1 leads term 3 and ships a conflicting entry.
        bed.exec(1, "electionTimer", vec![Value::Int(1)]);
        bed.exec(1, "electionTimer", vec![Value::Int(1)]);
        bed.on(1, |node, cx| {
            node.elect_leader();
            node.client_write(cx, 9);
        });
        bed.exec(1, "sendEntries", vec![Value::Int(1), Value::Int(2)]);
        let call = bed.head(2);
        bed.exec(2, "onAppendEntries", vec![call]);
        assert_eq!(bed.nodes[1].log.len(), 1);
        assert_eq!(bed.nodes[1].log.get(1).unwrap().term, 3);
    }

    #[test]
    fn truncation_bug_keeps_conflicting_entry() {
        let bugs = SyncRaftBugs {
            log_truncation_bug: true,
            ..SyncRaftBugs::none()
        };
        let mut bed = Bed::new(3, bugs);
        bed.on(2, |node, cx| {
            node.step_down(cx, 2);
            node.log.append(cx.disk, LogEntry { term: 2, data: 1 });
        });
        bed.exec(1, "electionTimer", vec![Value::Int(1)]);
        bed.exec(1, "electionTimer", vec![Value::Int(1)]);
        bed.on(1, |node, cx| {
            node.elect_leader();
            node.client_write(cx, 9);
        });
        bed.exec(1, "sendEntries", vec![Value::Int(1), Value::Int(2)]);
        let call = bed.head(2);
        bed.exec(2, "onAppendEntries", vec![call]);
        assert_eq!(bed.nodes[1].log.len(), 2, "the stale entry survived");
        assert_eq!(bed.nodes[1].log.get(1).unwrap().term, 2);
    }
}
