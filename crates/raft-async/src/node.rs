//! The AsyncRaft node.
//!
//! A full Raft node with asynchronous messaging (the Xraft analog):
//! leader election, NoOp-on-election, log replication and commit
//! advancement, with durable term/vote/log. The node exposes its blocked actions through
//! [`NodeApp`]: every hook name below (`onElectionTimeout`,
//! `onRequestVoteRpc`, ...) is an implementation-side method name that
//! the mapping registry ties back to a specification action.

use std::collections::BTreeMap;

use mocket_core::sut::MsgEvent;
use mocket_dsnet::{Net, NodeId};
use mocket_runtime::{NodeApp, NodeCx};
use mocket_tla::{ActionInstance, Value};

use crate::bugs::XraftBugs;
use crate::msg::{Entry, RaftMsg};

type Cx<'a> = NodeCx<'a, RaftMsg>;

/// Implementation role constants (translated to the spec's
/// `Follower`/`Candidate`/`Leader` through the constant map).
pub const STATE_FOLLOWER: &str = "STATE_FOLLOWER";
/// Candidate role.
pub const STATE_CANDIDATE: &str = "STATE_CANDIDATE";
/// Leader role.
pub const STATE_LEADER: &str = "STATE_LEADER";

/// The message pool name for the spec's `messages` variable.
pub const POOL: &str = "messages";

/// An AsyncRaft node.
#[derive(Clone)]
pub struct AsyncRaftNode {
    id: NodeId,
    servers: Vec<NodeId>,
    bugs: XraftBugs,

    role: &'static str,
    current_term: i64,
    voted_for: Value,
    /// Xraft keeps votes as a plain integer (mapped to the spec set by
    /// cardinality). The conformant implementation additionally
    /// remembers *who* voted to deduplicate; the
    /// `duplicate_vote_counting` bug is exactly the absence of that
    /// memory.
    votes_granted: i64,
    voters: std::collections::BTreeSet<NodeId>,
    commit_index: i64,
    log: Vec<Entry>,
    next_index: BTreeMap<NodeId, i64>,
    match_index: BTreeMap<NodeId, i64>,
}

impl AsyncRaftNode {
    fn quorum(&self) -> usize {
        self.servers.len() / 2 + 1
    }

    fn last_log_term(&self) -> i64 {
        self.log.last().map(|e| e.term).unwrap_or(0)
    }

    fn last_log_index(&self) -> i64 {
        self.log.len() as i64
    }

    /// The conformant candidate-log comparison over the whole log.
    fn candidate_log_ok(&self, last_log_term: i64, last_log_index: i64) -> bool {
        let (my_term, my_index) = (self.last_log_term(), self.last_log_index());
        last_log_term > my_term || (last_log_term == my_term && last_log_index >= my_index)
    }

    /// The buggy special-case comparison (Xraft bug #3): when the
    /// normal check fails, a separate branch re-compares against only
    /// the *data* entries, wrongly discounting the NoOp.
    fn candidate_log_ok_ignoring_noop(&self, last_log_term: i64, last_log_index: i64) -> bool {
        let data: Vec<&Entry> = self.log.iter().filter(|e| !e.is_noop()).collect();
        let my_term = data.last().map(|e| e.term).unwrap_or(0);
        let my_index = data.len() as i64;
        last_log_term > my_term || (last_log_term == my_term && last_log_index >= my_index)
    }

    fn persist_term(&self, cx: &mut Cx<'_>) {
        cx.disk.put("currentTerm", Value::Int(self.current_term));
    }

    fn persist_vote(&self, cx: &mut Cx<'_>) {
        // Xraft bug #2: votedFor is kept in memory only; a restart
        // forgets it and the node votes again in the same term.
        if !self.bugs.voted_for_not_persisted {
            cx.disk.put("votedFor", self.voted_for.clone());
        }
    }

    fn persist_log(&self, cx: &mut Cx<'_>) {
        cx.disk
            .put("log", Value::seq(self.log.iter().map(Entry::to_value)));
    }

    fn set_vote(&mut self, cx: &mut Cx<'_>, v: Value) {
        self.voted_for = v;
        self.persist_vote(cx);
    }

    fn become_follower_at(&mut self, cx: &mut Cx<'_>, term: i64) {
        self.current_term = term;
        self.persist_term(cx);
        self.role = STATE_FOLLOWER;
        self.set_vote(cx, Value::Nil);
        // `votesGranted` is deliberately left stale, like the
        // specification's UpdateTerm: the next Timeout resets it.
    }

    fn send(&self, cx: &mut Cx<'_>, msg: RaftMsg) -> MsgEvent {
        let value = msg.to_value();
        cx.net.send(self.id, msg.dest(), msg);
        MsgEvent::Send {
            pool: POOL.into(),
            msg: value,
        }
    }

    /// Sends without reporting the message to the testbed — models an
    /// *uninstrumented* code path: the buggy NoOp-grant branch is a
    /// separate branch the `Action.getMsg` annotation does not cover,
    /// so its reply escapes the message pool and later surfaces at the
    /// receiver as an unexpected action (Table 2, Xraft bug #3).
    fn send_uninstrumented(&self, cx: &mut Cx<'_>, msg: RaftMsg) {
        cx.net.send(self.id, msg.dest(), msg);
    }

    fn take_from_inbox(&self, cx: &mut Cx<'_>, wanted: &Value) -> Option<RaftMsg> {
        cx.net
            .take_matching(self.id, |env| env.msg.to_value() == *wanted)
            .map(|env| env.msg)
    }

    // ------------------------------------------------------------------
    // Action handlers (the annotated methods).
    // ------------------------------------------------------------------

    fn on_election_timeout(&mut self, cx: &mut Cx<'_>) -> Vec<MsgEvent> {
        self.current_term += 1;
        self.persist_term(cx);
        self.role = STATE_CANDIDATE;
        self.set_vote(cx, Value::Int(self.id as i64));
        self.voters.clear();
        self.voters.insert(self.id);
        self.votes_granted = 1;
        Vec::new()
    }

    fn do_request_vote(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        let msg = RaftMsg::VoteRequest {
            term: self.current_term,
            last_log_term: self.last_log_term(),
            last_log_index: self.last_log_index(),
            source: self.id,
            dest: peer,
        };
        vec![self.send(cx, msg)]
    }

    fn on_request_vote_rpc(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take_from_inbox(cx, wanted) else {
            return Vec::new();
        };
        let mut events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: msg.to_value(),
        }];
        let RaftMsg::VoteRequest {
            term,
            last_log_term,
            last_log_index,
            source,
            ..
        } = msg
        else {
            return events;
        };
        if term > self.current_term {
            self.become_follower_at(cx, term);
        }
        if term < self.current_term {
            return events; // Stale request; no reply.
        }
        let vote_free = self.voted_for == Value::Nil || self.voted_for == Value::Int(source as i64);
        let normal_grant = vote_free && self.candidate_log_ok(last_log_term, last_log_index);
        let buggy_grant = vote_free
            && !normal_grant
            && self.bugs.noop_log_grant
            && self.candidate_log_ok_ignoring_noop(last_log_term, last_log_index);
        if normal_grant {
            self.set_vote(cx, Value::Int(source as i64));
            events.push(self.send(
                cx,
                RaftMsg::VoteResponse {
                    term: self.current_term,
                    granted: true,
                    source: self.id,
                    dest: source,
                },
            ));
        } else if buggy_grant {
            // The buggy special-case branch: replies "granted" on the
            // filtered log comparison *without recording the vote*
            // (the real issue's title: "VotedFor is not stored...").
            // The reply also goes through an uninstrumented send, so
            // it escapes the message pool and surfaces at the
            // receiver as an unexpected action.
            self.send_uninstrumented(
                cx,
                RaftMsg::VoteResponse {
                    term: self.current_term,
                    granted: true,
                    source: self.id,
                    dest: source,
                },
            );
        }
        events
    }

    fn on_request_vote_result(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take_from_inbox(cx, wanted) else {
            return Vec::new();
        };
        let events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: msg.to_value(),
        }];
        let RaftMsg::VoteResponse {
            term,
            granted,
            source,
            ..
        } = msg
        else {
            return events;
        };
        if granted && self.role == STATE_CANDIDATE && term == self.current_term {
            if self.bugs.duplicate_vote_counting {
                // Xraft bug #1: a bare counter — a duplicated response
                // counts twice.
                self.votes_granted += 1;
            } else {
                self.voters.insert(source);
                self.votes_granted = self.voters.len() as i64;
            }
        }
        events
    }

    fn become_leader(&mut self, cx: &mut Cx<'_>) -> Vec<MsgEvent> {
        self.role = STATE_LEADER;
        let next_val = self.last_log_index() + 1;
        // Xraft appends a NoOp entry on election.
        let term = self.current_term;
        self.log.push(Entry::noop(term));
        self.persist_log(cx);
        for &j in &self.servers.clone() {
            self.next_index.insert(j, next_val);
            self.match_index.insert(j, 0);
        }
        Vec::new()
    }

    fn client_set(&mut self, cx: &mut Cx<'_>, datum: i64) -> Vec<MsgEvent> {
        let term = self.current_term;
        self.log.push(Entry::data(term, datum));
        self.persist_log(cx);
        Vec::new()
    }

    fn do_replicate_log(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        let next = self.next_index[&peer];
        let prev_log_index = next - 1;
        let prev_log_term = if prev_log_index >= 1 {
            self.log
                .get(prev_log_index as usize - 1)
                .map(|e| e.term)
                .unwrap_or(0)
        } else {
            0
        };
        let entries: Vec<Entry> = self
            .log
            .get(next as usize - 1)
            .cloned()
            .into_iter()
            .collect();
        let commit = self.commit_index.min(prev_log_index + entries.len() as i64);
        let msg = RaftMsg::AppendRequest {
            term: self.current_term,
            prev_log_index,
            prev_log_term,
            entries,
            commit_index: commit,
            source: self.id,
            dest: peer,
        };
        vec![self.send(cx, msg)]
    }

    fn on_append_entries_rpc(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take_from_inbox(cx, wanted) else {
            return Vec::new();
        };
        let mut events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: msg.to_value(),
        }];
        let RaftMsg::AppendRequest {
            term,
            prev_log_index,
            prev_log_term,
            entries,
            commit_index,
            source,
            ..
        } = msg
        else {
            return events;
        };
        if term > self.current_term {
            self.become_follower_at(cx, term);
        }
        let my_term = self.current_term;
        if term < my_term {
            events.push(self.send(
                cx,
                RaftMsg::AppendResponse {
                    term: my_term,
                    success: false,
                    match_index: 0,
                    source: self.id,
                    dest: source,
                },
            ));
            return events;
        }
        if self.role == STATE_CANDIDATE {
            // Same-term leader exists: return to follower. The vote is
            // kept (votedFor stays — resetting it here is the class of
            // bug Figure 8/9 discusses).
            self.role = STATE_FOLLOWER;
        }
        if self.role == STATE_LEADER {
            // Two same-term leaders cannot happen when conformant.
            return events;
        }
        let log_ok = prev_log_index == 0
            || (prev_log_index <= self.last_log_index()
                && self.log.get(prev_log_index as usize - 1).map(|e| e.term)
                    == Some(prev_log_term));
        if !log_ok {
            events.push(self.send(
                cx,
                RaftMsg::AppendResponse {
                    term: my_term,
                    success: false,
                    match_index: 0,
                    source: self.id,
                    dest: source,
                },
            ));
            return events;
        }
        if !entries.is_empty() {
            let at = prev_log_index as usize; // 0-based insert point
            let have_same = self
                .log
                .get(at)
                .map(|e| e.term == entries[0].term)
                .unwrap_or(false);
            if !have_same {
                self.log.truncate(at);
                self.log.extend(entries.iter().cloned());
                self.persist_log(cx);
            }
        }
        let match_len = prev_log_index + entries.len() as i64;
        self.commit_index = self
            .commit_index
            .max(commit_index.min(self.last_log_index()));
        events.push(self.send(
            cx,
            RaftMsg::AppendResponse {
                term: my_term,
                success: true,
                match_index: match_len,
                source: self.id,
                dest: source,
            },
        ));
        events
    }

    fn on_append_entries_result(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take_from_inbox(cx, wanted) else {
            return Vec::new();
        };
        let events = vec![MsgEvent::Receive {
            pool: POOL.into(),
            msg: msg.to_value(),
        }];
        let RaftMsg::AppendResponse {
            term,
            success,
            match_index,
            source,
            ..
        } = msg
        else {
            return events;
        };
        if self.role == STATE_LEADER && term == self.current_term {
            if success {
                self.next_index.insert(source, match_index + 1);
                self.match_index.insert(source, match_index);
            } else {
                let cur = self.next_index[&source];
                self.next_index.insert(source, (cur - 1).max(1));
            }
        }
        events
    }

    fn advance_commit_index(&mut self) -> Vec<MsgEvent> {
        if let Some(best) = self.computable_commit() {
            self.commit_index = best;
        }
        Vec::new()
    }

    fn computable_commit(&self) -> Option<i64> {
        let commit = self.commit_index;
        let my_term = self.current_term;
        let mut best = commit;
        for n in (commit + 1)..=self.last_log_index() {
            if self.log[n as usize - 1].term != my_term {
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

impl NodeApp for AsyncRaftNode {
    type Msg = RaftMsg;
    /// The membership and the seeded bug switches.
    type Config = (Vec<NodeId>, XraftBugs);

    /// Boots (or restarts) a node, recovering durable state.
    fn boot(id: NodeId, (servers, bugs): &(Vec<NodeId>, XraftBugs), cx: &mut Cx<'_>) -> Self {
        let current_term = cx
            .disk
            .get("currentTerm")
            .and_then(|v| v.as_int())
            .unwrap_or(1);
        let voted_for = cx.disk.get("votedFor").cloned().unwrap_or(Value::Nil);
        let log: Vec<Entry> = cx
            .disk
            .get("log")
            .and_then(|v| {
                v.as_seq().map(|entries| {
                    entries
                        .iter()
                        .map(|e| Entry {
                            term: e.expect_field("term").expect_int(),
                            data: e.expect_field("value").as_int(),
                        })
                        .collect()
                })
            })
            .unwrap_or_default();

        AsyncRaftNode {
            id,
            role: STATE_FOLLOWER,
            current_term,
            voted_for,
            votes_granted: 0,
            voters: Default::default(),
            commit_index: 0,
            log,
            next_index: servers.iter().map(|&j| (j, 1)).collect(),
            match_index: servers.iter().map(|&j| (j, 0)).collect(),
            servers: servers.clone(),
            bugs: bugs.clone(),
        }
    }

    fn enabled(&self, net: &Net<RaftMsg>) -> Vec<ActionInstance> {
        let mut offers = Vec::new();
        let me = Value::Int(self.id as i64);
        let role = self.role;

        // Timer-driven actions.
        if role != STATE_LEADER {
            offers.push(ActionInstance::new("onElectionTimeout", vec![me.clone()]));
        }
        if role == STATE_CANDIDATE {
            for &j in &self.servers {
                if j != self.id && !self.voters.contains(&j) {
                    offers.push(ActionInstance::new(
                        "doRequestVote",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
            }
            if self.votes_granted >= self.quorum() as i64 {
                offers.push(ActionInstance::new("becomeLeader", vec![me.clone()]));
            }
        }
        if role == STATE_LEADER {
            for &j in &self.servers {
                if j != self.id
                    && (self.last_log_index() >= self.next_index[&j]
                        || self.commit_index > self.match_index[&j])
                {
                    offers.push(ActionInstance::new(
                        "doReplicateLog",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
            }
            if self.computable_commit().is_some() {
                offers.push(ActionInstance::new("advanceCommitIndex", vec![me.clone()]));
            }
        }

        // Message-driven actions: one offer per inbox message.
        for env in net.inbox(self.id) {
            let hook = match env.msg {
                RaftMsg::VoteRequest { .. } => "onRequestVoteRpc",
                RaftMsg::VoteResponse { .. } => "onRequestVoteResult",
                RaftMsg::AppendRequest { .. } => "onAppendEntriesRpc",
                RaftMsg::AppendResponse { .. } => "onAppendEntriesResult",
            };
            let offer = ActionInstance::new(hook, vec![env.msg.to_value()]);
            if !offers.contains(&offer) {
                offers.push(offer);
            }
        }
        offers
    }

    fn execute(&mut self, action: &ActionInstance, cx: &mut Cx<'_>) -> Vec<MsgEvent> {
        match action.name.as_str() {
            "onElectionTimeout" => self.on_election_timeout(cx),
            "doRequestVote" => {
                let peer = action.params[1].expect_int() as NodeId;
                self.do_request_vote(cx, peer)
            }
            "onRequestVoteRpc" => self.on_request_vote_rpc(cx, &action.params[0]),
            "onRequestVoteResult" => self.on_request_vote_result(cx, &action.params[0]),
            "becomeLeader" => self.become_leader(cx),
            "clientSet" => self.client_set(cx, action.params[0].expect_int()),
            "doReplicateLog" => {
                let peer = action.params[1].expect_int() as NodeId;
                self.do_replicate_log(cx, peer)
            }
            "onAppendEntriesRpc" => self.on_append_entries_rpc(cx, &action.params[0]),
            "onAppendEntriesResult" => self.on_append_entries_result(cx, &action.params[0]),
            "advanceCommitIndex" => self.advance_commit_index(),
            other => panic!("unknown action {other}"),
        }
    }

    fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
        visit("state", Value::str(self.role));
        visit("currentTerm", Value::Int(self.current_term));
        visit("votedFor", self.voted_for.clone());
        visit("votesGranted", Value::Int(self.votes_granted));
        visit("log", Value::seq(self.log.iter().map(Entry::to_value)));
        visit("commitIndex", Value::Int(self.commit_index));
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
        config: (Vec<NodeId>, XraftBugs),
        net: Net<RaftMsg>,
        disks: Vec<Storage<Value>>,
        nodes: Vec<AsyncRaftNode>,
    }

    impl Bed {
        fn new(n: u64, bugs: XraftBugs) -> Bed {
            let servers: Vec<NodeId> = (1..=n).collect();
            let mut bed = Bed {
                net: Net::new(servers.iter().copied()),
                disks: vec![Storage::default(); n as usize],
                nodes: Vec::new(),
                config: (servers, bugs),
            };
            bed.nodes = (1..=n).map(|id| bed.boot(id)).collect();
            bed
        }

        fn cx(&mut self, id: NodeId) -> Cx<'_> {
            let i = id as usize - 1;
            NodeCx {
                net: &mut self.net,
                disk: &mut self.disks[i],
            }
        }

        /// A fresh incarnation of `id` over its disk.
        fn boot(&mut self, id: NodeId) -> AsyncRaftNode {
            let config = self.config.clone();
            AsyncRaftNode::boot(id, &config, &mut self.cx(id))
        }

        /// Runs `f` on node `id` with its context.
        fn on<T>(&mut self, id: NodeId, f: impl FnOnce(&mut AsyncRaftNode, &mut Cx<'_>) -> T) -> T {
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

    /// Drives a full election of node 1 in a 2-node cluster.
    fn elect_node1(bed: &mut Bed) {
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "doRequestVote", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onRequestVoteRpc", vec![req]);
        let resp = bed.head(1);
        bed.exec(1, "onRequestVoteResult", vec![resp]);
        bed.exec(1, "becomeLeader", vec![Value::Int(1)]);
    }

    #[test]
    fn election_produces_leader_with_noop() {
        let mut bed = Bed::new(2, XraftBugs::none());
        elect_node1(&mut bed);
        assert_eq!(bed.nodes[0].role, STATE_LEADER);
        assert_eq!(bed.nodes[0].current_term, 2);
        assert_eq!(bed.nodes[0].log.len(), 1);
        assert!(bed.nodes[0].log[0].is_noop());
        assert_eq!(bed.nodes[1].voted_for, Value::Int(1));
    }

    #[test]
    fn replication_commits_on_quorum() {
        let mut bed = Bed::new(2, XraftBugs::none());
        elect_node1(&mut bed);
        bed.exec(1, "doReplicateLog", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onAppendEntriesRpc", vec![req]);
        assert_eq!(bed.nodes[1].log.len(), 1);
        let resp = bed.head(1);
        bed.exec(1, "onAppendEntriesResult", vec![resp]);
        bed.exec(1, "advanceCommitIndex", vec![Value::Int(1)]);
        assert_eq!(bed.nodes[0].commit_index, 1);
    }

    #[test]
    fn duplicate_response_is_deduplicated_when_conformant() {
        let mut bed = Bed::new(2, XraftBugs::none());
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "doRequestVote", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onRequestVoteRpc", vec![req]);
        // Duplicate the response in flight.
        bed.net.duplicate_matching(1, |_| true).unwrap();
        let resp = bed.head(1);
        bed.exec(1, "onRequestVoteResult", vec![resp.clone()]);
        bed.exec(1, "onRequestVoteResult", vec![resp]);
        assert_eq!(bed.nodes[0].votes_granted, 2, "self + node 2, deduplicated");
    }

    #[test]
    fn duplicate_vote_counting_bug_overcounts() {
        let bugs = XraftBugs {
            duplicate_vote_counting: true,
            ..XraftBugs::none()
        };
        let mut bed = Bed::new(2, bugs);
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "doRequestVote", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onRequestVoteRpc", vec![req]);
        bed.net.duplicate_matching(1, |_| true).unwrap();
        let resp = bed.head(1);
        bed.exec(1, "onRequestVoteResult", vec![resp.clone()]);
        bed.exec(1, "onRequestVoteResult", vec![resp]);
        assert_eq!(
            bed.nodes[0].votes_granted, 3,
            "the counter double-counts the duplicated grant"
        );
    }

    #[test]
    fn voted_for_survives_restart_when_conformant() {
        let mut bed = Bed::new(2, XraftBugs::none());
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "doRequestVote", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onRequestVoteRpc", vec![req]);
        assert_eq!(bed.nodes[1].voted_for, Value::Int(1));
        // Restart node 2.
        let node2 = bed.boot(2);
        assert_eq!(node2.voted_for, Value::Int(1));
        assert_eq!(node2.current_term, 2);
    }

    #[test]
    fn voted_for_lost_on_restart_with_bug() {
        let bugs = XraftBugs {
            voted_for_not_persisted: true,
            ..XraftBugs::none()
        };
        let mut bed = Bed::new(2, bugs);
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "doRequestVote", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onRequestVoteRpc", vec![req]);
        assert_eq!(bed.nodes[1].voted_for, Value::Int(1));
        let node2 = bed.boot(2);
        assert_eq!(
            node2.voted_for,
            Value::Nil,
            "the vote was never made durable"
        );
    }

    #[test]
    fn noop_grant_bug_grants_against_stale_log() {
        // Voter (node 2) has a NoOp entry; candidate (node 1) has an
        // empty log and a higher term.
        let bugs = XraftBugs {
            noop_log_grant: true,
            ..XraftBugs::none()
        };
        let mut bed = Bed::new(2, bugs);
        // Manually give node 2 a NoOp entry at term 2 and term 2.
        bed.on(2, |node, cx| {
            node.become_follower_at(cx, 2);
            node.log.push(Entry::noop(2));
            node.persist_log(cx);
        });
        // Node 1: two timeouts to reach term 3.
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "doRequestVote", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        let events = bed.exec(2, "onRequestVoteRpc", vec![req]);
        // The buggy branch replied without recording the vote, through
        // the uninstrumented send: only the Receive event is reported.
        assert_eq!(bed.nodes[1].voted_for, Value::Nil);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], MsgEvent::Receive { .. }));
        assert_eq!(bed.net.inbox(1).len(), 1, "the rogue response is in flight");
    }

    #[test]
    fn conformant_node_rejects_stale_candidate_log() {
        let mut bed = Bed::new(2, XraftBugs::none());
        bed.on(2, |node, cx| {
            node.become_follower_at(cx, 2);
            node.log.push(Entry::noop(2));
        });
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.exec(1, "doRequestVote", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onRequestVoteRpc", vec![req]);
        assert_eq!(bed.nodes[1].voted_for, Value::Nil);
        assert_eq!(bed.net.inbox(1).len(), 0, "no reply on rejection");
    }

    #[test]
    fn candidate_keeps_vote_on_same_term_append() {
        let mut bed = Bed::new(2, XraftBugs::none());
        // Node 2 a candidate at term 2.
        bed.exec(2, "onElectionTimeout", vec![Value::Int(2)]);
        // Node 1 a leader at term 2 (elected by itself in a bigger
        // cluster; simulate by direct append request).
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        bed.on(1, |node, cx| node.become_leader(cx));
        bed.exec(1, "doReplicateLog", vec![Value::Int(1), Value::Int(2)]);
        let req = bed.head(2);
        bed.exec(2, "onAppendEntriesRpc", vec![req]);
        assert_eq!(bed.nodes[1].role, STATE_FOLLOWER);
        assert_eq!(
            bed.nodes[1].voted_for,
            Value::Int(2),
            "votedFor is preserved on return-to-follower"
        );
    }

    #[test]
    fn enabled_offers_track_role_and_inbox() {
        let mut bed = Bed::new(2, XraftBugs::none());
        let offers = bed.nodes[0].enabled(&bed.net);
        assert_eq!(
            offers,
            vec![ActionInstance::new(
                "onElectionTimeout",
                vec![Value::Int(1)]
            )]
        );
        bed.exec(1, "onElectionTimeout", vec![Value::Int(1)]);
        let offers = bed.nodes[0].enabled(&bed.net);
        let names: Vec<&str> = offers.iter().map(|a| a.name.as_str()).collect();
        assert!(names.contains(&"doRequestVote"));
        assert!(!names.contains(&"becomeLeader"), "no quorum yet");
    }
}
