//! The ZabKeeper node (ZooKeeper ZAB analog).
//!
//! Fast leader election on `(zxid, id)` votes, the NEWEPOCH /
//! EPOCHACK / NEWLEADER / ACKLD synchronization handshake with durable
//! epoch files, and the PROPOSE / ACK / COMMIT broadcast phase. Hook
//! names follow ZooKeeper's method names (`lookForLeader`,
//! `handleNotification`, ...).

use std::collections::{BTreeMap, BTreeSet};

use mocket_core::sut::MsgEvent;
use mocket_dsnet::{Net, NodeId};
use mocket_runtime::{NodeApp, NodeCx};
use mocket_tla::{ActionInstance, Value};

use crate::bugs::ZabBugs;
use crate::msg::{ZEntry, ZVote, ZabMsg};

type Cx<'a> = NodeCx<'a, ZabMsg>;

/// Phase constants (identical to the spec's — ZooKeeper uses these
/// names literally, so the constant map is the identity here).
pub const LOOKING: &str = "LOOKING";
/// Following.
pub const FOLLOWING: &str = "FOLLOWING";
/// Leading.
pub const LEADING: &str = "LEADING";

/// A ZabKeeper node.
#[derive(Clone)]
pub struct ZabNode {
    id: NodeId,
    servers: Vec<NodeId>,
    bugs: ZabBugs,
    /// Startup sanity check failed (ZooKeeper bug #2): the server
    /// process is up but refuses to participate — it will never offer
    /// an action.
    broken: bool,

    state: &'static str,
    current_vote: Option<ZVote>,
    recv_set: BTreeMap<NodeId, ZVote>,
    following: Value,
    accepted_epoch: i64,
    current_epoch: i64,
    history: Vec<ZEntry>,
    last_committed: i64,
    synced_set: BTreeSet<NodeId>,
    epoch_ack_set: BTreeSet<NodeId>,
    ack_set: BTreeSet<NodeId>,
}

impl ZabNode {
    fn quorum(&self) -> usize {
        self.servers.len() / 2 + 1
    }

    fn last_zxid(&self) -> i64 {
        self.history.last().map(|e| e.zxid).unwrap_or(0)
    }

    fn persist_history(&self, cx: &mut Cx<'_>) {
        cx.disk.put(
            "history",
            Value::seq(self.history.iter().map(ZEntry::to_value)),
        );
    }

    fn send(&self, cx: &mut Cx<'_>, msg: ZabMsg) -> MsgEvent {
        let value = msg.to_value();
        let pool = msg.pool().to_string();
        cx.net.send(self.id, msg.dest(), msg);
        MsgEvent::Send { pool, msg: value }
    }

    /// Sends unless an identical message is already queued for the
    /// destination — the sender-side queue deduplication ZooKeeper's
    /// election and learner channels perform (and what keeps the
    /// implementation in lockstep with the spec's message *sets*).
    fn send_deduped(&self, cx: &mut Cx<'_>, msg: ZabMsg) -> Option<MsgEvent> {
        let already = cx.net.inbox(msg.dest()).iter().any(|env| env.msg == msg);
        if already {
            None
        } else {
            Some(self.send(cx, msg))
        }
    }

    fn take(&self, cx: &mut Cx<'_>, wanted: &Value) -> Option<ZabMsg> {
        cx.net
            .take_matching(self.id, |env| env.msg.to_value() == *wanted)
            .map(|env| env.msg)
    }

    fn receive_event(&self, msg: &ZabMsg) -> MsgEvent {
        MsgEvent::Receive {
            pool: msg.pool().to_string(),
            msg: msg.to_value(),
        }
    }

    // ------------------------------------------------------------------
    // Handlers.
    // ------------------------------------------------------------------

    fn look_for_leader(&mut self) -> Vec<MsgEvent> {
        let v = ZVote {
            leader: self.id as i64,
            zxid: self.last_zxid(),
        };
        self.current_vote = Some(v.clone());
        self.recv_set.clear();
        self.recv_set.insert(self.id, v);
        Vec::new()
    }

    fn send_notification(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        let Some(vote) = self.current_vote.clone() else {
            return Vec::new();
        };
        // Plain send: the scheduler only releases this action when the
        // specification's `SendVote` guard (message not in flight)
        // holds, so no dedup is needed here.
        vec![self.send(
            cx,
            ZabMsg::Vote {
                vote,
                from: self.id,
                to: peer,
            },
        )]
    }

    fn handle_notification(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let mut events = vec![self.receive_event(&msg)];
        let ZabMsg::Vote { vote, from, .. } = msg else {
            return events;
        };
        if self.state != LOOKING {
            // Answer with the decided vote so late joiners find the
            // leader.
            if let Some(mine) = self.current_vote.clone() {
                events.extend(self.send_deduped(
                    cx,
                    ZabMsg::Vote {
                        vote: mine,
                        from: self.id,
                        to: from,
                    },
                ));
            }
            return events;
        }
        let Some(mine) = self.current_vote.clone() else {
            // Election not started here yet: record only.
            self.recv_set.insert(from, vote);
            return events;
        };
        self.recv_set.insert(from, vote.clone());
        if vote.beats(&mine) {
            self.current_vote = Some(vote.clone());
            self.recv_set.insert(self.id, vote);
        } else if vote == mine && self.bugs.election_echo_storm {
            // ZooKeeper bug #1 (ZOOKEEPER-1419 analog): on an agreeing
            // notification, a node that has already adopted another
            // vote wrongly re-sends its *stale* original self-vote
            // through a resend path the instrumentation does not
            // cover. Stale notifications keep circulating and the
            // election never settles.
            let stale = ZVote {
                leader: self.id as i64,
                zxid: self.last_zxid(),
            };
            if stale != mine {
                let echo = ZabMsg::Vote {
                    vote: stale,
                    from: self.id,
                    to: from,
                };
                let already = cx.net.inbox(from).iter().any(|env| env.msg == echo);
                if !already {
                    cx.net.send(self.id, from, echo);
                }
            }
        }
        events
    }

    fn finish_election(&mut self) -> Vec<MsgEvent> {
        let Some(mine) = self.current_vote.clone() else {
            return Vec::new();
        };
        self.following = Value::Int(mine.leader);
        if mine.leader == self.id as i64 {
            self.state = LEADING;
        } else {
            self.state = FOLLOWING;
        }
        Vec::new()
    }

    fn propose_new_epoch(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        let epoch = self.current_epoch + 1;
        self.send_deduped(
            cx,
            ZabMsg::NewEpoch {
                epoch,
                from: self.id,
                to: peer,
            },
        )
        .into_iter()
        .collect()
    }

    fn on_new_epoch(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let mut events = vec![self.receive_event(&msg)];
        let ZabMsg::NewEpoch { epoch, from, .. } = msg else {
            return events;
        };
        if epoch < self.accepted_epoch {
            return events;
        }
        // Durably accept the epoch, then acknowledge.
        self.accepted_epoch = epoch;
        cx.disk.put("acceptedEpoch", Value::Int(epoch));
        events.extend(self.send_deduped(
            cx,
            ZabMsg::EpochAck {
                epoch,
                zxid: self.last_zxid(),
                from: self.id,
                to: from,
            },
        ));
        events
    }

    fn on_epoch_ack(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let mut events = vec![self.receive_event(&msg)];
        let ZabMsg::EpochAck { epoch, from, .. } = msg else {
            return events;
        };
        self.epoch_ack_set.insert(from);
        events.extend(self.send_deduped(
            cx,
            ZabMsg::NewLeader {
                epoch,
                history: self.history.clone(),
                from: self.id,
                to: from,
            },
        ));
        events
    }

    fn on_new_leader(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let mut events = vec![self.receive_event(&msg)];
        let ZabMsg::NewLeader {
            epoch,
            history,
            from,
            ..
        } = msg
        else {
            return events;
        };
        // Adopt the epoch and the leader's history, durably. The
        // conformant implementation also updates the second epoch
        // file (the marker); the seeded ZOOKEEPER-1653 race skips it,
        // which the startup sanity check later trips over.
        self.current_epoch = epoch;
        cx.disk.put("currentEpoch", Value::Int(epoch));
        if !self.bugs.epoch_marker_race {
            cx.disk.put("epochMarker", Value::Int(epoch));
        }
        self.history = history;
        self.persist_history(cx);
        events.extend(self.send_deduped(
            cx,
            ZabMsg::AckLd {
                epoch,
                from: self.id,
                to: from,
            },
        ));
        events
    }

    fn on_ack_ld(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let events = vec![self.receive_event(&msg)];
        let ZabMsg::AckLd { epoch, from, .. } = msg else {
            return events;
        };
        self.synced_set.insert(from);
        self.current_epoch = epoch;
        cx.disk.put("currentEpoch", Value::Int(epoch));
        if !self.bugs.epoch_marker_race {
            cx.disk.put("epochMarker", Value::Int(epoch));
        }
        events
    }

    fn create_znode(&mut self, cx: &mut Cx<'_>, datum: i64) -> Vec<MsgEvent> {
        let zxid = self.current_epoch * 100 + datum;
        self.history.push(ZEntry { zxid, value: datum });
        self.persist_history(cx);
        self.ack_set.clear();
        self.ack_set.insert(self.id);
        Vec::new()
    }

    fn send_proposal(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        let Some(entry) = self.history.last().cloned() else {
            return Vec::new();
        };
        self.send_deduped(
            cx,
            ZabMsg::Propose {
                entry,
                from: self.id,
                to: peer,
            },
        )
        .into_iter()
        .collect()
    }

    fn on_proposal(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let mut events = vec![self.receive_event(&msg)];
        let ZabMsg::Propose { entry, from, .. } = msg else {
            return events;
        };
        let zxid = entry.zxid;
        if self.last_zxid() < zxid {
            self.history.push(entry);
            self.persist_history(cx);
        }
        events.extend(self.send_deduped(
            cx,
            ZabMsg::Ack {
                zxid,
                from: self.id,
                to: from,
            },
        ));
        events
    }

    fn on_ack(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let events = vec![self.receive_event(&msg)];
        let ZabMsg::Ack { from, .. } = msg else {
            return events;
        };
        self.ack_set.insert(from);
        events
    }

    fn commit_proposal(&mut self, cx: &mut Cx<'_>) -> Vec<MsgEvent> {
        let zxid = self.last_zxid();
        self.last_committed = zxid;
        cx.disk.put("lastCommitted", Value::Int(zxid));
        Vec::new()
    }

    fn send_commit(&mut self, cx: &mut Cx<'_>, peer: NodeId) -> Vec<MsgEvent> {
        let zxid = self.last_committed;
        self.send_deduped(
            cx,
            ZabMsg::Commit {
                zxid,
                from: self.id,
                to: peer,
            },
        )
        .into_iter()
        .collect()
    }

    fn on_commit(&mut self, cx: &mut Cx<'_>, wanted: &Value) -> Vec<MsgEvent> {
        let Some(msg) = self.take(cx, wanted) else {
            return Vec::new();
        };
        let events = vec![self.receive_event(&msg)];
        let ZabMsg::Commit { zxid, .. } = msg else {
            return events;
        };
        self.last_committed = self.last_committed.max(zxid);
        cx.disk
            .put("lastCommitted", Value::Int(self.last_committed));
        events
    }
}

impl NodeApp for ZabNode {
    type Msg = ZabMsg;
    /// The membership and the seeded bug switches.
    type Config = (Vec<NodeId>, ZabBugs);

    /// Boots (or restarts) a node, recovering durable state and
    /// running ZooKeeper's startup epoch sanity check.
    fn boot(id: NodeId, (servers, bugs): &(Vec<NodeId>, ZabBugs), cx: &mut Cx<'_>) -> Self {
        let disk = &*cx.disk;
        let accepted = disk
            .get("acceptedEpoch")
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        let current = disk
            .get("currentEpoch")
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        let marker = disk
            .get("epochMarker")
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        let committed = disk
            .get("lastCommitted")
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        let history: Vec<ZEntry> = disk
            .get("history")
            .and_then(|v| {
                v.as_seq().map(|items| {
                    items
                        .iter()
                        .map(|e| ZEntry {
                            zxid: e.expect_field("zxid").expect_int(),
                            value: e.expect_field("value").expect_int(),
                        })
                        .collect()
                })
            })
            .unwrap_or_default();
        // ZooKeeper's startup consistency check between its two epoch
        // files: if the second write never landed, the server throws
        // and never joins an election (ZOOKEEPER-1653).
        let broken = current != marker;

        ZabNode {
            id,
            state: LOOKING,
            current_vote: None,
            recv_set: BTreeMap::new(),
            following: Value::Nil,
            accepted_epoch: accepted,
            current_epoch: current,
            history,
            last_committed: committed,
            synced_set: BTreeSet::new(),
            epoch_ack_set: BTreeSet::new(),
            ack_set: BTreeSet::new(),
            servers: servers.clone(),
            bugs: bugs.clone(),
            broken,
        }
    }

    fn enabled(&self, net: &Net<ZabMsg>) -> Vec<ActionInstance> {
        if self.broken {
            // The startup check failed: the server never participates.
            return Vec::new();
        }
        let mut offers = Vec::new();
        let me = Value::Int(self.id as i64);
        let state = self.state;

        if state == LOOKING && self.current_vote.is_none() {
            offers.push(ActionInstance::new("lookForLeader", vec![me.clone()]));
        }
        if let (LOOKING, Some(mine)) = (state, &self.current_vote) {
            for &j in &self.servers {
                if j != self.id {
                    offers.push(ActionInstance::new(
                        "sendNotification",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
            }
            let agreeing = self.recv_set.values().filter(|v| *v == mine).count();
            if agreeing >= self.quorum() {
                offers.push(ActionInstance::new("finishElection", vec![me.clone()]));
            }
        }
        if state == LEADING {
            for &j in &self.servers {
                if j == self.id {
                    continue;
                }
                if !self.synced_set.contains(&j) {
                    offers.push(ActionInstance::new(
                        "proposeNewEpoch",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
                let outstanding = self.last_zxid() > self.last_committed;
                if self.synced_set.contains(&j) && outstanding {
                    offers.push(ActionInstance::new(
                        "sendProposal",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
                if self.synced_set.contains(&j) && self.last_committed > 0 {
                    offers.push(ActionInstance::new(
                        "sendCommitMsg",
                        vec![me.clone(), Value::Int(j as i64)],
                    ));
                }
            }
            if self.last_zxid() > self.last_committed && self.ack_set.len() >= self.quorum() {
                offers.push(ActionInstance::new("commitProposal", vec![me.clone()]));
            }
        }
        for env in net.inbox(self.id) {
            let hook = match env.msg {
                ZabMsg::Vote { .. } => "handleNotification",
                ZabMsg::NewEpoch { .. } => "onNewEpoch",
                ZabMsg::EpochAck { .. } => "onEpochAck",
                ZabMsg::NewLeader { .. } => "onNewLeader",
                ZabMsg::AckLd { .. } => "onAckLd",
                ZabMsg::Propose { .. } => "onProposal",
                ZabMsg::Ack { .. } => "onAck",
                ZabMsg::Commit { .. } => "onCommit",
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
            "lookForLeader" => self.look_for_leader(),
            "sendNotification" => {
                self.send_notification(cx, action.params[1].expect_int() as NodeId)
            }
            "handleNotification" => self.handle_notification(cx, &action.params[0]),
            "finishElection" => self.finish_election(),
            "proposeNewEpoch" => {
                self.propose_new_epoch(cx, action.params[1].expect_int() as NodeId)
            }
            "onNewEpoch" => self.on_new_epoch(cx, &action.params[0]),
            "onEpochAck" => self.on_epoch_ack(cx, &action.params[0]),
            "onNewLeader" => self.on_new_leader(cx, &action.params[0]),
            "onAckLd" => self.on_ack_ld(cx, &action.params[0]),
            "createZNode" => self.create_znode(cx, action.params[0].expect_int()),
            "sendProposal" => self.send_proposal(cx, action.params[1].expect_int() as NodeId),
            "onProposal" => self.on_proposal(cx, &action.params[0]),
            "onAck" => self.on_ack(cx, &action.params[0]),
            "commitProposal" => self.commit_proposal(cx),
            "sendCommitMsg" => self.send_commit(cx, action.params[1].expect_int() as NodeId),
            "onCommit" => self.on_commit(cx, &action.params[0]),
            other => panic!("unknown action {other}"),
        }
    }

    fn project(&self, mut visit: impl FnMut(&'static str, Value)) {
        let ids = |set: &BTreeSet<NodeId>| Value::set(set.iter().map(|&j| Value::Int(j as i64)));
        let votes = self
            .recv_set
            .iter()
            .map(|(&j, v)| (Value::Int(j as i64), v.to_value()));
        visit("zkState", Value::str(self.state));
        visit(
            "currentVote",
            self.current_vote
                .as_ref()
                .map_or(Value::Nil, ZVote::to_value),
        );
        visit("recvSet", Value::fun(votes));
        visit("following", self.following.clone());
        visit("acceptedEpoch", Value::Int(self.accepted_epoch));
        visit("currentEpoch", Value::Int(self.current_epoch));
        visit(
            "dataLog",
            Value::seq(self.history.iter().map(ZEntry::to_value)),
        );
        visit("lastCommitted", Value::Int(self.last_committed));
        visit("syncedSet", ids(&self.synced_set));
        visit("epochAckSet", ids(&self.epoch_ack_set));
        visit("ackSet", ids(&self.ack_set));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_dsnet::Storage;

    /// Nodes `1..=n` driven by hand: `nodes[i]` is node `i + 1`, with
    /// its disk at the same index.
    struct Bed {
        config: (Vec<NodeId>, ZabBugs),
        net: Net<ZabMsg>,
        disks: Vec<Storage<Value>>,
        nodes: Vec<ZabNode>,
    }

    impl Bed {
        fn new(n: u64, bugs: ZabBugs) -> Bed {
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
        fn boot(&mut self, id: NodeId) -> ZabNode {
            let config = self.config.clone();
            ZabNode::boot(id, &config, &mut self.cx(id))
        }

        fn exec(&mut self, id: NodeId, name: &str, params: Vec<Value>) -> Vec<MsgEvent> {
            let mut node = self.nodes[id as usize - 1].clone();
            let events = node.execute(&ActionInstance::new(name, params), &mut self.cx(id));
            self.nodes[id as usize - 1] = node;
            events
        }

        /// The oldest message waiting for `id`, in the spec domain.
        fn head(&mut self, id: NodeId) -> Value {
            self.net.inbox(id)[0].msg.to_value()
        }
    }

    /// Elects node 2 leader of a 2-node cluster and syncs node 1.
    fn elect_and_sync(bed: &mut Bed) {
        bed.exec(1, "lookForLeader", vec![Value::Int(1)]);
        bed.exec(2, "lookForLeader", vec![Value::Int(2)]);
        bed.exec(2, "sendNotification", vec![Value::Int(2), Value::Int(1)]);
        let m = bed.head(1);
        bed.exec(1, "handleNotification", vec![m]);
        bed.exec(1, "sendNotification", vec![Value::Int(1), Value::Int(2)]);
        let m = bed.head(2);
        bed.exec(2, "handleNotification", vec![m]);
        bed.exec(1, "finishElection", vec![Value::Int(1)]);
        bed.exec(2, "finishElection", vec![Value::Int(2)]);
        bed.exec(2, "proposeNewEpoch", vec![Value::Int(2), Value::Int(1)]);
        let m = bed.head(1);
        bed.exec(1, "onNewEpoch", vec![m]);
        let m = bed.head(2);
        bed.exec(2, "onEpochAck", vec![m]);
        let m = bed.head(1);
        bed.exec(1, "onNewLeader", vec![m]);
        let m = bed.head(2);
        bed.exec(2, "onAckLd", vec![m]);
    }

    #[test]
    fn election_and_sync() {
        let mut bed = Bed::new(2, ZabBugs::none());
        elect_and_sync(&mut bed);
        let nodes = &bed.nodes;
        assert_eq!(nodes[1].state, LEADING);
        assert_eq!(nodes[0].state, FOLLOWING);
        assert_eq!(nodes[0].accepted_epoch, 1);
        assert_eq!(nodes[0].current_epoch, 1);
        assert!(nodes[1].synced_set.contains(&1));
        let mut projected = Vec::new();
        nodes[0].project(|name, value| projected.push((name, value)));
        assert!(projected.contains(&("zkState", Value::str(FOLLOWING))));
    }

    #[test]
    fn broadcast_commits() {
        let mut bed = Bed::new(2, ZabBugs::none());
        elect_and_sync(&mut bed);
        bed.exec(2, "createZNode", vec![Value::Int(1)]);
        bed.exec(2, "sendProposal", vec![Value::Int(2), Value::Int(1)]);
        let m = bed.head(1);
        bed.exec(1, "onProposal", vec![m]);
        let m = bed.head(2);
        bed.exec(2, "onAck", vec![m]);
        bed.exec(2, "commitProposal", vec![Value::Int(2)]);
        bed.exec(2, "sendCommitMsg", vec![Value::Int(2), Value::Int(1)]);
        let m = bed.head(1);
        bed.exec(1, "onCommit", vec![m]);
        assert_eq!(bed.nodes[0].last_committed, 101);
        assert_eq!(bed.nodes[1].last_committed, 101);
    }

    #[test]
    fn restart_recovers_durable_state() {
        let mut bed = Bed::new(2, ZabBugs::none());
        elect_and_sync(&mut bed);
        let node1 = bed.boot(1);
        assert!(!node1.broken);
        assert_eq!(node1.accepted_epoch, 1);
        assert_eq!(node1.current_epoch, 1);
        assert_eq!(node1.state, LOOKING);
        // A healthy restarted node offers lookForLeader.
        let offers = node1.enabled(&bed.net);
        assert!(offers.iter().any(|a| a.name == "lookForLeader"));
    }

    #[test]
    fn epoch_marker_race_breaks_startup() {
        let bugs = ZabBugs {
            epoch_marker_race: true,
            ..ZabBugs::none()
        };
        let mut bed = Bed::new(2, bugs);
        elect_and_sync(&mut bed);
        // Restart follower 1: currentEpoch was written, the marker
        // was not — the sanity check refuses to start.
        let node1 = bed.boot(1);
        assert!(node1.broken);
        assert!(
            node1.enabled(&bed.net).is_empty(),
            "a broken server offers nothing"
        );
        // Its durable state still reads back consistently with the
        // specification's view.
        assert_eq!(node1.accepted_epoch, 1);
        assert_eq!(node1.current_epoch, 1);
    }

    #[test]
    fn echo_storm_sends_uninstrumented_votes() {
        let bugs = ZabBugs {
            election_echo_storm: true,
            ..ZabBugs::none()
        };
        let mut bed = Bed::new(2, bugs);
        bed.exec(1, "lookForLeader", vec![Value::Int(1)]);
        bed.exec(2, "lookForLeader", vec![Value::Int(2)]);
        // Node 1 adopts node 2's vote; a second agreeing notification
        // then triggers the stale-vote echo.
        for _ in 0..2 {
            bed.exec(2, "sendNotification", vec![Value::Int(2), Value::Int(1)]);
            let m = bed.head(1);
            let events = bed.exec(1, "handleNotification", vec![m]);
            assert_eq!(events.len(), 1, "only the Receive is reported");
        }
        let inbox = bed.net.inbox(2);
        assert_eq!(inbox.len(), 1, "the uninstrumented stale echo is in flight");
        let ZabMsg::Vote { vote, .. } = &inbox[0].msg else {
            panic!("echo must be a vote");
        };
        assert_eq!(vote, &ZVote { leader: 1, zxid: 0 }, "the stale self-vote");
    }

    #[test]
    fn conformant_node_does_not_echo() {
        let mut bed = Bed::new(2, ZabBugs::none());
        bed.exec(1, "lookForLeader", vec![Value::Int(1)]);
        bed.exec(2, "lookForLeader", vec![Value::Int(2)]);
        bed.exec(2, "sendNotification", vec![Value::Int(2), Value::Int(1)]);
        let m = bed.head(1);
        bed.exec(1, "handleNotification", vec![m]);
        bed.exec(1, "sendNotification", vec![Value::Int(1), Value::Int(2)]);
        let m = bed.head(2);
        bed.exec(2, "handleNotification", vec![m]);
        assert_eq!(bed.net.inbox(1).len(), 0);
    }
}
