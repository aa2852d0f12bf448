//! ZabKeeper's messages.
//!
//! Two channels, matching the specification's two message-related
//! variables: election notifications (`le_msgs`) and the
//! synchronization/broadcast channel (`bc_msgs`).

use mocket_tla::{vrec, Value};

/// An election vote `(leader, zxid)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ZVote {
    /// The proposed leader.
    pub leader: i64,
    /// The proposer's last zxid.
    pub zxid: i64,
}

impl ZVote {
    /// The spec-record shape.
    pub fn to_value(&self) -> Value {
        vrec! { vleader => self.leader, vzxid => self.zxid }
    }

    /// Vote ordering: `(zxid, id)` lexicographic.
    pub fn beats(&self, other: &ZVote) -> bool {
        self.zxid > other.zxid || (self.zxid == other.zxid && self.leader > other.leader)
    }
}

/// A history entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZEntry {
    /// The entry's zxid.
    pub zxid: i64,
    /// The client datum.
    pub value: i64,
}

impl ZEntry {
    /// The spec-record shape.
    pub fn to_value(&self) -> Value {
        vrec! { zxid => self.zxid, value => self.value }
    }
}

/// All ZabKeeper messages. Vote notifications travel the election
/// channel; everything else travels the broadcast channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZabMsg {
    /// Election notification.
    Vote {
        /// The sender's current vote.
        vote: ZVote,
        /// Sender.
        from: u64,
        /// Receiver.
        to: u64,
    },
    /// Discovery: the new leader proposes an epoch.
    NewEpoch {
        /// The proposed epoch.
        epoch: i64,
        /// Leader.
        from: u64,
        /// Follower.
        to: u64,
    },
    /// The follower acknowledges the epoch with its last zxid.
    EpochAck {
        /// The acknowledged epoch.
        epoch: i64,
        /// The follower's last zxid.
        zxid: i64,
        /// Follower.
        from: u64,
        /// Leader.
        to: u64,
    },
    /// Synchronization: the leader ships its history.
    NewLeader {
        /// The epoch.
        epoch: i64,
        /// The leader's history.
        history: Vec<ZEntry>,
        /// Leader.
        from: u64,
        /// Follower.
        to: u64,
    },
    /// The follower completes synchronization.
    AckLd {
        /// The epoch.
        epoch: i64,
        /// Follower.
        from: u64,
        /// Leader.
        to: u64,
    },
    /// Broadcast: a proposal.
    Propose {
        /// The proposed entry.
        entry: ZEntry,
        /// Leader.
        from: u64,
        /// Follower.
        to: u64,
    },
    /// Proposal acknowledgment.
    Ack {
        /// The acknowledged zxid.
        zxid: i64,
        /// Follower.
        from: u64,
        /// Leader.
        to: u64,
    },
    /// Commit notification.
    Commit {
        /// The committed zxid.
        zxid: i64,
        /// Leader.
        from: u64,
        /// Follower.
        to: u64,
    },
}

impl ZabMsg {
    /// Destination node.
    pub fn dest(&self) -> u64 {
        match self {
            ZabMsg::Vote { to, .. }
            | ZabMsg::NewEpoch { to, .. }
            | ZabMsg::EpochAck { to, .. }
            | ZabMsg::NewLeader { to, .. }
            | ZabMsg::AckLd { to, .. }
            | ZabMsg::Propose { to, .. }
            | ZabMsg::Ack { to, .. }
            | ZabMsg::Commit { to, .. } => *to,
        }
    }

    /// Which message-related variable (pool) this message belongs to.
    pub fn pool(&self) -> &'static str {
        match self {
            ZabMsg::Vote { .. } => "le_msgs",
            _ => "bc_msgs",
        }
    }

    /// The spec-record shape.
    pub fn to_value(&self) -> Value {
        match self {
            ZabMsg::Vote { vote, from, to } => vrec! {
                mtype => "Vote",
                mvote => vote.to_value(),
                msource => *from as i64,
                mdest => *to as i64,
            },
            ZabMsg::NewEpoch { epoch, from, to } => vrec! {
                mtype => "NewEpoch",
                mepoch => *epoch,
                msource => *from as i64,
                mdest => *to as i64,
            },
            ZabMsg::EpochAck {
                epoch,
                zxid,
                from,
                to,
            } => vrec! {
                mtype => "EpochAck",
                mepoch => *epoch,
                mzxid => *zxid,
                msource => *from as i64,
                mdest => *to as i64,
            },
            ZabMsg::NewLeader {
                epoch,
                history,
                from,
                to,
            } => vrec! {
                mtype => "NewLeader",
                mepoch => *epoch,
                mhistory => Value::seq(history.iter().map(ZEntry::to_value)),
                msource => *from as i64,
                mdest => *to as i64,
            },
            ZabMsg::AckLd { epoch, from, to } => vrec! {
                mtype => "AckLd",
                mepoch => *epoch,
                msource => *from as i64,
                mdest => *to as i64,
            },
            ZabMsg::Propose { entry, from, to } => vrec! {
                mtype => "Propose",
                mentry => entry.to_value(),
                msource => *from as i64,
                mdest => *to as i64,
            },
            ZabMsg::Ack { zxid, from, to } => vrec! {
                mtype => "Ack",
                mzxid => *zxid,
                msource => *from as i64,
                mdest => *to as i64,
            },
            ZabMsg::Commit { zxid, from, to } => vrec! {
                mtype => "Commit",
                mzxid => *zxid,
                msource => *from as i64,
                mdest => *to as i64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_split_by_channel() {
        let v = ZabMsg::Vote {
            vote: ZVote { leader: 1, zxid: 0 },
            from: 1,
            to: 2,
        };
        assert_eq!(v.pool(), "le_msgs");
        let c = ZabMsg::Commit {
            zxid: 1,
            from: 1,
            to: 2,
        };
        assert_eq!(c.pool(), "bc_msgs");
    }

    #[test]
    fn vote_ordering_is_zxid_then_id() {
        assert!(ZVote { leader: 1, zxid: 5 }.beats(&ZVote { leader: 9, zxid: 0 }));
        assert!(ZVote { leader: 3, zxid: 0 }.beats(&ZVote { leader: 2, zxid: 0 }));
        assert!(!ZVote { leader: 2, zxid: 0 }.beats(&ZVote { leader: 2, zxid: 0 }));
    }
}
