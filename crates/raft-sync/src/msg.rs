//! SyncRaft's RPC messages.
//!
//! Raft-java models its communication as synchronous RPCs; on the
//! simulated substrate a call is a request envelope and its response
//! envelope. The record shapes reported to Mocket are identical to
//! the specification's (the `Action.getMsg` field-order rule).

use mocket_tla::{vrec, Value};

use crate::logstore::LogEntry;

/// A synchronous-RPC payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rpc {
    /// `requestVote` call.
    VoteCall {
        /// Candidate term.
        term: i64,
        /// Candidate's last log term.
        last_log_term: i64,
        /// Candidate's last log index.
        last_log_index: i64,
        /// Caller.
        from: u64,
        /// Callee.
        to: u64,
    },
    /// `requestVote` reply (granting only).
    VoteReply {
        /// Voter term.
        term: i64,
        /// Grant flag.
        granted: bool,
        /// Voter.
        from: u64,
        /// Candidate.
        to: u64,
    },
    /// `appendEntries` call.
    AppendCall {
        /// Leader term.
        term: i64,
        /// Index before the shipped entries.
        prev_index: i64,
        /// Term at `prev_index`.
        prev_term: i64,
        /// Shipped entries (≤ 1).
        entries: Vec<LogEntry>,
        /// Leader commit index (clamped).
        commit: i64,
        /// Leader.
        from: u64,
        /// Follower.
        to: u64,
    },
    /// `appendEntries` reply.
    AppendReply {
        /// Responder term.
        term: i64,
        /// Acceptance flag.
        ok: bool,
        /// Highest replicated index on the responder.
        match_index: i64,
        /// Responder.
        from: u64,
        /// Leader.
        to: u64,
    },
}

impl Rpc {
    /// Destination node.
    pub fn dest(&self) -> u64 {
        match self {
            Rpc::VoteCall { to, .. }
            | Rpc::VoteReply { to, .. }
            | Rpc::AppendCall { to, .. }
            | Rpc::AppendReply { to, .. } => *to,
        }
    }

    /// The spec-record shape.
    pub fn to_value(&self) -> Value {
        match self {
            Rpc::VoteCall {
                term,
                last_log_term,
                last_log_index,
                from,
                to,
            } => vrec! {
                mtype => "RequestVoteRequest",
                mterm => *term,
                mlastLogTerm => *last_log_term,
                mlastLogIndex => *last_log_index,
                msource => *from as i64,
                mdest => *to as i64,
            },
            Rpc::VoteReply {
                term,
                granted,
                from,
                to,
            } => vrec! {
                mtype => "RequestVoteResponse",
                mterm => *term,
                mvoteGranted => *granted,
                msource => *from as i64,
                mdest => *to as i64,
            },
            Rpc::AppendCall {
                term,
                prev_index,
                prev_term,
                entries,
                commit,
                from,
                to,
            } => vrec! {
                mtype => "AppendEntriesRequest",
                mterm => *term,
                mprevLogIndex => *prev_index,
                mprevLogTerm => *prev_term,
                mentries => Value::seq(entries.iter().map(LogEntry::to_value)),
                mcommitIndex => *commit,
                msource => *from as i64,
                mdest => *to as i64,
            },
            Rpc::AppendReply {
                term,
                ok,
                match_index,
                from,
                to,
            } => vrec! {
                mtype => "AppendEntriesResponse",
                mterm => *term,
                msuccess => *ok,
                mmatchIndex => *match_index,
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
    fn record_shape_matches_spec() {
        let v = Rpc::AppendCall {
            term: 3,
            prev_index: 0,
            prev_term: 0,
            entries: vec![LogEntry { term: 3, data: 9 }],
            commit: 0,
            from: 1,
            to: 2,
        }
        .to_value();
        assert_eq!(v.expect_field("mtype"), &Value::str("AppendEntriesRequest"));
        assert_eq!(v.expect_field("mentries").len(), 1);
    }
}
