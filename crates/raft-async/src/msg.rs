//! AsyncRaft's messages.
//!
//! A message crosses `dsnet`'s simulated network as an owned value,
//! and every message converts to the exact record shape the Raft
//! specification uses (`Action.getMsg` must list fields "in the same
//! order as that in the TLA+ specification", §4.1.2).

use mocket_tla::{vrec, Value};

/// One log entry: a term and either client data or the NoOp marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Term the entry was created in.
    pub term: i64,
    /// Client datum, or `None` for the leader's NoOp entry.
    pub data: Option<i64>,
}

impl Entry {
    /// A client-data entry.
    pub fn data(term: i64, datum: i64) -> Self {
        Entry {
            term,
            data: Some(datum),
        }
    }

    /// The NoOp entry an Xraft leader appends on election.
    pub fn noop(term: i64) -> Self {
        Entry { term, data: None }
    }

    /// Whether this is a NoOp entry.
    pub fn is_noop(&self) -> bool {
        self.data.is_none()
    }

    /// The spec-record shape `[term |-> t, value |-> v]`.
    pub fn to_value(&self) -> Value {
        vrec! {
            term => self.term,
            value => match self.data {
                Some(d) => Value::Int(d),
                None => Value::str("NoOp"),
            },
        }
    }
}

/// The four Raft RPC messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftMsg {
    /// `RequestVoteRequest`.
    VoteRequest {
        /// Candidate's term.
        term: i64,
        /// Term of the candidate's last log entry.
        last_log_term: i64,
        /// Index of the candidate's last log entry.
        last_log_index: i64,
        /// Candidate id.
        source: u64,
        /// Voter id.
        dest: u64,
    },
    /// `RequestVoteResponse` (granting only; both targets reply only
    /// when granting).
    VoteResponse {
        /// Voter's term.
        term: i64,
        /// Always true in this protocol variant.
        granted: bool,
        /// Voter id.
        source: u64,
        /// Candidate id.
        dest: u64,
    },
    /// `AppendEntriesRequest`.
    AppendRequest {
        /// Leader's term.
        term: i64,
        /// Index of the entry preceding `entries`.
        prev_log_index: i64,
        /// Term of that entry.
        prev_log_term: i64,
        /// The entries to append (at most one, like the spec).
        entries: Vec<Entry>,
        /// Leader's commit index, clamped to what this request covers.
        commit_index: i64,
        /// Leader id.
        source: u64,
        /// Follower id.
        dest: u64,
    },
    /// `AppendEntriesResponse`.
    AppendResponse {
        /// Responder's term.
        term: i64,
        /// Whether the entries were accepted.
        success: bool,
        /// Highest index known replicated on the responder.
        match_index: i64,
        /// Responder id.
        source: u64,
        /// Leader id.
        dest: u64,
    },
}

impl RaftMsg {
    /// The destination node.
    pub fn dest(&self) -> u64 {
        match self {
            RaftMsg::VoteRequest { dest, .. }
            | RaftMsg::VoteResponse { dest, .. }
            | RaftMsg::AppendRequest { dest, .. }
            | RaftMsg::AppendResponse { dest, .. } => *dest,
        }
    }

    /// The spec-record shape, field for field what `Action.getMsg`
    /// reports.
    pub fn to_value(&self) -> Value {
        match self {
            RaftMsg::VoteRequest {
                term,
                last_log_term,
                last_log_index,
                source,
                dest,
            } => vrec! {
                mtype => "RequestVoteRequest",
                mterm => *term,
                mlastLogTerm => *last_log_term,
                mlastLogIndex => *last_log_index,
                msource => *source as i64,
                mdest => *dest as i64,
            },
            RaftMsg::VoteResponse {
                term,
                granted,
                source,
                dest,
            } => vrec! {
                mtype => "RequestVoteResponse",
                mterm => *term,
                mvoteGranted => *granted,
                msource => *source as i64,
                mdest => *dest as i64,
            },
            RaftMsg::AppendRequest {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                commit_index,
                source,
                dest,
            } => vrec! {
                mtype => "AppendEntriesRequest",
                mterm => *term,
                mprevLogIndex => *prev_log_index,
                mprevLogTerm => *prev_log_term,
                mentries => Value::seq(entries.iter().map(Entry::to_value)),
                mcommitIndex => *commit_index,
                msource => *source as i64,
                mdest => *dest as i64,
            },
            RaftMsg::AppendResponse {
                term,
                success,
                match_index,
                source,
                dest,
            } => vrec! {
                mtype => "AppendEntriesResponse",
                mterm => *term,
                msuccess => *success,
                mmatchIndex => *match_index,
                msource => *source as i64,
                mdest => *dest as i64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_value_matches_spec_record_shape() {
        let m = RaftMsg::VoteRequest {
            term: 2,
            last_log_term: 0,
            last_log_index: 0,
            source: 1,
            dest: 2,
        };
        let v = m.to_value();
        assert_eq!(v.expect_field("mtype"), &Value::str("RequestVoteRequest"));
        assert_eq!(v.expect_field("mterm"), &Value::Int(2));
        assert_eq!(v.expect_field("msource"), &Value::Int(1));
        assert_eq!(v.expect_field("mdest"), &Value::Int(2));
    }

    #[test]
    fn noop_entry_renders_as_spec_constant() {
        assert_eq!(
            Entry::noop(2).to_value().expect_field("value"),
            &Value::str("NoOp")
        );
        assert_eq!(
            Entry::data(2, 5).to_value().expect_field("value"),
            &Value::Int(5)
        );
    }
}
