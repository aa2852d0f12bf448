//! SyncRaft: the Raft-java analog target system.
//!
//! An independently structured Raft implementation with synchronous
//! RPC-style communication, no drop/duplicate faults and no NoOp
//! entry on election (§5.2's Raft-java implementation choices). Two
//! seeded bug switches ([`SyncRaftBugs`]) reproduce the known
//! Raft-java bugs of Table 2, and the SUT adapter can map the
//! official specification's independent `UpdateTerm` for the two
//! specification-bug rows.

pub mod bugs;
pub mod logstore;
pub mod msg;
pub mod node;
pub mod sut;

pub use bugs::SyncRaftBugs;
pub use logstore::{LogEntry, LogStore};
pub use msg::Rpc;
pub use node::SyncRaftNode;
pub use sut::{make_sut_full, mapping};
