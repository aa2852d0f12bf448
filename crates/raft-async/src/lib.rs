//! AsyncRaft: the Xraft analog target system.
//!
//! A complete Raft implementation with asynchronous messaging on the
//! `mocket-dsnet` substrate: leader election with a NoOp entry on
//! election, log replication, commit advancement, durable
//! term/vote/log. Three seeded bug switches ([`XraftBugs`]) reproduce
//! the mechanisms of the three previously-unknown Xraft bugs the
//! paper found (Table 2); all default to off.

pub mod bugs;
pub mod msg;
pub mod node;
pub mod sut;

pub use bugs::XraftBugs;
pub use msg::{Entry, RaftMsg};
pub use node::AsyncRaftNode;
pub use sut::{make_sut_full, mapping};
