//! ZabKeeper: the ZooKeeper ZAB analog target system.
//!
//! A ZAB implementation on the `mocket-dsnet` substrate: fast leader
//! election, the NEWEPOCH/NEWLEADER synchronization handshake with
//! durable epoch files, and the PROPOSE/ACK/COMMIT broadcast phase.
//! Two seeded bug switches ([`ZabBugs`]) reproduce the mechanisms of
//! the two known ZooKeeper bugs in the paper's Table 2.

pub mod bugs;
pub mod msg;
pub mod node;
pub mod sut;

pub use bugs::ZabBugs;
pub use msg::{ZEntry, ZVote, ZabMsg};
pub use node::ZabNode;
pub use sut::{make_sut_full, mapping};
