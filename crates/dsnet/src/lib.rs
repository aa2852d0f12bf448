//! Distributed-system substrate for the Mocket reproduction.
//!
//! The three target systems (AsyncRaft, SyncRaft, ZabKeeper) are built
//! on this crate: a simulated [`net::Net`] that carries each message
//! as an owned value and whose delivery order is externally
//! controllable (which is what lets Mocket's scheduler decide
//! interleavings), an optional seeded link delay
//! ([`faults::FaultPlan`]) under it, and per-node
//! [`storage::Storage`] that survives restarts.

pub mod faults;
pub mod net;
pub mod storage;

pub use faults::FaultPlan;
pub use net::{Envelope, Net, NodeId};
pub use storage::Storage;
