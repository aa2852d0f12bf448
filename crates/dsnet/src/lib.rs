//! Distributed-system substrate for the Mocket reproduction.
//!
//! The three target systems (AsyncRaft, SyncRaft, ZabKeeper) are built
//! on this crate: a simulated [`net::Net`] that carries each message
//! as an owned value and whose delivery order is externally
//! controllable (which is what lets Mocket's scheduler decide
//! interleavings), and per-node [`storage::Storage`] that survives
//! restarts.

pub mod net;
pub mod storage;

pub use net::{Envelope, Net, NodeId};
pub use storage::Storage;

/// No value exists: a sent message is deliverable at once, so there is
/// no link delay to plan. The type stays only because the benchmark
/// adapter passes `None` as the fourth argument of each SUT crate's
/// `make_sut_full`, whose parameter is an `Option<FaultPlan>`.
#[derive(Debug, Clone)]
pub enum FaultPlan {}
