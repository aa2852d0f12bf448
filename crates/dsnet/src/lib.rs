//! Distributed-system substrate for the Mocket reproduction.
//!
//! The three target systems (AsyncRaft, SyncRaft, ZabKeeper) are built
//! on this crate: a simulated [`net::Net`] whose delivery order is
//! externally controllable (which is what lets Mocket's scheduler
//! decide interleavings), per-node [`storage::Storage`] that survives
//! restarts, and a [`wire::Wire`] codec boundary that every message
//! crosses.

pub mod faults;
pub mod net;
pub mod storage;
pub mod wire;

pub use faults::{
    FaultDecision, FaultParseError, FaultPlan, FaultPlanConfig, PartitionEdict, TraceEntry,
};
pub use net::{Envelope, Net, NetStats, NodeId};
pub use storage::Storage;
pub use wire::{Wire, WireError};
