//! SUT-side runtime: instrumentation hooks, shadow variables, and the
//! instrumented cluster harness.
//!
//! This crate is the Rust analog of Mocket's Java annotation + ASM
//! instrumentation layer (§4.3.1). Protocol implementations keep
//! their mapped fields in [`Shadow`] cells (every write is mirrored
//! for the state checker), expose their blocked actions through the
//! [`NodeApp`] trait, and run as in-process nodes inside a
//! [`Cluster`] whose request/reply control protocol realizes
//! `notifyAndBlock` / `checkAllStates` (Figure 7). [`ClusterSut`]
//! adapts the whole thing to `mocket_core::SystemUnderTest`.

pub mod cluster;
pub mod random;
pub mod registry;
pub mod sutadapter;

pub use cluster::{Backend, Cluster, ClusterError, DiskWiper, NodeApp, NodeFactory, NodeId};
pub use random::{run_random, RandomRunStats, XorShift};
pub use registry::{Shadow, VarRegistry};
pub use sutadapter::{ClusterSut, ExternalDriver, ScriptDriver, DISK_LOSS_ACTION};
