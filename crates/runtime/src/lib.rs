//! SUT-side runtime: the node interface and the instrumented cluster
//! harness.
//!
//! This crate is the Rust analog of Mocket's Java annotation + ASM
//! instrumentation layer (§4.3.1). Protocol implementations keep
//! their mapped fields as plain fields and show them to the state
//! checker through [`NodeApp::project`], expose their blocked actions
//! through the same trait, and run as in-process nodes inside a
//! [`Cluster`] — one owned world of nodes, network and disks — whose
//! control protocol realizes `notifyAndBlock` / `checkAllStates`
//! (Figure 7). [`ClusterSut`] adapts the whole thing to
//! `mocket_core::SystemUnderTest`.

pub mod cluster;
pub mod random;
pub mod sutadapter;

pub use cluster::{Backend, Cluster, NodeApp, NodeCx, NodeId};
pub use random::{run_random, RandomRunStats, XorShift};
pub use sutadapter::{ClusterSut, ExternalDriver, ScriptDriver, DISK_LOSS_ACTION};
