//! Facade crate re-exporting the whole Mocket reproduction workspace.
//!
//! Downstream users depend on this crate to get the full pipeline:
//! the TLA+-style modeling substrate ([`tla`]), the model checker
//! ([`checker`]), Mocket itself ([`core`]), the instrumentation
//! runtime ([`runtime`]), the distributed-system substrate
//! ([`dsnet`]), the three target systems and their specifications.
//! [`targets`] is the catalogue that pairs them: every system under
//! test and every Table-2 bug, defined once.

pub mod targets;

pub use mocket_checker as checker;
pub use mocket_core as core;
pub use mocket_dsnet as dsnet;
pub use mocket_obs as obs;
pub use mocket_raft_async as raft_async;
pub use mocket_raft_sync as raft_sync;
pub use mocket_runtime as runtime;
pub use mocket_sim as sim;
pub use mocket_specs as specs;
pub use mocket_tla as tla;
pub use mocket_zab as zab;
