//! Shared scenario definitions for the benchmark harness.
//!
//! Each table and figure of the paper has a bench binary under
//! `benches/`; the model configurations they share live here so the
//! numbers across tables are consistent.

use std::sync::Arc;

use mocket_specs::raft::{RaftSpec, RaftSpecConfig};
use mocket_specs::zab::{ZabSpec, ZabSpecConfig};
use mocket_tla::Spec;

/// The Xraft bench model (asynchronous Raft with duplicate and
/// restart faults).
pub fn xraft_model() -> RaftSpecConfig {
    RaftSpecConfig::xraft(vec![1, 2])
}

/// The Raft-java bench model (synchronous Raft, two candidates, two
/// client requests — deep enough for the log-conflict scenario).
pub fn raft_java_model() -> RaftSpecConfig {
    RaftSpecConfig::raft_java_log_conflict()
}

/// The ZooKeeper bench model (full election + sync + broadcast).
pub fn zookeeper_model() -> ZabSpecConfig {
    ZabSpecConfig::small(vec![1, 2])
}

/// The three bench specs with their display names.
pub fn bench_specs() -> Vec<(&'static str, Arc<dyn Spec>)> {
    vec![
        ("Xraft", Arc::new(RaftSpec::new(xraft_model()))),
        ("Raft-java", Arc::new(RaftSpec::new(raft_java_model()))),
        ("ZooKeeper", Arc::new(ZabSpec::new(zookeeper_model()))),
    ]
}

/// Formats a duration in the style of the paper's Table 2.
pub fn fmt_secs(seconds: f64) -> String {
    if seconds < 60.0 {
        format!("{seconds:.1} s")
    } else if seconds < 3600.0 {
        format!("{:.1} min", seconds / 60.0)
    } else {
        format!("{:.1} h", seconds / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Raft-java bench model (and through this crate perfbench's
    /// `raftjava-graph`) is the constructor the catalogue's
    /// log-truncation row calls; `src/targets.rs` pins the row's side.
    #[test]
    fn raft_java_model_is_the_log_truncation_rows_model() {
        assert_eq!(raft_java_model(), RaftSpecConfig::raft_java_log_conflict());
    }
}
