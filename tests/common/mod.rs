//! Shared by the root suites.

use mocket::raft_async::XraftBugs;
use mocket::specs::raft::RaftSpecConfig;
use mocket::targets::{self, Target};

/// Conformant AsyncRaft against the Xraft model without duplicate and
/// restart faults — deliberately not a catalogue model: small enough
/// that a suite can run every generated case.
pub fn small_xraft() -> Target {
    targets::xraft(
        RaftSpecConfig {
            dup_limit: 0,
            restart_limit: 0,
            ..targets::xraft_model()
        },
        XraftBugs::none(),
    )
}
