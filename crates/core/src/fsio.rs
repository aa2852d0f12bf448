//! Fault-injectable filesystem I/O for the campaign harness: a
//! re-export of [`mocket_obs::fsio`], where the implementation and the
//! fault-point catalog live so the dependency-free obs sinks share
//! them.

pub use mocket_obs::fsio::{
    append_bytes, append_line, armed, is_enospc, points, write_atomic,
    AppendLog, Fault, FaultInjector, FaultKind, LineIssue, RetryPolicy, MOCKET_FSIO_FAULTS_ENV,
    MOCKET_FSIO_FAULT_LOG_ENV, TORN_MARKER,
};
