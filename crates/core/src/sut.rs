//! The system-under-test interface.
//!
//! The testbed drives a target distributed system through this trait:
//! it polls the blocked action notifications (offers), releases the
//! one matching the scheduled step, triggers external faults and user
//! requests, and collects runtime state snapshots. Target systems
//! (AsyncRaft, SyncRaft, ZabKeeper) implement it on top of the
//! `mocket-dsnet` cluster substrate.

use std::fmt;

use mocket_tla::{ActionInstance, Value};

/// A blocked action notification from one node (Figure 7's
/// `notifyAndBlock`): the node has encountered the action and waits
/// for the scheduler's reply.
///
/// Names and parameter values are in the *implementation* domain; the
/// mapping registry translates them before matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// The notifying node's identifier.
    pub node: u64,
    /// The implementation-side action (name + collected parameters).
    pub action: ActionInstance,
}

impl fmt::Display for Offer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {}: {}", self.node, self.action)
    }
}

/// A message-pool event reported by an executed action (§4.1.1's
/// message-related variable maintenance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgEvent {
    /// `Action.getMsg` in a message-sending action: the message enters
    /// the pool.
    Send {
        /// Pool (message-related variable) name.
        pool: String,
        /// Message content in the implementation domain.
        msg: Value,
    },
    /// A message-receiving action consumed the message.
    Receive {
        /// Pool name.
        pool: String,
        /// Message content in the implementation domain.
        msg: Value,
    },
    /// A message-drop fault removed the message.
    Drop {
        /// Pool name.
        pool: String,
        /// Message content.
        msg: Value,
    },
    /// A message-duplicate fault added another copy.
    Duplicate {
        /// Pool name.
        pool: String,
        /// Message content.
        msg: Value,
    },
}

/// The runtime values of all mapped variables, aggregated across
/// nodes: implementation variable name → value (implementation
/// domain). Per-node variables are aggregated into functions
/// `node id → value` by the SUT adapter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(impl variable name, impl-domain value)` pairs.
    pub vars: Vec<(String, Value)>,
}

impl Snapshot {
    /// Creates a snapshot from pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Snapshot {
            vars: pairs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// The value of an implementation variable, if collected.
    pub fn get(&self, impl_name: &str) -> Option<&Value> {
        self.vars
            .iter()
            .find(|(k, _)| k == impl_name)
            .map(|(_, v)| v)
    }
}

/// What executing one action produced.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Message-pool events (sends, receives, faults).
    pub msg_events: Vec<MsgEvent>,
}

/// Errors from driving the system under test.
#[derive(Debug, Clone)]
pub enum SutError {
    /// A node died or stopped responding outside a scheduled crash.
    NodeFailure {
        /// The failed node.
        node: u64,
        /// Description.
        message: String,
    },
    /// A node's application code crashed (panic or equivalent) while
    /// the harness was driving it. Unlike [`SutError::NodeFailure`],
    /// the death is attributable to the node's own logic — the runner
    /// classifies it as a crash-style inconsistency in the system
    /// under test, not as harness trouble.
    NodeDeath {
        /// The dead node.
        node: u64,
        /// Panic message or death diagnosis.
        reason: String,
    },
    /// An external action could not be triggered.
    External(String),
}

impl fmt::Display for SutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SutError::NodeFailure { node, message } => {
                write!(f, "node {node} failed: {message}")
            }
            SutError::NodeDeath { node, reason } => {
                write!(f, "node {node} died: {reason}")
            }
            SutError::External(m) => write!(f, "external action failed: {m}"),
        }
    }
}

impl std::error::Error for SutError {}

/// Extracts the integer parameter `idx` of an external action as a
/// typed error instead of a panic.
///
/// External-action parameters arrive from the scheduler in the spec
/// domain; a malformed mapping (wrong arity, wrong type) used to
/// panic the harness mid-campaign. Drivers should use this and
/// [`record_int_field`] so a bad parameter surfaces as
/// [`SutError::External`] — one failed case, not a dead testbed.
pub fn int_param(action: &ActionInstance, idx: usize) -> Result<i64, SutError> {
    let param = action.params.get(idx).ok_or_else(|| {
        SutError::External(format!(
            "{}: missing parameter {idx} (got {} parameters)",
            action.name,
            action.params.len()
        ))
    })?;
    param.as_int().ok_or_else(|| {
        SutError::External(format!(
            "{}: parameter {idx} is not an integer: {param}",
            action.name
        ))
    })
}

/// Extracts an integer record field from a spec-domain value as a
/// typed error instead of a panic. See [`int_param`].
pub fn record_int_field(value: &Value, field: &str) -> Result<i64, SutError> {
    let v = value.field(field).ok_or_else(|| {
        SutError::External(format!("record {value} has no field {field:?}"))
    })?;
    v.as_int().ok_or_else(|| {
        SutError::External(format!("record field {field:?} is not an integer: {v}"))
    })
}

/// A deployable, controllable distributed system.
///
/// Mocket deploys a fresh cluster per test case (§4.3.2), so a typical
/// implementation spawns its nodes in [`deploy`](Self::deploy) and
/// kills them in [`teardown`](Self::teardown). A case moves its
/// system to the thread that runs it, hence `Send`.
pub trait SystemUnderTest: Send {
    /// Deploys a fresh cluster.
    fn deploy(&mut self) -> Result<(), SutError>;

    /// Tears the cluster down.
    fn teardown(&mut self);

    /// Collects the actions currently offered (blocked notifications)
    /// by all alive nodes. Complete and idempotent: every action the
    /// system can take now is offered now, and polling again without an
    /// intervening execution returns the same offers. The runner polls
    /// once per step, so an action missing from this poll is a missing
    /// action; a system that would offer it only later (a message still
    /// held in its network) breaks this contract.
    fn offers(&mut self) -> Result<Vec<Offer>, SutError>;

    /// Releases one offered action and waits for it to finish.
    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError>;

    /// Triggers an external-fault or user-request action (spec
    /// domain), e.g. `Crash(2)`, `Restart(1)`, `ClientRequest(1)`,
    /// `DropMessage(m)`.
    fn execute_external(&mut self, action: &ActionInstance) -> Result<ExecReport, SutError>;

    /// Collects the runtime values of every mapped variable.
    fn snapshot(&mut self) -> Result<Snapshot, SutError>;

    /// Installs a causal tracer so the SUT's internals (cluster,
    /// simulated network) emit message-level trace events for the current case.
    /// The default is a no-op: targets that cannot trace simply stay
    /// silent and the trace still carries the scheduler-level events.
    fn install_tracer(&mut self, _tracer: &mocket_obs::causal::Tracer) {}

    /// A copy of the deployment as it stands, stepping independently
    /// of this one (an installed tracer and a simulated clock stay
    /// shared). `None` when the system cannot be copied.
    fn fork(&self) -> Option<Box<dyn SystemUnderTest>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lookup() {
        let s = Snapshot::from_pairs([
            ("state", Value::str("STATE_LEADER")),
            ("term", Value::Int(2)),
        ]);
        assert_eq!(s.get("term"), Some(&Value::Int(2)));
        assert_eq!(s.get("nope"), None);
    }

    #[test]
    fn offer_display() {
        let o = Offer {
            node: 1,
            action: ActionInstance::nullary("becomeLeader"),
        };
        assert_eq!(o.to_string(), "node 1: becomeLeader");
    }

    #[test]
    fn sut_error_display() {
        let e = SutError::NodeFailure {
            node: 3,
            message: "panicked".into(),
        };
        assert!(e.to_string().contains("node 3"));
    }
}
