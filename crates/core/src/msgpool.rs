//! Message pools for message-related variables (§4.1.1).
//!
//! Message-related variables have no counterpart in the
//! implementation, so the testbed maintains one pool per variable:
//! sending actions add the reported message, receiving actions remove
//! it, and drop/duplicate faults adjust multiplicity. During state
//! checks the pool is compared in place against the verified state's
//! value ([`MessagePools::equals`]); it is rendered as a value in the
//! specification's representation (bag or set) only for a report.

use std::collections::BTreeMap;

use mocket_tla::Value;

use crate::sut::MsgEvent;

/// Errors from pool maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// An event referenced a pool that was never registered.
    UnknownPool(String),
    /// A receive/drop referenced a message not in the pool — a
    /// conformance signal in its own right.
    MissingMessage {
        /// The pool.
        pool: String,
        /// The message that was not present.
        msg: Value,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownPool(p) => write!(f, "unknown message pool {p:?}"),
            PoolError::MissingMessage { pool, msg } => {
                write!(f, "pool {pool:?} does not contain {msg}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

#[derive(Debug, Clone)]
struct Pool {
    bag: bool,
    // Message (spec domain) → multiplicity.
    contents: BTreeMap<Value, usize>,
}

/// All message pools of one test run.
#[derive(Debug, Clone, Default)]
pub struct MessagePools {
    pools: BTreeMap<String, Pool>,
}

impl MessagePools {
    /// Creates an empty pool set.
    pub fn new() -> Self {
        MessagePools::default()
    }

    /// Registers a pool. `bag` selects multiset semantics (the Raft
    /// spec's `messages` allows duplicates); otherwise set semantics
    /// (ZAB's `le_msgs`/`bc_msgs`).
    pub fn register(&mut self, name: impl Into<String>, bag: bool) {
        self.pools.insert(
            name.into(),
            Pool {
                bag,
                contents: BTreeMap::new(),
            },
        );
    }

    /// Applies one reported event; a sent message moves into the pool.
    /// Messages must already be translated into the spec domain.
    pub fn apply(&mut self, event: MsgEvent) -> Result<(), PoolError> {
        match event {
            MsgEvent::Send { pool, msg } | MsgEvent::Duplicate { pool, msg } => {
                let Some(p) = self.pools.get_mut(&pool) else {
                    return Err(PoolError::UnknownPool(pool));
                };
                let slot = p.contents.entry(msg).or_insert(0);
                if p.bag {
                    *slot += 1;
                } else {
                    *slot = 1;
                }
                Ok(())
            }
            MsgEvent::Receive { pool, msg } | MsgEvent::Drop { pool, msg } => {
                let Some(p) = self.pools.get_mut(&pool) else {
                    return Err(PoolError::UnknownPool(pool));
                };
                match p.contents.get_mut(&msg) {
                    Some(n) if *n > 1 => {
                        *n -= 1;
                        Ok(())
                    }
                    Some(_) => {
                        p.contents.remove(&msg);
                        Ok(())
                    }
                    None => Err(PoolError::MissingMessage { pool, msg }),
                }
            }
        }
    }

    /// Whether pool `name` renders to exactly `expected` — the same
    /// answer as `as_value(name).as_ref() == Some(expected)`, read in
    /// place: a bag pool against a `Fun(message → count)`, a set pool
    /// against a `Set(message)`. Both sides iterate in value order, so
    /// one zipped walk decides it.
    pub fn equals(&self, name: &str, expected: &Value) -> bool {
        let Some(p) = self.pools.get(name) else {
            return false;
        };
        match expected {
            Value::Fun(f) if p.bag => {
                f.len() == p.contents.len()
                    && f.iter()
                        .zip(&p.contents)
                        .all(|((em, en), (m, n))| em == m && en.as_int() == Some(*n as i64))
            }
            Value::Set(s) if !p.bag => {
                s.len() == p.contents.len() && s.iter().eq(p.contents.keys())
            }
            _ => false,
        }
    }

    /// Renders a pool in the specification's representation: a bag
    /// pool becomes `Fun(message → count)`, a set pool becomes
    /// `Set(message)`.
    pub fn as_value(&self, name: &str) -> Option<Value> {
        self.pools.get(name).map(|p| {
            if p.bag {
                Value::Fun(
                    p.contents
                        .iter()
                        .map(|(m, n)| (m.clone(), Value::Int(*n as i64)))
                        .collect(),
                )
            } else {
                Value::Set(p.contents.keys().cloned().collect())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::vrec;

    fn msg(n: i64) -> Value {
        vrec! { mtype => "Req", mterm => n }
    }

    #[test]
    fn bag_counts_multiplicity() {
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        let send = MsgEvent::Send {
            pool: "messages".into(),
            msg: msg(1),
        };
        pools.apply(send).unwrap();
        pools
            .apply(MsgEvent::Duplicate {
                pool: "messages".into(),
                msg: msg(1),
            })
            .unwrap();
        assert_eq!(
            pools.as_value("messages").unwrap(),
            Value::fun([(msg(1), Value::Int(2))])
        );
        pools
            .apply(MsgEvent::Receive {
                pool: "messages".into(),
                msg: msg(1),
            })
            .unwrap();
        assert_eq!(
            pools.as_value("messages").unwrap(),
            Value::fun([(msg(1), Value::Int(1))])
        );
    }

    #[test]
    fn set_pool_ignores_duplicates() {
        let mut pools = MessagePools::new();
        pools.register("le_msgs", false);
        for _ in 0..2 {
            pools
                .apply(MsgEvent::Send {
                    pool: "le_msgs".into(),
                    msg: msg(1),
                })
                .unwrap();
        }
        assert_eq!(pools.as_value("le_msgs").unwrap(), Value::set([msg(1)]));
        pools
            .apply(MsgEvent::Receive {
                pool: "le_msgs".into(),
                msg: msg(1),
            })
            .unwrap();
        assert_eq!(pools.as_value("le_msgs").unwrap(), Value::empty_set());
    }

    #[test]
    fn receive_of_absent_message_errors() {
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        let err = pools
            .apply(MsgEvent::Receive {
                pool: "messages".into(),
                msg: msg(9),
            })
            .unwrap_err();
        assert!(matches!(err, PoolError::MissingMessage { .. }));
    }

    #[test]
    fn unknown_pool_errors() {
        let mut pools = MessagePools::new();
        let err = pools
            .apply(MsgEvent::Send {
                pool: "nope".into(),
                msg: msg(1),
            })
            .unwrap_err();
        assert_eq!(err, PoolError::UnknownPool("nope".into()));
    }

    #[test]
    fn drop_removes_one_copy() {
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        for _ in 0..2 {
            pools
                .apply(MsgEvent::Send {
                    pool: "messages".into(),
                    msg: msg(1),
                })
                .unwrap();
        }
        pools
            .apply(MsgEvent::Drop {
                pool: "messages".into(),
                msg: msg(1),
            })
            .unwrap();
        assert_eq!(
            pools.as_value("messages").unwrap(),
            Value::fun([(msg(1), Value::Int(1))])
        );
    }
}
