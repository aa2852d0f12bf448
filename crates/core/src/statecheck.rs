//! The state checker (§4.3.2).
//!
//! After every executed action the checker compares the collected
//! runtime values — shadow-variable snapshots plus the testbed's
//! message pools — against the verified state of the test case,
//! translating implementation constants into the spec domain through
//! the constant map. Counters and auxiliary variables are skipped:
//! they have no mapping by design.

use mocket_obs::VarDiff;
use mocket_tla::{State, Value, VarClass};

use crate::mapping::{CompareMode, MappingRegistry, VarTarget};
use crate::msgpool::MessagePools;
use crate::report::VariableDivergence;
use crate::sut::Snapshot;

/// Compares a runtime snapshot (plus pools) against the expected
/// verified state, returning every divergence.
pub fn check_state(
    expected: &State,
    snapshot: &Snapshot,
    pools: &MessagePools,
    registry: &MappingRegistry,
) -> Vec<VariableDivergence> {
    let mut divergences = Vec::new();
    for vm in registry.variables() {
        let Some(expected_value) = expected.get(&vm.spec_name) else {
            // The spec does not bind this variable (should not happen
            // for validated mappings); nothing to compare.
            continue;
        };
        match (&vm.class, &vm.target) {
            (VarClass::StateRelated, Some(target)) => {
                let impl_name = match target {
                    VarTarget::ClassField { impl_name }
                    | VarTarget::MethodVariable { impl_name, .. } => impl_name,
                    VarTarget::MessagePool { .. } => continue,
                };
                let actual = snapshot
                    .get(impl_name)
                    .map(|v| registry.consts().to_spec(v));
                let matches = match &actual {
                    Some(a) => values_match(expected_value, a, vm.compare),
                    None => false,
                };
                if !matches {
                    divergences.push(VariableDivergence {
                        variable: vm.spec_name.clone(),
                        expected: expected_value.clone(),
                        actual,
                    });
                }
            }
            (VarClass::MessageRelated, Some(VarTarget::MessagePool { pool, .. })) => {
                let actual = pools.as_value(pool);
                if actual.as_ref() != Some(expected_value) {
                    divergences.push(VariableDivergence {
                        variable: vm.spec_name.clone(),
                        expected: expected_value.clone(),
                        actual,
                    });
                }
            }
            // Counters / auxiliary variables are unmapped (§4.1.1).
            _ => {}
        }
    }
    divergences
}

/// Compares an expected spec value against a collected (already
/// translated) value under a compare mode. `Cardinality` matches an
/// implementation count `Int(k)` against a spec collection of size
/// `k`, recursing pointwise through node-indexed functions.
pub fn values_match(expected: &Value, actual: &Value, mode: CompareMode) -> bool {
    match mode {
        CompareMode::Exact => expected == actual,
        CompareMode::Cardinality => match (expected, actual) {
            (Value::Fun(e), Value::Fun(a)) => {
                e.len() == a.len()
                    && e.iter()
                        .zip(a.iter())
                        .all(|((ke, ve), (ka, va))| ke == ka && values_match(ve, va, mode))
            }
            (collection, Value::Int(k)) => collection.cardinality() as i64 == *k,
            _ => expected == actual,
        },
    }
}

/// Structured per-variable diff for the divergence explainer: instead
/// of "expected F, got G" on a whole function value, recurses into
/// functions, records and sets and reports only the leaves that
/// actually differ, with a path like `votesGranted[1]`. Set deltas are
/// reported per element (`expected present, got absent`). Equal values
/// yield nothing.
pub fn value_diff(variable: &str, expected: &Value, actual: Option<&Value>) -> Vec<VarDiff> {
    let mut out = Vec::new();
    match actual {
        None => out.push(VarDiff::new(
            variable,
            &expected.to_string(),
            VarDiff::MISSING,
        )),
        Some(actual) => diff_into(variable, expected, actual, &mut out),
    }
    out
}

fn diff_into(path: &str, expected: &Value, actual: &Value, out: &mut Vec<VarDiff>) {
    if expected == actual {
        return;
    }
    match (expected, actual) {
        (Value::Fun(e), Value::Fun(a)) => {
            for (k, ve) in e {
                match a.get(k) {
                    Some(va) => diff_into(&format!("{path}[{k}]"), ve, va, out),
                    None => out.push(VarDiff::new(
                        &format!("{path}[{k}]"),
                        &ve.to_string(),
                        VarDiff::MISSING,
                    )),
                }
            }
            for (k, va) in a {
                if !e.contains_key(k) {
                    out.push(VarDiff::new(
                        &format!("{path}[{k}]"),
                        VarDiff::MISSING,
                        &va.to_string(),
                    ));
                }
            }
        }
        (Value::Record(e), Value::Record(a)) => {
            for (k, ve) in e {
                match a.get(k) {
                    Some(va) => diff_into(&format!("{path}.{k}"), ve, va, out),
                    None => out.push(VarDiff::new(
                        &format!("{path}.{k}"),
                        &ve.to_string(),
                        VarDiff::MISSING,
                    )),
                }
            }
            for (k, va) in a {
                if !e.contains_key(k) {
                    out.push(VarDiff::new(
                        &format!("{path}.{k}"),
                        VarDiff::MISSING,
                        &va.to_string(),
                    ));
                }
            }
        }
        (Value::Set(e), Value::Set(a)) => {
            for v in e.difference(a) {
                out.push(VarDiff::new(&format!("{path}[{v}]"), "present", "absent"));
            }
            for v in a.difference(e) {
                out.push(VarDiff::new(&format!("{path}[{v}]"), "absent", "present"));
            }
        }
        _ => out.push(VarDiff::new(
            path,
            &expected.to_string(),
            &actual.to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::MsgEvent;
    use mocket_tla::vrec;

    fn registry() -> MappingRegistry {
        let mut r = MappingRegistry::new();
        r.map_class_field("nodeState", "state")
            .map_class_field("votedFor", "votedFor")
            .map_message_pool("messages", true);
        r.bind_const(Value::str("Follower"), Value::str("STATE_FOLLOWER"));
        r.bind_const(Value::str("Leader"), Value::str("STATE_LEADER"));
        r
    }

    fn expected() -> State {
        State::from_pairs([
            (
                "nodeState",
                Value::fun([
                    (Value::Int(1), Value::str("Leader")),
                    (Value::Int(2), Value::str("Follower")),
                ]),
            ),
            (
                "votedFor",
                Value::fun([
                    (Value::Int(1), Value::Int(1)),
                    (Value::Int(2), Value::Int(1)),
                ]),
            ),
            ("messages", Value::fun([])),
            // An auxiliary variable with no mapping: must be ignored.
            ("stage", Value::str("x")),
        ])
    }

    fn matching_snapshot() -> Snapshot {
        Snapshot::from_pairs([
            (
                "state",
                Value::fun([
                    (Value::Int(1), Value::str("STATE_LEADER")),
                    (Value::Int(2), Value::str("STATE_FOLLOWER")),
                ]),
            ),
            (
                "votedFor",
                Value::fun([
                    (Value::Int(1), Value::Int(1)),
                    (Value::Int(2), Value::Int(1)),
                ]),
            ),
        ])
    }

    #[test]
    fn matching_state_has_no_divergences() {
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        assert!(check_state(&expected(), &matching_snapshot(), &pools, &registry()).is_empty());
    }

    #[test]
    fn wrong_constant_translation_diverges() {
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        let mut snap = matching_snapshot();
        snap.vars[0].1 = Value::fun([
            (Value::Int(1), Value::str("STATE_FOLLOWER")),
            (Value::Int(2), Value::str("STATE_FOLLOWER")),
        ]);
        let d = check_state(&expected(), &snap, &pools, &registry());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].variable, "nodeState");
        // Actual is reported in the spec domain.
        assert_eq!(
            d[0].actual,
            Some(Value::fun([
                (Value::Int(1), Value::str("Follower")),
                (Value::Int(2), Value::str("Follower")),
            ]))
        );
    }

    #[test]
    fn missing_snapshot_variable_diverges_as_uncollected() {
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        let snap = Snapshot::from_pairs([(
            "state",
            Value::fun([
                (Value::Int(1), Value::str("STATE_LEADER")),
                (Value::Int(2), Value::str("STATE_FOLLOWER")),
            ]),
        )]);
        let d = check_state(&expected(), &snap, &pools, &registry());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].variable, "votedFor");
        assert_eq!(d[0].actual, None);
    }

    #[test]
    fn pool_contents_are_compared() {
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        pools
            .apply(&MsgEvent::Send {
                pool: "messages".into(),
                msg: vrec! { mtype => "Req" },
            })
            .unwrap();
        let d = check_state(&expected(), &matching_snapshot(), &pools, &registry());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].variable, "messages");
        assert_eq!(
            d[0].actual,
            Some(Value::fun([(vrec! { mtype => "Req" }, Value::Int(1))]))
        );
    }

    #[test]
    fn value_diff_recurses_into_functions_and_sets() {
        let expected = Value::fun([
            (Value::Int(1), Value::set([Value::Int(1), Value::Int(2)])),
            (Value::Int(2), Value::str("Leader")),
            (Value::Int(3), Value::Int(7)),
        ]);
        let actual = Value::fun([
            (Value::Int(1), Value::set([Value::Int(1), Value::Int(3)])),
            (Value::Int(2), Value::str("Leader")),
            (Value::Int(4), Value::Int(9)),
        ]);
        let diffs = value_diff("votes", &expected, Some(&actual));
        let rendered: Vec<String> = diffs.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            rendered,
            [
                "votes[1][2]: expected present, got absent",
                "votes[1][3]: expected absent, got present",
                "votes[3]: expected 7, got <missing>",
                "votes[4]: expected <missing>, got 9",
            ]
        );
    }

    #[test]
    fn value_diff_handles_records_leaves_and_uncollected() {
        let expected = Value::record([("term", Value::Int(2)), ("ok", Value::Bool(true))]);
        let actual = Value::record([("term", Value::Int(1)), ("ok", Value::Bool(true))]);
        let diffs = value_diff("hdr", &expected, Some(&actual));
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].to_string(), "hdr.term: expected 2, got 1");

        // Uncollected variable: one whole-variable diff.
        let diffs = value_diff("x", &Value::Int(3), None);
        assert_eq!(diffs[0].to_string(), "x: expected 3, got <missing>");

        // Type mismatch stays a leaf diff.
        let diffs = value_diff("x", &Value::Int(3), Some(&Value::str("three")));
        assert_eq!(diffs[0].to_string(), "x: expected 3, got \"three\"");

        // Equal values: nothing.
        assert!(value_diff("x", &Value::Int(3), Some(&Value::Int(3))).is_empty());
    }

    #[test]
    fn auxiliary_variables_are_ignored() {
        // `stage` is in the expected state but has no mapping: even a
        // snapshot that knows nothing about it passes.
        let mut pools = MessagePools::new();
        pools.register("messages", true);
        let d = check_state(&expected(), &matching_snapshot(), &pools, &registry());
        assert!(d.iter().all(|x| x.variable != "stage"));
    }
}
