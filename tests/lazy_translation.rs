//! The passing path of a step reads implementation values in place;
//! these suites pin that each in-place reading gives exactly the answer
//! the eager translation gives:
//!
//! - `ConstMap::view` equals `ConstMap::to_spec`;
//! - `MessagePools::equals(pool, v)` ⇔ `as_value(pool).as_ref() == Some(v)`;
//! - `find_match` picks the first offer `o` with
//!   `offer_to_spec(&o.action) == Some(scheduled)`.
//!
//! Each is checked on hand-built values — including a constant map
//! that reorders function keys and one that merges two implementation
//! constants into one spec constant — and on the values the three
//! targets really produce under their real mappings.

mod common;

use std::borrow::Cow;
use std::collections::BTreeSet;

use common::Checkpoint;
use mocket::core::{
    find_match, ActionBinding, ConstMap, MappingRegistry, MessagePools, MsgEvent, Offer, VarTarget,
};
use mocket::raft_sync::SyncRaftBugs;
use mocket::specs::raft::RaftSpecConfig;
use mocket::targets::{self, Target};
use mocket::tla::{vrec, ActionClass, ActionInstance, Value};
use mocket::zab::ZabBugs;

/// Impl `Int(1)` → `"N1"` and `Int(2)` → `"N0"`: a function keyed by
/// node ids comes out with its keys in the other order.
fn reordering() -> ConstMap {
    let mut c = ConstMap::new();
    c.bind(Value::str("N1"), Value::Int(1));
    c.bind(Value::str("N0"), Value::Int(2));
    c
}

/// Impl `"F1"` and `"F2"` both → `"Follower"`: a set holding both
/// shrinks, a function keyed by both loses a key.
fn merging() -> ConstMap {
    let mut c = ConstMap::new();
    c.bind(Value::str("Follower"), Value::str("F1"));
    c.bind(Value::str("Follower"), Value::str("F2"));
    c
}

fn hand_built_values() -> Vec<Value> {
    let f1 = Value::str("F1");
    let f2 = Value::str("F2");
    vec![
        Value::Nil,
        Value::Bool(true),
        Value::Int(1),
        Value::Int(3),
        Value::str("x"),
        f1.clone(),
        Value::empty_set(),
        Value::set([Value::Int(3), Value::str("x")]),
        Value::set([f1.clone(), f2.clone(), Value::str("x")]),
        Value::seq([Value::Int(2), Value::Int(1), f2.clone()]),
        vrec! { mtype => "Req", mterm => 1 },
        vrec! { mtype => "Req", mterm => 3 },
        Value::fun([(Value::Int(1), f2.clone()), (Value::Int(2), Value::Int(7))]),
        Value::fun([(f1.clone(), Value::Int(1)), (f2.clone(), Value::Int(2))]),
        Value::fun([(Value::Int(3), Value::set([Value::Int(4)]))]),
        Value::fun([(
            Value::Int(3),
            Value::seq([
                vrec! { term => 1, value => "v" },
                vrec! { term => 2, value => "w" },
            ]),
        )]),
    ]
}

/// Whether `v` or anything inside it is one of `constants`.
fn holds_any(v: &Value, constants: &[Value]) -> bool {
    constants.contains(v)
        || match v {
            Value::Set(s) => s.iter().any(|x| holds_any(x, constants)),
            Value::Seq(s) => s.iter().any(|x| holds_any(x, constants)),
            Value::Record(r) => r.values().any(|x| holds_any(x, constants)),
            Value::Fun(m) => m
                .iter()
                .any(|(k, x)| holds_any(k, constants) || holds_any(x, constants)),
            _ => false,
        }
}

#[test]
fn view_equals_to_spec_on_hand_built_values() {
    let maps = [
        (ConstMap::new(), vec![]),
        (reordering(), vec![Value::Int(1), Value::Int(2)]),
        (merging(), vec![Value::str("F1"), Value::str("F2")]),
    ];
    for (consts, constants) in &maps {
        for v in hand_built_values() {
            let view = consts.view(&v);
            assert_eq!(*view, consts.to_spec(&v), "view of {v}");
            let borrowed = matches!(view, Cow::Borrowed(_));
            assert_eq!(
                borrowed,
                !holds_any(&v, constants),
                "{v} borrowed: {borrowed}"
            );
        }
    }
    // The two maps change what they are built to change.
    let reordered = reordering().to_spec(&Value::fun([
        (Value::Int(1), Value::str("a")),
        (Value::Int(2), Value::str("b")),
    ]));
    let keys: Vec<_> = reordered.as_fun().unwrap().keys().cloned().collect();
    assert_eq!(keys, [Value::str("N0"), Value::str("N1")]);
    let merged = merging()
        .view(&Value::set([Value::str("F1"), Value::str("F2")]))
        .into_owned();
    assert_eq!(merged, Value::set([Value::str("Follower")]));
}

/// The three targets, each narrowed to a model small enough to check
/// in a test, with the cases their checkpoints are taken from.
fn target_checkpoints() -> Vec<(Target, Vec<Checkpoint>)> {
    let raft_java = targets::raft_java(
        RaftSpecConfig {
            servers: vec![1, 2],
            ..targets::raft_java_model()
        },
        SyncRaftBugs::none(),
        false,
    );
    let zab = targets::zab(targets::zab_model(), ZabBugs::none());
    [common::small_xraft(), raft_java, zab]
        .into_iter()
        .map(|target| {
            let cps = common::checkpoints(&target, 60, 4);
            (target, cps)
        })
        .collect()
}

fn role_variable(registry: &MappingRegistry) -> Option<&str> {
    match &registry.variable_by_spec_name("state")?.target {
        Some(VarTarget::ClassField { impl_name }) => Some(impl_name.as_str()),
        _ => None,
    }
}

fn pool_names(registry: &MappingRegistry) -> Vec<(&str, &str)> {
    registry
        .variables()
        .iter()
        .filter_map(|vm| match &vm.target {
            Some(VarTarget::MessagePool { pool, .. }) => {
                Some((vm.spec_name.as_str(), pool.as_str()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn lazy_paths_agree_with_eager_translation_on_every_target() {
    for (target, cps) in target_checkpoints() {
        let registry = &target.registry;
        let consts = registry.consts();
        assert!(cps.len() > 20, "{}: {} checkpoints", target.name, cps.len());

        // The view: every snapshot value, every offer parameter. Only the
        // Raft role carries a mapped constant; ZooKeeper maps none.
        let role = role_variable(registry);
        for cp in &cps {
            for (name, value) in &cp.snapshot.vars {
                let view = consts.view(value);
                assert_eq!(*view, consts.to_spec(value), "{}: {name}", target.name);
                let borrowed = matches!(view, Cow::Borrowed(_));
                assert_eq!(
                    borrowed,
                    Some(name.as_str()) != role,
                    "{}: {name}",
                    target.name
                );
            }
            for p in cp.offers.iter().flat_map(|o| &o.action.params) {
                assert_eq!(*consts.view(p), consts.to_spec(p), "{}: {p}", target.name);
            }
        }

        // Pool equality against every pool value the case reached.
        let pools = pool_names(registry);
        assert!(!pools.is_empty());
        let mut hits = 0;
        for (var, pool) in &pools {
            let candidates: BTreeSet<&Value> =
                cps.iter().filter_map(|cp| cp.expected.get(var)).collect();
            assert!(candidates.len() > 2, "{}: {var} never changes", target.name);
            for cp in &cps {
                for name in [*pool, "no-such-pool"] {
                    for &c in &candidates {
                        let eager = cp.pools.as_value(name).as_ref() == Some(c);
                        assert_eq!(
                            cp.pools.equals(name, c),
                            eager,
                            "{}: {name} vs {c}",
                            target.name
                        );
                        hits += eager as usize;
                    }
                }
            }
        }
        assert!(
            hits >= cps.len(),
            "{}: every checkpoint's pools match",
            target.name
        );

        // The matcher against every batch, for every action scheduled
        // anywhere in the cases and every offer's translation.
        let mut scheduled: BTreeSet<ActionInstance> =
            cps.iter().map(|cp| cp.scheduled.clone()).collect();
        scheduled.extend(
            cps.iter()
                .flat_map(|cp| &cp.offers)
                .filter_map(|o| registry.offer_to_spec(&o.action)),
        );
        let batches: Vec<&[Offer]> = cps
            .iter()
            .map(|cp| cp.offers.as_slice())
            .filter(|b| !b.is_empty())
            .collect();
        assert!(
            batches.len() > 10,
            "{}: {} offer batches",
            target.name,
            batches.len()
        );
        for batch in &batches {
            for s in &scheduled {
                let eager = batch
                    .iter()
                    .position(|o| registry.offer_to_spec(&o.action).as_ref() == Some(s));
                assert_eq!(
                    find_match(registry, s, batch),
                    eager,
                    "{}: {s}",
                    target.name
                );
            }
        }
        for cp in cps.iter().filter(|cp| !cp.offers.is_empty()) {
            assert!(find_match(registry, &cp.scheduled, &cp.offers).is_some());
        }
    }
}

#[test]
fn pool_equality_matches_rendering_on_hand_built_pools() {
    let msg = |n: i64| vrec! { mtype => "Req", mterm => n };
    let send = |pool: &str, m: Value| MsgEvent::Send {
        pool: pool.into(),
        msg: m,
    };
    let mut pools = MessagePools::new();
    for (name, bag) in [
        ("bag", true),
        ("set", false),
        ("empty_bag", true),
        ("empty_set", false),
    ] {
        pools.register(name, bag);
    }
    for event in [
        send("bag", msg(1)),
        send("bag", msg(1)),
        send("bag", msg(2)),
        send("set", msg(1)),
        send("set", msg(1)),
        send("set", msg(3)),
    ] {
        pools.apply(event).unwrap();
    }
    let two = Value::Int(2);
    let one = Value::Int(1);
    let candidates = [
        Value::fun([(msg(1), two.clone()), (msg(2), one.clone())]),
        Value::fun([(msg(1), one.clone()), (msg(2), one.clone())]),
        Value::fun([(msg(1), two.clone())]),
        Value::fun([
            (msg(1), two.clone()),
            (msg(2), one.clone()),
            (msg(3), one.clone()),
        ]),
        Value::fun([(msg(1), two), (msg(2), Value::str("1"))]),
        Value::set([msg(1), msg(3)]),
        Value::set([msg(1)]),
        Value::set([msg(1), msg(2)]),
        Value::fun([(msg(1), one.clone()), (msg(3), one)]),
        Value::fun([]),
        Value::empty_set(),
        Value::Int(0),
        Value::Nil,
    ];
    let mut agree_true = 0;
    for name in ["bag", "set", "empty_bag", "empty_set", "missing"] {
        for c in &candidates {
            let eager = pools.as_value(name).as_ref() == Some(c);
            assert_eq!(pools.equals(name, c), eager, "{name} vs {c}");
            agree_true += eager as usize;
        }
    }
    assert_eq!(
        agree_true, 4,
        "each registered pool equals its own rendering"
    );
}

#[test]
fn matcher_agrees_with_offer_to_spec_on_hand_built_offers() {
    let mut r = MappingRegistry::new();
    r.map_action(
        "BecomeLeader",
        "becomeLeader",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "Step",
        "step",
        ActionClass::SingleNode,
        ActionBinding::Method,
    )
    .map_action(
        "Receive",
        "recv",
        ActionClass::MessageReceive,
        ActionBinding::Snippet,
    );
    // Reordering node constants and two role constants merged into one.
    r.bind_const(Value::str("N1"), Value::Int(1))
        .bind_const(Value::str("N0"), Value::Int(2))
        .bind_const(Value::str("Follower"), Value::str("F1"))
        .bind_const(Value::str("Follower"), Value::str("F2"));
    let offer = |node: u64, name: &str, params: Vec<Value>| Offer {
        node,
        action: ActionInstance::new(name, params),
    };
    let batch = vec![
        offer(1, "becomeLeader", vec![Value::Int(1)]),
        offer(2, "becomeLeader", vec![Value::Int(2)]),
        offer(1, "step", vec![Value::str("F1"), Value::Int(3)]),
        offer(2, "step", vec![Value::str("F2"), Value::Int(3)]),
        offer(2, "recv", vec![vrec! { msource => 1, mdest => 2 }]),
        offer(3, "unmapped", vec![]),
        offer(3, "becomeLeader", vec![]),
    ];
    let mut scheduled: Vec<ActionInstance> = batch
        .iter()
        .filter_map(|o| r.offer_to_spec(&o.action))
        .collect();
    scheduled.extend([
        ActionInstance::new("BecomeLeader", vec![Value::Int(1)]),
        ActionInstance::new("BecomeLeader", vec![Value::str("N2")]),
        ActionInstance::new("Step", vec![Value::str("Follower")]),
        ActionInstance::new("Step", vec![Value::str("F1"), Value::Int(3)]),
        ActionInstance::new("Receive", vec![vrec! { msource => 1, mdest => 2 }]),
        ActionInstance::nullary("unmapped"),
        ActionInstance::nullary("Crash"),
    ]);
    let mut matched = 0;
    for s in &scheduled {
        for start in 0..batch.len() {
            let window = &batch[start..];
            let eager = window
                .iter()
                .position(|o| r.offer_to_spec(&o.action).as_ref() == Some(s));
            assert_eq!(find_match(&r, s, window), eager, "{s} in batch[{start}..]");
            matched += eager.is_some() as usize;
        }
    }
    assert!(matched > 0);
    // The merged constants: either `step` offer is the scheduled
    // `Step("Follower", 3)`, so the first one wins.
    let step = ActionInstance::new("Step", vec![Value::str("Follower"), Value::Int(3)]);
    assert_eq!(find_match(&r, &step, &batch), Some(2));
}
