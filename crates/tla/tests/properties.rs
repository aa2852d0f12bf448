//! Randomized (seed-driven) tests for the value algebra,
//! fingerprinting and the parser.
//!
//! Formerly written against `proptest`; now driven by a local
//! deterministic xorshift generator so the suite builds without
//! third-party dependencies. Each case runs over many random seeds
//! and any failure reports the seed that produced it.

use mocket_tla::{parse_state, parse_value, State, Value};

/// Deterministic xorshift64 generator (same recurrence as
/// `mocket_runtime::XorShift`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() as usize) % n
    }

    fn ident(&mut self, max_len: usize) -> String {
        let letters = "abcdefghijklmnopqrstuvwxyz";
        let mut s = String::new();
        let len = 1 + self.pick(max_len);
        for _ in 0..len {
            s.push(letters.as_bytes()[self.pick(letters.len())] as char);
        }
        s
    }
}

/// A random value drawn from the full value universe, recursion
/// bounded by `depth`.
fn arb_value(rng: &mut Rng, depth: usize) -> Value {
    let choices = if depth == 0 { 4 } else { 8 };
    match rng.pick(choices) {
        0 => Value::Nil,
        1 => Value::Bool(rng.next_u64().is_multiple_of(2)),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::str(rng.ident(8)),
        4 => Value::set((0..rng.pick(4)).map(|_| arb_value(rng, depth - 1))),
        5 => Value::seq((0..rng.pick(4)).map(|_| arb_value(rng, depth - 1))),
        6 => Value::record(
            (0..rng.pick(4))
                .map(|_| (rng.ident(6), arb_value(rng, depth - 1)))
                .collect::<Vec<_>>(),
        ),
        _ => Value::fun(
            (0..rng.pick(4))
                .map(|_| (arb_value(rng, depth - 1), arb_value(rng, depth - 1)))
                .collect::<Vec<_>>(),
        ),
    }
}

const CASES: u64 = 200;

#[test]
fn display_parse_roundtrip() {
    for seed in 1..=CASES {
        let v = arb_value(&mut Rng::new(seed), 3);
        let text = v.to_string();
        let back = parse_value(&text).unwrap();
        assert_eq!(back, v, "seed {seed}: {text}");
    }
}

#[test]
fn fingerprint_is_deterministic() {
    for seed in 1..=CASES {
        let v = arb_value(&mut Rng::new(seed), 3);
        assert_eq!(
            mocket_tla::fingerprint_value(&v),
            mocket_tla::fingerprint_value(&v.clone()),
            "seed {seed}"
        );
    }
}

#[test]
fn ordering_is_total_and_antisymmetric() {
    use std::cmp::Ordering;
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed.wrapping_mul(0x5bd1e995));
        let a = arb_value(&mut rng, 3);
        let b = arb_value(&mut rng, 3);
        match a.cmp(&b) {
            Ordering::Less => assert_eq!(b.cmp(&a), Ordering::Greater, "seed {seed}"),
            Ordering::Greater => assert_eq!(b.cmp(&a), Ordering::Less, "seed {seed}"),
            Ordering::Equal => {
                assert_eq!(&a, &b, "seed {seed}");
                assert_eq!(b.cmp(&a), Ordering::Equal, "seed {seed}");
            }
        }
    }
}

#[test]
fn except_is_persistent() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed.wrapping_mul(17));
        let v = arb_value(&mut rng, 2);
        let k = rng.next_u64() as i64;
        let f = Value::fun([(Value::Int(k), Value::Int(0))]);
        let g = f.except(&Value::Int(k), v.clone());
        assert_eq!(f.expect_apply(&Value::Int(k)), &Value::Int(0), "seed {seed}");
        assert_eq!(g.expect_apply(&Value::Int(k)), &v, "seed {seed}");
    }
}

#[test]
fn state_roundtrip() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed.wrapping_mul(101));
        let pairs: std::collections::BTreeMap<String, Value> = (0..rng.pick(5))
            .map(|_| (rng.ident(6), arb_value(&mut rng, 2)))
            .collect();
        let state = State::from_pairs(pairs);
        let back = parse_state(&state.to_string()).unwrap();
        assert_eq!(back, state, "seed {seed}");
    }
}

#[test]
fn state_fingerprint_changes_with_any_variable() {
    for seed in 1..=CASES {
        let v = arb_value(&mut Rng::new(seed.wrapping_mul(7)), 2);
        if v == Value::Int(0) {
            continue;
        }
        let a = State::from_pairs([("x", Value::Int(0))]);
        let b = State::from_pairs([("x", v)]);
        assert_ne!(a.fingerprint(), b.fingerprint(), "seed {seed}");
    }
}

#[test]
fn choose_max_is_maximum() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed.wrapping_mul(13));
        let xs: Vec<i64> = (0..1 + rng.pick(9))
            .map(|_| rng.next_u64() as i64)
            .collect();
        let s = Value::set(xs.iter().map(|&x| Value::Int(x)));
        let max = s.choose_max().unwrap().clone();
        for x in &xs {
            assert!(Value::Int(*x) <= max, "seed {seed}");
        }
    }
}
