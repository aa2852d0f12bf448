//! Specification states.
//!
//! A [`State`] assigns a [`Value`] to every specification variable,
//! exactly like one node of TLC's state-space graph (Figure 2 of the
//! paper). States are fingerprinted for deduplication during
//! exploration and pretty-printed in TLA+ conjunction syntax.
//!
//! Storage is hash-consed. A state is two shared slices: its *schema*
//! — the sorted variable names, one allocation per distinct variable
//! set — and one shared pooled value per variable in schema order. Every
//! value bound into a state goes through a process-wide pool first, so
//! a distinct variable value is allocated once per process however
//! many states, graphs and test cases bind it. A model's states
//! recombine a few hundred values (382 over the 37,249 × 15 bindings
//! of the Raft-java bench model), so a state costs one small slice:
//! cloning bumps two reference counts, the primed assignment
//! [`State::with`] allocates one slice and copies pointers. The pool
//! drops the values nothing else holds each time it has doubled, so it
//! needs no cap and keeps nothing of a model whose graphs are gone.
//!
//! Sharing is an optimisation only: equality, order, hashing, printing
//! and fingerprints read names and values, never addresses, and are
//! those of the sorted `(name, value)` sequence. The fingerprint is
//! computed once per state and cached.
//!
//! A distinct value is also printed once. Its pool entry keeps the
//! value's TLA+ text from the first time a state holding it is printed
//! ([`State`]'s `Display` copies that text), and an FNV-1a jump over
//! that text (`fingerprint::FnvJump`) from the first time one is hashed: [`State::fnv1a`] folds the state's printed
//! bytes into a running FNV-1a — test cases are keyed by that hash —
//! with one multiply-add per variable instead of one per byte. Both
//! last as long as the value, so the cost is 2 KB plus the text per
//! distinct value ever hashed (a few hundred per bench model).

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use crate::fingerprint::{fingerprint_value, fnv1a, Fingerprinter, FnvJump};
use crate::value::Value;

type InternPool<T> = OnceLock<Mutex<HashSet<Arc<T>>>>;

/// Returns the canonical shared allocation for `key` in `pool`.
///
/// Specifications use a small fixed vocabulary of variable names and
/// one or two variable sets, so these pools stay tiny and are only
/// consulted when a state is built from scratch (rebinding through
/// [`State::with`] reuses the schema it has).
fn intern<T>(pool: &InternPool<T>, key: &T) -> Arc<T>
where
    T: ?Sized + Hash + Eq,
    for<'a> Arc<T>: From<&'a T>,
{
    let mut guard = pool
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = guard.get(key) {
        return existing.clone();
    }
    let fresh: Arc<T> = key.into();
    guard.insert(fresh.clone());
    fresh
}

static NAMES: InternPool<str> = OnceLock::new();
static SCHEMAS: InternPool<[Arc<str>]> = OnceLock::new();

/// Lock stripes of the value pool; the parallel checker's workers
/// intern concurrently, almost always hitting under a read lock.
const POOL_SHARDS: usize = 16;
/// A shard holds at least this many values before its first sweep.
const MIN_SWEEP: usize = 64;

/// A pooled value, its printed text and the FNV-1a jump over that
/// text; the last two are computed on first use.
struct Pooled {
    value: Value,
    text: OnceLock<Box<str>>,
    jump: OnceLock<Box<FnvJump>>,
}

impl Pooled {
    fn new(value: Value) -> Arc<Pooled> {
        Arc::new(Pooled {
            value,
            text: OnceLock::new(),
            jump: OnceLock::new(),
        })
    }

    fn text(&self) -> &str {
        self.text.get_or_init(|| self.value.to_string().into())
    }

    fn jump(&self) -> &FnvJump {
        self.jump.get_or_init(|| FnvJump::of(self.text().as_bytes()))
    }
}

// The caches are functions of the value. `Eq` also gives `Arc<Pooled>`
// its pointer fast path.
impl PartialEq for Pooled {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl Eq for Pooled {}

/// One stripe of the value pool: value fingerprint → the one pooled
/// allocation of that value, and the size at which to sweep next.
#[derive(Default)]
struct PoolShard {
    values: HashMap<u64, Arc<Pooled>>,
    sweep_at: usize,
}

impl PoolShard {
    /// Drops the values only the pool holds. Called under the shard's
    /// write lock, and a value leaves the pool only through that lock,
    /// so a count of one cannot rise concurrently.
    fn sweep(&mut self) {
        self.values.retain(|_, v| Arc::strong_count(v) > 1);
        self.sweep_at = (2 * self.values.len()).max(MIN_SWEEP);
    }
}

fn value_pool() -> &'static [RwLock<PoolShard>; POOL_SHARDS] {
    static POOL: OnceLock<[RwLock<PoolShard>; POOL_SHARDS]> = OnceLock::new();
    POOL.get_or_init(Default::default)
}

/// Returns the pooled allocation equal to `value`, pooling it if it is
/// the first. Keyed by [`fingerprint_value`] and confirmed by full
/// equality: of two distinct values that collide the second stays
/// outside the pool, which costs sharing and nothing else.
fn intern_value(value: Value) -> Arc<Pooled> {
    fn confirm(hit: &Arc<Pooled>, value: Value) -> Arc<Pooled> {
        if hit.value == value {
            hit.clone()
        } else {
            Pooled::new(value)
        }
    }
    let fp = fingerprint_value(&value);
    let shard = &value_pool()[fp as usize % POOL_SHARDS];
    if let Some(hit) = shard
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .values
        .get(&fp)
    {
        return confirm(hit, value);
    }
    let mut shard = shard.write().unwrap_or_else(PoisonError::into_inner);
    if shard.values.len() >= shard.sweep_at {
        shard.sweep();
    }
    match shard.values.entry(fp) {
        Entry::Occupied(e) => confirm(e.get(), value),
        Entry::Vacant(e) => e.insert(Pooled::new(value)).clone(),
    }
}

/// Drops every pooled value no state holds and returns how many stay
/// pooled. The pool does this by itself as it grows; tests call it to
/// see what is live.
pub fn sweep_value_pool() -> usize {
    value_pool()
        .iter()
        .map(|shard| {
            let mut shard = shard.write().unwrap_or_else(PoisonError::into_inner);
            shard.sweep();
            shard.values.len()
        })
        .sum()
}

/// A mapping from variable names to values.
#[derive(Clone)]
pub struct State {
    /// The variable names, sorted; interned per variable set.
    schema: Arc<[Arc<str>]>,
    /// `values[i]` is bound to `schema[i]`; every one is pooled.
    values: Arc<[Arc<Pooled>]>,
    /// Cached fingerprint; cleared on mutation, cloned along with the
    /// state so successors inherit nothing but dedup probes pay the
    /// hash at most once per state.
    fp: OnceLock<u64>,
}

impl State {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::from_bindings(Vec::new())
    }

    /// Creates a state from `(variable, value)` pairs; the last
    /// binding of a name wins.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        let bind = |(k, v): (S, Value)| (intern(&NAMES, k.into().as_str()), intern_value(v));
        Self::from_bindings(pairs.into_iter().map(bind).collect())
    }

    /// The state binding every variable of every part — a later part
    /// wins a name bound twice — sharing the parts' values.
    pub(crate) fn merged<'a>(parts: impl IntoIterator<Item = &'a State>) -> State {
        Self::from_bindings(parts.into_iter().flat_map(State::bindings).collect())
    }

    fn from_bindings(mut pairs: Vec<(Arc<str>, Arc<Pooled>)>) -> State {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        // The sort is stable: of equal names keep the last binding.
        pairs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        let (names, values): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        State {
            schema: intern(&SCHEMAS, names.as_slice()),
            values: values.into(),
            fp: OnceLock::new(),
        }
    }

    fn bindings(&self) -> impl Iterator<Item = (Arc<str>, Arc<Pooled>)> + '_ {
        self.schema.iter().cloned().zip(self.values.iter().cloned())
    }

    /// The names with their pooled values, in order.
    fn pooled(&self) -> impl Iterator<Item = (&str, &Pooled)> {
        self.variable_names().zip(self.values.iter().map(|v| &**v))
    }

    fn index_of(&self, name: &str) -> Result<usize, usize> {
        self.schema.binary_search_by(|k| (**k).cmp(name))
    }

    /// The value of variable `name`, if bound.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.index_of(name).ok().map(|i| &self.values[i].value)
    }

    /// The value of variable `name`; panics if unbound (spec-internal
    /// use where the variable set is fixed).
    pub fn expect(&self, name: &str) -> &Value {
        self.get(name)
            .unwrap_or_else(|| panic!("state has no variable {name:?}"))
    }

    /// Binds `name` to `value`.
    pub fn set(&mut self, name: impl AsRef<str>, value: Value) {
        *self = self.with(name, value);
    }

    /// Returns a copy of this state with `name` rebound — the primed
    /// assignment `name' = value`. One slice is allocated; the schema
    /// and all unchanged values are shared with `self`.
    pub fn with(&self, name: impl AsRef<str>, value: Value) -> State {
        let (name, value) = (name.as_ref(), intern_value(value));
        match self.index_of(name) {
            Ok(i) => State {
                schema: self.schema.clone(),
                values: self.values.iter().enumerate()
                    .map(|(j, old)| if j == i { &value } else { old }.clone())
                    .collect(),
                fp: OnceLock::new(),
            },
            // A new variable changes the schema: states are built
            // whole, so this path is as rare as it is general.
            Err(_) => Self::from_bindings(
                self.bindings()
                    .chain([(intern(&NAMES, name), value)])
                    .collect(),
            ),
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.schema.len()
    }

    /// Whether the state binds no variables.
    pub fn is_empty(&self) -> bool {
        self.schema.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.pooled().map(|(k, v)| (k, &v.value))
    }

    /// The variable names in order.
    pub fn variable_names(&self) -> impl Iterator<Item = &str> {
        self.schema.iter().map(|k| &**k)
    }

    /// A stable 64-bit fingerprint of the full variable assignment.
    ///
    /// Two states have equal fingerprints iff they are (modulo a
    /// vanishing collision probability) the same assignment; TLC uses
    /// the same technique to deduplicate states during exploration.
    /// Computed on first call and cached for the state's lifetime.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            let mut fp = Fingerprinter::new();
            for (k, v) in self.iter() {
                fp.write_str(k);
                fp.write_value(v);
            }
            fp.finish()
        })
    }

    /// Folds this state's printed text (its `Display` bytes) into the
    /// running 64-bit FNV-1a hash `h`, as
    /// [`fingerprint::fnv1a`](crate::fingerprint::fnv1a)`(h,
    /// self.to_string().as_bytes())` does, without printing it: each
    /// value's text is folded in by its cached jump.
    pub fn fnv1a(&self, mut h: u64) -> u64 {
        if self.is_empty() {
            return fnv1a(h, b"/\\ TRUE");
        }
        for (i, (k, v)) in self.pooled().enumerate() {
            if i > 0 {
                h = fnv1a(h, b" ");
            }
            h = fnv1a(h, b"/\\ ");
            h = fnv1a(h, k.as_bytes());
            h = v.jump().apply(fnv1a(h, b" = "));
        }
        h
    }
}

impl Default for State {
    fn default() -> Self {
        State::new()
    }
}

// Equality, ordering and hashing consider only the variable
// assignment, never the fingerprint cache, and are those of the sorted
// `(name, value)` sequence. `Arc`'s equality has a pointer fast path,
// so states over the same schema and pooled values compare by address
// until the first variable on which they differ.
impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.values == other.values
    }
}

impl Eq for State {}

impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl Hash for State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for binding in self.iter() {
            binding.hash(state);
        }
    }
}

impl fmt::Display for State {
    /// Renders as TLA+ conjunctions, e.g. `/\ stage = "respond" /\ ...`
    /// matching the node labels of the paper's Figure 2. Each value's
    /// text is printed once per process and copied thereafter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("/\\ TRUE");
        }
        for (i, (k, v)) in self.pooled().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            f.write_str("/\\ ")?;
            f.write_str(k)?;
            f.write_str(" = ")?;
            f.write_str(v.text())?;
        }
        Ok(())
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> State {
        State::from_pairs([
            ("stage", Value::str("request")),
            ("msg", Value::Nil),
            ("cache", Value::empty_set()),
        ])
    }

    #[test]
    fn get_set_roundtrip() {
        let mut s = sample();
        assert_eq!(s.get("msg"), Some(&Value::Nil));
        s.set("msg", Value::Int(1));
        assert_eq!(s.get("msg"), Some(&Value::Int(1)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn with_is_persistent() {
        let s = sample();
        let s2 = s.with("msg", Value::Int(5));
        assert_eq!(s.get("msg"), Some(&Value::Nil));
        assert_eq!(s2.get("msg"), Some(&Value::Int(5)));
    }

    #[test]
    fn fingerprint_distinguishes_states() {
        let s = sample();
        let s2 = s.with("msg", Value::Int(1));
        assert_ne!(s.fingerprint(), s2.fingerprint());
        assert_eq!(s.fingerprint(), s.clone().fingerprint());
    }

    #[test]
    fn fingerprint_ignores_insertion_order() {
        let a = State::from_pairs([("x", Value::Int(1)), ("y", Value::Int(2))]);
        let b = State::from_pairs([("y", Value::Int(2)), ("x", Value::Int(1))]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_cache_invalidated_on_set() {
        let mut s = sample();
        let before = s.fingerprint();
        s.set("msg", Value::Int(9));
        assert_ne!(before, s.fingerprint());
        // And a clone carries the cache but stays equal-by-value.
        let c = s.clone();
        assert_eq!(c.fingerprint(), s.fingerprint());
    }

    #[test]
    fn successors_share_unchanged_values() {
        let s = sample();
        let s2 = s.with("msg", Value::Int(1));
        let cache1 = s.get("cache").unwrap() as *const Value;
        let cache2 = s2.get("cache").unwrap() as *const Value;
        assert_eq!(cache1, cache2, "unchanged values must be shared");
        let msg1 = s.get("msg").unwrap() as *const Value;
        let msg2 = s2.get("msg").unwrap() as *const Value;
        assert_ne!(msg1, msg2, "the rebound value must be fresh");
    }

    #[test]
    fn variable_names_are_interned() {
        let a = State::from_pairs([("quorum", Value::Int(1))]);
        let b = State::from_pairs([("quorum", Value::Int(2))]);
        let ka = a.variable_names().next().unwrap() as *const str;
        let kb = b.variable_names().next().unwrap() as *const str;
        assert_eq!(ka, kb, "identical names must share one allocation");
    }

    #[test]
    fn display_matches_figure2_labels() {
        let s = State::from_pairs([("cache", Value::empty_set()), ("msg", Value::Nil)]);
        assert_eq!(s.to_string(), "/\\ cache = {} /\\ msg = Nil");
    }

    /// SplitMix64: a fixed stream, so the property test below checks
    /// the same few thousand states on every run.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Few distinct values per kind, so that states collide on
        /// values (and the pool is hit) as often as they differ.
        fn value(&mut self, depth: u32) -> Value {
            match self.below(if depth == 0 { 4 } else { 7 }) {
                0 => Value::Nil,
                1 => Value::Bool(self.below(2) == 0),
                2 => Value::Int(self.below(3) as i64 - 1),
                3 => Value::str(["Follower", "Leader", "a /\\ b"][self.below(3) as usize]),
                4 => Value::set((0..self.below(3)).map(|_| self.value(depth - 1))),
                5 => Value::seq((0..self.below(3)).map(|_| self.value(depth - 1))),
                _ => Value::record((0..self.below(3)).map(|i| (format!("f{i}"), self.value(depth - 1)))),
            }
        }
    }

    type Model = std::collections::BTreeMap<String, Value>;

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Everything a `State` answers, computed from the sorted map the
    /// type used to be, printed without the pool's cached text.
    fn assert_agrees(s: &State, m: &Model) {
        assert_eq!(s.len(), m.len());
        assert_eq!(s.is_empty(), m.is_empty());
        assert!(s.iter().eq(m.iter().map(|(k, v)| (k.as_str(), v))));
        assert!(s.variable_names().eq(m.keys().map(String::as_str)));
        for name in ["a", "b", "c", "d", "e", "nope"] {
            assert_eq!(s.get(name), m.get(name));
        }
        assert_eq!(hash_of(s), hash_of(m));
        let mut fp = Fingerprinter::new();
        let mut text = Vec::new();
        for (k, v) in m {
            fp.write_str(k);
            fp.write_value(v);
            text.push(format!("/\\ {k} = {v}"));
        }
        assert_eq!(s.fingerprint(), fp.finish());
        let text = if m.is_empty() { "/\\ TRUE".to_string() } else { text.join(" ") };
        assert_eq!(s.to_string(), text);
        assert_eq!(crate::parse_state(&text).unwrap(), *s);
        // The printed bytes' FNV-1a from a few running hashes, the
        // fingerprint standing in for a random one.
        for h in [0, u64::MAX, 0xcbf2_9ce4_8422_2325, s.fingerprint()] {
            assert_eq!(s.fnv1a(h), fnv1a(h, text.as_bytes()), "h={h:#x} {text}");
        }
    }

    #[test]
    fn dense_interned_state_agrees_with_a_sorted_map() {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        let mut rng = Rng(22);
        let mut seen: Vec<(State, Model)> = Vec::new();
        for round in 0..400 {
            // Built from pairs in any order, a name possibly twice.
            let pairs: Vec<(&str, Value)> = (0..rng.below(7))
                .map(|_| (NAMES[rng.below(5) as usize], rng.value(2)))
                .collect();
            let mut s = State::from_pairs(pairs.clone());
            let mut m: Model = pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
            assert_agrees(&s, &m);

            // Rebound, and bound to a variable the schema may lack.
            for _ in 0..rng.below(4) {
                let (name, v) = (NAMES[rng.below(5) as usize], rng.value(2));
                if rng.below(2) == 0 {
                    s = s.with(name, v.clone());
                } else {
                    s.set(name, v.clone());
                }
                m.insert(name.to_string(), v);
                assert_agrees(&s, &m);
            }

            // Against earlier states: other schemas, shared values.
            for (t, n) in seen.iter().rev().take(12) {
                assert_eq!(s == *t, m == *n, "round {round}: {s} vs {t}");
                assert_eq!(s.cmp(t), m.cmp(n), "round {round}: {s} vs {t}");
                assert_agrees(&State::merged([t, &s]), &{
                    let mut both = n.clone();
                    both.extend(m.clone());
                    both
                });
            }
            seen.push((s, m));
        }
    }

    #[test]
    fn equal_values_are_one_allocation_however_they_are_bound() {
        let big = || Value::set((0..5).map(Value::Int));
        let a = State::from_pairs([("x", big()), ("y", Value::Nil)]);
        let mut b = State::new().with("y", big());
        b.set("z", big());
        let c = crate::parse_state(&a.to_string()).unwrap();
        let addr = |s: &State, name| s.get(name).unwrap() as *const Value;
        assert_eq!(addr(&a, "x"), addr(&b, "y"));
        assert_eq!(addr(&a, "x"), addr(&b, "z"));
        assert_eq!(addr(&a, "x"), addr(&c, "x"));
    }
}
