//! TLA+-style values.
//!
//! A [`Value`] is the universe every specification variable ranges over:
//! the `Nil` model value, booleans, integers, strings, finite sets,
//! finite sequences (tuples), records and explicit functions. All
//! values are totally ordered so that they can live inside sets and
//! function domains, mirroring TLC's internal value ordering.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A TLA+ value.
///
/// The ordering between values of *different* kinds is by kind rank
/// (Nil < Bool < Int < Str < Set < Seq < Record < Fun), then by content
/// within a kind. TLC similarly imposes an arbitrary-but-total order so
/// `CHOOSE` is deterministic.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// The model value `Nil` (also used for TLA+ model constants such
    /// as `Nil` in the Raft specification).
    Nil,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A string (also used for model constants such as `"Follower"`).
    Str(String),
    /// A finite set of values.
    Set(BTreeSet<Value>),
    /// A finite sequence (TLA+ tuple), 1-indexed in TLA+ terms.
    Seq(Vec<Value>),
    /// A record: field name to value.
    Record(BTreeMap<String, Value>),
    /// An explicit function: domain value to range value.
    Fun(BTreeMap<Value, Value>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Builds a set from an iterator of values.
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Set(items.into_iter().collect())
    }

    /// Builds a sequence from an iterator of values.
    pub fn seq<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Seq(items.into_iter().collect())
    }

    /// Builds the empty set.
    pub fn empty_set() -> Self {
        Value::Set(BTreeSet::new())
    }

    /// Builds the empty sequence `<<>>`.
    pub fn empty_seq() -> Self {
        Value::Seq(Vec::new())
    }

    /// Builds a record from `(field, value)` pairs.
    pub fn record<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Record(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an explicit function from `(domain, range)` pairs.
    pub fn fun<I: IntoIterator<Item = (Value, Value)>>(pairs: I) -> Self {
        Value::Fun(pairs.into_iter().collect())
    }

    /// Builds the constant function `[x \in domain |-> v]`.
    pub fn const_fun<I: IntoIterator<Item = Value>>(domain: I, v: Value) -> Self {
        Value::Fun(domain.into_iter().map(|d| (d, v.clone())).collect())
    }

    /// Rank used to order values of different kinds.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Nil => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Str(_) => 3,
            Value::Set(_) => 4,
            Value::Seq(_) => 5,
            Value::Record(_) => 6,
            Value::Fun(_) => 7,
        }
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the underlying set if this is a `Set`.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the underlying sequence if this is a `Seq`.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the underlying record map if this is a `Record`.
    pub fn as_record(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Returns the underlying function map if this is a `Fun`.
    pub fn as_fun(&self) -> Option<&BTreeMap<Value, Value>> {
        match self {
            Value::Fun(f) => Some(f),
            _ => None,
        }
    }

    /// Integer accessor that panics with a useful message; for spec
    /// code where the type is known by construction.
    pub fn expect_int(&self) -> i64 {
        self.as_int()
            .unwrap_or_else(|| panic!("expected Int, got {self}"))
    }

    /// String accessor that panics with a useful message.
    pub fn expect_str(&self) -> &str {
        self.as_str()
            .unwrap_or_else(|| panic!("expected Str, got {self}"))
    }

    // ------------------------------------------------------------------
    // Set operations.
    // ------------------------------------------------------------------

    /// `Cardinality(S)` for sets, `Len(s)` for sequences, number of
    /// fields/entries for records and functions.
    pub fn cardinality(&self) -> usize {
        match self {
            Value::Set(s) => s.len(),
            Value::Seq(s) => s.len(),
            Value::Record(r) => r.len(),
            Value::Fun(f) => f.len(),
            _ => 0,
        }
    }

    /// `v \in self` for sets; membership for sequence elements too.
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            Value::Set(s) => s.contains(v),
            Value::Seq(s) => s.contains(v),
            _ => false,
        }
    }

    /// `self \cup {v}` — set with one extra element.
    pub fn with_elem(&self, v: Value) -> Value {
        match self {
            Value::Set(s) => {
                let mut s = s.clone();
                s.insert(v);
                Value::Set(s)
            }
            _ => panic!("with_elem on non-set {self}"),
        }
    }

    /// `self \ {v}` — set with one element removed.
    pub fn without_elem(&self, v: &Value) -> Value {
        match self {
            Value::Set(s) => {
                let mut s = s.clone();
                s.remove(v);
                Value::Set(s)
            }
            _ => panic!("without_elem on non-set {self}"),
        }
    }

    /// `CHOOSE t \in S : \A s \in S : t >= s` — the maximum element
    /// (Figure 1's `getMax`). Returns `None` on the empty set.
    pub fn choose_max(&self) -> Option<&Value> {
        self.as_set().and_then(|s| s.iter().next_back())
    }

    // ------------------------------------------------------------------
    // Sequence operations.
    // ------------------------------------------------------------------

    /// `Append(s, v)`.
    pub fn append(&self, v: Value) -> Value {
        match self {
            Value::Seq(s) => {
                let mut s = s.clone();
                s.push(v);
                Value::Seq(s)
            }
            _ => panic!("append on non-seq {self}"),
        }
    }

    /// `Len(s)` for sequences.
    pub fn len(&self) -> usize {
        self.cardinality()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.cardinality() == 0
    }

    /// 1-indexed element access `s[i]`, TLA+ style.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Seq(s) => {
                if i >= 1 {
                    s.get(i - 1)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The last element of a sequence, if any.
    pub fn last(&self) -> Option<&Value> {
        self.as_seq().and_then(|s| s.last())
    }

    // ------------------------------------------------------------------
    // Record / function operations.
    // ------------------------------------------------------------------

    /// Record field access `r.field`.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.as_record().and_then(|r| r.get(name))
    }

    /// Record field access that panics on a missing field.
    pub fn expect_field(&self, name: &str) -> &Value {
        self.field(name)
            .unwrap_or_else(|| panic!("record {self} has no field {name:?}"))
    }

    /// Function application `f[x]`.
    pub fn apply(&self, x: &Value) -> Option<&Value> {
        self.as_fun().and_then(|f| f.get(x))
    }

    /// Function application that panics outside the domain.
    pub fn expect_apply(&self, x: &Value) -> &Value {
        self.apply(x)
            .unwrap_or_else(|| panic!("function {self} undefined at {x}"))
    }

    /// `[f EXCEPT ![x] = v]` for functions, `[r EXCEPT !.x = v]` for
    /// records (pass the field name as a `Str`).
    pub fn except(&self, x: &Value, v: Value) -> Value {
        match self {
            Value::Fun(f) => {
                let mut f = f.clone();
                f.insert(x.clone(), v);
                Value::Fun(f)
            }
            Value::Record(r) => {
                let name = x
                    .as_str()
                    .unwrap_or_else(|| panic!("record EXCEPT needs Str key, got {x}"));
                let mut r = r.clone();
                r.insert(name.to_string(), v);
                Value::Record(r)
            }
            _ => panic!("except on non-function {self}"),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Nil, Value::Nil) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Set(a), Value::Set(b)) => a.cmp(b),
            (Value::Seq(a), Value::Seq(b)) => a.cmp(b),
            (Value::Record(a), Value::Record(b)) => a.cmp(b),
            (Value::Fun(a), Value::Fun(b)) => a.cmp(b),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "Nil"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Seq(s) => {
                write!(f, "<<")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">>")
            }
            Value::Record(r) => {
                write!(f, "[")?;
                for (i, (k, v)) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} |-> {v}")?;
                }
                write!(f, "]")
            }
            Value::Fun(m) => {
                write!(f, "(")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, " @@ ")?;
                    }
                    write!(f, "{k} :> {v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Builds a [`Value::Set`] from a list of expressions convertible into
/// [`Value`].
#[macro_export]
macro_rules! vset {
    ($($x:expr),* $(,)?) => {
        $crate::Value::set([$($crate::Value::from($x)),*])
    };
}

/// Builds a [`Value::Seq`] from a list of expressions convertible into
/// [`Value`].
#[macro_export]
macro_rules! vseq {
    ($($x:expr),* $(,)?) => {
        $crate::Value::seq([$($crate::Value::from($x)),*])
    };
}

/// Builds a [`Value::Record`] from `field => value` pairs.
#[macro_export]
macro_rules! vrec {
    ($($k:ident => $v:expr),* $(,)?) => {
        $crate::Value::record([$((stringify!($k), $crate::Value::from($v))),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ordering_is_total() {
        let vals = [
            Value::Nil,
            Value::Bool(false),
            Value::Int(0),
            Value::str("a"),
            Value::empty_set(),
            Value::empty_seq(),
            Value::record([("f", Value::Nil)]),
            Value::fun([(Value::Int(1), Value::Int(2))]),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} should sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn set_operations() {
        let a = vset![1, 2, 3];
        assert_eq!(a.cardinality(), 3);
        assert!(a.contains(&Value::Int(2)));
        assert!(!a.contains(&Value::Int(9)));
        assert_eq!(a.with_elem(Value::Int(9)).cardinality(), 4);
        assert_eq!(a.without_elem(&Value::Int(1)), vset![2, 3]);
    }

    #[test]
    fn choose_max_is_figure1_get_max() {
        let s = vset![2, 7, 5];
        assert_eq!(s.choose_max(), Some(&Value::Int(7)));
        assert_eq!(Value::empty_set().choose_max(), None);
    }

    #[test]
    fn sequence_operations() {
        let s = vseq![10, 20];
        let s = s.append(Value::Int(30));
        assert_eq!(s.len(), 3);
        assert_eq!(s.index(1), Some(&Value::Int(10)));
        assert_eq!(s.index(3), Some(&Value::Int(30)));
        assert_eq!(s.index(0), None);
        assert_eq!(s.index(4), None);
        assert_eq!(s.last(), Some(&Value::Int(30)));
    }

    #[test]
    fn record_access_and_except() {
        let r = vrec! { mtype => "RequestVote", mterm => 2 };
        assert_eq!(r.expect_field("mterm"), &Value::Int(2));
        let r2 = r.except(&Value::str("mterm"), Value::Int(3));
        assert_eq!(r2.expect_field("mterm"), &Value::Int(3));
        assert_eq!(r.expect_field("mterm"), &Value::Int(2), "persistent update");
    }

    #[test]
    fn function_apply_and_except() {
        let f = Value::const_fun([Value::Int(1), Value::Int(2)], Value::str("Follower"));
        assert_eq!(f.expect_apply(&Value::Int(1)), &Value::str("Follower"));
        let f2 = f.except(&Value::Int(1), Value::str("Leader"));
        assert_eq!(f2.expect_apply(&Value::Int(1)), &Value::str("Leader"));
        assert_eq!(f2.expect_apply(&Value::Int(2)), &Value::str("Follower"));
    }

    #[test]
    fn display_is_tla_syntax() {
        assert_eq!(vset![1, 2].to_string(), "{1, 2}");
        assert_eq!(vseq![1].to_string(), "<<1>>");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
        assert_eq!(
            Value::record([("a", Value::Int(1))]).to_string(),
            "[a |-> 1]"
        );
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn expect_int_panics_on_wrong_kind() {
        Value::str("no").expect_int();
    }
}
