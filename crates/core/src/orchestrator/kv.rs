//! The `head k=v k=v` line codec behind the quarantine logs and the
//! lease body.
//!
//! A line is an optional head word (`crash:`, `poison:`; a lease body
//! has none) followed by whitespace-separated `key=value` tokens. A
//! value of `-` means absent. Readers ignore keys they do not know, so
//! a newer writer can add one; a token without `=` makes the whole
//! line unparsable — that is what a torn or interleaved write looks
//! like.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Renders `head k=v k=v` (no head when it is empty, no newline).
pub(super) fn render(head: &str, fields: &[(&str, String)]) -> String {
    let mut out = String::from(head);
    for (key, value) in fields {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(key);
        out.push('=');
        out.push_str(value);
    }
    out
}

/// The value of an optional field: `-` when absent.
pub(super) fn opt<T: Display>(value: Option<T>) -> String {
    value.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// One parsed line: its head word and its fields (last one wins when a
/// key repeats).
pub(super) struct Fields<'a> {
    pub(super) head: &'a str,
    fields: HashMap<&'a str, &'a str>,
}

/// Splits a line into head and fields; `None` when a token after the
/// head is not `key=value`.
pub(super) fn parse(line: &str) -> Option<Fields<'_>> {
    let mut tokens = line.split_whitespace().peekable();
    let head = tokens.next_if(|t| !t.contains('=')).unwrap_or("");
    let mut fields = HashMap::new();
    for token in tokens {
        let (key, value) = token.split_once('=')?;
        fields.insert(key, value);
    }
    Some(Fields { head, fields })
}

impl<'a> Fields<'a> {
    /// The field's value; `None` when missing or `-`.
    pub(super) fn get(&self, key: &str) -> Option<&'a str> {
        self.fields.get(key).copied().filter(|v| *v != "-")
    }

    /// The field parsed as `T`; `None` when missing, `-` or malformed.
    pub(super) fn num<T: FromStr>(&self, key: &str) -> Option<T> {
        self.get(key)?.parse().ok()
    }
}
