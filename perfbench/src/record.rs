//! A flat, ordered key/value record: what a round child prints on its
//! stdout, and what every run leaves in the output directory. One JSON
//! object per line, scalar values only, so the product's own
//! `parse_flat_object` reads it back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mocket_obs::{parse_flat_object, JsonScalar};

#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    Num(f64),
    Text(String),
}

/// Keys are kept sorted so two records compare and print stably.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record(pub BTreeMap<String, Field>);

impl Record {
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.0.insert(key.into(), Field::Num(value));
    }

    pub fn set_text(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.insert(key.into(), Field::Text(value.into()));
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        match self.0.get(key) {
            Some(Field::Num(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        match self.0.get(key) {
            Some(Field::Text(s)) => Some(s),
            _ => None,
        }
    }

    /// Entries whose key starts with `prefix`, prefix stripped.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Field)> {
        self.0
            .iter()
            .filter_map(move |(k, v)| k.strip_prefix(prefix).map(|rest| (rest, v)))
    }

    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", quoted(k));
            match v {
                Field::Num(n) => out.push_str(&number(*n)),
                Field::Text(s) => out.push_str(&quoted(s)),
            }
        }
        out.push('}');
        out
    }

    pub fn from_json_line(line: &str) -> Result<Record, String> {
        let mut rec = Record::default();
        for (k, v) in parse_flat_object(line)? {
            match v {
                JsonScalar::Str(s) => rec.set_text(k, s),
                other => match other.as_f64() {
                    Some(n) => rec.set(k, n),
                    None => return Err(format!("key {k:?} is neither a number nor a string")),
                },
            }
        }
        Ok(rec)
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (never expected) become 0 so the line
/// stays valid JSON.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal. The benchmark only ever quotes its own
/// identifiers, verdict labels and hashes.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_numbers_and_text() {
        let mut r = Record::default();
        r.set("wall_s", 3.25);
        r.set("count.states", 37249.0);
        r.set_text("count.plan_hash", "00ab\"\\cd");
        let back = Record::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.num("wall_s"), Some(3.25));
        assert_eq!(back.text("count.plan_hash"), Some("00ab\"\\cd"));
        let counts: Vec<&str> = back.with_prefix("count.").map(|(k, _)| k).collect();
        assert_eq!(counts, ["plan_hash", "states"]);
    }

    #[test]
    fn rejects_nested_input() {
        assert!(Record::from_json_line("{\"a\":{\"b\":1}}").is_err());
    }
}
