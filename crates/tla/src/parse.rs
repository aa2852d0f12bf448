//! Parsing of the textual value/state syntax.
//!
//! [`Value`]'s `Display` output is valid TLA+ expression syntax; this
//! module parses it back, so state-space graphs exported to GraphViz
//! DOT files and serialized test cases can be re-read — the same
//! file-format boundary the paper's pipeline crosses between TLC and
//! Mocket's test-case generator.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::state::State;
use crate::value::Value;

/// A parse failure with position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Nesting bound for values: parsing is recursive-descent, so
/// unbounded nesting (`<<<<<<...`) would overflow the stack — an
/// abort, not a typed error. Real spec states nest a handful of
/// levels; 128 is far beyond anything legitimate.
const MAX_VALUE_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with([' ', '\t', '\n', '\r']) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {tok:?}")))
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        for c in self.rest().chars() {
            if c.is_alphanumeric() || c == '_' || c == '$' || c == '.' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(self.err("expected identifier"))
        } else {
            Ok(self.input[start..self.pos].to_string())
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_VALUE_DEPTH {
            return Err(self.err("value nesting too deep"));
        }
        self.depth += 1;
        let result = self.value_inner();
        self.depth -= 1;
        result
    }

    fn value_inner(&mut self) -> Result<Value, ParseError> {
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            '"' => self.string(),
            '{' => self.set(),
            '<' => self.seq(),
            '[' => self.record(),
            '(' => self.fun(),
            c if c == '-' || c.is_ascii_digit() => self.int(),
            _ => {
                let id = self.ident()?;
                match id.as_str() {
                    "Nil" => Ok(Value::Nil),
                    "TRUE" => Ok(Value::Bool(true)),
                    "FALSE" => Ok(Value::Bool(false)),
                    other => Err(self.err(format!("unknown atom {other:?}"))),
                }
            }
        }
    }

    fn string(&mut self) -> Result<Value, ParseError> {
        self.expect("\"")?;
        let start = self.pos;
        // Display never escapes; strings in our universe contain no
        // quote characters.
        match self.rest().find('"') {
            Some(end) => {
                let s = self.input[start..start + end].to_string();
                self.pos = start + end + 1;
                Ok(Value::Str(s))
            }
            None => Err(self.err("unterminated string")),
        }
    }

    fn int(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.rest().starts_with('-') {
            self.pos += 1;
        }
        while self.rest().starts_with(|c: char| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.input[start..self.pos]
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| self.err(format!("bad integer: {e}")))
    }

    fn set(&mut self) -> Result<Value, ParseError> {
        self.expect("{")?;
        let mut items = BTreeSet::new();
        if !self.eat("}") {
            loop {
                items.insert(self.value()?);
                if self.eat("}") {
                    break;
                }
                self.expect(",")?;
            }
        }
        Ok(Value::Set(items))
    }

    fn seq(&mut self) -> Result<Value, ParseError> {
        self.expect("<<")?;
        let mut items = Vec::new();
        if !self.eat(">>") {
            loop {
                items.push(self.value()?);
                if self.eat(">>") {
                    break;
                }
                self.expect(",")?;
            }
        }
        Ok(Value::Seq(items))
    }

    fn record(&mut self) -> Result<Value, ParseError> {
        self.expect("[")?;
        let mut fields = BTreeMap::new();
        if !self.eat("]") {
            loop {
                let name = self.ident()?;
                self.expect("|->")?;
                let v = self.value()?;
                fields.insert(name, v);
                if self.eat("]") {
                    break;
                }
                self.expect(",")?;
            }
        }
        Ok(Value::Record(fields))
    }

    fn fun(&mut self) -> Result<Value, ParseError> {
        self.expect("(")?;
        let mut map = BTreeMap::new();
        if !self.eat(")") {
            loop {
                let k = self.value()?;
                self.expect(":>")?;
                let v = self.value()?;
                map.insert(k, v);
                if self.eat(")") {
                    break;
                }
                self.expect("@@")?;
            }
        }
        Ok(Value::Fun(map))
    }

    fn state(&mut self) -> Result<State, ParseError> {
        let mut bindings = Vec::new();
        // `/\ var = value` repeated; an empty state prints `/\ TRUE`.
        loop {
            self.skip_ws();
            if self.rest().is_empty() {
                break;
            }
            self.expect("/\\")?;
            self.skip_ws();
            if self.rest().starts_with("TRUE") && bindings.is_empty() {
                self.pos += 4;
                self.skip_ws();
                if self.rest().is_empty() {
                    break;
                }
                return Err(self.err("unexpected input after /\\ TRUE"));
            }
            bindings.push(self.binding()?);
        }
        Ok(State::from_pairs(bindings))
    }

    /// One conjunct without its `/\`: `var = value`.
    fn binding(&mut self) -> Result<(String, Value), ParseError> {
        let name = self.ident()?;
        self.expect("=")?;
        Ok((name, self.value()?))
    }
}

impl<'a> Parser<'a> {
    fn action_instance(&mut self) -> Result<crate::spec::ActionInstance, ParseError> {
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat("(")
            && !self.eat(")") {
                loop {
                    params.push(self.value()?);
                    if self.eat(")") {
                        break;
                    }
                    self.expect(",")?;
                }
            }
        Ok(crate::spec::ActionInstance::new(name, params))
    }
}

/// Parses an action instance from its `Display` syntax, e.g.
/// `RequestVote(1, 2)` or `Respond`.
pub fn parse_action_instance(input: &str) -> Result<crate::spec::ActionInstance, ParseError> {
    let mut p = Parser::new(input);
    let a = p.action_instance()?;
    p.skip_ws();
    if p.rest().is_empty() {
        Ok(a)
    } else {
        Err(p.err("trailing input after action instance"))
    }
}

/// Parses a single value from its `Display` syntax.
pub fn parse_value(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.skip_ws();
    if p.rest().is_empty() {
        Ok(v)
    } else {
        Err(p.err("trailing input after value"))
    }
}

/// Parses a state from its `/\ var = value ...` `Display` syntax.
pub fn parse_state(input: &str) -> Result<State, ParseError> {
    Parser::new(input).state()
}

/// `conjunct` as the one binding it spells from end to end, if it does.
fn sole_binding(conjunct: &str) -> Option<(String, Value)> {
    let mut p = Parser::new(conjunct);
    p.skip_ws();
    // `TRUE` after a `/\` is the empty state's, not a name's start.
    if p.rest().starts_with("TRUE") {
        return None;
    }
    let binding = p.binding().ok()?;
    p.skip_ws();
    p.rest().is_empty().then_some(binding)
}

/// [`parse_state`] for many states that share most of their bindings
/// (the node labels of one graph): `memo` maps the source text of a
/// conjunct to the one-variable state it parsed to, so a binding seen
/// before costs a lookup instead of a parse, an allocation and a pool
/// probe. Start with an empty map and pass the same one every time.
///
/// The input is cut before every `/\` outside a string literal — the
/// only places the grammar allows one — and a piece counts only if the
/// parser consumes it whole. Anything else (`/\ TRUE`, a string
/// holding a quote, malformed input) goes to [`parse_state`] in one
/// piece, so the result is always exactly what it returns.
pub fn parse_state_memo(
    input: &str,
    memo: &mut HashMap<String, State>,
) -> Result<State, ParseError> {
    let bytes = input.as_bytes();
    let mut cuts = Vec::new();
    let mut in_string = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_string = !in_string,
            b'/' if !in_string && bytes.get(i + 1) == Some(&b'\\') => cuts.push(i),
            _ => {}
        }
    }
    if cuts.first() != Some(&0) {
        return parse_state(input);
    }
    cuts.push(input.len());
    let mut parts = Vec::with_capacity(cuts.len());
    for cut in cuts.windows(2) {
        let conjunct = &input[cut[0] + 2..cut[1]];
        if let Some(known) = memo.get(conjunct) {
            parts.push(known.clone());
            continue;
        }
        let Some(binding) = sole_binding(conjunct) else {
            return parse_state(input);
        };
        let one = State::from_pairs([binding]);
        memo.insert(conjunct.to_string(), one.clone());
        parts.push(one);
    }
    Ok(State::merged(&parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vrec, vseq, vset};

    fn roundtrip(v: &Value) {
        let s = v.to_string();
        let back = parse_value(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(&back, v, "round-trip of {s}");
    }

    #[test]
    fn atoms_roundtrip() {
        roundtrip(&Value::Nil);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Int(0));
        roundtrip(&Value::Int(-42));
        roundtrip(&Value::str("Follower"));
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&Value::empty_set());
        roundtrip(&Value::empty_seq());
        roundtrip(&vset![1, 2, 3]);
        roundtrip(&vseq!["a", "b"]);
        roundtrip(&vrec! { mtype => "RequestVote", mterm => 2 });
        roundtrip(&Value::const_fun(
            [Value::Int(1), Value::Int(2)],
            Value::str("Follower"),
        ));
    }

    #[test]
    fn nested_roundtrip() {
        let msg = vrec! {
            mtype => "AppendEntries",
            entries => vseq![vrec! { term => 1, value => 7 }],
            dest => 2,
        };
        roundtrip(&Value::set([msg]));
    }

    #[test]
    fn state_roundtrip() {
        let st = State::from_pairs([
            ("cache", vset![1]),
            ("msg", Value::str("Max")),
            ("stage", Value::str("request")),
        ]);
        let back = parse_state(&st.to_string()).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn empty_state_roundtrip() {
        let st = State::new();
        assert_eq!(parse_state(&st.to_string()).unwrap(), st);
    }

    #[test]
    fn memoised_state_parse_is_parse_state() {
        // One memo across all inputs, each parsed twice: a binding
        // remembered from one label must not change what another
        // label means, whichever way that label is cut.
        let inputs = [
            "/\\ a = 1 /\\ b = {\"x /\\ y\"} /\\ c = <<>>",
            "/\\ a = 1 /\\ b = 2 /\\ a = 3",
            "/\\a=1/\\b=[f |-> (1 :> \"s\")]",
            "/\\ b = 2 /\\ a = 1\n",
            "  /\\ a = 1",
            "/\\ TRUE",
            "/\\ TRUE ",
            "/\\ TRUEx = 1",
            "/\\ a = 1 /\\ TRUEx = 1",
            "/\\ TRUEx = 1 /\\ a = 1",
            "/\\ a = TRUE /\\ b = FALSE",
            "",
            "/\\",
            "/\\ a = 1 /\\",
            "/\\ a = 1 2",
            "/\\ a = \"un /\\ b = 2",
            "/\\ a = \"q\"uote\" /\\ b = 2",
            "/\\ a = \"\" /\\ b = \"\" /\\ c = 1",
            "/\\ a = {1, /\\ b = 2}",
            "a = 1 /\\ b = 2",
        ];
        let mut memo = HashMap::new();
        for _ in 0..2 {
            for input in inputs {
                assert_eq!(parse_state_memo(input, &mut memo), parse_state(input), "{input:?}");
            }
        }
        assert!(memo.contains_key(" a = 1 "), "{:?}", memo.keys());
        assert!(memo.keys().all(|k| !k.trim_start().starts_with("TRUE")));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_value("{1, ").unwrap_err();
        assert!(e.at >= 3, "position should point into the input: {e}");
        assert!(parse_value("{1} trailing").is_err());
        assert!(parse_value("bogus").is_err());
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(parse_value(" { 1 ,\n 2 } ").unwrap(), vset![1, 2]);
    }

    #[test]
    fn action_instances_roundtrip() {
        for a in [
            crate::spec::ActionInstance::nullary("Respond"),
            crate::spec::ActionInstance::new("RequestVote", vec![Value::Int(1), Value::Int(2)]),
            crate::spec::ActionInstance::new(
                "Receive",
                vec![vrec! { mtype => "Ack", msource => 3 }],
            ),
        ] {
            let s = a.to_string();
            assert_eq!(parse_action_instance(&s).unwrap(), a, "round-trip {s}");
        }
        assert!(parse_action_instance("Bad(1").is_err());
        assert!(parse_action_instance("A(1) junk").is_err());
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // 100k unclosed sequence openers: without the depth bound this
        // recursion aborts the process instead of returning an error.
        let deep = "<<".repeat(100_000);
        let err = parse_value(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Moderate nesting stays fine.
        let ok = format!("{}1{}", "<<".repeat(50), ">>".repeat(50));
        assert!(parse_value(&ok).is_ok());
    }
}
