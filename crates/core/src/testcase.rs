//! Test cases (§4.2).
//!
//! A test case is a path through the state-space graph starting at an
//! initial state: an action sequence plus the expected (verified)
//! state after each action. During controlled testing each action is
//! scheduled in order and each intermediate state is a check point.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use mocket_tla::fingerprint::fnv1a;
use mocket_tla::{parse_action_instance, parse_state_memo, ActionInstance, ParseError, State};

use mocket_checker::{NodeId, StateGraph};
use mocket_obs::fsio::Fnv1a;

/// One scheduled step: the action and the verified state it must
/// produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The action to schedule.
    pub action: ActionInstance,
    /// The verified state after the action.
    pub expected: State,
}

/// An executable test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCase {
    /// The verified initial state (checked before the first action).
    pub initial: State,
    /// The action/state sequence.
    pub steps: Vec<Step>,
}

impl TestCase {
    /// Builds a test case from an initial state and `(action, state)`
    /// pairs.
    pub fn new(initial: State, steps: Vec<(ActionInstance, State)>) -> Self {
        TestCase {
            initial,
            steps: steps
                .into_iter()
                .map(|(action, expected)| Step { action, expected })
                .collect(),
        }
    }

    /// Builds a test case from a node path in a state-space graph.
    ///
    /// `path` lists edge ids in traversal order; the path must be
    /// connected and start at an initial state of the graph. An empty
    /// path yields `None` — a traversal can legitimately produce no
    /// walkable edges (e.g. an initial state whose every out-edge was
    /// excluded by partial-order reduction), and that must skip the
    /// case, not panic the campaign.
    pub fn from_edge_path(graph: &StateGraph, path: &[mocket_checker::EdgeId]) -> Option<Self> {
        let first = graph.edge(*path.first()?);
        let initial = graph.state(first.from).clone();
        let mut steps = Vec::with_capacity(path.len());
        let mut cur = first.from;
        for &eid in path {
            let e = graph.edge(eid);
            assert_eq!(e.from, cur, "edge path is not connected");
            steps.push(Step {
                action: e.action.clone(),
                expected: graph.state(e.to).clone(),
            });
            cur = e.to;
        }
        Some(TestCase { initial, steps })
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the test case has no actions.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Serializes into a line-oriented format (`init:`/`step:` lines).
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "init: {}", self.initial);
        for s in &self.steps {
            let _ = writeln!(out, "step: {} => {}", s.action, s.expected);
        }
        out
    }

    /// Parses the [`serialize`](Self::serialize) format. The states of
    /// a case share most of their bindings, so each distinct binding is
    /// parsed once (see [`parse_state_memo`]).
    pub fn deserialize(input: &str) -> Result<Self, ParseError> {
        let mut initial = None;
        let mut steps = Vec::new();
        let mut bindings = HashMap::new();
        let mut parse_state = |text: &str| parse_state_memo(text, &mut bindings);
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("init:") {
                initial = Some(parse_state(rest.trim())?);
            } else if let Some(rest) = line.strip_prefix("step:") {
                let (action, state) = rest.split_once("=>").ok_or(ParseError {
                    at: 0,
                    message: "step line missing '=>'".into(),
                })?;
                steps.push(Step {
                    action: parse_action_instance(action.trim())?,
                    expected: parse_state(state.trim())?,
                });
            } else {
                return Err(ParseError {
                    at: 0,
                    message: format!("unrecognized line {line:?}"),
                });
            }
        }
        Ok(TestCase {
            initial: initial.ok_or(ParseError {
                at: 0,
                message: "missing init line".into(),
            })?,
            steps,
        })
    }

    /// A stable 64-bit identity hash — 64-bit FNV-1a over the bytes
    /// [`serialize`](Self::serialize) writes — rendered as fixed-width
    /// hex. Stable across processes and platforms: the campaign journal
    /// keys completed cases by it. The states are not printed: each is
    /// folded in by [`State::fnv1a`], one jump per variable.
    pub fn stable_hash(&self) -> String {
        // From the offset basis, i.e. the hash of the empty text.
        let mut h = FnvSink(Fnv1a::new().finish());
        let _ = h.write_str("init: ");
        h.state(&self.initial);
        let _ = h.write_str("\n");
        for s in &self.steps {
            let _ = write!(h, "step: {} => ", s.action);
            h.state(&s.expected);
            let _ = h.write_str("\n");
        }
        format!("{:016x}", h.0)
    }

    /// Validates the case against a graph: every step must follow an
    /// existing edge from the current state. Returns the node path.
    pub fn validate_against(&self, graph: &StateGraph) -> Result<Vec<NodeId>, String> {
        let mut cur = graph
            .find_state(&self.initial)
            .ok_or_else(|| "initial state not in graph".to_string())?;
        if !graph.initial_states().contains(&cur) {
            return Err("test case does not start at an initial state".into());
        }
        let mut nodes = vec![cur];
        for (i, step) in self.steps.iter().enumerate() {
            let next = graph
                .out_edges(cur)
                .iter()
                .map(|&e| graph.edge(e))
                .find(|e| e.action == step.action && graph.state(e.to) == &step.expected)
                .map(|e| e.to)
                .ok_or_else(|| format!("step {i} ({}) has no matching edge", step.action))?;
            nodes.push(next);
            cur = next;
        }
        Ok(nodes)
    }
}

/// A running FNV-1a hash that text is `write!`n into and states are
/// folded into.
struct FnvSink(u64);

impl FnvSink {
    /// Folds in `state`'s `Display` bytes.
    fn state(&mut self, state: &State) {
        self.0 = state.fnv1a(self.0);
    }
}

impl fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

impl fmt::Display for TestCase {
    /// `s0 -> a1 -> s1 -> a2 -> ...` in the style of Figure 3, with
    /// the full action instances.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s[{}]", self.initial.fingerprint() % 10_000)?;
        for s in &self.steps {
            write!(
                f,
                " -> {} -> s[{}]",
                s.action,
                s.expected.fingerprint() % 10_000
            )?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::Value;

    fn st(n: i64) -> State {
        State::from_pairs([("n", Value::Int(n))])
    }

    fn case() -> TestCase {
        TestCase::new(
            st(0),
            vec![
                (ActionInstance::nullary("Inc"), st(1)),
                (ActionInstance::new("Add", vec![Value::Int(5)]), st(6)),
            ],
        )
    }

    #[test]
    fn accessors() {
        let tc = case();
        assert_eq!(tc.len(), 2);
        assert!(!tc.is_empty());
    }

    #[test]
    fn serialization_roundtrip() {
        let tc = case();
        let text = tc.serialize();
        let back = TestCase::deserialize(&text).unwrap();
        assert_eq!(back, tc);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(TestCase::deserialize("bogus").is_err());
        assert!(TestCase::deserialize("step: A => /\\ n = 1").is_err());
        assert!(TestCase::deserialize("init: /\\ n = 0\nstep: A -> bad").is_err());
    }

    #[test]
    fn stable_hash_distinguishes_cases_and_is_stable() {
        let a = case();
        assert_eq!(a.stable_hash(), case().stable_hash());
        assert_eq!(a.stable_hash().len(), 16);
        let b = TestCase::new(st(0), vec![(ActionInstance::nullary("Inc"), st(1))]);
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    /// `obs::fsio::Fnv1a` over `text`, the one FNV-1a the other
    /// identity hashes (plan fingerprints, fault streams) use.
    fn obs_fnv1a(text: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(text).unwrap();
        h.finish()
    }

    #[test]
    fn tla_fnv1a_is_obs_fnv1a() {
        let texts = ["", "a", "init: /\\ n = 0\n", "ünïcödé ✓ 𝄞", &"x/\\\"\n".repeat(100)];
        for text in texts {
            let offset = Fnv1a::new().finish();
            assert_eq!(fnv1a(offset, text.as_bytes()), obs_fnv1a(text), "{text:?}");
            // Resumed at any byte (not only at a character boundary).
            let (a, b) = text.as_bytes().split_at(text.len() / 2);
            assert_eq!(fnv1a(fnv1a(offset, a), b), obs_fnv1a(text), "{text:?}");
        }
    }

    /// States whose string value holds `/\`, backslashes and quotes:
    /// the text a memoised parse cuts into bindings, or must not.
    fn hostile_cases() -> Vec<TestCase> {
        let hostiles = [
            "back\\slash",
            "trailing\\",
            "\\n literal backslash-n",
            "a /\\ b",
            "/\\",
            "x /\\ y = 1",
            "back\\slash /\\ q",
            "\\\\ /\\ \\",
            "quo\"te",
            "\" /\\ w = \"b",
            "\"",
            "\\\" /\\",
        ];
        hostiles
            .into_iter()
            .map(|hostile| {
                let st = |n: i64| {
                    State::from_pairs([("u", Value::str(hostile)), ("v", Value::Int(n))])
                };
                TestCase::new(
                    st(0),
                    vec![
                        (ActionInstance::new("Set", vec![Value::str("u /\\ v")]), st(1)),
                        (ActionInstance::nullary("Inc"), st(2)),
                        (ActionInstance::nullary("Clear"), State::new()),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn stable_hash_is_fnv1a_of_the_serialized_text() {
        let mut cases = hostile_cases();
        cases.push(case());
        cases.push(TestCase::new(State::new(), vec![]));
        for tc in cases {
            let text = tc.serialize();
            assert_eq!(tc.stable_hash(), format!("{:016x}", obs_fnv1a(&text)), "{text}");
        }
    }

    #[test]
    fn deserialize_is_parse_state_per_line_on_hostile_strings() {
        for tc in hostile_cases() {
            let text = tc.serialize();
            // A string holding a quote is the one thing the printed
            // syntax cannot carry.
            let quoted = tc.initial.expect("u").expect_str().contains('"');
            let states = |tc: &TestCase| {
                let steps = tc.steps.iter().map(|s| s.expected.clone());
                std::iter::once(tc.initial.clone()).chain(steps).collect::<Vec<_>>()
            };
            let expected: Result<Vec<State>, _> =
                states(&tc).iter().map(|s| mocket_tla::parse_state(&s.to_string())).collect();
            match (TestCase::deserialize(&text), expected) {
                (Ok(back), Ok(expected)) => {
                    assert_eq!(states(&back), expected, "{text}");
                    assert_eq!(back == tc, !quoted, "{text}");
                }
                (Err(got), Err(expected)) => {
                    assert_eq!(got, expected, "{text}");
                    assert!(quoted, "{text}");
                }
                (got, expected) => panic!("{text}: {got:?} vs {expected:?}"),
            }
        }
    }

    #[test]
    fn from_edge_path_and_validate() {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(st(0));
        let (b, _) = g.insert_state(st(1));
        let (c, _) = g.insert_state(st(2));
        g.mark_initial(a);
        let e1 = g.add_edge(a, ActionInstance::nullary("Inc"), b);
        let e2 = g.add_edge(b, ActionInstance::nullary("Inc"), c);
        // An empty edge path is a skip, not a panic: a fully-excluded
        // initial node leaves the traversal nothing to walk.
        assert_eq!(TestCase::from_edge_path(&g, &[]), None);
        let tc = TestCase::from_edge_path(&g, &[e1, e2]).unwrap();
        assert_eq!(tc.initial, st(0));
        assert_eq!(tc.len(), 2);
        let nodes = tc.validate_against(&g).unwrap();
        assert_eq!(nodes, vec![a, b, c]);
    }

    #[test]
    fn validate_rejects_non_initial_start() {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(st(0));
        let (b, _) = g.insert_state(st(1));
        g.mark_initial(a);
        g.add_edge(a, ActionInstance::nullary("Inc"), b);
        let tc = TestCase::new(st(1), vec![]);
        assert!(tc.validate_against(&g).is_err());
    }

    #[test]
    fn validate_rejects_unknown_edge() {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(st(0));
        g.mark_initial(a);
        let tc = TestCase::new(st(0), vec![(ActionInstance::nullary("Nope"), st(9))]);
        assert!(tc.validate_against(&g).is_err());
    }
}
