//! GraphViz DOT export and import of state-space graphs.
//!
//! TLC can dump the state space it verified as a GraphViz DOT file,
//! and Mocket's test-case generator consumes exactly that file
//! (§4.2). We reproduce both sides of the boundary: [`write_dot`]
//! streams a graph to any writer and [`read_dot`] parses one back
//! from any buffered reader; [`to_dot`] / [`from_dot`] are the
//! in-memory conveniences on top. Node labels carry the full state in
//! TLA+ conjunction syntax; edge labels carry the action instance.
//!
//! The streaming pair is the hot path for large graphs: output goes
//! through one `BufWriter` with a single reusable label buffer (no
//! per-node or per-edge `String` allocation), and the escaper copies
//! unescaped spans in bulk instead of byte-at-a-time. Import reads
//! line by line through one reusable line buffer, so neither
//! direction ever holds the whole file in memory, and parses each
//! distinct `variable = value` binding of the node labels once per
//! import: a graph repeats a few hundred of them across all its nodes.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

use mocket_tla::{parse_action_instance, parse_state_memo, ParseError, State};

use crate::graph::{EdgeId, NodeId, StateGraph};

/// Streams a graph as GraphViz DOT to `w`.
///
/// Output is byte-identical to [`to_dot`]. The writer is wrapped in a
/// [`io::BufWriter`] internally; callers pass the raw sink.
pub fn write_dot<W: Write>(graph: &StateGraph, w: W) -> io::Result<()> {
    let mut w = io::BufWriter::new(w);
    // One label buffer reused for every node and edge: states and
    // actions format into it, then the escaper streams it out.
    let mut label = String::new();
    w.write_all(b"digraph StateSpace {\n")?;
    w.write_all(b"  nodesep = 0.35;\n")?;
    for (id, state) in graph.states() {
        label.clear();
        let _ = write!(label, "{state}");
        write!(w, "  s{} [label=\"", id.0)?;
        write_escaped(&mut w, &label)?;
        if graph.initial_states().contains(&id) {
            w.write_all(b"\", style=bold, initial=true];\n")?;
        } else {
            w.write_all(b"\"];\n")?;
        }
    }
    for edge in graph.edges() {
        label.clear();
        let _ = write!(label, "{}", edge.action);
        write!(w, "  s{} -> s{} [label=\"", edge.from.0, edge.to.0)?;
        write_escaped(&mut w, &label)?;
        w.write_all(b"\"];\n")?;
    }
    w.write_all(b"}\n")?;
    w.flush()
}

/// Serializes a graph as a GraphViz DOT string.
pub fn to_dot(graph: &StateGraph) -> String {
    let mut buf = Vec::new();
    write_dot(graph, &mut buf).expect("writing DOT to memory cannot fail");
    String::from_utf8(buf).expect("DOT output is UTF-8")
}

/// The GitHub-contribution-style green ramp used by the coverage
/// overlay, bucketed by hit count; 0 hits renders grey.
fn hit_color(hits: u64) -> &'static str {
    match hits {
        0 => "#d9d9d9",
        1 => "#c6e48b",
        2..=3 => "#7bc96f",
        4..=7 => "#239a3b",
        _ => "#196127",
    }
}

/// Edges on the *uncovered frontier*: never executed by any test case
/// (`hits[e] == 0`) but enabled at a visited state — their source node
/// is an initial state or the target of an executed edge. These are
/// the edges a campaign could have scheduled next but didn't; a fully
/// covered campaign has none. `hits` is indexed by edge id (shorter
/// slices read as zero).
pub fn uncovered_frontier(graph: &StateGraph, hits: &[u64]) -> Vec<EdgeId> {
    let hit = |e: usize| hits.get(e).copied().unwrap_or(0);
    let mut visited = vec![false; graph.state_count()];
    for &n in graph.initial_states() {
        visited[n.0] = true;
    }
    for (i, edge) in graph.edges().iter().enumerate() {
        if hit(i) > 0 {
            visited[edge.from.0] = true;
            visited[edge.to.0] = true;
        }
    }
    graph
        .edges()
        .iter()
        .enumerate()
        .filter(|(i, edge)| hit(*i) == 0 && visited[edge.from.0])
        .map(|(i, _)| EdgeId(i))
        .collect()
}

/// Streams the graph as a coverage-annotated DOT file: nodes are
/// filled by visit count (sum of executed incoming edges), edges are
/// colored by hit count with frontier edges dashed, and a `//`-comment
/// header lists the covered/frontier tallies plus every frontier edge.
/// The output stays parseable by [`read_dot`] (comments are skipped,
/// extra attributes ignored) and is a pure function of `graph` and
/// `hits`, hence byte-identical across repeat runs and worker counts.
pub fn write_dot_overlay<W: Write>(graph: &StateGraph, hits: &[u64], w: W) -> io::Result<()> {
    let hit = |e: usize| hits.get(e).copied().unwrap_or(0);
    let frontier = uncovered_frontier(graph, hits);
    let covered = (0..graph.edge_count()).filter(|&e| hit(e) > 0).count();
    let mut visits = vec![0u64; graph.state_count()];
    for (i, edge) in graph.edges().iter().enumerate() {
        visits[edge.to.0] += hit(i);
    }

    let mut w = io::BufWriter::new(w);
    let mut label = String::new();
    w.write_all(b"digraph StateSpace {\n")?;
    writeln!(
        w,
        "  // coverage overlay: {covered}/{} edges covered, {} frontier",
        graph.edge_count(),
        frontier.len()
    )?;
    for &eid in &frontier {
        let edge = graph.edge(eid);
        label.clear();
        let _ = write!(label, "{}", edge.action);
        write!(w, "  // frontier: e{} s{} -> s{} [", eid.0, edge.from.0, edge.to.0)?;
        write_escaped(&mut w, &label)?;
        w.write_all(b"]\n")?;
    }
    w.write_all(b"  nodesep = 0.35;\n")?;
    for (id, state) in graph.states() {
        label.clear();
        let _ = write!(label, "{state}");
        write!(w, "  s{} [label=\"", id.0)?;
        write_escaped(&mut w, &label)?;
        let style = if graph.initial_states().contains(&id) {
            "\", style=\"bold,filled\", initial=true"
        } else {
            "\", style=filled"
        };
        writeln!(
            w,
            "{style}, fillcolor=\"{}\", visits={}];",
            hit_color(visits[id.0]),
            visits[id.0]
        )?;
    }
    let mut frontier_flag = vec![false; graph.edge_count()];
    for &eid in &frontier {
        frontier_flag[eid.0] = true;
    }
    for (i, edge) in graph.edges().iter().enumerate() {
        label.clear();
        let _ = write!(label, "{}", edge.action);
        write!(w, "  s{} -> s{} [label=\"", edge.from.0, edge.to.0)?;
        write_escaped(&mut w, &label)?;
        write!(w, "\", color=\"{}\", hits={}", hit_color(hit(i)), hit(i))?;
        if frontier_flag[i] {
            w.write_all(b", style=dashed")?;
        }
        w.write_all(b"];\n")?;
    }
    w.write_all(b"}\n")?;
    w.flush()
}

/// Serializes the coverage-annotated graph as a DOT string.
pub fn to_dot_overlay(graph: &StateGraph, hits: &[u64]) -> String {
    let mut buf = Vec::new();
    write_dot_overlay(graph, hits, &mut buf).expect("writing DOT to memory cannot fail");
    String::from_utf8(buf).expect("DOT output is UTF-8")
}

/// What an import carries from line to line.
#[derive(Default)]
struct Import {
    graph: StateGraph,
    /// DOT node name ("s12") -> graph NodeId.
    names: HashMap<String, NodeId>,
    /// The bindings already parsed (see [`parse_state_memo`]): a
    /// graph's labels repeat a few hundred of them tens of thousands of
    /// times.
    bindings: HashMap<String, State>,
    /// The unescaped label of the current line.
    label: String,
}

/// Streams a DOT file produced by [`write_dot`] back into a graph.
///
/// Node ids are remapped densely in order of appearance, preserving
/// initial-state marks and edge order. The returned graph is
/// [`StateGraph::finish`]ed: compacted, with its CSR adjacency built.
pub fn read_dot<R: BufRead>(mut r: R) -> Result<StateGraph, DotError> {
    let mut import = Import::default();
    let mut raw = String::new();

    let mut lineno = 0usize;
    loop {
        raw.clear();
        if r.read_line(&mut raw)? == 0 {
            break;
        }
        import.line(&raw, lineno)?;
        lineno += 1;
    }
    import.graph.finish();
    Ok(import.graph)
}

/// Parses a DOT string produced by [`to_dot`] back into a graph.
pub fn from_dot(input: &str) -> Result<StateGraph, DotError> {
    read_dot(input.as_bytes())
}

impl Import {
    /// Processes one DOT line: node declaration, edge, or ignorable noise.
    fn line(&mut self, raw: &str, lineno: usize) -> Result<(), DotError> {
        let line = raw.trim().trim_end_matches(';');
        if line.is_empty()
            || line.starts_with("digraph")
            || line.starts_with('}')
            || line.starts_with("//")
            || !line.contains('[')
        {
            return Ok(());
        }
        let (head, attrs) = split_attrs(line).ok_or_else(|| DotError::syntax(lineno, line))?;
        let head = head.trim();
        if head == "nodesep" {
            return Ok(());
        }
        unescape_label(attrs, &mut self.label).ok_or_else(|| DotError::syntax(lineno, line))?;
        if let Some((from, to)) = head.split_once("->") {
            let action =
                parse_action_instance(&self.label).map_err(|e| DotError::parse(lineno, e))?;
            let node = |name: &str| {
                let name = name.trim();
                let id = self.names.get(name).copied();
                id.ok_or_else(|| DotError::unknown_node(lineno, name))
            };
            let (f, t) = (node(from)?, node(to)?);
            self.graph.add_edge(f, action, t);
        } else {
            let state = parse_state_memo(&self.label, &mut self.bindings)
                .map_err(|e| DotError::parse(lineno, e))?;
            let (id, _) = self.graph.insert_state(state);
            if attrs.contains("initial=true") {
                self.graph.mark_initial(id);
            }
            self.names.insert(head.to_string(), id);
        }
        Ok(())
    }
}

/// Splits `head [attrs]` into `(head, attrs)`.
fn split_attrs(line: &str) -> Option<(&str, &str)> {
    let open = line.find('[')?;
    let close = line.rfind(']')?;
    (close > open).then(|| (&line[..open], &line[open + 1..close]))
}

/// Unescapes the quoted `label="..."` attribute into `out`, copying
/// the clean spans in bulk — the mirror of [`write_escaped`].
fn unescape_label(attrs: &str, out: &mut String) -> Option<()> {
    out.clear();
    let mut rest = &attrs[attrs.find("label=\"")? + 7..];
    loop {
        let stop = rest.find(['\\', '"'])?;
        out.push_str(&rest[..stop]);
        if rest.as_bytes()[stop] == b'"' {
            return Some(());
        }
        let mut escaped = rest[stop + 1..].chars();
        out.push(match escaped.next()? {
            'n' => '\n',
            'r' => '\r',
            other => other,
        });
        rest = escaped.as_str();
    }
}

/// Streams `s` with `\`, `"`, newline, and carriage return escaped,
/// copying the clean spans in bulk rather than allocating an escaped
/// copy. Raw line breaks must never reach the output: the DOT format
/// here is line-oriented, so an unescaped `\n` or `\r` inside a label
/// would split the statement and corrupt the file for [`read_dot`].
fn write_escaped<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'\\' => b"\\\\",
            b'"' => b"\\\"",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => continue,
        };
        w.write_all(&bytes[start..i])?;
        w.write_all(esc)?;
        start = i + 1;
    }
    w.write_all(&bytes[start..])
}

/// Errors from DOT parsing.
#[derive(Debug, Clone)]
pub enum DotError {
    /// Line did not match the expected node/edge shape.
    Syntax {
        /// Zero-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A label failed to parse as a state or action.
    Label {
        /// Zero-based line number.
        line: usize,
        /// The underlying parse error.
        error: ParseError,
    },
    /// An edge referenced a node that was never declared.
    UnknownNode {
        /// Zero-based line number.
        line: usize,
        /// The undeclared node name.
        name: String,
    },
    /// The underlying reader failed.
    Io(Arc<io::Error>),
}

impl DotError {
    fn syntax(line: usize, text: &str) -> Self {
        DotError::Syntax {
            line,
            text: text.to_string(),
        }
    }

    fn parse(line: usize, error: ParseError) -> Self {
        DotError::Label { line, error }
    }

    fn unknown_node(line: usize, name: &str) -> Self {
        DotError::UnknownNode {
            line,
            name: name.to_string(),
        }
    }
}

impl From<io::Error> for DotError {
    fn from(e: io::Error) -> Self {
        DotError::Io(Arc::new(e))
    }
}

impl std::fmt::Display for DotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DotError::Syntax { line, text } => {
                write!(f, "DOT syntax error on line {}: {text:?}", line + 1)
            }
            DotError::Label { line, error } => {
                write!(f, "bad label on line {}: {error}", line + 1)
            }
            DotError::UnknownNode { line, name } => {
                write!(
                    f,
                    "edge on line {} references unknown node {name:?}",
                    line + 1
                )
            }
            DotError::Io(e) => write!(f, "DOT I/O error: {e}"),
        }
    }
}

impl std::error::Error for DotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DotError::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::{ActionInstance, State, Value};

    fn sample_graph() -> StateGraph {
        let mut g = StateGraph::new();
        let (a, _) = g.insert_state(State::from_pairs([
            ("cache", Value::empty_set()),
            ("msg", Value::Nil),
            ("stage", Value::str("request")),
        ]));
        let (b, _) = g.insert_state(State::from_pairs([
            ("cache", Value::empty_set()),
            ("msg", Value::Int(1)),
            ("stage", Value::str("respond")),
        ]));
        g.mark_initial(a);
        g.add_edge(a, ActionInstance::new("Request", vec![Value::Int(1)]), b);
        g.add_edge(b, ActionInstance::nullary("Respond"), a);
        g
    }

    #[test]
    fn dot_contains_labels_and_marks() {
        let dot = to_dot(&sample_graph());
        assert!(dot.starts_with("digraph StateSpace {"));
        assert!(dot.contains("initial=true"));
        assert!(dot.contains("Request(1)"));
        assert!(dot.contains("stage = \\\"request\\\""));
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample_graph();
        let g2 = from_dot(&to_dot(&g)).unwrap();
        assert_eq!(g2.state_count(), g.state_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.initial_states().len(), 1);
        assert_eq!(
            g2.state(g2.initial_states()[0]),
            g.state(g.initial_states()[0])
        );
        let actions: Vec<String> = g2.edges().iter().map(|e| e.action.to_string()).collect();
        assert_eq!(actions, ["Request(1)", "Respond"]);
    }

    #[test]
    fn streaming_writer_matches_to_dot() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_dot(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), to_dot(&g));
    }

    #[test]
    fn read_dot_streams_from_reader() {
        let g = sample_graph();
        let dot = to_dot(&g);
        let g2 = read_dot(io::BufReader::new(dot.as_bytes())).unwrap();
        assert_eq!(g2.state_count(), g.state_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        // Import finishes the graph: re-export is identical.
        assert_eq!(to_dot(&g2), dot);
    }

    #[test]
    fn unknown_node_is_reported() {
        let bad = "digraph X {\n  s0 -> s1 [label=\"A\"];\n}\n";
        match from_dot(bad) {
            Err(DotError::UnknownNode { name, .. }) => assert_eq!(name, "s0"),
            other => panic!("expected UnknownNode, got {other:?}"),
        }
    }

    #[test]
    fn bad_label_is_reported() {
        let bad = "digraph X {\n  s0 [label=\"not a state\"];\n}\n";
        assert!(matches!(from_dot(bad), Err(DotError::Label { .. })));
    }

    #[test]
    fn hostile_labels_roundtrip() {
        // Property-style sweep over label contents that historically
        // corrupted the DOT round trip: raw line breaks split the
        // line-oriented format, and backslash sequences collided with
        // the reader's escape handling.
        let hostiles = [
            "back\\slash",
            "trailing\\",
            "line\nbreak",
            "cr\rreturn",
            "crlf\r\npair",
            "\\n literal backslash-n",
            "\\r literal backslash-r",
            "\n\r\\\\\n",
        ];
        for hostile in hostiles {
            let mut g = StateGraph::new();
            let (a, _) = g.insert_state(State::from_pairs([("v", Value::str(hostile))]));
            let (b, _) = g.insert_state(State::from_pairs([("v", Value::str("plain"))]));
            g.mark_initial(a);
            g.add_edge(a, ActionInstance::new("Act", vec![Value::str(hostile)]), b);
            let dot = to_dot(&g);
            // No raw line breaks may survive inside the emitted DOT
            // beyond the one statement terminator per line.
            for line in dot.lines() {
                assert!(!line.contains('\r'), "raw CR leaked into DOT: {line:?}");
            }
            let g2 = from_dot(&dot).unwrap_or_else(|e| {
                panic!("round trip failed for hostile label {hostile:?}: {e}")
            });
            assert_eq!(g2.state_count(), g.state_count(), "label {hostile:?}");
            assert_eq!(
                g2.state(g2.initial_states()[0]),
                g.state(g.initial_states()[0]),
                "state corrupted for label {hostile:?}"
            );
            assert_eq!(
                g2.edges()[0].action, g.edges()[0].action,
                "action corrupted for label {hostile:?}"
            );
            // Re-export must be byte-identical: escaping is canonical.
            assert_eq!(to_dot(&g2), dot, "re-export differs for {hostile:?}");
        }
    }

    #[test]
    fn import_cuts_labels_where_the_parser_would_or_not_at_all() {
        // String values holding `/\`, quotes, backslashes and line
        // breaks: the memoised import cuts a label into bindings, and
        // must end with exactly what `parse_state` makes of the whole
        // label — the same state, or the same refusal.
        let hostiles = [
            ("a /\\ b", true),
            ("/\\", true),
            ("x /\\ y = 1", true),
            ("back\\slash /\\ q", true),
            ("line\n/\\ break\r", true),
            ("\\\\ /\\ \\", true),
            ("quo\"te", false),
            ("\" /\\ w = \"b", false),
            ("\"", false),
            ("\\\" /\\", false),
        ];
        for (hostile, round_trips) in hostiles {
            // Two states, so the second import takes the binding from
            // the memo the first one filled.
            let states = [1, 2].map(|n| {
                State::from_pairs([("u", Value::str(hostile)), ("v", Value::Int(n))])
            });
            let mut g = StateGraph::new();
            for s in &states {
                g.insert_state(s.clone());
            }
            let expected: Result<Vec<State>, _> =
                states.iter().map(|s| mocket_tla::parse_state(&s.to_string())).collect();
            match (from_dot(&to_dot(&g)), expected) {
                (Ok(g2), Ok(expected)) => {
                    let got: Vec<&State> = g2.states().map(|(_, s)| s).collect();
                    assert_eq!(got, expected.iter().collect::<Vec<_>>(), "{hostile:?}");
                    assert_eq!(expected == states, round_trips, "{hostile:?}");
                }
                (Err(DotError::Label { line, error }), Err(expected)) => {
                    assert_eq!((line, error), (2, expected), "{hostile:?}");
                    assert!(!round_trips, "{hostile:?}");
                }
                (got, expected) => panic!("{hostile:?}: {got:?} vs {expected:?}"),
            }
        }
    }

    /// a --Inc--> b --Inc--> c, plus a --Alt--> c and c --Back--> a.
    fn chain_graph() -> StateGraph {
        let mut g = StateGraph::new();
        let st = |n: i64| State::from_pairs([("x", Value::Int(n))]);
        let (a, _) = g.insert_state(st(0));
        let (b, _) = g.insert_state(st(1));
        let (c, _) = g.insert_state(st(2));
        g.mark_initial(a);
        g.add_edge(a, ActionInstance::nullary("Inc"), b); // e0
        g.add_edge(b, ActionInstance::nullary("Inc"), c); // e1
        g.add_edge(a, ActionInstance::nullary("Alt"), c); // e2
        g.add_edge(c, ActionInstance::nullary("Back"), a); // e3
        g
    }

    #[test]
    fn frontier_is_enabled_but_never_scheduled() {
        let g = chain_graph();
        // Only e0 executed: b is visited, so e1 (from b) and e2 (from
        // the initial a) are frontier; e3 (from unvisited c) is not.
        let frontier = uncovered_frontier(&g, &[1, 0, 0, 0]);
        assert_eq!(frontier, vec![EdgeId(1), EdgeId(2)]);
        // Everything executed: no frontier.
        assert!(uncovered_frontier(&g, &[1, 2, 1, 1]).is_empty());
        // Nothing executed: only edges out of the initial state.
        assert_eq!(uncovered_frontier(&g, &[0, 0, 0, 0]), vec![EdgeId(0), EdgeId(2)]);
    }

    #[test]
    fn overlay_lists_frontier_and_colors_by_hits() {
        let g = chain_graph();
        let dot = to_dot_overlay(&g, &[5, 0, 0, 0]);
        assert!(dot.contains("// coverage overlay: 1/4 edges covered, 2 frontier"));
        assert!(dot.contains("// frontier: e1 s1 -> s2 [Inc]"));
        assert!(dot.contains("// frontier: e2 s0 -> s2 [Alt]"));
        // Hit edge gets a green bucket, frontier edges dash.
        assert!(dot.contains("color=\"#239a3b\", hits=5"));
        assert!(dot.contains("hits=0, style=dashed"));
        // Node visited 5 times is filled dark; unvisited stays grey.
        assert!(dot.contains("visits=5]"));
        assert!(dot.contains("fillcolor=\"#d9d9d9\", visits=0]"));
        // Short hit slices read as zero instead of panicking.
        assert!(to_dot_overlay(&g, &[1]).contains("1/4 edges covered"));
    }

    #[test]
    fn overlay_is_deterministic_and_reimportable() {
        let g = chain_graph();
        let hits = [2, 1, 0, 0];
        let dot = to_dot_overlay(&g, &hits);
        assert_eq!(dot, to_dot_overlay(&g, &hits), "pure function of inputs");
        // read_dot skips the comment header and ignores the extra
        // attributes: the underlying graph round-trips.
        let g2 = from_dot(&dot).unwrap();
        assert_eq!(g2.state_count(), g.state_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.initial_states().len(), 1);
        assert_eq!(to_dot(&g2), to_dot(&g));
    }

    #[test]
    fn parser_ignores_preamble_noise() {
        let dot = to_dot(&sample_graph());
        let noisy = dot.replace(
            "digraph StateSpace {",
            "digraph StateSpace {\n  // a comment\n",
        );
        assert!(from_dot(&noisy).is_ok());
    }
}
