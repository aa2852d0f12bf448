//! Campaign coverage analytics.
//!
//! A [`CoverageMap`] accumulates per-edge and per-action hit counts
//! over the test cases a campaign actually executed (fed from the
//! pipeline's case events). It is graph-shape-agnostic — edges are
//! plain indices — so the dependency-free obs crate can host it; the
//! checker layers the state-graph-aware DOT overlay on top.
//!
//! Two artifacts come out of it:
//! - `coverage.json`: the full hit counts, deterministic key order;
//! - an uncovered-edge listing ([`CoverageMap::uncovered_listing`])
//!   that the traversal generator consumes next run to steer path
//!   selection toward unexecuted edges
//!   ([`parse_uncovered_listing`]).

use std::collections::BTreeMap;

use crate::json::push_escaped;

/// File name of the coverage dump inside a campaign directory.
pub const COVERAGE_FILE_NAME: &str = "coverage.json";

/// File name of the uncovered-edge listing inside a campaign
/// directory.
pub const UNCOVERED_FILE_NAME: &str = "uncovered-edges.txt";

/// Per-edge and per-action hit counts for one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    edge_hits: Vec<u64>,
    action_hits: BTreeMap<String, u64>,
    cases: u64,
}

impl CoverageMap {
    /// An empty map over a graph with `edge_count` edges.
    pub fn new(edge_count: usize) -> Self {
        CoverageMap {
            edge_hits: vec![0; edge_count],
            action_hits: BTreeMap::new(),
            cases: 0,
        }
    }

    /// Records one executed test case: the edge indices it walked and
    /// the action name of each step.
    pub fn record_case<'a>(
        &mut self,
        edges: impl IntoIterator<Item = usize>,
        actions: impl IntoIterator<Item = &'a str>,
    ) {
        self.cases += 1;
        for e in edges {
            if let Some(h) = self.edge_hits.get_mut(e) {
                *h += 1;
            }
        }
        for a in actions {
            // A campaign sees a handful of action names millions of
            // times: allocate the key on first sight only.
            match self.action_hits.get_mut(a) {
                Some(hits) => *hits += 1,
                None => {
                    self.action_hits.insert(a.to_string(), 1);
                }
            }
        }
    }

    /// Number of edges the map tracks.
    pub fn edge_count(&self) -> usize {
        self.edge_hits.len()
    }

    /// Hit count of edge `e` (0 for out-of-range indices).
    pub fn hit(&self, e: usize) -> u64 {
        self.edge_hits.get(e).copied().unwrap_or(0)
    }

    /// The raw per-edge hit counts, indexed by edge id.
    pub fn edge_hits(&self) -> &[u64] {
        &self.edge_hits
    }

    /// Number of edges with at least one hit.
    pub fn edges_covered(&self) -> usize {
        self.edge_hits.iter().filter(|&&h| h > 0).count()
    }

    /// Covered fraction in `[0, 1]` (1 for an edgeless graph).
    pub fn edge_coverage(&self) -> f64 {
        if self.edge_hits.is_empty() {
            1.0
        } else {
            self.edges_covered() as f64 / self.edge_hits.len() as f64
        }
    }

    /// Edge indices never hit, ascending.
    pub fn uncovered_edges(&self) -> Vec<usize> {
        self.edge_hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h == 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders `coverage.json`: a deterministic JSON document with the
    /// full hit counts. Purely logical data — no wall-clock anywhere.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"cases\": {},\n", self.cases));
        out.push_str(&format!("  \"edges\": {},\n", self.edge_hits.len()));
        out.push_str(&format!("  \"edges_covered\": {},\n", self.edges_covered()));
        out.push_str("  \"edge_hits\": [");
        for (i, h) in self.edge_hits.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&h.to_string());
        }
        out.push_str("],\n");
        out.push_str("  \"action_hits\": {");
        for (i, (name, hits)) in self.action_hits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_escaped(&mut out, name);
            out.push_str(&format!(": {hits}"));
        }
        if !self.action_hits.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders the uncovered-edge listing: `#`-prefixed header, then
    /// one edge index per line. Feed it back to the traversal
    /// generator (as priority edges) on the next run.
    pub fn uncovered_listing(&self) -> String {
        let uncovered = self.uncovered_edges();
        let mut out = format!(
            "# uncovered edges: {} of {} ({} covered by {} cases)\n",
            uncovered.len(),
            self.edge_hits.len(),
            self.edges_covered(),
            self.cases
        );
        for e in uncovered {
            out.push_str(&format!("{e}\n"));
        }
        out
    }
}

/// Parses an uncovered-edge listing back into edge indices. Blank
/// lines and `#` comments are skipped; anything else must be a
/// non-negative integer.
pub fn parse_uncovered_listing(text: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(
            line.parse::<usize>()
                .map_err(|_| format!("line {}: not an edge index: {line:?}", i + 1))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_hits_across_cases() {
        let mut cov = CoverageMap::new(4);
        cov.record_case([0, 1], ["A", "B"]);
        cov.record_case([1, 3], ["B", "C"]);
        assert_eq!(cov.cases, 2);
        assert_eq!(cov.edge_hits(), &[1, 2, 0, 1]);
        assert_eq!(cov.edges_covered(), 3);
        assert_eq!(cov.uncovered_edges(), vec![2]);
        assert_eq!(cov.edge_coverage(), 0.75);
        assert_eq!(cov.action_hits.get("B"), Some(&2));
        assert_eq!(cov.action_hits.get("C"), Some(&1));
    }

    #[test]
    fn repeated_actions_total_like_first_sights() {
        // Steps of an already counted action take the lookup-only path;
        // totals must be those of counting every step by name.
        let steps = ["Vote", "Ack", "Vote", "Vote", "Commit", "Ack", "Vote"];
        let mut cov = CoverageMap::new(1);
        cov.record_case([0], steps);
        cov.record_case([0], steps);
        let mut expected = BTreeMap::new();
        for a in steps.iter().chain(&steps) {
            *expected.entry(a.to_string()).or_insert(0u64) += 1;
        }
        assert_eq!(cov.action_hits, expected);
        assert_eq!(cov.action_hits.values().sum::<u64>(), 14);
        assert_eq!((cov.cases, cov.hit(0)), (2, 2));
    }

    #[test]
    fn empty_graph_is_fully_covered() {
        let cov = CoverageMap::new(0);
        assert_eq!(cov.edge_coverage(), 1.0);
        assert!(cov.uncovered_edges().is_empty());
    }

    #[test]
    fn json_dump_is_deterministic_and_complete() {
        let mut cov = CoverageMap::new(3);
        cov.record_case([2, 0], ["Z(1)", "A \"q\""]);
        let json = cov.to_json();
        assert_eq!(json, cov.to_json());
        assert!(json.contains("\"edge_hits\": [1, 0, 1]"));
        assert!(json.contains("\"edges_covered\": 2"));
        assert!(json.contains("\"A \\\"q\\\"\": 1"));
    }

    #[test]
    fn uncovered_listing_round_trips() {
        let mut cov = CoverageMap::new(5);
        cov.record_case([0, 3], ["A", "B"]);
        let listing = cov.uncovered_listing();
        assert!(listing.starts_with("# uncovered edges: 3 of 5"));
        assert_eq!(parse_uncovered_listing(&listing).unwrap(), vec![1, 2, 4]);
        assert!(parse_uncovered_listing("nope\n").is_err());
        assert_eq!(parse_uncovered_listing("# all covered\n").unwrap(), vec![]);
    }

    #[test]
    fn out_of_range_edges_are_ignored() {
        let mut cov = CoverageMap::new(2);
        cov.record_case([0, 9], ["A"]);
        assert_eq!(cov.edge_hits(), &[1, 0]);
    }
}
