//! Stage ③: test-case generation.
//!
//! Edge-coverage traversal of the state graph, once plain and once
//! over the partial-order-reduced edge set (Table 3 compares the two),
//! then the developer's case filter and the case cap. Cases stay edge
//! paths here; they are materialized one at a time when they run.

use std::collections::HashSet;

use mocket_checker::{EdgeId, StateGraph};

use crate::por::partial_order_reduction;
use crate::testcase::TestCase;
use crate::traversal::{edge_coverage_paths, TraversalConfig};

use super::Pipeline;

impl Pipeline {
    /// Stage ③ (path form): selected edge paths plus
    /// `(paths_ec, paths_ec_por, excluded_edges)`. Test cases are
    /// materialized from paths lazily — a large model's full case set
    /// does not fit in memory as states.
    pub fn generate_paths(&self, graph: &StateGraph) -> (Vec<Vec<EdgeId>>, usize, usize, usize) {
        // Uncovered edges from a previous campaign steer this one's
        // walk order (stale out-of-range indices are dropped).
        let priority: HashSet<EdgeId> = self
            .config
            .priority_edges
            .iter()
            .filter(|&&e| e < graph.edge_count())
            .map(|&e| EdgeId(e))
            .collect();

        // Plain edge coverage (for the Table 3 comparison).
        let mut plain = TraversalConfig::default().with_priority_edges(priority.clone());
        plain.max_path_len = self.config.max_path_len;
        if let Some(end) = self.config.end_state.clone() {
            plain = plain.with_end_state(move |s| end(s));
        }
        let ec = edge_coverage_paths(graph, &plain);

        let por = partial_order_reduction(graph);
        let por_excluded = por.excluded_edges.len();
        let mut reduced_cfg = TraversalConfig::default()
            .with_excluded_edges(por.excluded_edges)
            .with_priority_edges(priority);
        reduced_cfg.max_path_len = self.config.max_path_len;
        if let Some(end) = self.config.end_state.clone() {
            reduced_cfg = reduced_cfg.with_end_state(move |s| end(s));
        }
        let reduced = edge_coverage_paths(graph, &reduced_cfg);

        let ec_count = ec.paths.len();
        let reduced_count = reduced.paths.len();
        let chosen = if self.config.por { reduced } else { ec };
        // Coverage gauges are set from the *chosen* traversal — the one
        // the summary's `coverage` field must match exactly. Gauges,
        // not counters: re-running generate_paths must not accumulate.
        let m = self.config.obs.metrics();
        m.set_gauge("coverage.edges_visited", chosen.edges_visited as f64);
        m.set_gauge("coverage.edge_targets", chosen.edge_targets as f64);
        m.set_gauge("coverage.fraction", chosen.edge_coverage());
        m.set_gauge("pipeline.paths_ec", ec_count as f64);
        m.set_gauge("pipeline.paths_ec_por", reduced_count as f64);
        m.set_gauge("pipeline.por_excluded_edges", por_excluded as f64);
        // Filter on cheap action-name views; cases are materialized
        // later, one at a time.
        let mut selected: Vec<Vec<EdgeId>> = chosen
            .paths
            .into_iter()
            .filter(|p| !p.is_empty())
            .filter(|p| match &self.config.case_filter {
                None => true,
                Some(filter) => {
                    let names: Vec<&str> = p
                        .iter()
                        .map(|&e| graph.edge(e).action.name.as_str())
                        .collect();
                    filter(&names)
                }
            })
            .collect();
        if self.config.max_test_cases != 0 && selected.len() > self.config.max_test_cases {
            selected.truncate(self.config.max_test_cases);
        }
        (selected, ec_count, reduced_count, por_excluded)
    }

    /// Stage ③ (materialized form, for small models and the examples):
    /// the selected test cases plus `(paths_ec, paths_ec_por,
    /// excluded_edges)`.
    pub fn generate(&self, graph: &StateGraph) -> (Vec<TestCase>, usize, usize, usize) {
        let (paths, ec, ecpor, excl) = self.generate_paths(graph);
        let cases = paths
            .iter()
            .filter_map(|p| TestCase::from_edge_path(graph, p))
            .collect();
        (cases, ec, ecpor, excl)
    }
}
