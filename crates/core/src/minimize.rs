//! Delta-debugging schedule shrinking (failure triage).
//!
//! A confirmed-deterministic failure is only as useful as its
//! reproducer is small. The minimizer shortens a failing [`TestCase`]
//! in two phases:
//!
//! 1. **Drop-suffix** — steps after the failing one never ran, so the
//!    case is truncated right after the divergence.
//! 2. **ddmin over removable steps** — Zeller's delta debugging over
//!    the remaining steps: try removing ever-smaller chunks, keeping a
//!    candidate only if it (a) is still a valid path through the
//!    state-space graph ([`TestCase::validate_against`] — the cheap
//!    feasibility filter that makes the search graph-guided rather
//!    than blind) and (b) still reproduces the same inconsistency
//!    kind according to the caller's oracle.
//!
//! The graph filter matters: removing arbitrary steps from a path
//! almost never yields another path, but cycles (Inc/Dec detours,
//! heartbeat round trips) and commuting segments do drop out, which is
//! where the shrinkage lives. Every candidate the oracle accepts
//! becomes the new baseline, so the result is 1-minimal with respect
//! to the chunks tried within the oracle budget.

use mocket_checker::StateGraph;

use crate::testcase::TestCase;

/// Bounds and counters for one minimization run.
#[derive(Debug, Clone)]
pub struct MinimizeConfig {
    /// Maximum number of oracle invocations (each one deploys a fresh
    /// SUT, so campaigns bound this). 0 disables minimization.
    pub max_oracle_runs: usize,
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        MinimizeConfig {
            max_oracle_runs: 64,
        }
    }
}

/// The outcome of a minimization run.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The smallest reproducing case found (never longer than the
    /// input; equal to the input when nothing could be removed).
    pub case: TestCase,
    /// Oracle invocations spent.
    pub oracle_runs: usize,
    /// Candidates that validated against the graph but did not
    /// reproduce.
    pub rejected: usize,
}

impl Minimized {
    /// Records the run into the observability layer: a
    /// `minimize.done` event (logical timestamp = the original case
    /// length) plus `minimize.*` counters.
    pub fn record_obs(&self, obs: &mocket_obs::Obs, original_len: usize) {
        obs.event(
            "minimize.done",
            original_len as u64,
            vec![
                ("from_len", original_len.into()),
                ("to_len", self.case.len().into()),
                ("oracle_runs", self.oracle_runs.into()),
                ("rejected", self.rejected.into()),
            ],
        );
        let m = obs.metrics();
        m.add("minimize.runs", 1);
        m.add("minimize.oracle_runs", self.oracle_runs as u64);
        m.add("minimize.rejected", self.rejected as u64);
        m.add(
            "minimize.steps_removed",
            original_len.saturating_sub(self.case.len()) as u64,
        );
    }
}

/// Shrinks `case` with graph-validated delta debugging.
///
/// `failing_step` is the 0-based index of the step whose execution or
/// post-check revealed the inconsistency (steps after it never ran);
/// pass `case.len()` when the failure surfaced at test end. `oracle`
/// re-runs a candidate and returns whether it reproduces the same
/// inconsistency kind — it is *not* called for the input case, which
/// the caller already knows fails.
pub fn minimize_case<F>(
    graph: &StateGraph,
    case: &TestCase,
    failing_step: usize,
    config: &MinimizeConfig,
    mut oracle: F,
) -> Minimized
where
    F: FnMut(&TestCase) -> bool,
{
    let mut best = case.clone();
    let mut oracle_runs = 0usize;
    let mut rejected = 0usize;

    let mut try_candidate = |candidate: &TestCase,
                             best: &mut TestCase,
                             oracle_runs: &mut usize,
                             rejected: &mut usize|
     -> bool {
        if candidate.len() >= best.len() || *oracle_runs >= config.max_oracle_runs {
            return false;
        }
        if candidate.validate_against(graph).is_err() {
            return false;
        }
        *oracle_runs += 1;
        if oracle(candidate) {
            *best = candidate.clone();
            true
        } else {
            *rejected += 1;
            false
        }
    };

    // Phase 1: drop the suffix that never executed. The truncation is
    // a prefix of a known-failing run, but the failure could in
    // principle depend on later scheduling context the spec sees at
    // test end (unexpected-action checks), so it goes through the
    // oracle like any other candidate.
    if failing_step + 1 < best.len() {
        let truncated = TestCase {
            initial: best.initial.clone(),
            steps: best.steps[..failing_step + 1].to_vec(),
        };
        try_candidate(&truncated, &mut best, &mut oracle_runs, &mut rejected);
    }

    // Phase 2: ddmin over the remaining steps. Granularity starts at
    // halves and refines toward single steps; any success restarts
    // from the coarsest level on the smaller case.
    let mut chunk = best.len().div_ceil(2).max(1);
    while chunk >= 1 && best.len() > 1 && oracle_runs < config.max_oracle_runs {
        let mut improved = false;
        let mut start = 0;
        while start < best.len() {
            let end = (start + chunk).min(best.len());
            let mut steps = best.steps[..start].to_vec();
            steps.extend_from_slice(&best.steps[end..]);
            if steps.is_empty() {
                start += chunk;
                continue;
            }
            let candidate = TestCase {
                initial: best.initial.clone(),
                steps,
            };
            if try_candidate(&candidate, &mut best, &mut oracle_runs, &mut rejected) {
                // The window shifted under us; rescan this position.
                improved = true;
            } else {
                start += chunk;
            }
            if oracle_runs >= config.max_oracle_runs {
                break;
            }
        }
        if improved {
            chunk = best.len().div_ceil(2).max(1);
        } else if chunk == 1 {
            break;
        } else {
            chunk = (chunk / 2).max(1);
        }
    }

    Minimized {
        case: best,
        oracle_runs,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::{ActionInstance, State, Value};

    fn st(n: i64) -> State {
        State::from_pairs([("n", Value::Int(n))])
    }

    /// A counter graph 0..=3 with Inc and Dec edges: plenty of cycles
    /// for ddmin to remove.
    fn counter_graph() -> StateGraph {
        let mut g = StateGraph::new();
        let ids: Vec<_> = (0..=3).map(|n| g.insert_state(st(n)).0).collect();
        g.mark_initial(ids[0]);
        for n in 0..3usize {
            g.add_edge(ids[n], ActionInstance::nullary("Inc"), ids[n + 1]);
            g.add_edge(ids[n + 1], ActionInstance::nullary("Dec"), ids[n]);
        }
        g
    }

    fn walk(names_and_states: &[(&str, i64)]) -> TestCase {
        TestCase::new(
            st(0),
            names_and_states
                .iter()
                .map(|&(name, n)| (ActionInstance::nullary(name), st(n)))
                .collect(),
        )
    }

    /// Oracle: fails whenever the case ever reaches n == 2.
    fn reaches_two(tc: &TestCase) -> bool {
        tc.steps.iter().any(|s| s.expected == st(2))
    }

    #[test]
    fn detours_are_removed() {
        let g = counter_graph();
        // Inc Inc Dec Dec Inc Inc — reaches 2 at step 1 already; the
        // Dec/Dec/Inc/Inc tail and nothing else should survive... or
        // rather, only a shortest Inc,Inc prefix should.
        let case = walk(&[
            ("Inc", 1),
            ("Inc", 2),
            ("Dec", 1),
            ("Dec", 0),
            ("Inc", 1),
            ("Inc", 2),
        ]);
        let out = minimize_case(&g, &case, 5, &MinimizeConfig::default(), reaches_two);
        assert_eq!(out.case.len(), 2, "{}", out.case);
        assert!(out.case.steps.iter().all(|s| s.action.name == "Inc"));
        assert!(out.case.validate_against(&g).is_ok());
        assert!(reaches_two(&out.case));
    }

    #[test]
    fn failing_suffix_is_dropped_first() {
        let g = counter_graph();
        // Failure observed at step 1; the later detour never ran.
        let case = walk(&[("Inc", 1), ("Inc", 2), ("Dec", 1), ("Inc", 2)]);
        let out = minimize_case(&g, &case, 1, &MinimizeConfig::default(), reaches_two);
        assert_eq!(out.case.len(), 2);
    }

    #[test]
    fn unshrinkable_case_is_returned_unchanged() {
        let g = counter_graph();
        let case = walk(&[("Inc", 1), ("Inc", 2)]);
        let out = minimize_case(&g, &case, 1, &MinimizeConfig::default(), reaches_two);
        assert_eq!(out.case, case);
    }

    #[test]
    fn oracle_budget_is_respected() {
        let g = counter_graph();
        let case = walk(&[
            ("Inc", 1),
            ("Dec", 0),
            ("Inc", 1),
            ("Dec", 0),
            ("Inc", 1),
            ("Inc", 2),
        ]);
        let mut calls = 0usize;
        let cfg = MinimizeConfig { max_oracle_runs: 3 };
        let out = minimize_case(&g, &case, 5, &cfg, |tc| {
            calls += 1;
            reaches_two(tc)
        });
        assert!(calls <= 3, "{calls} oracle calls");
        assert_eq!(out.oracle_runs, calls);
        assert!(out.case.len() <= case.len());
    }

    #[test]
    fn zero_budget_disables_minimization() {
        let g = counter_graph();
        let case = walk(&[("Inc", 1), ("Dec", 0), ("Inc", 1), ("Inc", 2)]);
        let cfg = MinimizeConfig { max_oracle_runs: 0 };
        let out = minimize_case(&g, &case, 3, &cfg, |_| panic!("oracle must not run"));
        assert_eq!(out.case, case);
        assert_eq!(out.oracle_runs, 0);
    }

    #[test]
    fn invalid_candidates_never_reach_the_oracle() {
        let g = counter_graph();
        // Straight climb: removing any interior step breaks the path,
        // so the only graph-valid candidates are prefixes — and the
        // failure is at the very end, so nothing shrinks.
        let case = walk(&[("Inc", 1), ("Inc", 2), ("Inc", 3)]);
        let out = minimize_case(&g, &case, 2, &MinimizeConfig::default(), |tc| {
            assert!(tc.validate_against(&g).is_ok(), "oracle saw invalid case");
            tc.steps.iter().any(|s| s.expected == st(3))
        });
        assert_eq!(out.case, case);
    }
}
