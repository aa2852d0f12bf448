//! Inconsistency and bug reports (§4.3.3).
//!
//! Mocket reports an inconsistency between specification and
//! implementation in three situations: an *inconsistent state*, a
//! *missing action*, or an *unexpected action*. Each report carries
//! the revealing test case; whether it is an implementation bug or a
//! specification bug is a later, human classification.

use std::fmt;
use std::time::Duration;

use mocket_obs::DivergenceExplanation;
use mocket_tla::{ActionInstance, Value};

use crate::testcase::TestCase;

/// One divergence between a runtime state and the expected spec state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableDivergence {
    /// The specification variable that diverged.
    pub variable: String,
    /// The value the specification expects (spec domain).
    pub expected: Value,
    /// The value collected from the implementation, translated into
    /// the spec domain through the constant map (if translatable).
    pub actual: Option<Value>,
}

impl fmt::Display for VariableDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {}, got {}",
            self.variable,
            self.expected,
            match &self.actual {
                Some(v) => v.to_string(),
                None => "<uncollected>".to_string(),
            }
        )
    }
}

/// The three inconsistency kinds of §4.3.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inconsistency {
    /// Collected runtime values differ from the expected state.
    InconsistentState {
        /// Index of the test-case step after which the check failed.
        step: usize,
        /// The action whose post-state diverged.
        action: ActionInstance,
        /// Every diverging variable.
        divergences: Vec<VariableDivergence>,
    },
    /// No notification matching the scheduled action arrived.
    MissingAction {
        /// Index of the unmatched step.
        step: usize,
        /// The scheduled action nobody offered.
        action: ActionInstance,
        /// What the nodes offered instead (for diagnosis).
        offered: Vec<ActionInstance>,
    },
    /// Leftover notifications at test end that the specification does
    /// not enable in the final state.
    UnexpectedAction {
        /// The offending notifications.
        actions: Vec<ActionInstance>,
    },
    /// A node's application code crashed (panicked) while the runner
    /// was driving the test case. The specification never models its
    /// nodes dying on their own, so an involuntary death is a
    /// divergence in its own right — reported instead of tearing the
    /// harness down.
    NodeDeath {
        /// Index of the step being driven when the node died.
        step: usize,
        /// The action being driven.
        action: ActionInstance,
        /// The node that died.
        node: u64,
        /// Panic message or death diagnosis.
        reason: String,
    },
    /// The runner's watchdog gave up on the system under test: a node
    /// stopped answering, or a step blew its wall-clock budget.
    WatchdogTimeout {
        /// Index of the step being driven.
        step: usize,
        /// The action being driven.
        action: ActionInstance,
        /// How long the runner waited.
        waited: Duration,
        /// What the watchdog observed.
        reason: String,
    },
}

impl Inconsistency {
    /// Short classification label, matching Table 2's wording.
    pub fn kind(&self) -> &'static str {
        match self {
            Inconsistency::InconsistentState { .. } => "Inconsistent state",
            Inconsistency::MissingAction { .. } => "Missing action",
            Inconsistency::UnexpectedAction { .. } => "Unexpected action",
            Inconsistency::NodeDeath { .. } => "Node crash",
            Inconsistency::WatchdogTimeout { .. } => "Watchdog timeout",
        }
    }

    /// The index of the step this inconsistency surfaced at, in a case
    /// of `case_len` steps: the step being driven or checked, or
    /// `case_len` for leftovers found at test end. Steps after it never
    /// ran.
    pub fn failing_step(&self, case_len: usize) -> usize {
        match self {
            Inconsistency::InconsistentState { step, .. }
            | Inconsistency::MissingAction { step, .. }
            | Inconsistency::NodeDeath { step, .. }
            | Inconsistency::WatchdogTimeout { step, .. } => *step,
            Inconsistency::UnexpectedAction { .. } => case_len,
        }
    }

    /// Whether the inconsistency reflects the system under test
    /// crashing or stalling (rather than a state/action divergence).
    pub fn is_crash(&self) -> bool {
        matches!(
            self,
            Inconsistency::NodeDeath { .. } | Inconsistency::WatchdogTimeout { .. }
        )
    }

    /// The subject Table 2 prints: the diverging variable or the
    /// missing/unexpected action name.
    pub fn subject(&self) -> String {
        match self {
            Inconsistency::InconsistentState { divergences, .. } => divergences
                .first()
                .map(|d| d.variable.clone())
                .unwrap_or_default(),
            Inconsistency::MissingAction { action, .. } => action.name.clone(),
            Inconsistency::UnexpectedAction { actions } => {
                actions.first().map(|a| a.name.clone()).unwrap_or_default()
            }
            Inconsistency::NodeDeath { node, .. } => format!("node {node}"),
            Inconsistency::WatchdogTimeout { action, .. } => action.name.clone(),
        }
    }
}

impl fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inconsistency::InconsistentState {
                step,
                action,
                divergences,
            } => {
                writeln!(f, "Inconsistent state after step {step} ({action}):")?;
                for d in divergences {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            Inconsistency::MissingAction {
                step,
                action,
                offered,
            } => {
                writeln!(
                    f,
                    "Missing action at step {step}: {action} was never offered."
                )?;
                if offered.is_empty() {
                    writeln!(f, "  (no actions were offered)")
                } else {
                    writeln!(
                        f,
                        "  offered instead: {}",
                        offered
                            .iter()
                            .map(|a| a.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
            Inconsistency::UnexpectedAction { actions } => {
                writeln!(
                    f,
                    "Unexpected action(s) at test end: {}",
                    actions
                        .iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            Inconsistency::NodeDeath {
                step,
                action,
                node,
                reason,
            } => {
                writeln!(
                    f,
                    "Node {node} crashed at step {step} while driving {action}: {reason}"
                )
            }
            Inconsistency::WatchdogTimeout {
                step,
                action,
                waited,
                reason,
            } => {
                writeln!(
                    f,
                    "Watchdog timeout at step {step} ({action}) after {waited:.1?}: {reason}"
                )
            }
        }
    }
}

/// How reliably a failure reproduces when its case is re-run with the
/// identical seed and configuration (failure triage, confirm &
/// classify). A deterministic reproducer is the artifact that
/// matters; a flaky one is reported with its observed repro rate so a
/// human knows how many replay attempts to budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// Never re-run (triage disabled, or `stop_at_first_bug` raced).
    Unconfirmed,
    /// Every confirmation re-run reproduced the same inconsistency
    /// kind.
    Deterministic {
        /// Number of confirming re-runs (>= 1).
        reruns: usize,
    },
    /// At least one re-run diverged; `reproduced` of `reruns` re-runs
    /// hit the same inconsistency kind again.
    Flaky {
        /// Re-runs that reproduced the inconsistency kind.
        reproduced: usize,
        /// Total re-runs performed.
        reruns: usize,
    },
}

impl Determinism {
    /// Whether the failure reproduced on every re-run.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Determinism::Deterministic { .. })
    }

    /// The classification without its counts: the label journal
    /// lines, artifacts and the `bugs_by_determinism` tallies carry.
    pub fn label(&self) -> &'static str {
        match self {
            Determinism::Unconfirmed => "unconfirmed",
            Determinism::Deterministic { .. } => "deterministic",
            Determinism::Flaky { .. } => "flaky",
        }
    }
}

impl fmt::Display for Determinism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())?;
        match self {
            Determinism::Unconfirmed => Ok(()),
            Determinism::Deterministic { reruns } => write!(f, " ({reruns}/{reruns} re-runs)"),
            Determinism::Flaky { reproduced, reruns } => {
                write!(f, " ({reproduced}/{reruns} re-runs)")
            }
        }
    }
}

/// A full bug report: the inconsistency plus its revealing test case.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// The detected inconsistency.
    pub inconsistency: Inconsistency,
    /// The test case whose controlled execution revealed it.
    pub test_case: TestCase,
    /// Number of actions executed before the divergence (Table 2's
    /// `# Actions` column counts the whole revealing test case).
    pub actions_executed: usize,
    /// Wall-clock testing time elapsed when the report was produced.
    pub elapsed: Duration,
    /// How reliably the failure reproduced on confirmation re-runs.
    pub determinism: Determinism,
    /// The delta-debugged reproducer, when triage minimized the
    /// revealing case (never longer than `test_case`).
    pub minimized: Option<TestCase>,
    /// The insight layer's divergence explanation: executed prefix,
    /// per-variable structured diff, and the nearest-verified-state
    /// verdict (see [`crate::explain`]). Present for inconsistent
    /// states and unexpected actions when the case validates against
    /// the graph.
    pub explanation: Option<DivergenceExplanation>,
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Bug report ({}, {} actions, {:.1?}) ===",
            self.inconsistency.kind(),
            self.test_case.len(),
            self.elapsed
        )?;
        write!(f, "{}", self.inconsistency)?;
        if self.determinism != Determinism::Unconfirmed {
            writeln!(f, "Reproducibility: {}", self.determinism)?;
        }
        writeln!(f, "Revealing test case:")?;
        write!(f, "{}", self.test_case)?;
        if let Some(min) = &self.minimized {
            writeln!(
                f,
                "Minimized reproducer ({} of {} actions):",
                min.len(),
                self.test_case.len()
            )?;
            write!(f, "{min}")?;
        }
        if let Some(explanation) = &self.explanation {
            writeln!(f, "Explanation:")?;
            write!(f, "{explanation}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::State;

    #[test]
    fn kind_and_subject() {
        let inc = Inconsistency::InconsistentState {
            step: 3,
            action: ActionInstance::nullary("BecomeLeader"),
            divergences: vec![VariableDivergence {
                variable: "votesGranted".into(),
                expected: Value::set([Value::Int(1)]),
                actual: Some(Value::Int(3)),
            }],
        };
        assert_eq!(inc.kind(), "Inconsistent state");
        assert_eq!(inc.subject(), "votesGranted");

        let inc = Inconsistency::MissingAction {
            step: 0,
            action: ActionInstance::nullary("StartElection"),
            offered: vec![],
        };
        assert_eq!(inc.kind(), "Missing action");
        assert_eq!(inc.subject(), "StartElection");

        let inc = Inconsistency::UnexpectedAction {
            actions: vec![ActionInstance::nullary("HandleRequestVoteResponse")],
        };
        assert_eq!(inc.kind(), "Unexpected action");
        assert_eq!(inc.subject(), "HandleRequestVoteResponse");
    }

    #[test]
    fn failing_step_is_the_step_or_the_test_end() {
        let action = ActionInstance::nullary("Step");
        let cases = [
            Inconsistency::InconsistentState {
                step: 2,
                action: action.clone(),
                divergences: vec![],
            },
            Inconsistency::MissingAction {
                step: 2,
                action: action.clone(),
                offered: vec![],
            },
            Inconsistency::NodeDeath {
                step: 2,
                action: action.clone(),
                node: 1,
                reason: "panic".into(),
            },
            Inconsistency::WatchdogTimeout {
                step: 2,
                action: action.clone(),
                waited: Duration::from_secs(1),
                reason: "hung".into(),
            },
        ];
        for inc in &cases {
            assert_eq!(inc.failing_step(5), 2, "{}", inc.kind());
        }
        let unexpected = Inconsistency::UnexpectedAction {
            actions: vec![action],
        };
        assert_eq!(unexpected.failing_step(5), 5);
    }

    #[test]
    fn display_mentions_divergence() {
        let inc = Inconsistency::InconsistentState {
            step: 1,
            action: ActionInstance::nullary("Restart"),
            divergences: vec![VariableDivergence {
                variable: "votedFor".into(),
                expected: Value::Int(1),
                actual: Some(Value::Nil),
            }],
        };
        let text = inc.to_string();
        assert!(text.contains("votedFor: expected 1, got Nil"));
    }

    #[test]
    fn report_display_includes_test_case() {
        let tc = TestCase::new(
            State::from_pairs([("n", Value::Int(0))]),
            vec![(
                ActionInstance::nullary("Inc"),
                State::from_pairs([("n", Value::Int(1))]),
            )],
        );
        let report = BugReport {
            inconsistency: Inconsistency::UnexpectedAction {
                actions: vec![ActionInstance::nullary("Inc")],
            },
            test_case: tc,
            actions_executed: 1,
            elapsed: Duration::from_millis(5),
            determinism: Determinism::Deterministic { reruns: 2 },
            minimized: None,
            explanation: Some(DivergenceExplanation {
                step: 1,
                action: "unexpected Inc".into(),
                prefix: vec!["Inc".into()],
                diffs: vec![],
                verdict: mocket_obs::NearestVerdict::NoneWithin {
                    radius: 3,
                    searched: 2,
                },
            }),
        };
        let text = report.to_string();
        assert!(text.contains("Unexpected action"));
        assert!(text.contains("Inc"));
        assert!(text.contains("deterministic (2/2 re-runs)"));
        assert!(text.contains("Explanation:"));
        assert!(text.contains("no verified state within distance 3"));
    }

    #[test]
    fn determinism_labels() {
        assert_eq!(Determinism::Unconfirmed.to_string(), "unconfirmed");
        assert!(Determinism::Deterministic { reruns: 1 }.is_deterministic());
        let flaky = Determinism::Flaky {
            reproduced: 1,
            reruns: 4,
        };
        assert!(!flaky.is_deterministic());
        assert_eq!(flaky.to_string(), "flaky (1/4 re-runs)");
    }
}
