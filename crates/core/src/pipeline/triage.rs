//! Failure triage: explain, confirm & classify, shrink, persist.
//!
//! A failed case is not yet a finding. [`Pipeline::dispose_failure`]
//! asks the insight layer where the implementation went, re-runs the
//! case to classify it deterministic or flaky, delta-debugs
//! deterministic failures down to a minimal reproducer, writes the
//! replay artifact, journals the verdict and files the [`BugReport`].

use mocket_checker::StateGraph;
use mocket_obs::causal::{CausalEvent, Tracer};
use mocket_tla::ActionInstance;

use crate::artifact::{CaseOutcome, JournalEntry, ReplayArtifact};
use crate::explain::explain_failure;
use crate::minimize::minimize_case;
use crate::report::{BugClass, BugReport, Determinism, Inconsistency};
use crate::runner::{run_test_case, RunCtx, RunStats, TestOutcome};
use crate::sut::SystemUnderTest;
use crate::testcase::TestCase;

use super::cases::{Case, Window};
use super::outputs::count_bug;
use super::Pipeline;

impl Pipeline {
    /// Everything that follows a failed verdict on `case`, in the
    /// order the events and files have always been produced.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn dispose_failure<F>(
        &self,
        w: &mut Window<'_>,
        case: &Case<'_>,
        attempt: usize,
        inconsistency: Inconsistency,
        stats: &RunStats,
        trace: &[CausalEvent],
        make_sut: &mut F,
    ) where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let obs = &self.config.obs;
        let graph = w.graph;
        self.verdict(
            case.idx,
            "failed",
            vec![
                ("attempt", attempt.into()),
                ("kind", inconsistency.kind().into()),
                ("step", stats.actions_executed.into()),
            ],
        );
        obs.metrics().add("pipeline.cases_failed", 1);
        w.cover(case.path);
        self.progress(format_args!(
            "case {}/{}: FAILED ({})",
            case.idx + 1,
            w.run.cases_selected,
            inconsistency.kind()
        ));
        // Insight layer: where did the implementation actually go?
        let explanation = explain_failure(
            graph,
            &self.registry,
            &case.tc,
            &inconsistency,
            stats.actions_executed,
            &self.config.explain,
        );
        // Confirm & classify, then shrink deterministic failures.
        let (determinism, minimized) = self.triage_failure(
            graph,
            &case.tc,
            &inconsistency,
            &case.final_enabled,
            make_sut,
        );
        // Persist a self-contained replay artifact for the reproducer.
        if let Some(dir) = &self.config.triage.campaign_dir {
            let repro = minimized.clone().unwrap_or_else(|| case.tc.clone());
            let repro_enabled = minimized
                .as_ref()
                .and_then(|min| min.validate_against(graph).ok())
                .and_then(|nodes| nodes.last().copied())
                .map(|n| graph.enabled_at(n).into_iter().cloned().collect())
                .unwrap_or_else(|| case.final_enabled.clone());
            let artifact = ReplayArtifact::from_failure(
                self.spec.name(),
                self.config.triage.spec_config.clone(),
                &inconsistency,
                determinism,
                &self.config.run,
                case.tc.len(),
                repro_enabled,
                explanation.clone(),
                repro,
            )
            .with_trace(trace.iter().map(CausalEvent::to_json_line).collect());
            match artifact.write_to(dir) {
                Ok(path) => {
                    obs.metrics().add("pipeline.artifacts_written", 1);
                    w.result.artifacts.push(path)
                }
                Err(e) => w.run.issues.push(format!("artifact write failed: {e}")),
            }
        }
        w.journal_verdict(JournalEntry {
            hash: case.hash.clone(),
            attempts: attempt,
            determinism: Some(determinism.label().to_string()),
            outcome: CaseOutcome::Failed {
                kind: inconsistency.kind().to_string(),
            },
        });
        count_bug(&mut w.run.bugs, inconsistency.kind(), determinism.label());
        w.result.reports.push(BugReport {
            inconsistency,
            test_case: case.tc.clone(),
            actions_executed: stats.actions_executed,
            elapsed: self.config.clock.now().saturating_sub(w.run.test_start),
            attempt,
            determinism,
            minimized,
            explanation,
            class: BugClass::Unclassified,
        });
    }

    /// Confirm & classify a failure, then shrink it if deterministic.
    ///
    /// Re-runs the revealing case with the identical configuration —
    /// `make_sut` rebuilds the same environment (same fault seed, same
    /// cluster) every call, which is exactly what makes confirmation
    /// meaningful. The first re-run decides the classification: same
    /// inconsistency kind again means deterministic; anything else
    /// means flaky, and the remaining re-run budget measures the repro
    /// rate. Only deterministic failures are worth the oracle cost of
    /// delta debugging.
    fn triage_failure<F>(
        &self,
        graph: &StateGraph,
        tc: &TestCase,
        inconsistency: &Inconsistency,
        final_enabled: &[ActionInstance],
        make_sut: &mut F,
    ) -> (Determinism, Option<TestCase>)
    where
        F: FnMut() -> Box<dyn SystemUnderTest>,
    {
        let triage = &self.config.triage;
        if !triage.confirm {
            return (Determinism::Unconfirmed, None);
        }
        let kind = inconsistency.kind();
        // One re-run = one fresh deployment driven through the same
        // schedule; a harness error during triage counts as "did not
        // reproduce" rather than aborting the campaign.
        let obs = &self.config.obs;
        let ctx = RunCtx {
            clock: self.config.clock.clone(),
            obs: obs.clone(),
            tracer: Tracer::disabled(),
        };
        let mut rerun = |case: &TestCase, enabled: &[ActionInstance]| -> bool {
            obs.metrics().add("pipeline.triage_reruns", 1);
            matches!(
                run_test_case(
                    make_sut(),
                    case,
                    &self.registry,
                    enabled,
                    &self.config.run,
                    &ctx,
                ),
                Ok((TestOutcome::Failed(inc), _)) if inc.kind() == kind
            )
        };

        let determinism = if rerun(tc, final_enabled) {
            Determinism::Deterministic { reruns: 1 }
        } else {
            let reruns = triage.flaky_reruns.max(1);
            let mut reproduced = 0usize;
            for _ in 1..reruns {
                if rerun(tc, final_enabled) {
                    reproduced += 1;
                }
            }
            Determinism::Flaky { reproduced, reruns }
        };

        let minimized = if determinism.is_deterministic() && triage.minimize.max_oracle_runs > 0 {
            let failing_step = match inconsistency {
                Inconsistency::InconsistentState { step, .. }
                | Inconsistency::MissingAction { step, .. }
                | Inconsistency::NodeDeath { step, .. }
                | Inconsistency::WatchdogTimeout { step, .. } => *step,
                Inconsistency::UnexpectedAction { .. } => tc.len(),
            };
            let out = minimize_case(graph, tc, failing_step, &triage.minimize, |candidate| {
                // Each candidate is graph-valid (the minimizer filters
                // first), so its own final-enabled set comes straight
                // from the graph.
                let Ok(nodes) = candidate.validate_against(graph) else {
                    return false;
                };
                let Some(&last) = nodes.last() else {
                    return false;
                };
                let enabled: Vec<ActionInstance> =
                    graph.enabled_at(last).into_iter().cloned().collect();
                rerun(candidate, &enabled)
            });
            out.record_obs(obs, tc.len());
            (out.case.len() < tc.len()).then_some(out.case)
        } else {
            None
        };
        (determinism, minimized)
    }
}
