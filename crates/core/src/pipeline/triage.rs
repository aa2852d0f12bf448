//! Failure triage: explain, confirm & classify, shrink, persist.
//!
//! A failed case is not yet a finding. [`Pipeline::dispose_failure`]
//! asks the insight layer where the implementation went, re-runs the
//! case to classify it deterministic or flaky, delta-debugs
//! deterministic failures down to a minimal reproducer, writes the
//! replay artifact, journals the verdict and files the [`BugReport`].
//!
//! A window triages each [`FailureKey`] once: a later case that fails
//! the same way at the same key reuses the first one's explanation,
//! classification and reproducer. Flaky failures and watchdog
//! timeouts are real-time or nondeterministic evidence and are always
//! triaged on their own. An artifact is written by the first case
//! whose reproducer it names.

use mocket_checker::{EdgeId, StateGraph};
use mocket_obs::causal::{CausalEvent, Tracer};
use mocket_obs::DivergenceExplanation;
use mocket_tla::ActionInstance;

use crate::artifact::{CaseOutcome, JournalEntry, ReplayArtifact};
use crate::explain::{explain_failure, ExplainConfig};
use crate::minimize::minimize_case;
use crate::report::{BugReport, Determinism, Inconsistency};
use crate::runner::{run_test_case, RunCtx, RunStats, TestOutcome};
use crate::sut::SystemUnderTest;
use crate::testcase::TestCase;

use super::cases::{Case, Window};
use super::outputs::count_bug;
use super::Pipeline;

/// Total re-runs used to measure the repro rate of a failure whose
/// first confirmation re-run diverged.
pub(super) const FLAKY_RERUNS: usize = 3;

/// What a failure's triage depends on besides its inconsistency: the
/// edge path through the failing step `k` (the whole path for a
/// failure at the final check, which also reads the final state's
/// enabled actions), and whether the case runs past step `k + 1` —
/// only then does shrinking spend an oracle run on truncation. On the
/// seeded clock a failure at step `k` depends on nothing past it.
pub(super) type FailureKey = (Vec<EdgeId>, bool);

/// The key of `inconsistency` on the case with the non-empty edge path
/// `path`.
pub(super) fn failure_key(path: &[EdgeId], inconsistency: &Inconsistency) -> FailureKey {
    let len = path.len();
    let k = inconsistency.failing_step(len);
    (path[..=k.min(len - 1)].to_vec(), len > k + 1)
}

/// One failure's triage, shared by every case of the window with the
/// same key and an equal inconsistency.
#[derive(Clone)]
pub(super) struct Triaged {
    inconsistency: Inconsistency,
    explanation: Option<DivergenceExplanation>,
    determinism: Determinism,
    minimized: Option<TestCase>,
}

impl Pipeline {
    /// Everything that follows a failed verdict on `case`, in the
    /// order the events and files have always been produced.
    pub(super) fn dispose_failure<F>(
        &self,
        w: &mut Window<'_>,
        case: &Case<'_>,
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
                ("attempt", 1usize.into()),
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
        let key = failure_key(case.path, &inconsistency);
        let triaged = match w.triaged.get(&key) {
            Some(t) if t.inconsistency == inconsistency => {
                obs.metrics().add("pipeline.triage_reused", 1);
                t.clone()
            }
            _ => {
                // Insight layer: where did the implementation actually go?
                let explanation = explain_failure(
                    graph,
                    &self.registry,
                    &case.tc,
                    &inconsistency,
                    stats.actions_executed,
                    &ExplainConfig::default(),
                );
                // Confirm & classify, then shrink deterministic failures.
                let (determinism, minimized) = self.triage_failure(
                    graph,
                    &case.tc,
                    &inconsistency,
                    &case.final_enabled,
                    make_sut,
                );
                let t = Triaged {
                    inconsistency,
                    explanation,
                    determinism,
                    minimized,
                };
                let per_case_evidence = matches!(t.determinism, Determinism::Flaky { .. })
                    || matches!(t.inconsistency, Inconsistency::WatchdogTimeout { .. });
                if !per_case_evidence {
                    w.triaged.insert(key, t.clone());
                }
                t
            }
        };
        if let Some(dir) = &self.config.triage.campaign_dir {
            self.write_artifact(w, dir, case, &triaged, trace);
        }
        w.journal_verdict(JournalEntry {
            hash: case.hash.clone(),
            attempts: 1,
            determinism: Some(triaged.determinism.label().to_string()),
            outcome: CaseOutcome::Failed {
                kind: triaged.inconsistency.kind().to_string(),
            },
        });
        count_bug(
            &mut w.run.bugs,
            triaged.inconsistency.kind(),
            triaged.determinism.label(),
        );
        w.result.reports.push(BugReport {
            inconsistency: triaged.inconsistency,
            test_case: case.tc.clone(),
            actions_executed: stats.actions_executed,
            elapsed: self.config.clock.now().saturating_sub(w.run.test_start),
            determinism: triaged.determinism,
            minimized: triaged.minimized,
            explanation: triaged.explanation,
        });
    }

    /// Persists a self-contained replay artifact for the reproducer of
    /// `case`'s failure, unless the file is already on disk: the first
    /// case whose reproducer it names writes it, in this window or in
    /// an earlier run over the same directory.
    fn write_artifact(
        &self,
        w: &mut Window<'_>,
        dir: &std::path::Path,
        case: &Case<'_>,
        triaged: &Triaged,
        trace: &[CausalEvent],
    ) {
        let graph = w.graph;
        let hash = match &triaged.minimized {
            Some(min) => min.stable_hash(),
            None => case.hash.clone(),
        };
        if dir.join(ReplayArtifact::file_name_of(&hash)).exists() {
            return;
        }
        let repro = triaged.minimized.clone().unwrap_or_else(|| case.tc.clone());
        let repro_enabled = triaged
            .minimized
            .as_ref()
            .and_then(|min| min.validate_against(graph).ok())
            .and_then(|nodes| nodes.last().copied())
            .map(|n| graph.enabled_at(n).into_iter().cloned().collect())
            .unwrap_or_else(|| case.final_enabled.clone());
        let artifact = ReplayArtifact::from_failure(
            self.spec.name(),
            self.config.triage.spec_config.clone(),
            &triaged.inconsistency,
            triaged.determinism,
            &self.config.run,
            case.tc.len(),
            repro_enabled,
            triaged.explanation.clone(),
            repro,
        )
        .with_trace(trace.iter().map(CausalEvent::to_json_line).collect());
        match artifact.write_to(dir) {
            Ok(path) => {
                let metrics = self.config.obs.metrics();
                metrics.add("pipeline.artifacts_written", 1);
                w.result.artifacts.push(path)
            }
            Err(e) => w.run.issues.push(format!("artifact write failed: {e}")),
        }
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
            tracer: Tracer::disabled(),
        };
        let mut rerun = |case: &TestCase, enabled: &[ActionInstance]| -> bool {
            obs.metrics().add("pipeline.triage_reruns", 1);
            let (outcome, stats) =
                run_test_case(make_sut(), case, &self.registry, enabled, &self.config.run, &ctx);
            self.record_tally(&stats);
            matches!(outcome, Ok(TestOutcome::Failed(inc)) if inc.kind() == kind)
        };

        let determinism = if rerun(tc, final_enabled) {
            Determinism::Deterministic { reruns: 1 }
        } else {
            let reproduced = (1..FLAKY_RERUNS).filter(|_| rerun(tc, final_enabled)).count();
            Determinism::Flaky {
                reproduced,
                reruns: FLAKY_RERUNS,
            }
        };

        let minimized = if determinism.is_deterministic() && triage.minimize.max_oracle_runs > 0 {
            let failing_step = inconsistency.failing_step(tc.len());
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
