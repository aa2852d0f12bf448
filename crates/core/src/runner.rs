//! Controlled testing of a single test case (§4.3.2, Figure 7).
//!
//! The runner deploys a fresh cluster and optionally checks the initial
//! state — or starts from a [`ResumePoint`], a copy of the deployment
//! another case left after the steps the two share — then walks the
//! rest of the test case: external faults and user requests
//! are triggered by the testbed, every other action must be offered
//! by a blocked node and is released on match. After each action the
//! state checker compares runtime values with the verified state; at
//! the end leftover offers are classified against the actions the
//! specification enables in the final state.
//!
//! The runner writes no metric. Each run tallies what it did in its
//! [`RunStats`] — actions released, external triggers, offer polls,
//! state checks and their divergences — and hands the tally back however
//! the case ends; the caller records it. The case thread writes nothing
//! shared but its tracer.
//!
//! A passing step copies nothing on the harness side: the scheduled
//! action is matched against the raw offers and the matched offer is
//! taken out of the batch, not cloned; reported messages enter the pools
//! untranslated unless a mapped constant is inside them; and the state
//! check compares through the constant map's borrowed view. Owned
//! spec-domain values are built only for a report — a divergence, a
//! missing action's offered set, the final unexpected offers.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use mocket_obs::causal::{TraceMark, Tracer};
use mocket_sim::{Clock, RealClock};
use mocket_tla::{ActionClass, ActionInstance, State};

use crate::mapping::{MappingRegistry, VarTarget};
use crate::msgpool::{MessagePools, PoolError};
use crate::report::{Inconsistency, VariableDivergence};
use crate::scheduler::{find_match, offered_actions, translate_offers, unexpected_offers};
use crate::statecheck::check_state;
use crate::sut::{ExecReport, MsgEvent, Offer, SutError, SystemUnderTest};
use crate::testcase::TestCase;
use crate::watchdog::{self, on_case_thread};

/// Runner configuration.
///
/// The runner polls offers once per step: a node's offers are a pure
/// read of the deployment, in which every sent message already waits
/// in its inbox, so a scheduled action that is not offered now never
/// will be and is a missing action. The
/// [`per_action_budget`](Self::per_action_budget) bounds each step
/// end-to-end; blowing it is reported as a watchdog-timeout
/// inconsistency rather than an opaque hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Check the verified initial state before the first action
    /// (§4.3.1 adds `checkAllStates` for the first scheduled action).
    pub check_initial: bool,
    /// Budget for one step end-to-end (offer matching, execution,
    /// state check) on the run's clock, and the real time one call
    /// into the system under test may take before the case is
    /// abandoned. Exceeding either fails the test case with
    /// [`Inconsistency::WatchdogTimeout`].
    pub per_action_budget: Duration,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            check_initial: true,
            per_action_budget: Duration::from_secs(10),
        }
    }
}

impl RunConfig {
    /// A configuration for in-process targets: a shorter budget, so a
    /// hung case fails fast.
    pub fn fast() -> Self {
        RunConfig {
            check_initial: true,
            per_action_budget: Duration::from_secs(5),
        }
    }
}

/// Outcome of one controlled run.
#[derive(Debug, Clone)]
pub enum TestOutcome {
    /// Execution and all state checks matched the specification.
    Passed,
    /// A divergence was found.
    Failed(Inconsistency),
}

impl TestOutcome {
    /// Whether the run passed.
    pub fn passed(&self) -> bool {
        matches!(self, TestOutcome::Passed)
    }
}

/// The tally of one controlled run: what the case did, counted as it
/// happened, each count under the metric name the caller records it as.
/// A resumed case starts from its prefix's tally, so it counts what the
/// fresh run of the same case counts. A hung case returns only its
/// executed actions and its seconds.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Actions actually executed (scheduled and matched).
    pub actions_executed: usize,
    /// `runner.actions_released`: offers released, before they execute.
    pub actions_released: usize,
    /// `runner.external_triggers`: faults and requests, before they run.
    pub external_triggers: usize,
    /// `runner.missing_actions`: scheduled actions nobody offered.
    pub missing_actions: usize,
    /// `runner.offer_polls`: one poll per scheduled offered action.
    pub offer_polls: usize,
    /// `scheduler.offers_translated`: offers of every poll, the final one's too.
    pub offers_translated: usize,
    /// `scheduler.unmapped_offers`: of those, offers no mapping names.
    pub unmapped_offers: usize,
    /// `scheduler.unexpected_offers`: final leftovers the spec does not enable.
    pub unexpected_offers: usize,
    /// `statecheck.checks`: state checks performed.
    pub checks: usize,
    /// `statecheck.divergences`: diverged variables over every check.
    pub divergences: usize,
    /// The case's duration in seconds on the run's clock: virtual time
    /// under simulation, and a resumed case's includes its prefix's.
    pub seconds: f64,
}

impl RunStats {
    /// Counts the offers of one poll.
    fn count_offers(&mut self, registry: &MappingRegistry, offers: &[Offer]) {
        self.offers_translated += offers.len();
        self.unmapped_offers += offers
            .iter()
            .filter(|o| registry.action_by_impl_name(&o.action.name).is_none())
            .count();
    }
}

/// Builds fresh message pools from the registry's message-related
/// variable mappings.
pub fn pools_from_registry(registry: &MappingRegistry) -> MessagePools {
    let mut pools = MessagePools::new();
    for vm in registry.variables() {
        if let Some(VarTarget::MessagePool { pool, bag }) = &vm.target {
            pools.register(pool.clone(), *bag);
        }
    }
    pools
}

/// The ambient services of one controlled run.
///
/// The default is a plain run: wall clock, no causal trace. The run's
/// counts come back in its [`RunStats`], not through a shared registry.
#[derive(Clone)]
pub struct RunCtx {
    /// Every measured duration — per-action budget,
    /// [`RunStats::seconds`] — counts this clock's time. With a
    /// `SimClock` a hung step is charged exactly the budget and the
    /// run's timings are byte-reproducible.
    pub clock: Arc<dyn Clock>,
    /// Installed on the SUT before deployment (so cluster and network
    /// events reach it); every scheduler release and external trigger
    /// is recorded with its step context, and the caller drains the
    /// events afterwards.
    pub tracer: Tracer,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            clock: Arc::new(RealClock::new()),
            tracer: Tracer::disabled(),
        }
    }
}

/// A case's progress through its steps: what the checks compare
/// against and what the run has tallied.
#[derive(Clone)]
struct Progress {
    /// Steps that passed their checks.
    depth: usize,
    pools: MessagePools,
    stats: RunStats,
}

/// The state of a case after its first steps passed their checks: a
/// copy of the deployment, the message pools, the tallies, the time the
/// case had spent and where its trace stood. A later case that shares
/// those steps resumes here instead of running them again on a fresh
/// deployment.
pub struct ResumePoint {
    progress: Box<Progress>,
    /// Carries the disabled tracer, so dropping it records nothing.
    sut: Box<dyn SystemUnderTest>,
    /// How much time the case had spent here, on the run's clock.
    spent: Duration,
    trace: TraceMark,
}

impl ResumePoint {
    /// A copy to resume a case from, or `None` when the deployment no
    /// longer forks. A case runs on a copy, so the point stays as it
    /// is for the next case.
    pub fn copy(&self) -> Option<ResumePoint> {
        Some(ResumePoint {
            progress: self.progress.clone(),
            sut: self.sut.fork()?,
            spent: self.spent,
            trace: self.trace.clone(),
        })
    }

    /// Where the trace of the case that made this point stood here: a
    /// case resumed from it continues that trace from this mark
    /// ([`Tracer::resume_from`]).
    pub fn trace_mark(&self) -> &TraceMark {
        &self.trace
    }
}

/// Where a case starts.
pub enum CaseStart {
    /// A fresh system, which the runner deploys.
    Fresh(Box<dyn SystemUnderTest>),
    /// A copy of a [`ResumePoint`] along the case's own path.
    Resume(ResumePoint),
}

/// Runs one test case against a fresh deployment of the system under
/// test.
///
/// `final_enabled` lists the action instances the specification
/// enables in the test case's final state (read from the state-space
/// graph); leftover offers outside this set are unexpected actions.
///
/// Deploy, drive and teardown run on one case thread that owns `sut`
/// ([`watchdog`]). A call into the system that outlives
/// [`RunConfig::per_action_budget`] of real time abandons the thread
/// with the system and fails the case with
/// [`Inconsistency::WatchdogTimeout`].
///
/// The verdict, or the harness error that ended the case, comes back
/// with the case's tally either way.
pub fn run_test_case(
    sut: Box<dyn SystemUnderTest>,
    test_case: &TestCase,
    registry: &Arc<MappingRegistry>,
    final_enabled: &[ActionInstance],
    config: &RunConfig,
    ctx: &RunCtx,
) -> (Result<TestOutcome, SutError>, RunStats) {
    let start = CaseStart::Fresh(sut);
    let (outcome, stats, _) = run_from(start, test_case, registry, final_enabled, config, ctx, false);
    (outcome, stats)
}

/// Runs one test case from `start` — a fresh deployment or a resume
/// point on its path — and returns a [`ResumePoint`] after each step it
/// ran that passed, while the system can fork.
///
/// A resumed case is the fresh run of the same case with its first
/// steps already done: on a virtual clock the prefix's recorded time is
/// charged before the case goes on, so its later trace events land
/// where the fresh run's do; the caller has already continued its
/// trace from the point's [`trace_mark`](ResumePoint::trace_mark); and
/// the case's tally starts from the point's, so its [`RunStats`] are
/// the fresh run's, offer polls included. A case that fails returns the
/// points of the steps that passed before; a hung case returns none.
pub fn resume_test_case(
    start: CaseStart,
    test_case: &TestCase,
    registry: &Arc<MappingRegistry>,
    final_enabled: &[ActionInstance],
    config: &RunConfig,
    ctx: &RunCtx,
) -> (Result<TestOutcome, SutError>, RunStats, Vec<ResumePoint>) {
    run_from(start, test_case, registry, final_enabled, config, ctx, true)
}

/// The one case loop behind [`run_test_case`] and
/// [`resume_test_case`]; `keep` asks for resume points.
fn run_from(
    start: CaseStart,
    test_case: &TestCase,
    registry: &Arc<MappingRegistry>,
    final_enabled: &[ActionInstance],
    config: &RunConfig,
    ctx: &RunCtx,
    keep: bool,
) -> (Result<TestOutcome, SutError>, RunStats, Vec<ResumePoint>) {
    let clock = ctx.clock.as_ref();
    let started = clock.now();
    let (sut, progress, fresh) = match start {
        CaseStart::Fresh(sut) => {
            let progress = Progress {
                depth: 0,
                pools: pools_from_registry(registry),
                stats: RunStats::default(),
            };
            (sut, progress, true)
        }
        CaseStart::Resume(point) => {
            clock.charge(point.spent);
            (point.sut, *point.progress, false)
        }
    };
    let (tc, reg, enabled) = (test_case.clone(), Arc::clone(registry), final_enabled.to_vec());
    let (cfg, run_ctx) = (config.clone(), ctx.clone());
    let ran = on_case_thread(sut, config.per_action_budget, move |sut| {
        let mut case = Case {
            progress,
            started,
            points: keep.then(Vec::new),
        };
        watchdog::at(None, started);
        sut.install_tracer(&run_ctx.tracer);
        let deployed = if fresh { watchdog::guard(None, || sut.deploy()) } else { Ok(()) };
        let result = deployed.and_then(|()| {
            let result = drive(sut, &tc, &reg, &enabled, &cfg, &mut case, &run_ctx);
            watchdog::guard(None, || sut.teardown());
            result
        });
        let mut stats = case.progress.stats;
        stats.seconds = run_ctx.clock.now().saturating_sub(started).as_secs_f64();
        (result, stats, case.points.unwrap_or_default())
    });
    let hung = match ran {
        Ok((ran, _)) => return ran,
        Err(hung) => hung,
    };
    // The abandoned call burned its budget in real time while a virtual
    // clock stood still: charging it exactly the budget lands the
    // verdict at a deterministic virtual deadline.
    clock.charge(config.per_action_budget);
    ctx.tracer.close_step();
    let action = match hung.step {
        None => ActionInstance::nullary("<Init>"),
        Some(i) => match test_case.steps.get(i) {
            Some(step) => step.action.clone(),
            None => ActionInstance::nullary("<Final>"),
        },
    };
    let inc = Inconsistency::WatchdogTimeout {
        step: hung.step.unwrap_or(0),
        action,
        waited: clock.now().saturating_sub(hung.step_start),
        reason: hung.node.map_or("unresponsive".into(), |n| format!("node {n}: unresponsive")),
    };
    let stats = RunStats {
        // Every step before the hung one executed its action.
        actions_executed: hung.step.map_or(0, |i| i.min(test_case.steps.len())),
        seconds: clock.now().saturating_sub(started).as_secs_f64(),
        ..RunStats::default()
    };
    (Ok(TestOutcome::Failed(inc)), stats, Vec::new())
}

/// One case on its case thread: its progress, when it started on the
/// run's clock, and the resume points it makes (`None`: it makes none,
/// or the system stopped forking).
struct Case {
    progress: Progress,
    started: Duration,
    points: Option<Vec<ResumePoint>>,
}

impl Case {
    /// Records a resume point after a step passed; a system that does
    /// not fork ends the recording for the rest of the case.
    fn keep_point(&mut self, sut: &dyn SystemUnderTest, ctx: &RunCtx) {
        let Some(points) = self.points.as_mut() else {
            return;
        };
        let Some(mut copy) = sut.fork() else {
            self.points = None;
            return;
        };
        copy.install_tracer(&Tracer::disabled());
        points.push(ResumePoint {
            progress: Box::new(self.progress.clone()),
            sut: copy,
            spent: ctx.clock.now().saturating_sub(self.started),
            trace: ctx.tracer.mark(),
        });
    }
}

/// How a SUT error during a driven step is handled.
enum Classified {
    /// The system under test is at fault: report as an inconsistency.
    Fail(Inconsistency),
    /// Harness-side trouble: propagate (the pipeline quarantines the
    /// case).
    Harness(SutError),
}

/// Node deaths and node failures mid-run are divergences in the
/// system under test (a specification never models its nodes dying
/// or hanging on their own); everything else is harness trouble.
fn classify_sut_error(
    err: SutError,
    step: usize,
    action: &ActionInstance,
    waited: Duration,
) -> Classified {
    match err {
        SutError::NodeDeath { node, reason } => Classified::Fail(Inconsistency::NodeDeath {
            step,
            action: action.clone(),
            node,
            reason,
        }),
        SutError::NodeFailure { node, message } => {
            Classified::Fail(Inconsistency::WatchdogTimeout {
                step,
                action: action.clone(),
                waited,
                reason: format!("node {node}: {message}"),
            })
        }
        other => Classified::Harness(other),
    }
}

/// Drives `test_case` from the step `case` has reached: the initial
/// check on a fresh deployment, every step left, the final offers.
fn drive(
    sut: &mut dyn SystemUnderTest,
    test_case: &TestCase,
    registry: &MappingRegistry,
    final_enabled: &[ActionInstance],
    config: &RunConfig,
    case: &mut Case,
    ctx: &RunCtx,
) -> Result<TestOutcome, SutError> {
    let clock = ctx.clock.as_ref();
    let tracer = &ctx.tracer;

    // Makes one guarded SUT call on behalf of `$node` (when known) and
    // classifies a failure: crash-style errors become a failed
    // outcome, harness errors propagate to the caller. `$start` is a
    // `Duration` read from the run's clock.
    macro_rules! try_sut {
        ($node:expr, $call:expr, $step:expr, $action:expr, $start:expr) => {
            match watchdog::guard($node, || $call) {
                Ok(v) => v,
                Err(e) => {
                    let waited = clock.now().saturating_sub($start);
                    return match classify_sut_error(e, $step, $action, waited) {
                        Classified::Fail(inc) => Ok(TestOutcome::Failed(inc)),
                        Classified::Harness(e) => Err(e),
                    }
                }
            }
        };
    }

    if config.check_initial && case.progress.depth == 0 {
        let init_start = clock.now();
        let init_action = ActionInstance::nullary("<Init>");
        let snapshot = try_sut!(None, sut.snapshot(), 0, &init_action, init_start);
        let progress = &mut case.progress;
        progress.stats.checks += 1;
        let divergences = check_state(&test_case.initial, &snapshot, &progress.pools, registry);
        progress.stats.divergences += divergences.len();
        if !divergences.is_empty() {
            return Ok(TestOutcome::Failed(Inconsistency::InconsistentState {
                step: 0,
                action: init_action,
                divergences,
            }));
        }
    }

    let first = case.progress.depth;
    for (i, step) in test_case.steps.iter().enumerate().skip(first) {
        let progress = &mut case.progress;
        let step_start = clock.now();
        watchdog::at(Some(i), step_start);
        let class = registry
            .action_by_spec_name(&step.action.name)
            .map(|m| m.class)
            .unwrap_or(ActionClass::SingleNode);

        let report: ExecReport = match class {
            ActionClass::ExternalFault | ActionClass::UserRequest => {
                // Triggered by the testbed itself (§4.1.2): scripts
                // for crash/restart/user requests, overriding switches
                // for drop/duplicate.
                progress.stats.external_triggers += 1;
                tracer.external(i as u64, &step.action.name);
                try_sut!(None, sut.execute_external(&step.action), i, &step.action, step_start)
            }
            _ => {
                // One poll: what is not offered now is missing.
                progress.stats.offer_polls += 1;
                let mut offers = try_sut!(None, sut.offers(), i, &step.action, step_start);
                progress.stats.count_offers(registry, &offers);
                let Some(hit) = find_match(registry, &step.action, &offers) else {
                    progress.stats.missing_actions += 1;
                    return Ok(TestOutcome::Failed(Inconsistency::MissingAction {
                        step: i,
                        action: step.action.clone(),
                        offered: offered_actions(&translate_offers(registry, offers)),
                    }));
                };
                let offer = offers.swap_remove(hit);
                progress.stats.actions_released += 1;
                tracer.release(i as u64, offer.node, &step.action.name);
                try_sut!(Some(offer.node), sut.execute(&offer), i, &step.action, step_start)
            }
        };
        progress.stats.actions_executed += 1;

        // Maintain the message pools from the reported events,
        // translating message contents into the spec domain.
        let pools = &mut progress.pools;
        for event in report.msg_events {
            if let Err(err) = pools.apply(translate_event(registry, event)) {
                return Ok(TestOutcome::Failed(pool_error_to_inconsistency(
                    i, step, pools, err,
                )));
            }
        }

        // Check the verified post-state.
        let snapshot = try_sut!(None, sut.snapshot(), i, &step.action, step_start);
        progress.stats.checks += 1;
        let divergences = check_state(&step.expected, &snapshot, pools, registry);
        progress.stats.divergences += divergences.len();
        if !divergences.is_empty() {
            return Ok(TestOutcome::Failed(Inconsistency::InconsistentState {
                step: i,
                action: step.action.clone(),
                divergences,
            }));
        }

        // Per-step watchdog: a step that consumed more than its
        // budget indicates a stalled system even if every call
        // eventually answered. The budget counts the run's clock —
        // virtual time under simulation.
        let step_elapsed = clock.now().saturating_sub(step_start);
        if step_elapsed > config.per_action_budget {
            return Ok(TestOutcome::Failed(Inconsistency::WatchdogTimeout {
                step: i,
                action: step.action.clone(),
                waited: step_elapsed,
                reason: "per-action budget exceeded".to_string(),
            }));
        }
        progress.depth = i + 1;
        case.keep_point(sut, ctx);
    }

    // End of test case: leftover notifications the spec does not
    // enable in the final state are unexpected actions.
    let final_start = clock.now();
    watchdog::at(Some(test_case.steps.len()), final_start);
    let final_action = ActionInstance::nullary("<Final>");
    let offers = try_sut!(
        None,
        sut.offers(),
        test_case.steps.len(),
        &final_action,
        final_start
    );
    case.progress.stats.count_offers(registry, &offers);
    let offers = translate_offers(registry, offers);
    let unexpected = unexpected_offers(registry, &offers, final_enabled);
    if !unexpected.is_empty() {
        case.progress.stats.unexpected_offers += unexpected.len();
        return Ok(TestOutcome::Failed(Inconsistency::UnexpectedAction {
            actions: unexpected,
        }));
    }

    Ok(TestOutcome::Passed)
}

/// The event with its message in the spec domain; returned as it came
/// when no mapped constant is inside the message.
fn translate_event(registry: &MappingRegistry, mut event: MsgEvent) -> MsgEvent {
    let (MsgEvent::Send { msg, .. }
    | MsgEvent::Receive { msg, .. }
    | MsgEvent::Drop { msg, .. }
    | MsgEvent::Duplicate { msg, .. }) = &mut event;
    if let Cow::Owned(spec) = registry.consts().view(msg) {
        *msg = spec;
    }
    event
}

/// A pool bookkeeping failure means the implementation consumed or
/// dropped a message the specification does not have in flight —
/// report it as an inconsistent state on the pool variable.
fn pool_error_to_inconsistency(
    step: usize,
    s: &crate::testcase::Step,
    pools: &MessagePools,
    err: PoolError,
) -> Inconsistency {
    let (variable, actual) = match &err {
        PoolError::UnknownPool(p) => (p.clone(), None),
        PoolError::MissingMessage { pool, .. } => (pool.clone(), pools.as_value(pool)),
    };
    let expected = expected_value(&s.expected, &variable);
    Inconsistency::InconsistentState {
        step,
        action: s.action.clone(),
        divergences: vec![VariableDivergence {
            variable,
            expected,
            actual,
        }],
    }
}

fn expected_value(state: &State, variable: &str) -> mocket_tla::Value {
    state
        .get(variable)
        .cloned()
        .unwrap_or(mocket_tla::Value::Nil)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ActionBinding;
    use crate::sut::{MsgEvent, Offer, Snapshot};
    use mocket_tla::Value;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A scripted fake SUT: a counter machine with one variable `n`.
    /// The script controls which offers appear and what executing
    /// them does, so every runner path is testable without threads.
    #[derive(Clone)]
    struct FakeSut {
        n: i64,
        /// Offer `inc` whenever `n < limit`.
        limit: i64,
        /// If true, executing `inc` silently does nothing (stuck
        /// implementation → inconsistent state).
        broken_inc: bool,
        /// If true, never offer anything (missing action).
        mute: bool,
        /// Extra bogus offer emitted always (unexpected at end).
        rogue_offer: bool,
        /// Extra `recv` offer emitted always: a message receive the
        /// spec never enables (unexpected at end).
        stray_recv: bool,
        /// Executing `inc` at this `n` never returns (watchdog
        /// timeout).
        hang_at: Option<i64>,
        /// Whether `fork` copies the deployment.
        forks: bool,
        /// Charged a millisecond per executed `inc`, when set.
        clock: Option<Arc<mocket_sim::SimClock>>,
        /// Set by deploy, cleared by teardown; shared with the test.
        deployed: Arc<AtomicBool>,
        /// Calls to `deploy`; shared with the test and the forks.
        deploys: Arc<AtomicUsize>,
        /// Calls to `offers`; shared with the test.
        polls: Arc<AtomicUsize>,
    }

    impl FakeSut {
        fn new(limit: i64) -> Self {
            FakeSut {
                n: 0,
                limit,
                broken_inc: false,
                mute: false,
                rogue_offer: false,
                stray_recv: false,
                hang_at: None,
                forks: false,
                clock: None,
                deployed: Arc::default(),
                deploys: Arc::default(),
                polls: Arc::default(),
            }
        }
    }

    impl SystemUnderTest for FakeSut {
        fn deploy(&mut self) -> Result<(), SutError> {
            self.n = 0;
            self.deployed.store(true, Ordering::SeqCst);
            self.deploys.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn teardown(&mut self) {
            self.deployed.store(false, Ordering::SeqCst);
        }

        fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
            assert!(self.deployed.load(Ordering::SeqCst));
            self.polls.fetch_add(1, Ordering::SeqCst);
            let mut out = Vec::new();
            if !self.mute && self.n < self.limit {
                out.push(Offer {
                    node: 1,
                    action: ActionInstance::nullary("inc"),
                });
            }
            if self.rogue_offer {
                out.push(Offer {
                    node: 2,
                    action: ActionInstance::nullary("rogue"),
                });
            }
            if self.stray_recv {
                out.push(Offer {
                    node: 3,
                    action: ActionInstance::nullary("recv"),
                });
            }
            Ok(out)
        }

        fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
            assert_eq!(offer.action.name, "inc");
            if self.hang_at == Some(self.n) {
                // park() can wake spuriously, hence the loop.
                loop {
                    std::thread::park();
                }
            }
            if let Some(clock) = &self.clock {
                clock.advance(Duration::from_millis(1));
            }
            if !self.broken_inc {
                self.n += 1;
            }
            Ok(ExecReport::default())
        }

        fn execute_external(&mut self, action: &ActionInstance) -> Result<ExecReport, SutError> {
            match action.name.as_str() {
                // `Reset` models a user request.
                "Reset" => {
                    self.n = 0;
                    Ok(ExecReport::default())
                }
                other => Err(SutError::External(format!("unknown external {other}"))),
            }
        }

        fn snapshot(&mut self) -> Result<Snapshot, SutError> {
            Ok(Snapshot::from_pairs([("counter", Value::Int(self.n))]))
        }

        /// A copy with its own deployment flag: tearing one down
        /// leaves the other deployed.
        fn fork(&self) -> Option<Box<dyn SystemUnderTest>> {
            let deployed = Arc::new(AtomicBool::new(self.deployed.load(Ordering::SeqCst)));
            let copy = FakeSut {
                deployed,
                ..self.clone()
            };
            self.forks.then(|| Box::new(copy) as Box<dyn SystemUnderTest>)
        }
    }

    fn registry() -> MappingRegistry {
        let mut r = MappingRegistry::new();
        r.map_class_field("n", "counter").map_action(
            "Inc",
            "inc",
            mocket_tla::ActionClass::SingleNode,
            ActionBinding::Method,
        );
        r.map_action(
            "Reset",
            "reset.sh",
            mocket_tla::ActionClass::UserRequest,
            ActionBinding::Script,
        );
        r
    }

    fn st(n: i64) -> State {
        State::from_pairs([("n", Value::Int(n))])
    }

    fn inc_case(len: i64) -> TestCase {
        TestCase::new(
            st(0),
            (1..=len)
                .map(|i| (ActionInstance::nullary("Inc"), st(i)))
                .collect(),
        )
    }

    #[test]
    fn conformant_run_passes() {
        let sut = FakeSut::new(10);
        let deployed = sut.deployed.clone();
        let (outcome, stats) = run_test_case(
            Box::new(sut),
            &inc_case(3),
            &Arc::new(registry()),
            &[ActionInstance::nullary("Inc")],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(stats.actions_executed, 3);
        assert_eq!(stats.checks, 4, "initial + one per action");
        assert!(!deployed.load(Ordering::SeqCst), "teardown must run");
    }

    #[test]
    fn a_run_tallies_its_releases_polls_and_checks() {
        let sut = FakeSut::new(10);
        let (outcome, stats) = run_test_case(
            Box::new(sut),
            &inc_case(3),
            &Arc::new(registry()),
            &[ActionInstance::nullary("Inc")],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(stats.actions_released, 3);
        assert_eq!(stats.external_triggers, 0);
        assert_eq!(stats.offer_polls, 3, "one poll per step");
        assert_eq!(stats.checks, 4);
        assert_eq!(stats.divergences, 0);
        assert_eq!(stats.missing_actions, 0);
    }

    #[test]
    fn a_run_tallies_unmapped_and_unexpected_offers() {
        // No steps, so the only poll is the final one: `inc` (benign
        // single-node leftover), `rogue` (unmapped) and `recv` (a
        // message receive the spec does not enable).
        let mut sut = FakeSut::new(10);
        sut.rogue_offer = true;
        sut.stray_recv = true;
        let mut registry = registry();
        registry.map_action(
            "Recv",
            "recv",
            mocket_tla::ActionClass::MessageReceive,
            ActionBinding::Snippet,
        );
        let (outcome, stats) = run_test_case(
            Box::new(sut),
            &inc_case(0),
            &Arc::new(registry),
            &[],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        match outcome {
            TestOutcome::Failed(Inconsistency::UnexpectedAction { actions }) => {
                assert_eq!(actions.len(), 2, "{actions:?}");
            }
            other => panic!("expected unexpected action, got {other:?}"),
        }
        assert_eq!(stats.offer_polls, 0, "the final poll is not a step's");
        assert_eq!(stats.offers_translated, 3);
        assert_eq!(stats.unmapped_offers, 1);
        assert_eq!(stats.unexpected_offers, 2);
    }

    /// A harness error ends the case without a verdict, but the tally
    /// of the steps it ran comes back with the error.
    #[test]
    fn a_harness_error_returns_the_tally_of_its_steps() {
        let mut registry = registry();
        registry.map_action(
            "Partition",
            "partition.sh",
            mocket_tla::ActionClass::ExternalFault,
            ActionBinding::Script,
        );
        let tc = TestCase::new(
            st(0),
            vec![
                (ActionInstance::nullary("Inc"), st(1)),
                (ActionInstance::nullary("Inc"), st(2)),
                (ActionInstance::nullary("Partition"), st(2)),
            ],
        );
        let (outcome, stats) = run_test_case(
            Box::new(FakeSut::new(10)),
            &tc,
            &Arc::new(registry),
            &[],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        assert!(matches!(outcome, Err(SutError::External(_))), "{outcome:?}");
        assert_eq!(stats.actions_executed, 2);
        assert_eq!(stats.actions_released, 2);
        assert_eq!(stats.external_triggers, 1, "counted before it ran");
        assert_eq!(stats.offer_polls, 2);
        assert_eq!(stats.checks, 3);
    }

    #[test]
    fn broken_effect_is_inconsistent_state() {
        let mut sut = FakeSut::new(10);
        sut.broken_inc = true;
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &inc_case(2),
            &Arc::new(registry()),
            &[],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        match outcome {
            TestOutcome::Failed(Inconsistency::InconsistentState {
                step, divergences, ..
            }) => {
                assert_eq!(step, 0);
                assert_eq!(divergences[0].variable, "n");
                assert_eq!(divergences[0].expected, Value::Int(1));
                assert_eq!(divergences[0].actual, Some(Value::Int(0)));
            }
            other => panic!("expected inconsistent state, got {other:?}"),
        }
    }

    #[test]
    fn mute_sut_is_missing_action() {
        let mut sut = FakeSut::new(10);
        sut.mute = true;
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &inc_case(1),
            &Arc::new(registry()),
            &[],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        match outcome {
            TestOutcome::Failed(Inconsistency::MissingAction { action, .. }) => {
                assert_eq!(action.name, "Inc");
            }
            other => panic!("expected missing action, got {other:?}"),
        }
    }

    #[test]
    fn rogue_offer_is_unexpected_action() {
        let mut sut = FakeSut::new(10);
        sut.rogue_offer = true;
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &inc_case(1),
            &Arc::new(registry()),
            &[ActionInstance::nullary("Inc")],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        match outcome {
            TestOutcome::Failed(Inconsistency::UnexpectedAction { actions }) => {
                assert_eq!(actions, vec![ActionInstance::nullary("rogue")]);
            }
            other => panic!("expected unexpected action, got {other:?}"),
        }
    }

    #[test]
    fn benign_leftover_offers_pass() {
        // After 1 of 3 possible Incs, `inc` is still offered — but the
        // spec enables Inc at the final state, so it is benign.
        let sut = FakeSut::new(10);
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &inc_case(1),
            &Arc::new(registry()),
            &[ActionInstance::nullary("Inc")],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        assert!(outcome.passed());
    }

    #[test]
    fn user_requests_are_triggered_externally() {
        let sut = FakeSut::new(10);
        let tc = TestCase::new(
            st(0),
            vec![
                (ActionInstance::nullary("Inc"), st(1)),
                (ActionInstance::nullary("Reset"), st(0)),
            ],
        );
        let (outcome, stats) = run_test_case(
            Box::new(sut),
            &tc,
            &Arc::new(registry()),
            &[ActionInstance::nullary("Inc")],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(stats.actions_executed, 2);
    }

    #[test]
    fn wrong_initial_state_detected() {
        let sut = FakeSut::new(10);
        let tc = TestCase::new(st(7), vec![]);
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &tc,
            &Arc::new(registry()),
            &[],
            &RunConfig::fast(),
            &RunCtx::default(),
        );
        match outcome.unwrap() {
            TestOutcome::Failed(Inconsistency::InconsistentState { action, .. }) => {
                assert_eq!(action.name, "<Init>");
            }
            other => panic!("expected init inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn pool_violation_reported_on_ghost_receive() {
        /// A SUT that reports receiving a message never sent.
        struct GhostSut;
        impl SystemUnderTest for GhostSut {
            fn deploy(&mut self) -> Result<(), SutError> {
                Ok(())
            }
            fn teardown(&mut self) {}
            fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
                Ok(vec![Offer {
                    node: 1,
                    action: ActionInstance::nullary("recv"),
                }])
            }
            fn execute(&mut self, _offer: &Offer) -> Result<ExecReport, SutError> {
                Ok(ExecReport {
                    msg_events: vec![MsgEvent::Receive {
                        pool: "messages".into(),
                        msg: Value::Int(42),
                    }],
                })
            }
            fn execute_external(
                &mut self,
                _action: &ActionInstance,
            ) -> Result<ExecReport, SutError> {
                unreachable!()
            }
            fn snapshot(&mut self) -> Result<Snapshot, SutError> {
                Ok(Snapshot::default())
            }
        }

        let mut registry = MappingRegistry::new();
        registry.map_message_pool("messages", true).map_action(
            "Recv",
            "recv",
            mocket_tla::ActionClass::MessageReceive,
            ActionBinding::Snippet,
        );
        let tc = TestCase::new(
            State::from_pairs([("messages", Value::fun([]))]),
            vec![(
                ActionInstance::nullary("Recv"),
                State::from_pairs([("messages", Value::fun([]))]),
            )],
        );
        let sut = GhostSut;
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &tc,
            &Arc::new(registry),
            &[],
            &RunConfig {
                check_initial: false,
                ..RunConfig::fast()
            },
            &RunCtx::default(),
        );
        let outcome = outcome.unwrap();
        match outcome {
            TestOutcome::Failed(Inconsistency::InconsistentState { divergences, .. }) => {
                assert_eq!(divergences[0].variable, "messages");
            }
            other => panic!("expected pool inconsistency, got {other:?}"),
        }
    }

    /// A virtual clock that records every charge it serves, so a test
    /// can assert the exact charges a run made.
    struct RecordingClock {
        sim: mocket_sim::SimClock,
        charges: std::sync::Mutex<Vec<Duration>>,
    }

    impl RecordingClock {
        fn new() -> Self {
            RecordingClock {
                sim: mocket_sim::SimClock::new(),
                charges: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn recorded(&self) -> Vec<Duration> {
            self.charges.lock().unwrap().clone()
        }
    }

    impl Clock for RecordingClock {
        fn now(&self) -> Duration {
            self.sim.now()
        }
        fn charge(&self, d: Duration) {
            self.charges.lock().unwrap().push(d);
            self.sim.charge(d);
        }
        fn is_virtual(&self) -> bool {
            true
        }
    }

    /// A scheduled action that is not offered is missing at once: one
    /// poll, nothing charged to the run's clock.
    #[test]
    fn mute_sut_is_missing_after_one_poll_and_no_charge() {
        let mut sut = FakeSut::new(10);
        sut.mute = true;
        let polls = sut.polls.clone();
        let clock = Arc::new(RecordingClock::new());
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &inc_case(1),
            &Arc::new(registry()),
            &[],
            &RunConfig::fast(),
            &RunCtx {
                clock: clock.clone(),
                ..RunCtx::default()
            },
        );
        let outcome = outcome.unwrap();
        assert!(matches!(
            outcome,
            TestOutcome::Failed(Inconsistency::MissingAction { .. })
        ));
        assert_eq!(polls.load(Ordering::SeqCst), 1, "offers polled once");
        assert_eq!(clock.recorded(), [], "a fresh passing run charges nothing");
    }

    /// On a virtual clock a hung step is charged exactly the budget:
    /// the run reports that virtual span, not the real time the
    /// watchdog waited.
    #[test]
    fn virtual_clock_runs_report_virtual_seconds() {
        let mut sut = FakeSut::new(10);
        sut.hang_at = Some(0);
        let config = RunConfig {
            per_action_budget: Duration::from_millis(100),
            ..RunConfig::fast()
        };
        let (outcome, stats) = run_test_case(
            Box::new(sut),
            &inc_case(1),
            &Arc::new(registry()),
            &[],
            &config,
            &RunCtx {
                clock: Arc::new(mocket_sim::SimClock::new()),
                ..RunCtx::default()
            },
        );
        let outcome = outcome.unwrap();
        assert!(matches!(
            outcome,
            TestOutcome::Failed(Inconsistency::WatchdogTimeout { .. })
        ));
        assert_eq!(stats.seconds, 0.1, "exactly the budget, in virtual seconds");
    }

    /// What `resume_test_case` returns, unwrapped: the verdict, the
    /// stats and the depths of the points made.
    fn resume(
        start: CaseStart,
        len: i64,
        config: &RunConfig,
        ctx: &RunCtx,
    ) -> (TestOutcome, RunStats, Vec<ResumePoint>) {
        let enabled = [ActionInstance::nullary("Inc")];
        let (outcome, stats, points) =
            resume_test_case(start, &inc_case(len), &Arc::new(registry()), &enabled, config, ctx);
        (outcome.unwrap(), stats, points)
    }

    fn depths(points: &[ResumePoint]) -> Vec<usize> {
        points.iter().map(|p| p.progress.depth).collect()
    }

    fn sim_ctx(clock: &Arc<mocket_sim::SimClock>) -> RunCtx {
        RunCtx {
            clock: clock.clone(),
            ..RunCtx::default()
        }
    }

    /// A case resumed after any passed step of another gives the fresh
    /// run's outcome, tally and virtual time, without deploying again.
    #[test]
    fn a_resumed_case_matches_its_fresh_run() {
        let clock = Arc::new(mocket_sim::SimClock::new());
        let mut sut = FakeSut::new(10);
        (sut.forks, sut.clock) = (true, Some(clock.clone()));
        let config = RunConfig::fast();
        let tally = |s: &RunStats| {
            let counts = [s.actions_executed, s.actions_released, s.offer_polls];
            (counts, [s.offers_translated, s.checks], s.seconds)
        };

        let fresh_ctx = sim_ctx(&clock);
        let t0 = clock.now();
        let (fresh, fresh_stats, _) =
            resume(CaseStart::Fresh(Box::new(sut.clone())), 5, &config, &fresh_ctx);
        let fresh_took = clock.now() - t0;
        assert!(fresh.passed(), "{fresh:?}");
        assert_eq!(fresh_took, Duration::from_millis(5));

        let (first, _, points) = resume(CaseStart::Fresh(Box::new(sut.clone())), 3, &config, &sim_ctx(&clock));
        assert!(first.passed(), "{first:?}");
        assert_eq!(depths(&points), [1, 2, 3]);
        let deploys = sut.deploys.load(Ordering::SeqCst);
        for point in &points {
            let ctx = sim_ctx(&clock);
            let t1 = clock.now();
            let start = CaseStart::Resume(point.copy().unwrap());
            let (outcome, stats, more) = resume(start, 5, &config, &ctx);
            assert!(outcome.passed(), "{outcome:?}");
            assert_eq!(tally(&stats), tally(&fresh_stats), "the prefix's tally carried");
            assert_eq!(clock.now() - t1, fresh_took, "prefix time charged once");
            let after: Vec<usize> = (point.progress.depth + 1..=5).collect();
            assert_eq!(depths(&more), after);
        }
        assert_eq!(sut.deploys.load(Ordering::SeqCst), deploys, "no resumed case deploys");
    }

    /// A resumed case charges the prefix's time once, before it goes
    /// on; a fresh one charges nothing.
    #[test]
    fn a_resumed_case_charges_its_prefix_time() {
        let clock = Arc::new(RecordingClock::new());
        let sim = Arc::new(mocket_sim::SimClock::new());
        let mut sut = FakeSut::new(10);
        (sut.forks, sut.clock) = (true, Some(sim));
        let ctx = RunCtx {
            clock: clock.clone(),
            ..RunCtx::default()
        };
        let (_, _, points) = resume(CaseStart::Fresh(Box::new(sut)), 2, &RunConfig::fast(), &ctx);
        assert_eq!(clock.recorded(), []);
        clock.sim.advance(Duration::from_millis(7));
        let spent = points[1].spent;
        let start = CaseStart::Resume(points[1].copy().unwrap());
        resume(start, 3, &RunConfig::fast(), &ctx);
        assert_eq!(clock.recorded(), [spent]);
    }

    /// A hang after the resume point is a watchdog verdict at the
    /// case's own step index; the point it resumed from is untouched,
    /// so the next case still resumes there.
    #[test]
    fn a_hang_in_a_resumed_case_is_reported_at_its_absolute_step() {
        let clock = Arc::new(mocket_sim::SimClock::new());
        let mut sut = FakeSut::new(10);
        (sut.forks, sut.hang_at) = (true, Some(3));
        let config = RunConfig {
            per_action_budget: Duration::from_millis(100),
            ..RunConfig::fast()
        };
        let (_, _, points) = resume(CaseStart::Fresh(Box::new(sut.clone())), 2, &config, &sim_ctx(&clock));
        let top = points.last().unwrap();

        let start = CaseStart::Resume(top.copy().unwrap());
        let (outcome, stats, more) = resume(start, 5, &config, &sim_ctx(&clock));
        match outcome {
            TestOutcome::Failed(Inconsistency::WatchdogTimeout { step, .. }) => assert_eq!(step, 3),
            other => panic!("expected a watchdog timeout, got {other:?}"),
        }
        assert_eq!(stats.actions_executed, 3);
        assert!(more.is_empty(), "a hung case returns no points");

        let start = CaseStart::Resume(top.copy().unwrap());
        let (outcome, stats, more) = resume(start, 3, &config, &sim_ctx(&clock));
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(stats.actions_executed, 3);
        assert_eq!(depths(&more), [3]);
        assert_eq!(sut.deploys.load(Ordering::SeqCst), 1);
    }

    /// A system that cannot fork leaves no resume point: every case it
    /// runs is a fresh deployment.
    #[test]
    fn a_forkless_system_deploys_once_per_case() {
        let sut = FakeSut::new(10);
        let ctx = RunCtx::default();
        for _ in 0..3 {
            let start = CaseStart::Fresh(Box::new(sut.clone()));
            let (outcome, _, points) = resume(start, 3, &RunConfig::fast(), &ctx);
            assert!(outcome.passed(), "{outcome:?}");
            assert!(points.is_empty());
        }
        assert_eq!(sut.deploys.load(Ordering::SeqCst), 3);
    }
}
