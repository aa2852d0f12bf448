//! Controlled testing of a single test case (§4.3.2, Figure 7).
//!
//! The runner deploys a fresh cluster, optionally checks the initial
//! state, then walks the test case: external faults and user requests
//! are triggered by the testbed, every other action must be offered
//! by a blocked node and is released on match. After each action the
//! state checker compares runtime values with the verified state; at
//! the end leftover offers are classified against the actions the
//! specification enables in the final state.
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

use mocket_obs::causal::Tracer;
use mocket_obs::Obs;
use mocket_sim::{Clock, RealClock};
use mocket_tla::{ActionClass, ActionInstance, State};

use crate::mapping::{MappingRegistry, VarTarget};
use crate::msgpool::{MessagePools, PoolError};
use crate::report::{Inconsistency, VariableDivergence};
use crate::scheduler::{find_match, offered_actions, translate_offers, unexpected_offers};
use crate::statecheck::check_state;
use crate::sut::{ExecReport, MsgEvent, Offer, Snapshot, SutError, SystemUnderTest};
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

/// Statistics of one controlled run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Actions actually executed (scheduled and matched).
    pub actions_executed: usize,
    /// State checks performed.
    pub checks: usize,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
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
/// The default is a plain run: wall clock, a private metrics-only
/// [`Obs`], no causal trace.
#[derive(Clone)]
pub struct RunCtx {
    /// Every measured duration — per-action budget, release latency,
    /// [`RunStats::seconds`] — counts this clock's time. With a
    /// `SimClock` a hung step is charged exactly the budget and the
    /// run's timings are byte-reproducible.
    pub clock: Arc<dyn Clock>,
    /// Receives the run's metrics: scheduler release latency
    /// (`timing.runner.release_latency_ms`), offer-poll and action
    /// counters (`runner.*`, `timing.scheduler.*`) and state-check
    /// counters (`statecheck.*`). Only metrics are recorded here —
    /// per-step events would dominate the event stream; the pipeline
    /// owns per-case events.
    pub obs: Obs,
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
            obs: Obs::disabled(),
            tracer: Tracer::disabled(),
        }
    }
}

/// Runs one test case against the system under test.
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
pub fn run_test_case(
    sut: Box<dyn SystemUnderTest>,
    test_case: &TestCase,
    registry: &Arc<MappingRegistry>,
    final_enabled: &[ActionInstance],
    config: &RunConfig,
    ctx: &RunCtx,
) -> Result<(TestOutcome, RunStats), SutError> {
    let start = ctx.clock.now();
    let (tc, reg, enabled) = (test_case.clone(), Arc::clone(registry), final_enabled.to_vec());
    let (cfg, run_ctx) = (config.clone(), ctx.clone());
    let ran = on_case_thread(sut, config.per_action_budget, move |sut| {
        let mut stats = RunStats::default();
        watchdog::at(None, start);
        sut.install_tracer(&run_ctx.tracer);
        watchdog::guard(None, || sut.deploy())?;
        let result = drive(sut, &tc, &reg, &enabled, &cfg, &mut stats, &run_ctx);
        watchdog::guard(None, || sut.teardown());
        stats.seconds = run_ctx.clock.now().saturating_sub(start).as_secs_f64();
        result.map(|outcome| (outcome, stats))
    });
    let hung = match ran {
        Ok((result, _)) => return result,
        Err(hung) => hung,
    };
    // The abandoned call burned its budget in real time while a virtual
    // clock stood still: advancing it by exactly the budget lands the
    // verdict at a deterministic virtual deadline.
    let clock = ctx.clock.as_ref();
    let mut vt = 0;
    if clock.is_virtual() {
        clock.sleep(config.per_action_budget);
        vt = clock.now().as_nanos() as u64;
    }
    ctx.tracer.close_step(vt);
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
        seconds: clock.now().saturating_sub(start).as_secs_f64(),
        ..RunStats::default()
    };
    Ok((TestOutcome::Failed(inc), stats))
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

fn drive(
    sut: &mut dyn SystemUnderTest,
    test_case: &TestCase,
    registry: &MappingRegistry,
    final_enabled: &[ActionInstance],
    config: &RunConfig,
    stats: &mut RunStats,
    ctx: &RunCtx,
) -> Result<TestOutcome, SutError> {
    let clock = ctx.clock.as_ref();
    let tracer = &ctx.tracer;
    let obs = &ctx.obs;
    let mut pools = pools_from_registry(registry);

    // Offers seen per poll, kept under the `timing.` quarantine with
    // the other poll counters, out of the deterministic summary.
    let count_offers = |offers: &[Offer]| {
        let m = obs.metrics();
        m.add("timing.scheduler.offers_translated", offers.len() as u64);
        let unmapped = offers
            .iter()
            .filter(|o| registry.action_by_impl_name(&o.action.name).is_none())
            .count() as u64;
        if unmapped > 0 {
            m.add("timing.scheduler.unmapped_offers", unmapped);
        }
    };
    let check = |expected: &State, snapshot: &Snapshot, pools: &MessagePools| {
        let divergences = check_state(expected, snapshot, pools, registry);
        let m = obs.metrics();
        m.add("statecheck.checks", 1);
        if !divergences.is_empty() {
            m.add("statecheck.divergences", divergences.len() as u64);
        }
        divergences
    };

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

    if config.check_initial {
        let init_start = clock.now();
        let init_action = ActionInstance::nullary("<Init>");
        let snapshot = try_sut!(None, sut.snapshot(), 0, &init_action, init_start);
        stats.checks += 1;
        let divergences = check(&test_case.initial, &snapshot, &pools);
        if !divergences.is_empty() {
            return Ok(TestOutcome::Failed(Inconsistency::InconsistentState {
                step: 0,
                action: init_action,
                divergences,
            }));
        }
    }

    for (i, step) in test_case.steps.iter().enumerate() {
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
                obs.metrics().add("runner.external_triggers", 1);
                tracer.external(i as u64, &step.action.name, 0);
                try_sut!(None, sut.execute_external(&step.action), i, &step.action, step_start)
            }
            _ => {
                // One poll: what is not offered now is missing.
                obs.metrics().add("timing.runner.offer_polls", 1);
                let mut offers = try_sut!(None, sut.offers(), i, &step.action, step_start);
                count_offers(&offers);
                let Some(hit) = find_match(registry, &step.action, &offers) else {
                    obs.metrics().add("runner.missing_actions", 1);
                    return Ok(TestOutcome::Failed(Inconsistency::MissingAction {
                        step: i,
                        action: step.action.clone(),
                        offered: offered_actions(&translate_offers(registry, offers)),
                    }));
                };
                let offer = offers.swap_remove(hit);
                // Scheduler release latency: time from step start until
                // the blocked action was matched and released for
                // execution.
                let waited = clock.now().saturating_sub(step_start);
                obs.metrics()
                    .observe("timing.runner.release_latency_ms", waited.as_secs_f64() * 1e3);
                obs.metrics()
                    .observe("timing.profile.scheduler_release_seconds", waited.as_secs_f64());
                obs.metrics().add("runner.actions_released", 1);
                tracer.release(i as u64, offer.node, &step.action.name, 0);
                try_sut!(Some(offer.node), sut.execute(&offer), i, &step.action, step_start)
            }
        };
        stats.actions_executed += 1;

        // Maintain the message pools from the reported events,
        // translating message contents into the spec domain.
        for event in report.msg_events {
            if let Err(err) = pools.apply(translate_event(registry, event)) {
                return Ok(TestOutcome::Failed(pool_error_to_inconsistency(
                    i, step, &pools, err,
                )));
            }
        }

        // Check the verified post-state.
        let snapshot = try_sut!(None, sut.snapshot(), i, &step.action, step_start);
        stats.checks += 1;
        let divergences = check(&step.expected, &snapshot, &pools);
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
        obs.metrics()
            .observe("timing.profile.runner_step_seconds", step_elapsed.as_secs_f64());
        if step_elapsed > config.per_action_budget {
            return Ok(TestOutcome::Failed(Inconsistency::WatchdogTimeout {
                step: i,
                action: step.action.clone(),
                waited: step_elapsed,
                reason: "per-action budget exceeded".to_string(),
            }));
        }
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
    count_offers(&offers);
    let offers = translate_offers(registry, offers);
    let unexpected = unexpected_offers(registry, &offers, final_enabled);
    if !unexpected.is_empty() {
        obs.metrics().add("scheduler.unexpected_offers", unexpected.len() as u64);
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
        /// If true, executing `inc` never returns (watchdog timeout).
        hang: bool,
        /// Set by deploy, cleared by teardown; shared with the test.
        deployed: Arc<AtomicBool>,
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
                hang: false,
                deployed: Arc::default(),
                polls: Arc::default(),
            }
        }
    }

    impl SystemUnderTest for FakeSut {
        fn deploy(&mut self) -> Result<(), SutError> {
            self.n = 0;
            self.deployed.store(true, Ordering::SeqCst);
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
            if self.hang {
                // park() can wake spuriously, hence the loop.
                loop {
                    std::thread::park();
                }
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
        )
        .unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(stats.actions_executed, 3);
        assert_eq!(stats.checks, 4, "initial + one per action");
        assert!(!deployed.load(Ordering::SeqCst), "teardown must run");
    }

    #[test]
    fn observed_run_records_scheduler_and_statecheck_metrics() {
        let sut = FakeSut::new(10);
        let obs = Obs::disabled();
        let (outcome, stats) = run_test_case(
            Box::new(sut),
            &inc_case(3),
            &Arc::new(registry()),
            &[ActionInstance::nullary("Inc")],
            &RunConfig::fast(),
            &RunCtx {
                obs: obs.clone(),
                ..RunCtx::default()
            },
        )
        .unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        let m = obs.metrics();
        assert_eq!(m.counter("runner.actions_released"), 3);
        assert!(m.counter("timing.runner.offer_polls") >= 3);
        assert_eq!(m.counter("statecheck.checks"), stats.checks as u64);
        assert_eq!(m.counter("statecheck.divergences"), 0);
        let latency = m.snapshot().histograms["timing.runner.release_latency_ms"];
        assert_eq!(latency.count, 3, "release latency recorded");
    }

    #[test]
    fn observed_run_counts_unmapped_and_unexpected_offers() {
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
        let obs = Obs::disabled();
        let (outcome, _) = run_test_case(
            Box::new(sut),
            &inc_case(0),
            &Arc::new(registry),
            &[],
            &RunConfig::fast(),
            &RunCtx {
                obs: obs.clone(),
                ..RunCtx::default()
            },
        )
        .unwrap();
        match outcome {
            TestOutcome::Failed(Inconsistency::UnexpectedAction { actions }) => {
                assert_eq!(actions.len(), 2, "{actions:?}");
            }
            other => panic!("expected unexpected action, got {other:?}"),
        }
        let m = obs.metrics();
        assert_eq!(m.counter("timing.scheduler.offers_translated"), 3);
        assert_eq!(m.counter("timing.scheduler.unmapped_offers"), 1);
        assert_eq!(m.counter("scheduler.unexpected_offers"), 2);
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
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(stats.actions_executed, 2);
    }

    #[test]
    fn wrong_initial_state_detected() {
        let sut = FakeSut::new(10);
        let tc = TestCase::new(st(7), vec![]);
        let (outcome, _) =
            run_test_case(
                Box::new(sut),
                &tc,
                &Arc::new(registry()),
                &[],
                &RunConfig::fast(),
                &RunCtx::default(),
            )
            .unwrap();
        match outcome {
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
        )
        .unwrap();
        match outcome {
            TestOutcome::Failed(Inconsistency::InconsistentState { divergences, .. }) => {
                assert_eq!(divergences[0].variable, "messages");
            }
            other => panic!("expected pool inconsistency, got {other:?}"),
        }
    }

    /// A virtual clock that records every sleep it serves, so a test
    /// can assert the exact wait sequence a run produced.
    struct RecordingClock {
        sim: mocket_sim::SimClock,
        sleeps: std::sync::Mutex<Vec<Duration>>,
    }

    impl RecordingClock {
        fn new() -> Self {
            RecordingClock {
                sim: mocket_sim::SimClock::new(),
                sleeps: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn recorded(&self) -> Vec<Duration> {
            self.sleeps.lock().unwrap().clone()
        }
    }

    impl Clock for RecordingClock {
        fn now(&self) -> Duration {
            self.sim.now()
        }
        fn sleep(&self, d: Duration) {
            self.sleeps.lock().unwrap().push(d);
            self.sim.sleep(d);
        }
        fn is_virtual(&self) -> bool {
            true
        }
    }

    /// A scheduled action that is not offered is missing at once: one
    /// poll, no wait on the run's clock.
    #[test]
    fn mute_sut_is_missing_after_one_poll_and_no_sleep() {
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
        )
        .unwrap();
        assert!(matches!(
            outcome,
            TestOutcome::Failed(Inconsistency::MissingAction { .. })
        ));
        assert_eq!(polls.load(Ordering::SeqCst), 1, "offers polled once");
        assert_eq!(clock.recorded(), [], "the runner never sleeps");
    }

    /// On a virtual clock a hung step is charged exactly the budget:
    /// the run reports that virtual span, not the real time the
    /// watchdog waited.
    #[test]
    fn virtual_clock_runs_report_virtual_seconds() {
        let mut sut = FakeSut::new(10);
        sut.hang = true;
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
        )
        .unwrap();
        assert!(matches!(
            outcome,
            TestOutcome::Failed(Inconsistency::WatchdogTimeout { .. })
        ));
        assert_eq!(stats.seconds, 0.1, "exactly the budget, in virtual seconds");
    }
}
