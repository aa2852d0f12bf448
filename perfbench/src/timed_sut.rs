//! The SUT boundary observed from outside: a decorator over
//! `Box<dyn SystemUnderTest>` that counts and times every call the
//! harness makes into the system under test (runtime + dsnet + node
//! code), records one span per call, and keeps the first offers and
//! snapshots it sees for the scheduler/state-checker micro rows.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mocket_core::{ExecReport, Offer, Snapshot, SutError, SystemUnderTest};
use mocket_obs::causal::Tracer;
use mocket_tla::ActionInstance;

use crate::spans::Recorder;

/// How many offer batches / snapshots are kept for replay.
pub const CAPTURE_LIMIT: usize = 256;

/// Call counts and busy time per SUT entry point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SutCounters {
    pub deploys: u64,
    pub offer_polls: u64,
    pub executes: u64,
    pub snapshots: u64,
    pub teardowns: u64,
    pub deploy_s: f64,
    pub offers_s: f64,
    pub execute_s: f64,
    pub snapshot_s: f64,
    pub teardown_s: f64,
}

impl SutCounters {
    /// Seconds spent inside the SUT over all entry points.
    pub fn busy_s(&self) -> f64 {
        self.deploy_s + self.offers_s + self.execute_s + self.snapshot_s + self.teardown_s
    }

    /// Offer polls per released action: 1.0 means every poll found its
    /// action; above that, polls were wasted waiting.
    pub fn polls_per_execute(&self) -> f64 {
        if self.executes == 0 {
            0.0
        } else {
            self.offer_polls as f64 / self.executes as f64
        }
    }
}

/// What the decorators of one run share.
#[derive(Default)]
pub struct Observed {
    pub counters: SutCounters,
    /// Deploy-to-teardown milliseconds of every deployment.
    pub case_ms: Vec<f64>,
    pub offers: Vec<Vec<Offer>>,
    pub snapshots: Vec<Snapshot>,
}

pub type SharedObserved = Arc<Mutex<Observed>>;

/// What a run threads through its layers to be observed: the span
/// recorder and the SUT-boundary counters. The untraced run carries
/// the disabled form, which wraps nothing and records nothing.
#[derive(Clone)]
pub struct Trace {
    pub spans: Recorder,
    pub observed: SharedObserved,
}

impl Trace {
    pub fn off() -> Self {
        Trace {
            spans: Recorder::disabled(),
            observed: Arc::default(),
        }
    }

    pub fn on() -> Self {
        Trace {
            spans: Recorder::enabled(),
            observed: Arc::default(),
        }
    }

    /// Decorates `sut` when tracing is on; hands it back untouched
    /// when off.
    pub fn wrap(&self, sut: Box<dyn SystemUnderTest>) -> Box<dyn SystemUnderTest> {
        if self.spans.is_enabled() {
            Box::new(TimedSut::new(
                sut,
                self.observed.clone(),
                self.spans.clone(),
            ))
        } else {
            sut
        }
    }

    /// The same trace for another recording thread (see
    /// [`Recorder::for_thread`]).
    pub fn for_thread(&self, thread: usize, parent: Option<usize>) -> Trace {
        Trace {
            spans: self.spans.for_thread(thread, parent),
            observed: self.observed.clone(),
        }
    }
}

/// The decorator. One per deployment, as the pipeline asks its
/// `make_sut` closure for a fresh system per case.
pub struct TimedSut {
    inner: Box<dyn SystemUnderTest>,
    shared: SharedObserved,
    spans: Recorder,
    deployed_at: Option<Instant>,
}

impl TimedSut {
    pub fn new(inner: Box<dyn SystemUnderTest>, shared: SharedObserved, spans: Recorder) -> Self {
        TimedSut {
            inner,
            shared,
            spans,
            deployed_at: None,
        }
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut dyn SystemUnderTest) -> T,
        account: impl FnOnce(&mut Observed, f64, &T),
    ) -> T {
        let span = self.spans.enter(name);
        let start = Instant::now();
        let out = call(self.inner.as_mut());
        let secs = start.elapsed().as_secs_f64();
        self.spans.exit(span);
        let mut g = self.shared.lock().expect("observed-SUT lock poisoned");
        account(&mut g, secs, &out);
        out
    }
}

impl SystemUnderTest for TimedSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.deployed_at = Some(Instant::now());
        self.timed(
            "sut.deploy",
            |s| s.deploy(),
            |o, secs, _| {
                o.counters.deploys += 1;
                o.counters.deploy_s += secs;
            },
        )
    }

    fn teardown(&mut self) {
        let deployed_at = self.deployed_at.take();
        self.timed(
            "sut.teardown",
            |s| s.teardown(),
            |o, secs, _| {
                o.counters.teardowns += 1;
                o.counters.teardown_s += secs;
                if let Some(at) = deployed_at {
                    o.case_ms.push(at.elapsed().as_secs_f64() * 1e3);
                }
            },
        )
    }

    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        self.timed(
            "sut.offers",
            |s| s.offers(),
            |o, secs, out| {
                o.counters.offer_polls += 1;
                o.counters.offers_s += secs;
                if let (Ok(batch), true) = (out, o.offers.len() < CAPTURE_LIMIT) {
                    o.offers.push(batch.clone());
                }
            },
        )
    }

    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        self.timed(
            "sut.execute",
            |s| s.execute(offer),
            |o, secs, _| {
                o.counters.executes += 1;
                o.counters.execute_s += secs;
            },
        )
    }

    fn execute_external(&mut self, action: &ActionInstance) -> Result<ExecReport, SutError> {
        self.timed(
            "sut.execute",
            |s| s.execute_external(action),
            |o, secs, _| {
                o.counters.executes += 1;
                o.counters.execute_s += secs;
            },
        )
    }

    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        self.timed(
            "sut.snapshot",
            |s| s.snapshot(),
            |o, secs, out| {
                o.counters.snapshots += 1;
                o.counters.snapshot_s += secs;
                if let (Ok(snap), true) = (out, o.snapshots.len() < CAPTURE_LIMIT) {
                    o.snapshots.push(snap.clone());
                }
            },
        )
    }

    fn install_tracer(&mut self, tracer: &Tracer) {
        self.inner.install_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::Value;

    /// A scripted SUT: offers the same action until it is executed
    /// `polls_needed` polls later; every call is logged.
    struct ScriptedSut {
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl SystemUnderTest for ScriptedSut {
        fn deploy(&mut self) -> Result<(), SutError> {
            self.log.lock().unwrap().push("deploy");
            Ok(())
        }
        fn teardown(&mut self) {
            self.log.lock().unwrap().push("teardown");
        }
        fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
            self.log.lock().unwrap().push("offers");
            Ok(vec![Offer {
                node: 1,
                action: ActionInstance::nullary("tick"),
            }])
        }
        fn execute(&mut self, _offer: &Offer) -> Result<ExecReport, SutError> {
            self.log.lock().unwrap().push("execute");
            Ok(ExecReport::default())
        }
        fn execute_external(&mut self, _a: &ActionInstance) -> Result<ExecReport, SutError> {
            self.log.lock().unwrap().push("external");
            Err(SutError::External("scripted failure".into()))
        }
        fn snapshot(&mut self) -> Result<Snapshot, SutError> {
            self.log.lock().unwrap().push("snapshot");
            Ok(Snapshot::from_pairs([("x", Value::Int(1))]))
        }
    }

    #[test]
    fn counters_match_the_calls_made_and_calls_reach_the_inner_sut() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let shared: SharedObserved = Arc::default();
        let spans = Recorder::enabled();
        let mut sut = TimedSut::new(
            Box::new(ScriptedSut { log: log.clone() }),
            shared.clone(),
            spans.clone(),
        );
        sut.deploy().unwrap();
        let first = sut.offers().unwrap();
        sut.offers().unwrap();
        sut.offers().unwrap();
        sut.execute(&first[0]).unwrap();
        sut.snapshot().unwrap();
        assert!(sut
            .execute_external(&ActionInstance::nullary("Crash"))
            .is_err());
        sut.snapshot().unwrap();
        sut.teardown();

        let o = shared.lock().unwrap();
        let c = &o.counters;
        assert_eq!(
            (
                c.deploys,
                c.offer_polls,
                c.executes,
                c.snapshots,
                c.teardowns
            ),
            (1, 3, 2, 2, 1)
        );
        assert_eq!(c.polls_per_execute(), 1.5);
        assert_eq!(o.case_ms.len(), 1, "one deploy-to-teardown sample");
        assert_eq!(o.offers.len(), 3);
        assert_eq!(o.snapshots.len(), 2);
        assert!(c.busy_s() >= 0.0);
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                "deploy", "offers", "offers", "offers", "execute", "snapshot", "external",
                "snapshot", "teardown"
            ]
        );
        // One span per call, named after the entry point.
        let names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 9);
        assert_eq!(names.iter().filter(|n| **n == "sut.offers").count(), 3);
        assert_eq!(names.iter().filter(|n| **n == "sut.execute").count(), 2);
    }

    #[test]
    fn captures_stop_at_the_limit() {
        let shared: SharedObserved = Arc::default();
        let mut sut = TimedSut::new(
            Box::new(ScriptedSut {
                log: Arc::default(),
            }),
            shared.clone(),
            Recorder::disabled(),
        );
        for _ in 0..CAPTURE_LIMIT + 10 {
            sut.snapshot().unwrap();
        }
        let o = shared.lock().unwrap();
        assert_eq!(o.snapshots.len(), CAPTURE_LIMIT);
        assert_eq!(o.counters.snapshots, (CAPTURE_LIMIT + 10) as u64);
    }
}
