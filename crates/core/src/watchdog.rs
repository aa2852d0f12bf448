//! The case watchdog: a hang costs its case, never the harness.
//!
//! The paper deploys a fresh cluster per test case (§4.3.2), so the
//! case is the unit a hang should cost. [`on_case_thread`] runs a case
//! on one plain thread that owns the system under test, and the caller
//! waits. The case thread publishes its step ([`at`]) and each call in
//! flight ([`guard`]); a node host guards each node step again, naming
//! the node. When one call outlives the budget in real time, the caller
//! abandons the thread with the system it owns and gets [`Hung`]. The
//! case thread writes nothing shared but its tracer: its counts stay in
//! the case's own tally, which an abandoned thread never hands back. If
//! the call returns after all, [`guard`] parks the thread for good
//! before it writes anything: no trace event or clock reading moves
//! after the verdict. Off a case thread both do nothing.

use std::cell::OnceCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mocket_sim::{Clock, RealClock};

use crate::sut::SystemUnderTest;

/// Where an abandoned case stood when its call hung.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hung {
    /// The step the case was on; `None` before the first.
    pub step: Option<usize>,
    /// When that step began, on the run's clock.
    pub step_start: Duration,
    /// The node whose code was running, when known.
    pub node: Option<u64>,
}

/// What a case thread publishes and its caller reads.
#[derive(Default)]
struct Post {
    wall: RealClock,
    at: Hung,
    /// When the call in flight began, on `wall`.
    since: Option<Duration>,
    abandoned: bool,
}

thread_local! {
    /// The post of the case this thread runs, if it is a case thread.
    static CASE: OnceCell<Arc<Mutex<Post>>> = const { OnceCell::new() };
}

/// Publishes the step the case thread is on (`None`: before the first)
/// and when it began on the run's clock.
pub fn at(step: Option<usize>, step_start: Duration) {
    CASE.with(|case| {
        if let Some(post) = case.get() {
            let mut post = post.lock().unwrap();
            (post.at.step, post.at.step_start) = (step, step_start);
        }
    });
}

/// Runs one call into the system under test under the watchdog; `node`
/// is the node whose code runs, when known. A nested guard ends the
/// flight of the one around it.
pub fn guard<T>(node: Option<u64>, call: impl FnOnce() -> T) -> T {
    CASE.with(|case| {
        let Some(post) = case.get() else {
            return call();
        };
        {
            let mut post = post.lock().unwrap();
            (post.at.node, post.since) = (node, Some(post.wall.now()));
        }
        let out = call();
        let mut post = post.lock().unwrap();
        if post.abandoned {
            drop(post);
            loop {
                std::thread::park();
            }
        }
        post.since = None;
        out
    })
}

/// Runs `body` over `sut` on a fresh case thread and waits: the body's
/// value and the system, or [`Hung`] once one guarded call has run for
/// `budget` of real time. A panic in the body resumes on the caller.
pub fn on_case_thread<T: Send + 'static>(
    mut sut: Box<dyn SystemUnderTest>,
    budget: Duration,
    body: impl FnOnce(&mut dyn SystemUnderTest) -> T + Send + 'static,
) -> Result<(T, Box<dyn SystemUnderTest>), Hung> {
    let post = Arc::<Mutex<Post>>::default();
    let case_post = post.clone();
    let (done_tx, done_rx) = sync_channel(1);
    std::thread::Builder::new()
        .name("case".to_string())
        .spawn(move || {
            CASE.with(|case| case.set(case_post).ok());
            let out = catch_unwind(AssertUnwindSafe(|| body(sut.as_mut())));
            let _ = done_tx.send(out.map(|value| (value, sut)));
        })
        .expect("spawn a case thread");
    loop {
        let wait = {
            let mut post = post.lock().unwrap();
            let spent = post.since.map(|since| post.wall.now().saturating_sub(since));
            if spent.is_some_and(|spent| spent >= budget) {
                post.abandoned = true;
                return Err(post.at);
            }
            budget - spent.unwrap_or_default()
        };
        match done_rx.recv_timeout(wait) {
            Ok(Ok(done)) => return Ok(done),
            Ok(Err(panic)) => resume_unwind(panic),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => unreachable!("a case thread always answers"),
        }
    }
}
