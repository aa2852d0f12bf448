//! The suite runs as its prefix tree: a case resumes from a fork of the
//! deployment that already passed the steps it shares with the case
//! before, and everything it writes is what a fresh deployment per case
//! writes.
//!
//! Each differential runs one seeded, traced `--sim` pipeline twice into
//! its own obs and campaign directories: once on the target's own
//! system, which forks, and once behind a [`Wrapped`] system whose
//! `fork` is `None`, which runs every case on a fresh deployment.
//! Verdicts, case hashes and every output byte must agree;
//! `run-summary.json` agrees after `strip_wall_clock`. The work-count
//! test pins what the walk saves.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mocket::checker::EdgeId;
use mocket::core::{
    ExecReport, Offer, PipelineConfig, PipelineResult, RunConfig, Snapshot, SutError,
    SystemUnderTest,
};
use mocket::obs::causal::Tracer;
use mocket::obs::{strip_wall_clock, Obs};
use mocket::raft_async::XraftBugs;
use mocket::runtime::Backend;
use mocket::sim::SimHandle;
use mocket::targets::{self, Target};
use mocket::tla::ActionInstance;

/// Forwards every call to the deployment it wraps, and counts the
/// executed steps in `steps` when given. `fork` is forwarded only when
/// `forks`: without it every case runs on a fresh deployment.
struct Wrapped {
    inner: Box<dyn SystemUnderTest>,
    forks: bool,
    steps: Option<Arc<AtomicUsize>>,
}

impl Wrapped {
    fn boxed(
        inner: Box<dyn SystemUnderTest>,
        forks: bool,
        steps: Option<Arc<AtomicUsize>>,
    ) -> Box<dyn SystemUnderTest> {
        Box::new(Wrapped {
            inner,
            forks,
            steps,
        })
    }

    fn count(&self) {
        if let Some(steps) = &self.steps {
            steps.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl SystemUnderTest for Wrapped {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.inner.deploy()
    }
    fn teardown(&mut self) {
        self.inner.teardown()
    }
    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        self.inner.offers()
    }
    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        self.count();
        self.inner.execute(offer)
    }
    fn execute_external(&mut self, action: &ActionInstance) -> Result<ExecReport, SutError> {
        self.count();
        self.inner.execute_external(action)
    }
    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        self.inner.snapshot()
    }
    fn install_tracer(&mut self, tracer: &Tracer) {
        self.inner.install_tracer(tracer)
    }
    fn fork(&self) -> Option<Box<dyn SystemUnderTest>> {
        let inner = self.forks.then(|| self.inner.fork())??;
        Some(Wrapped::boxed(inner, true, self.steps.clone()))
    }
}

/// A fresh directory for one run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocket-prefix-walk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir`, by relative path; `run-summary.json` with
/// its `wall_` lines stripped, lock files (a pid) left out.
fn outputs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let name = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
            if name.ends_with(".lock") {
                continue;
            }
            let bytes = std::fs::read(&path).unwrap();
            let bytes = if name.ends_with("run-summary.json") {
                strip_wall_clock(&String::from_utf8(bytes).unwrap()).into_bytes()
            } else {
                bytes
            };
            out.insert(name, bytes);
        }
    }
    out
}

/// What a run decided, case by case.
fn verdicts(result: &PipelineResult) -> Vec<String> {
    let mut out = vec![format!(
        "selected {} run {} passed {} quarantined {} journaled {}",
        result.cases_selected,
        result.effort.cases_run,
        result.passed,
        result.quarantined.len(),
        result.skipped_from_journal
    )];
    for r in &result.reports {
        out.push(format!(
            "{} {} : {} after {} at {:?} {} min {:?}",
            r.test_case.stable_hash(),
            r.inconsistency.kind(),
            r.inconsistency.subject(),
            r.actions_executed,
            r.elapsed,
            r.determinism.label(),
            r.minimized.as_ref().map(|m| m.stable_hash()),
        ));
    }
    out
}

/// One seeded, traced sim run of `pc` on `target` into `dir`, on the
/// target's own deployments or on fork-less ones; the decisions and the
/// bytes it wrote.
fn run(
    target: &Target,
    mut pc: PipelineConfig,
    forks: bool,
    dir: &Path,
) -> (Vec<String>, BTreeMap<String, Vec<u8>>) {
    let handle = SimHandle::new(7);
    pc.clock = handle.clock.clone();
    pc.trace = true;
    pc.run = RunConfig::fast();
    pc.obs = Obs::jsonl_in(&dir.join("obs")).unwrap();
    pc.triage.campaign_dir = Some(dir.join("campaign"));
    let pipeline = target.pipeline(pc).unwrap();
    let backend = Backend::Sim(handle);
    let result = pipeline.run(|| Wrapped::boxed(target.sut(backend.clone()), forks, None));
    let written = outputs(dir);
    let _ = std::fs::remove_dir_all(dir);
    (verdicts(&result), written)
}

/// Runs `pc` both ways and requires the same decisions and bytes.
fn differential(name: &str, target: &Target, pc: impl Fn() -> PipelineConfig) -> Vec<String> {
    let (walked, walk_files) = run(target, pc(), true, &scratch(&format!("{name}-walk")));
    let (fresh, fresh_files) = run(target, pc(), false, &scratch(&format!("{name}-fresh")));
    assert_eq!(walked, fresh, "{name}: verdicts");
    assert_eq!(
        walk_files.keys().collect::<Vec<_>>(),
        fresh_files.keys().collect::<Vec<_>>(),
        "{name}: files written"
    );
    for (file, bytes) in &fresh_files {
        assert!(
            walk_files[file] == *bytes,
            "{name}: {file} differs between the walk and fresh deployments"
        );
    }
    for file in ["events.jsonl", "coverage.json", "run-summary.json"] {
        assert!(fresh_files.contains_key(&format!("obs/{file}")), "{name}: no {file}");
    }
    for file in ["journal.log", "trace.jsonl"] {
        assert!(fresh_files.contains_key(&format!("campaign/{file}")), "{name}: no {file}");
    }
    let artifacts = fresh_files.keys().filter(|f| f.ends_with(".artifact")).count();
    assert_eq!(artifacts > 0, fresh.len() > 1, "{name}: a failure leaves an artifact");
    walked
}

/// A window of the POR-reduced suite.
fn window(start: usize, end: usize) -> PipelineConfig {
    let mut pc = PipelineConfig::default();
    pc.max_path_len = 60;
    pc.stop_at_first_bug = false;
    pc.case_range = Some((start, end));
    pc
}

#[test]
fn xraft_bug_window_walk_matches_fresh_deployments() {
    let bugs = XraftBugs {
        duplicate_vote_counting: true,
        ..XraftBugs::none()
    };
    let target = targets::xraft(targets::xraft_model(), bugs);
    let decided = differential("xraft-bug", &target, || window(30, 60));
    assert_eq!(decided.len(), 1 + 22, "cases 38..60 fail: {decided:?}");
}

#[test]
fn raft_java_walk_matches_fresh_deployments() {
    let target = targets::by_name("raft-java", None).unwrap();
    let decided = differential("raft-java", &target, || {
        let mut pc = target.hunt_config();
        pc.max_test_cases = 150;
        pc
    });
    assert_eq!(decided, ["selected 150 run 150 passed 150 quarantined 0 journaled 0"]);
}

#[test]
fn zookeeper_window_walk_matches_fresh_deployments() {
    let target = targets::by_name("zab", None).unwrap();
    let decided = differential("zab", &target, || window(3500, 3650));
    assert_eq!(decided, ["selected 14536 run 150 passed 150 quarantined 0 journaled 0"]);
}

/// On a fixed 300-case ZooKeeper window, a case executes exactly the
/// steps it does not share with the case before: the trie bound, under
/// a tenth of the fresh runs' steps.
#[test]
fn zookeeper_window_executes_only_unshared_steps() {
    let target = targets::by_name("zab", None).unwrap();
    let (start, end) = (3500, 3800);
    let handle = SimHandle::new(7);
    let mut pc = window(start, end);
    pc.clock = handle.clock.clone();
    let pipeline = target.pipeline(pc).unwrap();
    let (graph, _) = pipeline.check();
    let (paths, ..) = pipeline.generate_paths(&graph);
    let mut prev: &[EdgeId] = &[];
    let (mut unshared, mut total) = (0, 0);
    for path in &paths[start..end] {
        let lcp = prev.iter().zip(path).take_while(|(a, b)| a == b).count();
        unshared += path.len() - lcp;
        total += path.len();
        prev = path;
    }

    let steps = Arc::new(AtomicUsize::new(0));
    let backend = Backend::Sim(handle);
    let result = pipeline.run_prepared(graph, 0.0, || {
        Wrapped::boxed(target.sut(backend.clone()), true, Some(steps.clone()))
    });
    assert_eq!(result.passed, end - start);
    let executed = steps.load(Ordering::SeqCst);
    assert_eq!(executed, unshared, "Σ(len − LCP) over {total} steps");
    assert!(executed * 10 <= total, "{executed} of {total} steps executed");
}
