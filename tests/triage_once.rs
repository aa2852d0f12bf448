//! A failure is triaged once per failure key: the cases of a window that
//! fail the same way after the same prefix share one explanation, one
//! confirmation, one shrink and one artifact write, and each still gets
//! the report it would get if it ran alone.
//!
//! The window is cases 16..32 of the `voted-for-not-persisted` Table-2
//! row (Xraft, no POR). It holds eleven failure keys. Three of them cover
//! two cases each, and two reproducers are each reached from two
//! different keys, with another reproducer between them.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use mocket::checker::{EdgeId, StateGraph};
use mocket::core::{
    BugReport, PipelineConfig, PipelineResult, ReplayArtifact, TestCase, TriageConfig,
};
use mocket::runtime::Backend;
use mocket::sim::SimHandle;
use mocket::targets::{self, Target};

const WINDOW: (usize, usize) = (16, 32);

fn target() -> Target {
    targets::by_name("xraft", Some("voted-for-not-persisted")).unwrap()
}

/// The row's hunt configuration over the cases `range`, run to the end
/// of the range.
fn config(range: (usize, usize)) -> PipelineConfig {
    let mut pc = target().hunt_config();
    pc.stop_at_first_bug = false;
    pc.case_range = Some(range);
    pc
}

/// A fresh directory for one run.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mocket-triage-once-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One seeded sim run of `pc` on `graph`, with artifacts into `dir`;
/// the result and the number of `make_sut` calls it made.
fn run(
    target: &Target,
    mut pc: PipelineConfig,
    graph: &StateGraph,
    dir: &Path,
) -> (PipelineResult, usize) {
    let handle = SimHandle::new(7);
    pc.clock = handle.clock.clone();
    pc.triage.campaign_dir = Some(dir.to_path_buf());
    let pipeline = target.pipeline(pc).unwrap();
    let backend = Backend::Sim(handle);
    let made = AtomicUsize::new(0);
    let result = pipeline.run_prepared(graph.clone(), 0.0, || {
        made.fetch_add(1, Ordering::SeqCst);
        target.sut(backend.clone())
    });
    (result, made.into_inner())
}

/// A failure's key: the edge path through its failing step `k`, and
/// whether the case runs past step `k + 1`.
fn key(path: &[EdgeId], report: &BugReport) -> (Vec<EdgeId>, bool) {
    let len = path.len();
    let k = report.inconsistency.failing_step(len);
    (path[..=k.min(len - 1)].to_vec(), len > k + 1)
}

/// What a report decided, apart from the case's elapsed time.
fn decided(r: &BugReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.test_case.stable_hash(),
        r.inconsistency.clone(),
        r.determinism,
        r.minimized.as_ref().map(TestCase::stable_hash),
        r.explanation.clone(),
        r.actions_executed,
    )
}

/// The window's failures, by case index: each failing case's path.
struct Window {
    graph: StateGraph,
    result: PipelineResult,
    made: usize,
    /// Failing case index -> its edge path.
    failing: BTreeMap<usize, Vec<EdgeId>>,
}

fn window(dir: &Path) -> Window {
    let target = target();
    let pipeline = target.pipeline(config(WINDOW)).unwrap();
    let (graph, _) = pipeline.check();
    let (paths, ..) = pipeline.generate_paths(&graph);
    let index: HashMap<String, usize> = (WINDOW.0..WINDOW.1)
        .map(|i| {
            (
                TestCase::from_edge_path(&graph, &paths[i])
                    .unwrap()
                    .stable_hash(),
                i,
            )
        })
        .collect();
    let (result, made) = run(&target, config(WINDOW), &graph, dir);
    let failing = result
        .reports
        .iter()
        .map(|r| {
            let i = index[&r.test_case.stable_hash()];
            (i, paths[i].clone())
        })
        .collect();
    Window {
        graph,
        result,
        made,
        failing,
    }
}

/// Every report equals the one its case gets alone, in a single-case
/// window with a fresh directory; the window deploys once per fresh
/// walk start plus one triage's re-runs per key.
#[test]
fn a_window_triages_each_failure_key_once() {
    let target = target();
    let window_dir = scratch("window");
    let w = window(&window_dir);
    let keys: Vec<_> = w
        .result
        .reports
        .iter()
        .zip(w.failing.values())
        .map(|(r, path)| key(path, r))
        .collect();
    let mut cases_per_key: HashMap<&(Vec<EdgeId>, bool), usize> = HashMap::new();
    for k in &keys {
        *cases_per_key.entry(k).or_default() += 1;
    }
    assert!(
        cases_per_key.len() >= 2 && cases_per_key.values().filter(|&&n| n >= 2).count() >= 2,
        "the window needs two keys with more than one case each: {:?}",
        cases_per_key.values()
    );

    // The walk's own fresh deployments: the same window, no triage.
    let mut untriaged = config(WINDOW);
    untriaged.triage = TriageConfig::off();
    let untriaged_dir = scratch("untriaged");
    let (plain, walk_deploys) = run(&target, untriaged, &w.graph, &untriaged_dir);
    assert_eq!(plain.reports.len(), w.result.reports.len());

    let mut triage_reruns = 0;
    let mut seen = Vec::new();
    for (&idx, (report, k)) in w.failing.keys().zip(w.result.reports.iter().zip(&keys)) {
        let dir = scratch(&format!("alone-{idx}"));
        let (alone, made) = run(&target, config((idx, idx + 1)), &w.graph, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(alone.reports.len(), 1, "case {idx} fails alone too");
        assert_eq!(decided(report), decided(&alone.reports[0]), "case {idx}");
        if !seen.contains(&k) {
            seen.push(k);
            triage_reruns += made - 1;
        }
    }
    assert!(triage_reruns > 0);
    assert_eq!(
        w.made,
        walk_deploys + triage_reruns,
        "one triage per key: {} keys over {} failing cases",
        seen.len(),
        keys.len()
    );
    let _ = std::fs::remove_dir_all(&window_dir);
    let _ = std::fs::remove_dir_all(&untriaged_dir);
}

/// One artifact per distinct reproducer, written by the first case (in
/// index order) that reaches it; `artifacts` lists each file once.
#[test]
fn each_reproducer_is_written_once_by_its_first_case() {
    let dir = scratch("artifacts");
    let w = window(&dir);
    let mut first_len: BTreeMap<String, usize> = BTreeMap::new();
    let mut order = Vec::new();
    for (r, path) in w.result.reports.iter().zip(w.failing.values()) {
        let repro = r.minimized.as_ref().unwrap_or(&r.test_case).stable_hash();
        order.push(repro.clone());
        first_len.entry(repro).or_insert(path.len());
    }
    let interleaved = (0..order.len()).any(|i| {
        (i + 1..order.len()).any(|j| order[j] != order[i] && order[j + 1..].contains(&order[i]))
    });
    assert!(interleaved, "no reproducer recurs after another: {order:?}");
    assert!(
        first_len.len() < w.result.reports.len(),
        "cases share reproducers"
    );

    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".artifact"))
        .collect();
    on_disk.sort();
    let expected: Vec<String> = first_len
        .keys()
        .map(|h| ReplayArtifact::file_name_of(h))
        .collect();
    assert_eq!(on_disk, expected);
    let mut listed: Vec<String> = w
        .result
        .artifacts
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    listed.sort();
    assert_eq!(listed, expected, "each written file is listed once");
    for (hash, len) in &first_len {
        let artifact = ReplayArtifact::load(&dir.join(ReplayArtifact::file_name_of(hash))).unwrap();
        assert_eq!(
            artifact.original_len, *len,
            "{hash}: the first case's length"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
