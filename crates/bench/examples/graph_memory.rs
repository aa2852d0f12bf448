//! What a state-space graph costs in memory: check -> `to_dot` ->
//! `from_dot` of one bench model in this process, the way the pipeline
//! crosses the TLC -> Mocket boundary, read off `/proc/self/status` —
//! then what its test suite costs to materialise and identify: POR,
//! the edge-coverage traversal and every reduced case built and hashed
//! one at a time, each hash checked against FNV-1a of its serialized
//! text.
//!
//! ```sh
//! cargo run --release -p mocket-bench --example graph_memory -- Raft-java --max-hwm-mb 250
//! ```
//!
//! Prints the model's size, the resident-set growth over the check
//! alone and the process's peak (`VmHWM`) over the whole run, each also
//! per state, and the seconds of materialise + hash next to those of
//! the check. Exits 1 when a case hash is not the FNV-1a of the case's
//! `serialize()` bytes or the peak exceeds `--max-hwm-mb`. CI runs the
//! Raft-java line above so that a regression of the state storage or of
//! the case identity (DESIGN.md, "State storage") fails a build rather
//! than the next benchmark round. Linux only.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mocket_bench::bench_specs;
use mocket_checker::{from_dot, to_dot, ModelChecker};
use mocket_core::{edge_coverage_paths, partial_order_reduction, TestCase, TraversalConfig};
use mocket_obs::fsio::Fnv1a;

/// A `Vm*` line of `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux procfs");
    let line = status.lines().find(|l| l.starts_with(key));
    let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.unwrap_or_else(|| panic!("no {key} in /proc/self/status")) / 1024.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let model = args.first().map_or("Raft-java", String::as_str);
    let max_hwm_mb = match args.get(1).map(String::as_str) {
        Some("--max-hwm-mb") => args.get(2).and_then(|v| v.parse::<f64>().ok()),
        _ => None,
    };
    let Some((name, spec)) = bench_specs().into_iter().find(|(n, _)| *n == model) else {
        eprintln!("unknown model {model:?}; one of Xraft, Raft-java, ZooKeeper");
        std::process::exit(2);
    };

    let before = status_mb("VmRSS:");
    let t = Instant::now();
    let result = ModelChecker::new(spec).workers(1).run();
    let check_s = t.elapsed().as_secs_f64();
    assert!(result.ok(), "bench models satisfy their invariants");
    let check_mb = status_mb("VmRSS:") - before;
    let states = result.graph.state_count();

    let dot = to_dot(&result.graph);
    let dot_mb = dot.len() as f64 / (1024.0 * 1024.0);
    drop(result);
    let graph = from_dot(&dot).expect("the checker's own DOT export parses");
    drop(dot);
    assert_eq!(graph.state_count(), states);

    // The reduced suite the pipeline runs (perfbench's path bound).
    let mut cfg = TraversalConfig::default()
        .with_excluded_edges(partial_order_reduction(&graph).excluded_edges);
    cfg.max_path_len = 60;
    let paths = edge_coverage_paths(&graph, &cfg).paths;
    let mut case_time = Duration::ZERO;
    let mut cases = 0usize;
    for path in &paths {
        let t = Instant::now();
        let Some(case) = TestCase::from_edge_path(&graph, path) else {
            continue;
        };
        let hash = case.stable_hash();
        case_time += t.elapsed();
        let mut reference = Fnv1a::new();
        let _ = reference.write_str(&case.serialize());
        if hash != reference.hex() {
            eprintln!(
                "case {cases}: stable_hash {hash} is not FNV-1a {} of its serialized text",
                reference.hex()
            );
            std::process::exit(1);
        }
        cases += 1;
    }
    let hwm_mb = status_mb("VmHWM:");

    let kb_per_state = |mb: f64| mb * 1024.0 / states as f64;
    println!(
        "{name}: {states} states, {dot_mb:.1} MB DOT; check +{check_mb:.1} MB ({:.2} KB/state); \
         check -> DOT -> import -> suite peak {hwm_mb:.1} MB ({:.2} KB/state)",
        kb_per_state(check_mb),
        kb_per_state(hwm_mb),
    );
    println!(
        "{name}: {cases} cases hashed as FNV-1a of their text; materialise + hash {:.2} s, check {check_s:.2} s",
        case_time.as_secs_f64(),
    );
    if let Some(max) = max_hwm_mb.filter(|&max| hwm_mb > max) {
        eprintln!("peak RSS {hwm_mb:.1} MB exceeds --max-hwm-mb {max}");
        std::process::exit(1);
    }
}
