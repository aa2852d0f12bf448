//! What a state-space graph costs in memory: check -> `to_dot` ->
//! `from_dot` of one bench model in this process, the way the pipeline
//! crosses the TLC -> Mocket boundary, read off `/proc/self/status`.
//!
//! ```sh
//! cargo run --release -p mocket-bench --example graph_memory -- Raft-java --max-hwm-mb 250
//! ```
//!
//! Prints the model's size, the resident-set growth over the check
//! alone and the process's peak (`VmHWM`) over the whole round trip,
//! each also per state, and exits 1 when the peak exceeds
//! `--max-hwm-mb`. CI runs the Raft-java line above so that a
//! regression of the state storage (DESIGN.md, "State storage") fails
//! a build rather than the next benchmark round. Linux only.

use mocket_bench::bench_specs;
use mocket_checker::{from_dot, to_dot, ModelChecker};

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
    let result = ModelChecker::new(spec).workers(1).run();
    assert!(result.ok(), "bench models satisfy their invariants");
    let check_mb = status_mb("VmRSS:") - before;
    let states = result.graph.state_count();

    let dot = to_dot(&result.graph);
    drop(result);
    let imported = from_dot(&dot).expect("the checker's own DOT export parses");
    assert_eq!(imported.state_count(), states);
    let hwm_mb = status_mb("VmHWM:");

    let kb_per_state = |mb: f64| mb * 1024.0 / states as f64;
    println!(
        "{name}: {states} states, {:.1} MB DOT; check +{check_mb:.1} MB ({:.2} KB/state); \
         check -> DOT -> import peak {hwm_mb:.1} MB ({:.2} KB/state)",
        dot.len() as f64 / (1024.0 * 1024.0),
        kb_per_state(check_mb),
        kb_per_state(hwm_mb),
    );
    if let Some(max) = max_hwm_mb.filter(|&max| hwm_mb > max) {
        eprintln!("peak RSS {hwm_mb:.1} MB exceeds --max-hwm-mb {max}");
        std::process::exit(1);
    }
}
