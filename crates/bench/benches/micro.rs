//! Microbenchmarks for the pipeline's hot paths: fingerprinting,
//! successor generation, model checking, DOT round-trips and
//! message-to-spec-record conversion.
//!
//! Criterion is unavailable offline, so this is a plain
//! `harness = false` timing loop: each benchmark is warmed up, then
//! run for a fixed wall-clock window and reported as ns/iter.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mocket_checker::{from_dot, to_dot, ModelChecker};
use mocket_raft_async::{Entry, RaftMsg};
use mocket_specs::cachemax::CacheMax;
use mocket_specs::raft::{RaftSpec, RaftSpecConfig};
use mocket_tla::{successors_with, Spec, State, Value};

const WARMUP: Duration = Duration::from_millis(100);
const WINDOW: Duration = Duration::from_millis(400);

fn bench(name: &str, mut f: impl FnMut()) {
    let start = Instant::now();
    while start.elapsed() < WARMUP {
        f();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < WINDOW {
        f();
        iters += 1;
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:40} {ns:>14.1} ns/iter   ({iters} iters)");
}

fn sample_state() -> State {
    RaftSpec::new(RaftSpecConfig {
        servers: vec![1, 2, 3],
        ..mocket_bench::xraft_model()
    })
        .init_states()
        .remove(0)
}

fn main() {
    let state = sample_state();
    bench("state_fingerprint_raft3", || {
        std::hint::black_box(state.fingerprint());
    });

    let spec = RaftSpec::new(mocket_bench::xraft_model());
    let actions = spec.actions();
    let init = spec.init_states().remove(0);
    bench("successors_raft2_init", || {
        std::hint::black_box(successors_with(&actions, &init).len());
    });

    bench("model_check_cachemax_data4", || {
        let r = ModelChecker::new(Arc::new(CacheMax::with_data_size(4))).run();
        std::hint::black_box(r.stats.distinct_states);
    });

    let graph = ModelChecker::new(Arc::new(CacheMax::with_data_size(3)))
        .run()
        .graph;
    let dot = to_dot(&graph);
    bench("dot_write_cachemax3", || {
        std::hint::black_box(to_dot(&graph).len());
    });
    bench("dot_parse_cachemax3", || {
        std::hint::black_box(from_dot(&dot).unwrap().state_count());
    });

    let msg = RaftMsg::AppendRequest {
        term: 3,
        prev_log_index: 1,
        prev_log_term: 2,
        entries: vec![Entry::noop(3), Entry::data(3, 42)],
        commit_index: 1,
        source: 1,
        dest: 2,
    };
    bench("msg_to_spec_record", || {
        std::hint::black_box(msg.to_value());
    });

    let state = sample_state();
    bench("state_with_update", || {
        std::hint::black_box(state.clone().with(
            "currentTerm",
            Value::const_fun([Value::Int(1), Value::Int(2), Value::Int(3)], Value::Int(2)),
        ));
    });
}
