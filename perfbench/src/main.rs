//! `mocket-perfbench` — the repo benchmark (BENCHMARK.json, README.md).
//!
//! ```text
//! mocket-perfbench --workload W --seed N --seconds S --trace 0|1 [--quick]   one run (the driver's form)
//! mocket-perfbench [--seed N] [--seconds S] [--quick]                        every workload: untraced rounds, then a traced one
//! mocket-perfbench --spread DIR                                              spread of the runs under DIR vs the bounds
//! mocket-perfbench --compare PARENT_DIR CHANGE_DIR                           parent-vs-change verdicts
//! mocket-perfbench --print-benchmark-json                                    BENCHMARK.json from the metric table
//! ```
//!
//! Use `perfbench/run.sh`, which builds this binary and `mocket-cli`
//! first. Results land in `$PERFBENCH_OUT`, default
//! `$CARGO_TARGET_DIR/benchmark`.

mod adapter;
mod driver;
mod expected;
mod layers;
mod metrics;
mod procstat;
mod record;
mod report;
mod spans;
mod stats;
mod timed_sut;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// `--key value` pairs and bare flags.
struct Args {
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    fn parse() -> Args {
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut current = None;
        for arg in std::env::args().skip(1) {
            match arg.strip_prefix("--") {
                Some(key) => {
                    flags.entry(key.to_string()).or_default();
                    current = Some(key.to_string());
                }
                None => match &current {
                    Some(key) => flags.get_mut(key).expect("flag was inserted").push(arg),
                    None => usage(&format!("unexpected argument {arg:?}")),
                },
            }
        }
        Args { flags }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn values(&self, key: &str) -> &[String] {
        self.flags.get(key).map_or(&[], Vec::as_slice)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values(key).first() {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("--{key} {v:?} is not valid"))),
            None => default,
        }
    }

    fn workload(&self, key: &str) -> Option<Workload> {
        self.values(key).first().map(|name| {
            Workload::from_name(name).unwrap_or_else(|| {
                let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                usage(&format!(
                    "unknown workload {name:?} (known: {})",
                    known.join(", ")
                ))
            })
        })
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("mocket-perfbench: {problem}");
    eprintln!(
        "usage: mocket-perfbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
         mocket-perfbench --spread DIR | --compare PARENT_DIR CHANGE_DIR | --print-benchmark-json"
    );
    std::process::exit(2);
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A round child: one round, one record on stdout.
fn round_child(args: &Args, w: Workload) -> ExitCode {
    let scratch = PathBuf::from(args.parsed("scratch", String::new()));
    let rec = workloads::run_round(
        w,
        args.parsed("seed", 42),
        args.has("quick"),
        args.parsed("traced", 0u8) == 1,
        &scratch,
    );
    println!("{}", rec.to_json_line());
    ExitCode::SUCCESS
}

/// The hunts child: one line per Table-2 row.
fn hunts_child(args: &Args) -> ExitCode {
    let sim = adapter::Sim::new(args.parsed("seed", 42));
    let mut all = true;
    for row in adapter::table2_rows() {
        let found = adapter::hunt(&row.model, &sim, row.filter.clone());
        let hit = found.as_deref() == Some(row.expected);
        all &= hit;
        println!(
            "hunt\t{}\t{}\texpected {}\tgot {}",
            if hit { "HIT" } else { "MISS" },
            row.id,
            row.expected,
            found.as_deref().unwrap_or("nothing")
        );
    }
    exit(all)
}

fn main() -> ExitCode {
    let args = Args::parse();
    if let Some(w) = args.workload("round") {
        return round_child(&args, w);
    }
    if args.has("hunts") {
        return hunts_child(&args);
    }
    if args.has("touch-pages") {
        procstat::touch_pages(args.parsed("touch-pages", 0));
        return ExitCode::SUCCESS;
    }
    if args.has("print-benchmark-json") {
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        print!("{}", metrics::benchmark_json(&workloads));
        return ExitCode::SUCCESS;
    }
    if args.has("spread") {
        return match args.values("spread") {
            [dir] => exit(report::spread(dir.as_ref())),
            _ => usage("--spread takes one directory"),
        };
    }
    if args.has("compare") {
        return match args.values("compare") {
            [parent, change] => exit(report::compare(parent.as_ref(), change.as_ref())),
            _ => usage("--compare takes the parent's and the change's result directories"),
        };
    }

    let exe = std::env::current_exe().expect("own path is known");
    let bin_dir = exe.parent().expect("binary lives in a directory");
    let out = match std::env::var_os("PERFBENCH_OUT") {
        Some(dir) => PathBuf::from(dir),
        // <target>/release/mocket-perfbench -> <target>/benchmark
        None => bin_dir.parent().unwrap_or(bin_dir).join("benchmark"),
    };
    let quick = args.has("quick");
    let default_seconds = if quick {
        3.0
    } else {
        metrics::RUN_SECONDS as f64
    };
    let options = |workload, trace, hunts| driver::Options {
        workload,
        seed: args.parsed("seed", 42),
        seconds: args.parsed("seconds", default_seconds),
        trace,
        hunts,
        quick,
        out: out.clone(),
        cli: bin_dir.join("mocket-cli"),
    };

    // The driver's form: one workload, one run, one JSON line last.
    if let Some(w) = args.workload("workload") {
        let outcome = driver::run(&options(w, args.parsed("trace", 0u8) == 1, true));
        println!("{}", outcome.json_line());
        return exit(outcome.correct);
    }

    // Every workload: one traced run, which reports the end-to-end
    // metrics of its untraced rounds and the per-layer metrics of its
    // traced one. The Table-2 hunts run once, with the first.
    let mut all_correct = true;
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        all_correct &= driver::run(&options(w, true, i == 0)).correct;
    }
    println!(
        "results in {} ({})",
        out.display(),
        if all_correct {
            "all outputs correct"
        } else {
            "INCORRECT outputs, see above"
        }
    );
    exit(all_correct)
}
