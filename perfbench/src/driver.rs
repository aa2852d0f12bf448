//! The parent side of a run: launches rounds as child processes (one
//! warm-up, then timed ones until the run's seconds are used), checks
//! their outputs, and reduces them to the metrics of `BENCHMARK.json`.
//!
//! The parent does no product work itself, so it stays a few MB large:
//! a child's kernel-accounted peak RSS starts from its parent's (the
//! address space is shared until `exec`), and a fat parent would leak
//! into every round's `peak_rss_mb`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::expected::Pins;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procstat::{run_child, ChildCost};
use crate::record::{number, quoted, Field, Record};
use crate::stats;
use crate::workloads::{
    canonical_output_hashes, check_campaign_outputs, fnv1a, Workload, CAMPAIGN_SHARD_SIZE,
    CAMPAIGN_WORKERS,
};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the nine Table-2 hunts before the traced round.
    pub hunts: bool,
    pub quick: bool,
    /// Where results, spans and per-round scratch directories go.
    pub out: PathBuf,
    /// The product's CLI, built by `run.sh`.
    pub cli: PathBuf,
}

/// One finished round: what it reported and what the kernel charged.
struct Round {
    rec: Record,
    cpu_s: f64,
    peak_rss_mb: f64,
}

impl Round {
    fn wall_s(&self) -> f64 {
        self.rec.num("wall_s").unwrap_or(0.0)
    }

    fn end_to_end(&self, name: &str) -> f64 {
        let (wall, setup) = (self.wall_s(), self.rec.num("setup_s").unwrap_or(0.0));
        match name {
            "wall_s" => wall,
            "setup_s" => setup,
            "cases_per_s" => self.rec.num("cases").unwrap_or(0.0) / (wall - setup),
            "cpu_s" => self.cpu_s,
            "peak_rss_mb" => self.peak_rss_mb,
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }
}

/// What a run reduces to.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` — the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The line the driver reads.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quoted(name),
                    number(*value),
                    quoted(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Runner<'a> {
    opts: &'a Options,
    scratch_root: PathBuf,
    rounds_started: usize,
    /// Peak RSS of the last round's largest process; 0 before any.
    last_peak_mb: f64,
    notes: Vec<String>,
}

impl<'a> Runner<'a> {
    fn new(opts: &'a Options, scratch_root: PathBuf) -> Runner<'a> {
        std::fs::create_dir_all(&scratch_root).expect("benchmark output dir is writable");
        Runner {
            opts,
            scratch_root,
            rounds_started: 0,
            last_peak_mb: 0.0,
            notes: Vec::new(),
        }
    }

    fn note(&mut self, note: String) {
        eprintln!("perfbench: {}: {note}", self.opts.workload.name());
        self.notes.push(note);
    }

    fn fresh_scratch(&mut self) -> PathBuf {
        let dir = self.scratch_root.join(format!("r{}", self.rounds_started));
        self.rounds_started += 1;
        std::fs::create_dir_all(&dir).expect("benchmark output dir is writable");
        dir
    }

    /// A self-exec'd child of this binary running `mode`.
    fn child(&self, mode: &[&str], scratch: &Path) -> std::io::Result<ChildCost> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.args(mode)
            .args(["--seed", &self.opts.seed.to_string()])
            .arg("--scratch")
            .arg(scratch);
        if self.opts.quick {
            cmd.arg("--quick");
        }
        run_child(&mut cmd)
    }

    /// Re-backs, in a child of its own, as many pages as the last
    /// round's process tree peaked at (`procstat::touch_pages`), so the
    /// next round's page faults cost the same whenever it starts.
    fn touch_pages(&mut self) {
        let processes = match self.opts.workload {
            Workload::XraftCampaign => CAMPAIGN_WORKERS + 1,
            _ => 1,
        };
        let mb = (self.last_peak_mb * 1.1) as usize * processes;
        if mb > 0 {
            let scratch = self.scratch_root.clone();
            if let Err(e) = self.child(&["--touch-pages", &mb.to_string()], &scratch) {
                self.note(format!("cannot run the page-touching child: {e}"));
            }
        }
    }

    /// One in-process round in a fresh child; `None` (and a note) when
    /// the child died or printed no record.
    fn in_process_round(&mut self, traced: bool) -> Option<Round> {
        self.touch_pages();
        let scratch = self.fresh_scratch();
        let mode = [
            "--round",
            self.opts.workload.name(),
            "--traced",
            if traced { "1" } else { "0" },
        ];
        let round = match self.child(&mode, &scratch) {
            Ok(cost) => {
                let rec = cost
                    .stdout
                    .last()
                    .map(|(_, line)| Record::from_json_line(line));
                match (cost.exit_ok, rec) {
                    (true, Some(Ok(rec))) => Some(Round {
                        rec,
                        cpu_s: cost.cpu_s,
                        peak_rss_mb: cost.peak_rss_mb,
                    }),
                    (ok, rec) => {
                        self.note(format!(
                            "round child failed (exit ok: {ok}, record: {:?})",
                            rec.map(|r| r.is_ok())
                        ));
                        None
                    }
                }
            }
            Err(e) => {
                self.note(format!("cannot run round child: {e}"));
                None
            }
        };
        if traced && round.is_some() {
            let kept = self
                .opts
                .out
                .join(self.opts.workload.name())
                .join("spans.jsonl");
            if let Err(e) = std::fs::copy(scratch.join("spans.jsonl"), &kept) {
                self.note(format!("cannot keep {}: {e}", kept.display()));
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
        round
    }

    /// One campaign round: the product's CLI, supervisor plus two
    /// worker processes, into a fresh directory.
    fn cli_campaign_round(&mut self, pins: &Pins) -> Option<Round> {
        let scratch = self.fresh_scratch();
        let dir = scratch.join("campaign");
        let limit = Workload::campaign_limit(self.opts.quick);
        let mut cmd = Command::new(&self.opts.cli);
        cmd.args([
            "campaign",
            "xraft",
            "--sim",
            "--sim-seed",
            &self.opts.seed.to_string(),
        ])
        .args(["--workers", &CAMPAIGN_WORKERS.to_string()])
        .args(["--shard-size", &CAMPAIGN_SHARD_SIZE.to_string()])
        .args(["--limit", &limit.to_string()])
        .arg("--campaign-dir")
        .arg(&dir);
        let round = match run_child(&mut cmd) {
            Ok(cost) if cost.exit_ok => {
                let mut rec = Record::default();
                rec.set("wall_s", cost.wall_s);
                // Set-up ends when the supervisor has pinned the plan
                // and is about to spawn workers.
                let pinned = cost
                    .stdout
                    .iter()
                    .find(|(_, l)| l.starts_with("campaign plan pinned"));
                rec.set("setup_s", pinned.map_or(cost.wall_s, |(at, _)| *at));
                // "merged: N case(s) with verdicts, P passed, ..."
                let merged: Vec<f64> = cost
                    .stdout
                    .iter()
                    .find_map(|(_, l)| l.strip_prefix("merged: "))
                    .map(|l| {
                        l.split(|c: char| !c.is_ascii_digit())
                            .filter_map(|n| n.parse().ok())
                            .collect()
                    })
                    .unwrap_or_default();
                let (with_verdict, passed) = (
                    merged.first().copied().unwrap_or(0.0),
                    merged.get(1).copied().unwrap_or(0.0),
                );
                rec.set("cases", limit as f64);
                rec.set("failed", limit as f64 - passed.min(limit as f64));
                rec.set("count.cases", with_verdict);
                rec.set("count.passed", passed);
                let plan = std::fs::read(dir.join("plan.txt")).unwrap_or_default();
                rec.set_text("count.plan_hash", fnv1a(plan));
                for (key, value) in canonical_output_hashes(&dir) {
                    rec.set_text(format!("count.{key}"), value);
                }
                if let Some(m) = check_campaign_outputs(&rec, limit, self.opts.quick, pins) {
                    rec.set_text("mismatch", m);
                }
                Some(Round {
                    rec,
                    cpu_s: cost.cpu_s,
                    peak_rss_mb: cost.peak_rss_mb,
                })
            }
            Ok(_) => {
                self.note("mocket-cli campaign exited non-zero".to_string());
                None
            }
            Err(e) => {
                self.note(format!("cannot run {}: {e}", self.opts.cli.display()));
                None
            }
        };
        let _ = std::fs::remove_dir_all(&scratch);
        round
    }

    fn untraced_round(&mut self, pins: &Pins) -> Option<Round> {
        let round = match self.opts.workload {
            Workload::XraftCampaign => {
                self.touch_pages();
                self.cli_campaign_round(pins)
            }
            _ => self.in_process_round(false),
        };
        if let Some(round) = &round {
            self.last_peak_mb = round.peak_rss_mb;
        }
        round
    }

    /// The nine Table-2 hunts, in a child; a note per row that did not
    /// fire as EXPERIMENTS.md records it.
    fn hunts(&mut self) {
        let scratch = self.fresh_scratch();
        match self.child(&["--hunts"], &scratch) {
            Ok(cost) => {
                let rows = cost
                    .stdout
                    .iter()
                    .filter(|(_, l)| l.starts_with("hunt\t"))
                    .count();
                for (_, line) in cost
                    .stdout
                    .iter()
                    .filter(|(_, l)| l.starts_with("hunt\tMISS"))
                {
                    self.note(format!("Table 2: {}", line.replace('\t', " ")));
                }
                if rows != 9 || !cost.exit_ok {
                    self.note(format!(
                        "Table 2: {rows} of 9 hunts reported (exit ok: {})",
                        cost.exit_ok
                    ));
                }
            }
            Err(e) => self.note(format!("cannot run the Table-2 hunts: {e}")),
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// The first `count.*` key on which two rounds of one seed disagree.
fn first_count_difference(a: &Record, b: &Record) -> Option<String> {
    a.with_prefix("count.").find_map(|(key, va)| {
        let vb = b.0.get(&format!("count.{key}"))?;
        (va != vb).then(|| format!("count `{key}` does not repeat: {va:?} vs {vb:?}"))
    })
}

pub fn run(opts: &Options) -> Outcome {
    let started = Instant::now();
    let w = opts.workload;
    let pins = Pins::load();
    let workload_dir = opts.out.join(w.name());
    let scratch_root = workload_dir.join(format!("scratch-{}", std::process::id()));
    let mut runner = Runner::new(opts, scratch_root.clone());

    // The first round warms up: its outputs are checked like any
    // other's, its times are not used. It loads the binaries, sizes the
    // page touching before every later round, and takes whatever the
    // machine did before this run.
    let warm_up = runner.untraced_round(&pins);

    // Timed rounds then fill the run's seconds: another one starts only
    // if the last one's duration still fits.
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_took = 0.0;
    while warm_up.is_some()
        && (rounds.is_empty() || started.elapsed().as_secs_f64() + last_took <= opts.seconds)
    {
        let round_started = Instant::now();
        match runner.untraced_round(&pins) {
            Some(round) => rounds.push(round),
            None => break,
        }
        last_took = round_started.elapsed().as_secs_f64();
    }

    // A traced run then checks that the product still finds the
    // paper's nine bugs and takes its one traced round, on top of the
    // run's seconds.
    let traced = if opts.trace {
        if opts.hunts {
            runner.hunts();
        }
        let round = runner.in_process_round(true);
        if round.is_none() {
            runner.note("no traced round".to_string());
        }
        round
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&scratch_root);

    let mut notes = std::mem::take(&mut runner.notes);
    let all_rounds = || warm_up.iter().chain(&rounds).chain(traced.as_ref());
    let samples = |name: &str| -> Vec<f64> { rounds.iter().map(|r| r.end_to_end(name)).collect() };

    // Per-layer values of the traced round, with the two that need the
    // untraced rounds beside it.
    let mut layers = Record::default();
    if let Some(traced) = &traced {
        let of_interest = |k: &String| k.starts_with("layer.") || k.starts_with("self.");
        layers.0.extend(
            traced
                .rec
                .0
                .iter()
                .filter(|(k, _)| of_interest(k))
                .map(|(k, v)| (k.clone(), v.clone())),
        );
        let untraced_wall = stats::median(&samples("wall_s"));
        layers.set(
            "layer.bench.trace_overhead_frac",
            (traced.wall_s() - untraced_wall) / untraced_wall,
        );
        if let (Workload::XraftCampaign, Some(base_s)) =
            (w, traced.rec.num("layer.orchestrator.base_s"))
        {
            // The tax of the real thing: the CLI's worker-phase seconds
            // x workers over the same cases run plainly in one process.
            let phase: Vec<f64> = rounds
                .iter()
                .map(|r| r.wall_s() - r.end_to_end("setup_s"))
                .collect();
            layers.set(
                "layer.orchestrator.tax",
                stats::median(&phase) * CAMPAIGN_WORKERS as f64 / base_s,
            );
        }
    }

    // Outputs: pinned verdicts per round, exact repeats across rounds,
    // every promised metric present.
    notes.extend(all_rounds().filter_map(|r| r.rec.text("mismatch").map(str::to_string)));
    match &warm_up {
        Some(first) => notes.extend(
            all_rounds()
                .skip(1)
                .filter_map(|r| first_count_difference(&first.rec, &r.rec)),
        ),
        None => notes.push("no untraced round completed".to_string()),
    }
    if rounds.is_empty() {
        notes.push("no timed round completed".to_string());
    }
    if opts.trace {
        notes.extend(
            PER_LAYER
                .iter()
                .filter(|m| layers.num(&format!("layer.{}", m.name)).is_none())
                .map(|m| format!("per-layer metric {} was not measured", m.name)),
        );
    }
    let attempted: f64 = all_rounds().filter_map(|r| r.rec.num("cases")).sum();
    let failed: f64 = all_rounds().filter_map(|r| r.rec.num("failed")).sum();
    let correct = notes.is_empty() && failed == 0.0 && attempted >= 1.0;

    let mut record = Record::default();
    record.set_text("workload", w.name());
    record.set("seed", opts.seed as f64);
    record.set("trace", u8::from(opts.trace) as f64);
    record.set("quick", u8::from(opts.quick) as f64);
    record.set("rounds", rounds.len() as f64);
    record.set("correct", u8::from(correct) as f64);
    record.set("attempted", attempted);
    record.set("failed", failed);
    for (i, note) in notes.iter().enumerate() {
        record.set_text(format!("note.{i}"), note.clone());
    }
    // Counts of the traced round when there is one (it has them all).
    if let Some(round) = all_rounds().last() {
        record.0.extend(
            round
                .rec
                .0
                .iter()
                .filter(|(k, _)| k.starts_with("count."))
                .map(|(k, v)| (k.clone(), v.clone())),
        );
    }

    let mut metrics = Vec::new();
    println!(
        "{} seed {}: 1 warm-up + {} timed untraced round(s){}",
        w.name(),
        opts.seed,
        rounds.len(),
        if opts.trace { " + 1 traced" } else { "" }
    );
    println!(
        "  {:<30} {:>6} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in END_TO_END {
        let values = samples(m.name);
        let (q1, q3) = stats::quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
        let median = stats::median(&values);
        println!(
            "  {:<30} {:>6} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>3}",
            m.name,
            m.unit,
            values.len()
        );
        for (i, v) in values.iter().enumerate() {
            record.set(format!("round.{i}.{}", m.name), *v);
        }
        record.set(format!("metric.{}", m.name), median);
        if !opts.trace {
            metrics.push((m.name, m.unit, median));
        }
    }
    if let Some(traced) = &traced {
        println!(
            "  traced round: {:.4} s wall; self time per span (span minus its child spans):",
            traced.wall_s()
        );
        for (span, value) in layers.with_prefix("self.") {
            if let Field::Num(secs) = value {
                println!("    {span:<34} {secs:>10.4} s");
            }
        }
        for m in PER_LAYER {
            if let Some(value) = layers.num(&format!("layer.{}", m.name)) {
                println!("  {:<30} {:>6} {value:>14.4}", m.name, m.unit);
                metrics.push((m.name, m.unit, value));
            }
        }
        record.0.extend(layers.0);
    }
    for note in &notes {
        println!("  INCORRECT: {note}");
    }

    let file = workload_dir.join(format!(
        "seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&file, record.to_json_line() + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    Outcome {
        correct,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
    }
}
