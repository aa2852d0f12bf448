//! `mocket-cli` — drive the Mocket pipeline from the command line.
//!
//! ```text
//! mocket-cli check <spec> [--max-states N] [--dot FILE]
//! mocket-cli generate <spec> [--por] [--max-path-len N] [--limit N] [--out FILE]
//! mocket-cli test <target> [--bug NAME] [--limit N] [--progress] [--obs-dir DIR]
//!                          [--priority-edges FILE] [--sim] [--sim-seed S]
//! mocket-cli campaign <target> --campaign-dir DIR [--bug NAME] [--workers N] [--limit N]
//!                          [--shard-size N] [--poison-threshold K] [--progress]
//!                          [--sim] [--sim-seed S] ...
//! mocket-cli report --obs-dir DIR [--html] [--out FILE]
//! mocket-cli simulate <target> [--steps N] [--seed S]
//! mocket-cli list
//! ```
//!
//! Spec, target and bug names come from the catalogue in
//! `mocket::targets` (`list` prints them).
//!
//! `campaign` runs the crash-tolerant sharded orchestrator: a
//! supervisor process (this command) shards the pinned case plan
//! across N crash-isolated worker processes (the hidden
//! `campaign-worker` subcommand), restarts the dead, kills the hung,
//! lets peers steal a dead worker's shard, quarantines poison cases,
//! and deterministically merges the per-shard results into canonical
//! top-level outputs. Re-running the
//! same command against the same directory resumes idempotently.

use std::path::PathBuf;
use std::time::Duration;

use mocket::checker::{to_dot, EdgeId, ModelChecker, StateGraph};
use mocket::core::orchestrator::{
    clear_drain_marker, done_path, ignore_sigint, lease_path, merge_campaign, same_process,
    shard_data_dir, supervise, sweep_dead_leases, CampaignPlan, DirLock, InjectionConfig,
    LeaseConfig, LeaseInfo, LockError, MergeInputs, ShardSetup, SupervisorConfig,
    WorkerConfig, WorkerContext, EXIT_PLAN_MISMATCH,
};
use mocket::core::{CampaignJournal, CaseOutcome};
use mocket::core::{PipelineConfig, RetryPolicy, RunConfig, SystemUnderTest};
use mocket::runtime::Backend;
use mocket::sim::SimHandle;
use mocket::targets::{self, Target};

fn usage() -> ! {
    eprintln!(
        "usage:\n  mocket-cli check <spec> [--max-states N] [--dot FILE]\n  \
         mocket-cli generate <spec> [--por] [--max-path-len N] [--limit N] [--out FILE]\n  \
         mocket-cli test <target> [--bug NAME] [--limit N] [--progress] [--obs-dir DIR] \
         [--priority-edges FILE] [--trace] [--sim] [--sim-seed S]\n  \
         mocket-cli campaign <target> --campaign-dir DIR [--bug NAME] [--workers N] \
         [--limit N] [--max-states N] [--max-path-len N] [--shard-size N] \
         [--poison-threshold K] [--max-restarts N] [--lease-ttl-ms N] [--progress] \
         [--trace] [--sim] [--sim-seed S]\n  \
         mocket-cli campaign --status --campaign-dir DIR [--watch] [--interval-ms N]\n  \
         mocket-cli report --obs-dir DIR [--html] [--out FILE]\n  \
         mocket-cli report --trace-view [--trace-file FILE | --obs-dir DIR] [--out FILE]\n  \
         mocket-cli simulate <target> [--steps N] [--seed S]\n  \
         mocket-cli list"
    );
    std::process::exit(2);
}

/// Whether `subcommand` reads `--flag`. Any other flag is a typo or
/// another subcommand's, and would silently do nothing (`--sim-sed 7`
/// running seed 42, `test --campaign-dir D` leaving D empty), so
/// `Args::parse` rejects it. The hidden `campaign-worker` is spawned
/// with the campaign's command line plus `--worker-id`.
fn reads_flag(subcommand: &str, flag: &str) -> bool {
    let flags = match subcommand {
        "check" => "dot max-states",
        "generate" => "limit max-path-len out por",
        "test" => "bug limit obs-dir priority-edges progress sim sim-seed trace",
        "campaign" => "bug campaign-dir interval-ms lease-ttl-ms limit max-path-len max-restarts \
                       max-states poison-threshold progress shard-size sim sim-seed status trace \
                       watch workers",
        "campaign-worker" => return flag == "worker-id" || reads_flag("campaign", flag),
        "report" => "campaign-dir html obs-dir out trace-file trace-view",
        "simulate" => "bug seed steps",
        _ => "",
    };
    flags.split_whitespace().any(|known| known == flag)
}

/// Minimal flag parser: `--key value` pairs and bare flags.
struct Args {
    positional: Vec<String>,
    flags: std::collections::BTreeMap<String, String>,
    /// This command line with the subcommand swapped for the hidden
    /// `campaign-worker`: what the campaign supervisor spawns its
    /// workers with (plus `--worker-id N`), so every flag a worker
    /// reads (`--sim`, `--trace`, lease timing, ...) is
    /// forwarded. Target, bug and bounds a worker takes from `plan.txt`.
    worker_argv: Vec<String>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = std::collections::BTreeMap::new();
        let mut worker_argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args = worker_argv.clone().into_iter().enumerate().peekable();
        while let Some((at, a)) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match args.next_if(|(_, v)| !v.starts_with("--")) {
                    Some((_, v)) => v,
                    None => "true".to_string(),
                };
                flags.insert(key.to_string(), value);
            } else {
                if positional.is_empty() {
                    worker_argv[at] = "campaign-worker".to_string();
                }
                positional.push(a);
            }
        }
        let subcommand = positional.first().map_or("", String::as_str);
        if let Some(key) = flags.keys().find(|key| !reads_flag(subcommand, key)) {
            eprintln!("{}: unknown flag --{key}", format!("mocket-cli {subcommand}").trim_end());
            std::process::exit(2);
        }
        Args {
            positional,
            flags,
            worker_argv,
        }
    }

    /// The value of `--key`, if given (`"true"` for a bare flag).
    fn flag(&self, key: &str) -> Option<&str> {
        debug_assert!(
            reads_flag(&self.positional[0], key),
            "--{key} is read but not listed in reads_flag"
        );
        self.flags.get(key).map(String::as_str)
    }

    fn flag_usize(&self, key: &str, default: usize) -> usize {
        self.flag(key)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(default)
    }

    fn flag_bool(&self, key: &str) -> bool {
        self.flag(key).is_some()
    }

    /// The cluster backend selected by `--sim` / `--sim-seed`:
    /// `None` means the wall-clock backend.
    fn sim_handle(&self) -> Option<SimHandle> {
        self.flag_bool("sim")
            .then(|| SimHandle::new(self.flag_usize("sim-seed", 42) as u64))
    }

    /// The spec or target name every subcommand but `report`/`list` takes.
    fn name(&self) -> &str {
        self.positional.get(1).unwrap_or_else(|| usage())
    }

    fn bug(&self) -> Option<&str> {
        self.flag("bug")
    }

    /// The catalogue target named by `<target>` and `--bug`.
    fn target(&self) -> Target {
        or_exit_2(targets::by_name(self.name(), self.bug()))
    }
}

/// Unknown spec, target and bug names all exit 2 with the catalogue's
/// one-line message.
fn or_exit_2<T>(resolved: Result<T, String>) -> T {
    resolved.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// A fresh deployment of `target` per call, on the backend `--sim`
/// selects.
fn deployer<'a>(
    target: &'a Target,
    sim: Option<&SimHandle>,
) -> impl FnMut() -> Box<dyn SystemUnderTest> + 'a {
    let backend = sim.map_or(Backend::Threads, |handle| Backend::Sim(handle.clone()));
    move || target.sut(backend.clone())
}

fn cmd_check(args: &Args) {
    let name = args.name();
    let spec = or_exit_2(targets::spec_named(name));
    let result = ModelChecker::new(spec)
        .max_states(args.flag_usize("max-states", 1_000_000))
        .run();
    println!(
        "{name}: {} distinct states, {} transitions, depth {}, {} generated, {:?}{}",
        result.stats.distinct_states,
        result.stats.edges,
        result.stats.depth,
        result.stats.states_generated,
        result.stats.elapsed,
        if result.stats.truncated {
            " (TRUNCATED)"
        } else {
            ""
        },
    );
    if let Some(path) = args.flag("dot") {
        std::fs::write(path, to_dot(&result.graph)).expect("write DOT file");
        println!("state-space graph written to {path}");
    }
}

fn cmd_generate(args: &Args) {
    let name = args.name();
    let spec = or_exit_2(targets::spec_named(name));
    let result = ModelChecker::new(spec).run();
    let por = mocket::core::partial_order_reduction(&result.graph);
    let mut cfg = mocket::core::TraversalConfig::default();
    cfg.max_path_len = args.flag_usize("max-path-len", 60);
    if args.flag_bool("por") {
        cfg = cfg.with_excluded_edges(por.excluded_edges);
    }
    let traversal = mocket::core::edge_coverage_paths(&result.graph, &cfg);
    let limit = args.flag_usize("limit", 50);
    let mut out = String::new();
    for path in traversal.paths.iter().take(limit) {
        let Some(tc) = mocket::core::TestCase::from_edge_path(&result.graph, path) else {
            continue;
        };
        out.push_str(&tc.serialize());
        out.push('\n');
    }
    println!(
        "{name}: {} paths generated ({} edges covered); writing first {}",
        traversal.paths.len(),
        traversal.edges_visited,
        limit.min(traversal.paths.len()),
    );
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, out).expect("write test cases");
            println!("test cases written to {path}");
        }
        None => print!("{out}"),
    }
}

fn cmd_test(args: &Args) {
    let name = args.name();
    let bug = args.bug();
    let sim = args.sim_handle();
    let target = args.target();
    let mut pc = target.hunt_config();
    pc.max_test_cases = args.flag_usize("limit", 0);
    pc.progress = args.flag_bool("progress");
    pc.trace = args.flag_bool("trace");
    if let Some(handle) = &sim {
        pc.clock = handle.clock.clone();
    }
    if let Some(dir) = args.flag("obs-dir") {
        match mocket::obs::Obs::jsonl_in(std::path::Path::new(dir)) {
            Ok(obs) => pc.obs = obs,
            Err(e) => {
                eprintln!("cannot open obs dir {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = args.flag("priority-edges") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read priority-edges file {path}: {e}");
            std::process::exit(1);
        });
        pc.priority_edges = mocket::obs::parse_uncovered_listing(&text).unwrap_or_else(|e| {
            eprintln!("malformed priority-edges file {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "prioritising {} previously-uncovered edge(s) from {path}",
            pc.priority_edges.len()
        );
    }
    let pipeline = target.pipeline(pc).unwrap_or_else(|issues| {
        eprintln!("mapping issues:");
        for issue in issues {
            eprintln!("  {issue}");
        }
        std::process::exit(1);
    });
    let result = pipeline.run(deployer(&target, sim.as_ref()));
    println!(
        "{name}{}: {} states, {} cases selected, {} run, {} passed, {} quarantined",
        bug.map(|b| format!(" (bug: {b})")).unwrap_or_default(),
        result.effort.states,
        result.cases_selected,
        result.effort.cases_run,
        result.passed,
        result.quarantined.len(),
    );
    for q in &result.quarantined {
        println!("  quarantined: {}", q.error);
    }
    match result.reports.first() {
        Some(report) => println!(
            "verdict: {} : {}\n\n{report}",
            report.inconsistency.kind(),
            report.inconsistency.subject()
        ),
        None => println!("no inconsistencies: the implementation conforms"),
    }
    if let Some(dir) = args.flag("obs-dir") {
        println!(
            "observability artifacts in {dir}/ (events.jsonl, run-summary.json, \
             coverage.json, coverage.dot, uncovered-edges.txt, campaign-history.jsonl)"
        );
        if args.flag_bool("trace") {
            println!(
                "causal trace in {dir}/{} (view: mocket-cli report --trace-view --obs-dir {dir})",
                mocket::obs::TRACE_FILE_NAME
            );
        }
    } else if args.flag_bool("trace") {
        eprintln!("note: --trace without --obs-dir records traces into replay artifacts only");
    }
}

/// The pipeline configuration every campaign process uses, under the
/// bounds the supervisor pins in `plan.txt` and every worker
/// regenerates under: no POR (so shard indices line up with the plan),
/// never stop at the first bug (a campaign's job is the whole case
/// set), fast runner settings.
fn campaign_pipeline_config(
    max_states: usize,
    max_path_len: usize,
    max_test_cases: usize,
) -> PipelineConfig {
    let mut pc = PipelineConfig::default();
    pc.max_states = max_states;
    pc.por = false;
    pc.stop_at_first_bug = false;
    pc.max_path_len = max_path_len;
    pc.max_test_cases = max_test_cases;
    pc.run = RunConfig::fast();
    pc
}

/// The one campaign preparation, for supervisor and worker alike:
/// validate the mapping, model-check, generate under `pc`'s bounds, pin
/// the plan and verify it against the directory's, if it holds one.
/// `Ok` is the graph, its check seconds, the selected paths and the
/// plan they pin; `Err` the message to exit with.
fn prepare_campaign(
    name: &str,
    bug: Option<&str>,
    shard_size: usize,
    target: &Target,
    pc: PipelineConfig,
    pinned: Option<&CampaignPlan>,
) -> Result<(StateGraph, f64, Vec<Vec<EdgeId>>, CampaignPlan), String> {
    let (max_states, max_path_len, max_test_cases) =
        (pc.max_states, pc.max_path_len, pc.max_test_cases);
    let pipeline = target.pipeline(pc).map_err(|issues| {
        let issues: String = issues.iter().map(|i| format!("\n  {i}")).collect();
        format!("mapping issues:{issues}")
    })?;
    let (graph, check_seconds) = pipeline.check();
    let (paths, ..) = pipeline.generate_paths(&graph);
    let plan = CampaignPlan::pin(
        name,
        bug,
        max_states,
        max_path_len,
        max_test_cases,
        shard_size,
        &graph,
        &paths,
    );
    if let Some(pinned) = pinned {
        pinned.verify_matches(&plan).map_err(|mismatch| {
            format!(
                "regenerated case set contradicts the pinned plan ({mismatch}); \
                 resume with the original target/flags, or use a fresh directory"
            )
        })?;
    }
    Ok((graph, check_seconds, paths, plan))
}

fn lease_config(args: &Args) -> LeaseConfig {
    LeaseConfig {
        ttl: Duration::from_millis(args.flag_usize("lease-ttl-ms", 30_000) as u64),
        ..LeaseConfig::default()
    }
}

fn cmd_campaign(args: &Args) {
    // `--status` is a read-only live view of a (possibly in-flight)
    // campaign: it must branch off before the directory lock below —
    // taking the lock would refuse to coexist with the running
    // supervisor, which is exactly when a status view is wanted.
    if args.flag_bool("status") {
        cmd_campaign_status(args);
        return;
    }
    let name = args.name();
    let bug = args.bug();
    let target = args.target();
    let Some(dir) = args.flag("campaign-dir") else {
        eprintln!("campaign requires --campaign-dir DIR");
        usage();
    };
    let campaign_dir = PathBuf::from(dir);
    let workers = args.flag_usize("workers", 2).max(1);
    let shard_size = args.flag_usize("shard-size", 8).max(1);
    let progress = args.flag_bool("progress");

    // Exclusive claim on the directory: a second campaign (or anything
    // else holding the campaign journal lock) fails fast, before a
    // single byte is written.
    let _lock = match DirLock::acquire(&campaign_dir, "journal.lock") {
        Ok(lock) => lock,
        Err(LockError::Held { path, owner_pid }) => {
            eprintln!(
                "campaign directory {dir} is owned by another live campaign \
                 (pid {owner_pid}, lock {}); refusing to interleave",
                path.display()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("cannot lock campaign directory {dir}: {e}");
            std::process::exit(1);
        }
    };

    // Model-check once and pin (or verify) the plan. The supervisor
    // itself never deploys a SUT; the workers, spawned with this
    // command line, each own their backend and virtual clock.
    let spec_name = target.spec.name().to_string();
    let obs = mocket::obs::Obs::disabled();
    let mut pc = campaign_pipeline_config(
        args.flag_usize("max-states", 1_000_000),
        args.flag_usize("max-path-len", 60),
        args.flag_usize("limit", 0),
    );
    pc.obs = obs.clone();
    pc.progress = progress;
    let existing = CampaignPlan::load(&campaign_dir).unwrap_or_else(|e| {
        eprintln!("cannot load campaign plan from {dir}: {e}");
        std::process::exit(1);
    });
    if progress {
        eprintln!("[mocket-campaign] model checking {name} (max {} states)", pc.max_states);
    }
    let (graph, _, paths, plan) =
        prepare_campaign(name, bug, shard_size, &target, pc, existing.as_ref()).unwrap_or_else(
            |e| {
                eprintln!("campaign directory {dir}: {e}");
                std::process::exit(1);
            },
        );
    if existing.is_some() {
        println!(
            "resuming campaign in {dir}: {} cases across {} shards",
            plan.cases.len(),
            plan.shard_count()
        );
    } else {
        if let Err(e) = plan.write_to(&campaign_dir) {
            eprintln!("cannot write campaign plan: {e}");
            std::process::exit(1);
        }
        println!(
            "campaign plan pinned: {} cases across {} shards in {dir}",
            plan.cases.len(),
            plan.shard_count()
        );
    }

    // A leftover drain marker or dead lease from an interrupted run
    // must not stop this one before it starts.
    clear_drain_marker(&campaign_dir);
    sweep_dead_leases(&campaign_dir, plan.shard_count());

    let sup = SupervisorConfig {
        campaign_dir: campaign_dir.clone(),
        workers,
        lease: lease_config(args),
        restart: RetryPolicy {
            attempts: args.flag_usize("max-restarts", 5),
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
        },
        progress,
    };
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary for worker spawn: {e}");
        std::process::exit(1);
    });
    let mut spawn = |id: usize| -> std::io::Result<std::process::Child> {
        let worker_dir = campaign_dir.join(format!("worker-{id}"));
        std::fs::create_dir_all(&worker_dir)?;
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(worker_dir.join("worker.log"))?;
        let log_err = log.try_clone()?;
        std::process::Command::new(&exe)
            .args(&args.worker_argv)
            .args(["--worker-id", &id.to_string()])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::from(log))
            .stderr(std::process::Stdio::from(log_err))
            .spawn()
    };
    let outcome = match supervise(&sup, plan.shard_count(), &mut spawn) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("campaign supervision failed: {e}");
            std::process::exit(1);
        }
    };

    // Merge whatever completed — also on drain, so a checkpointed
    // campaign leaves consistent partial outputs behind.
    let m = obs.metrics();
    let merged = match merge_campaign(&MergeInputs {
        campaign_dir: &campaign_dir,
        plan: &plan,
        graph: &graph,
        paths: &paths,
        spec_name: &spec_name,
        coverage_visited: m.gauge("coverage.edges_visited").unwrap_or(0.0) as u64,
        coverage_targets: m.gauge("coverage.edge_targets").unwrap_or(0.0) as u64,
        coverage_fraction: m.gauge("coverage.fraction").unwrap_or(0.0),
        por_excluded: m.gauge("pipeline.por_excluded_edges").unwrap_or(0.0) as u64,
        completed: outcome.completed(),
        obs: obs.clone(),
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign merge failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "campaign {name}{}: {}/{} shards done, {} worker restart(s), \
         {} hung worker(s) killed",
        bug.map(|b| format!(" (bug: {b})")).unwrap_or_default(),
        outcome.shards_done,
        outcome.shard_count,
        outcome.restarts,
        outcome.hung_killed,
    );
    println!(
        "merged: {} case(s) with verdicts, {} passed, {} unique failure(s), \
         {} quarantined poison case(s), {} artifact(s)",
        merged.cases_with_verdict,
        merged.cases_passed,
        merged.failed_unique,
        merged.poisoned,
        merged.artifacts_copied,
    );
    for issue in &merged.issues {
        eprintln!("warning: {issue}");
    }
    if let Some(fatal) = &outcome.fatal {
        eprintln!("campaign failed: {fatal}");
        std::process::exit(1);
    }
    if outcome.drained {
        println!("campaign drained (checkpoint written); re-run the same command to resume");
    } else {
        println!(
            "canonical outputs in {dir}/ (journal.log, coverage.json, events.jsonl, \
             run-summary.json, campaign-history.jsonl)"
        );
    }
}

/// Read-only live view of a campaign directory: per-shard disposition
/// (done / leased / unclaimed), lease owner health, and verdict counts
/// read lock-free from the shard journals. Takes no locks and writes
/// nothing, so it is safe against an in-flight campaign; `--watch`
/// polls until every shard retires.
fn cmd_campaign_status(args: &Args) {
    let Some(dir) = args.flag("campaign-dir") else {
        eprintln!("campaign --status requires --campaign-dir DIR");
        usage();
    };
    let campaign_dir = PathBuf::from(dir);
    let watch = args.flag_bool("watch");
    let interval = Duration::from_millis(args.flag_usize("interval-ms", 1000).max(50) as u64);
    loop {
        let plan = match CampaignPlan::load(&campaign_dir) {
            Ok(Some(plan)) => Some(plan),
            Ok(None) => None,
            Err(e) => {
                eprintln!("cannot load campaign plan from {dir}: {e}");
                std::process::exit(1);
            }
        };
        let all_done = match &plan {
            Some(plan) => print_campaign_status(&campaign_dir, plan),
            None => {
                println!("{dir}: no campaign plan pinned yet");
                false
            }
        };
        if !watch || all_done {
            return;
        }
        std::thread::sleep(interval);
    }
}

/// One status snapshot; returns whether every shard is retired.
fn print_campaign_status(campaign_dir: &std::path::Path, plan: &CampaignPlan) -> bool {
    let shard_count = plan.shard_count();
    println!(
        "campaign {}{}: {} case(s) across {} shard(s), shard size {}",
        plan.target,
        plan.bug
            .as_deref()
            .map(|b| format!(" (bug: {b})"))
            .unwrap_or_default(),
        plan.cases.len(),
        shard_count,
        plan.shard_size,
    );
    let (mut done_shards, mut passed, mut failed, mut verdicts, mut issues) = (0, 0, 0, 0, 0);
    for shard in 0..shard_count {
        // Verdicts so far, straight from the shard journal (lock-free
        // point-in-time read; a torn final line counts as an issue, not
        // a verdict — exactly how a resume would treat it).
        let (entries, shard_issues) =
            CampaignJournal::load_entries(&shard_data_dir(campaign_dir, shard)).unwrap_or_default();
        let shard_passed = entries
            .values()
            .filter(|e| e.outcome == CaseOutcome::Passed)
            .count();
        let shard_failed = entries.len() - shard_passed;
        passed += shard_passed;
        failed += shard_failed;
        verdicts += entries.len();
        issues += shard_issues.len();
        let disposition = if done_path(campaign_dir, shard).exists() {
            done_shards += 1;
            "done".to_string()
        } else {
            match std::fs::read_to_string(lease_path(campaign_dir, shard)) {
                Ok(text) => match LeaseInfo::parse(&text) {
                    Some(lease) => {
                        let owner = if same_process(lease.pid, lease.token) {
                            "live"
                        } else {
                            "DEAD"
                        };
                        let case = match &lease.case {
                            Some((idx, hash)) => format!("case {idx} ({hash})"),
                            None => "between cases".to_string(),
                        };
                        format!(
                            "leased by worker {} (pid {} {owner}) — {case}",
                            lease.worker, lease.pid
                        )
                    }
                    None => "torn lease (claim in flight or debris)".to_string(),
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => "unclaimed".to_string(),
                Err(e) => format!("lease unreadable: {e}"),
            }
        };
        println!(
            "  shard {shard}: {disposition} — {} verdict(s) ({} passed, {} failed)",
            entries.len(),
            shard_passed,
            shard_failed,
        );
    }
    println!(
        "total: {done_shards}/{shard_count} shard(s) done, {verdicts} verdict(s) \
         ({passed} passed, {failed} failed){}",
        if issues > 0 {
            format!(", {issues} journal issue(s)")
        } else {
            String::new()
        }
    );
    done_shards == shard_count
}

/// Hidden worker subcommand: one crash-isolated campaign worker. Not
/// part of the public usage string — only the supervisor spawns it.
fn cmd_campaign_worker(args: &Args) -> ! {
    // SIGINT goes to the whole foreground process group; the
    // supervisor translates it into a drain marker, workers must not
    // die mid-case from the raw signal.
    ignore_sigint();
    let Some(dir) = args.flag("campaign-dir") else {
        usage();
    };
    let campaign_dir = PathBuf::from(dir);
    let worker_id = args.flag_usize("worker-id", 0);
    let plan = match CampaignPlan::load(&campaign_dir) {
        Ok(Some(plan)) => plan,
        Ok(None) => {
            eprintln!("worker {worker_id}: no plan in {dir}");
            std::process::exit(EXIT_PLAN_MISMATCH);
        }
        Err(e) => {
            eprintln!("worker {worker_id}: cannot load plan: {e}");
            std::process::exit(EXIT_PLAN_MISMATCH);
        }
    };
    let sim = args.sim_handle();
    let target = or_exit_2(targets::by_name(&plan.target, plan.bug.as_deref()));
    let spec_name = target.spec.name().to_string();
    let spec_config = format!(
        "target={} bug={}",
        plan.target,
        plan.bug.as_deref().unwrap_or("-")
    );

    // Workers stream their own observability under worker-<id>/; the
    // campaign top level belongs to the supervisor's merge. One process
    // writes a slot's directory: a worker left running by a killed
    // supervisor holds the slot lock until it exits, and its successor
    // sleeps on that lock until then.
    let worker_dir = campaign_dir.join(format!("worker-{worker_id}"));
    let _slot = DirLock::wait(&worker_dir, "worker.lock").unwrap_or_else(|e| {
        eprintln!("worker {worker_id}: cannot lock its slot: {e}");
        std::process::exit(1);
    });
    let obs = mocket::obs::Obs::jsonl_in(&worker_dir).unwrap_or_else(|e| {
        eprintln!("worker {worker_id}: obs dir unavailable ({e}); events disabled");
        mocket::obs::Obs::disabled()
    });

    let worker_pc = || {
        let mut pc =
            campaign_pipeline_config(plan.max_states, plan.max_path_len, plan.max_test_cases);
        pc.obs = obs.clone();
        if let Some(handle) = &sim {
            pc.clock = handle.clock.clone();
        }
        pc
    };
    let (graph, check_seconds, paths, _) = prepare_campaign(
        &plan.target,
        plan.bug.as_deref(),
        plan.shard_size,
        &target,
        worker_pc(),
        Some(&plan),
    )
    .unwrap_or_else(|e| {
        eprintln!("worker {worker_id}: {e}");
        std::process::exit(EXIT_PLAN_MISMATCH);
    });
    let run_cfg = RunConfig::fast();
    let wcfg = WorkerConfig {
        campaign_dir: campaign_dir.clone(),
        worker_id,
        lease: lease_config(args),
        poison_threshold: args.flag_usize("poison-threshold", 3),
        plan_hash: plan.stable_hash(),
        inject: InjectionConfig::from_env(),
    };
    let ctx = WorkerContext {
        plan: &plan,
        spec_name: &spec_name,
        spec_config: &spec_config,
        run: &run_cfg,
        paths: &paths,
        check_seconds,
    };
    let build = |setup: &ShardSetup| {
        let mut pc = worker_pc();
        pc.case_range = Some(setup.range);
        pc.case_gate = Some(setup.gate.clone());
        pc.trace = args.flag_bool("trace");
        pc.triage.campaign_dir = Some(setup.shard_dir.clone());
        pc.triage.spec_config = spec_config.clone();
        target
            .pipeline(pc)
            .expect("mapping validated at worker startup")
    };
    let make = deployer(&target, sim.as_ref());
    match mocket::core::orchestrator::worker_loop(&wcfg, &ctx, graph, build, make) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker {worker_id}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_report(args: &Args) {
    if args.flag_bool("trace-view") {
        cmd_trace_view(args);
        return;
    }
    let dir = args
        .flag("obs-dir")
        .or_else(|| args.flag("campaign-dir"))
        .or_else(|| args.positional.get(1).map(String::as_str))
        .unwrap_or_else(|| usage());
    let history = mocket::obs::CampaignHistory::open(std::path::Path::new(dir))
        .unwrap_or_else(|e| {
            eprintln!("cannot open campaign history in {dir}: {e}");
            std::process::exit(1);
        });
    for issue in history.issues() {
        eprintln!("warning: {issue}");
    }
    if history.records().is_empty() {
        eprintln!(
            "no campaign records in {dir}/{} (run `mocket-cli test <target> --obs-dir {dir}` first)",
            mocket::obs::CAMPAIGN_HISTORY_FILE_NAME
        );
        std::process::exit(1);
    }
    let rendered = if args.flag_bool("html") {
        mocket::obs::render_html(history.records())
    } else {
        mocket::obs::render_text(history.records())
    };
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write report to {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "{} report over {} campaign(s) written to {path}",
                if args.flag_bool("html") { "HTML" } else { "text" },
                history.records().len()
            );
        }
        None => print!("{rendered}"),
    }
}

/// `report --trace-view`: converts a recorded `trace.jsonl` into
/// Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto).
/// Torn or truncated trace lines are salvaged and reported to stderr;
/// the view renders everything that survived.
fn cmd_trace_view(args: &Args) {
    let path = match args.flag("trace-file") {
        Some(p) => PathBuf::from(p),
        None => {
            let dir = args
                .flag("obs-dir")
                .or_else(|| args.flag("campaign-dir"))
                .or_else(|| args.positional.get(1).map(String::as_str))
                .unwrap_or_else(|| usage());
            PathBuf::from(dir).join(mocket::obs::TRACE_FILE_NAME)
        }
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read trace {}: {e}", path.display());
        std::process::exit(1);
    });
    let (events, issues) = mocket::obs::causal::parse_trace(&text);
    for issue in &issues {
        eprintln!("warning: {issue}");
    }
    let json = mocket::obs::causal::chrome_trace(&events);
    match args.flag("out") {
        Some(out) => {
            std::fs::write(out, &json).unwrap_or_else(|e| {
                eprintln!("cannot write trace view to {out}: {e}");
                std::process::exit(1);
            });
            println!(
                "chrome trace over {} causal event(s) written to {out}",
                events.len()
            );
        }
        None => println!("{json}"),
    }
}

fn cmd_simulate(args: &Args) {
    // A free-running three-node cluster of the target's implementation.
    let target = args.target();
    let mut sut = target.sut_on(vec![1, 2, 3], Backend::Threads);
    let steps = args.flag_usize("steps", 2000);
    let seed = args.flag_usize("seed", 42) as u64;
    sut.deploy().expect("deploy");
    let (stats, mut sut) = mocket::runtime::run_random(sut, steps, seed).expect("random run");
    sut.teardown();
    println!("{}: {} actions under a random schedule", target.name, stats.executed);
    for (action, count) in &stats.action_counts {
        println!("  {action:<24} x{count}");
    }
}

/// Rendered from the catalogue; CI loops over the `bugs:` rows
/// (`<target> <bug> <kind> : <subject>`) and runs each.
fn cmd_list() {
    println!("specs:    {}", targets::SPECS.join(", "));
    println!("targets:  {}", targets::TARGETS.join(", "));
    println!("bugs (Table 2; `test <target> --bug <name>` must report `verdict: <expected>`):");
    for row in &targets::TABLE2 {
        println!("  {:<10} {:<27} {} : {}", row.target, row.bug, row.kind, row.subject);
    }
}

fn main() {
    let args = Args::parse();
    match args.positional.first().map(String::as_str) {
        Some("check") => cmd_check(&args),
        Some("generate") => cmd_generate(&args),
        Some("test") => cmd_test(&args),
        Some("campaign") => cmd_campaign(&args),
        Some("campaign-worker") => cmd_campaign_worker(&args),
        Some("report") => cmd_report(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("list") => cmd_list(),
        _ => usage(),
    }
}
