//! Chaos-proofing the campaign harness itself: deterministic
//! filesystem fault injection plus supervisor crash recovery.
//!
//! The contract under test is the strongest one the orchestrator
//! makes: a campaign whose supervisor is SIGKILLed mid-run *and* whose
//! every durable write runs under a seeded filesystem fault injector
//! (torn writes, short writes, ENOSPC, EIO, rename failures, dropped
//! fsyncs), when resumed on the same directory, produces canonical
//! outputs byte-identical to a clean, fault-free, single-run campaign.
//!
//! The second half of the file is parser robustness: every on-disk
//! format the harness trusts after a crash (plan, lease, campaign
//! journal line, supervisor journal line, history records) is fuzzed
//! with truncations, bit flips, garbage suffixes and interleaved
//! bytes — salvage or typed error, never a panic.

use std::path::PathBuf;
use std::process::Command;

use mocket::core::orchestrator::{CampaignPlan, LeaseInfo, SupervisorEvent, SupervisorJournal};
use mocket::core::JournalEntry;
use mocket::obs::fsio::{FaultInjector, FaultKind};
use mocket::obs::CampaignHistory;

const CLI: &str = env!("CARGO_BIN_EXE_mocket-cli");

/// The canonical merged outputs whose bytes must not depend on the
/// campaign's failure history (mirrors tests/campaign.rs).
const CANONICAL: &[&str] = &[
    "journal.log",
    "coverage.json",
    "events.jsonl",
    "run-summary.json",
    "campaign-history.jsonl",
];

struct CampaignRun {
    dir: PathBuf,
}

impl CampaignRun {
    fn new(tag: &str) -> Self {
        // `MOCKET_CHAOS_ARTIFACT_DIR` redirects campaign directories to
        // a stable location and disables cleanup, so CI can upload the
        // whole campaign state when an assertion fails.
        let base = std::env::var_os("MOCKET_CHAOS_ARTIFACT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "mocket-chaos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignRun { dir }
    }

    fn run_with_args(
        &self,
        workers: usize,
        env: &[(&str, &str)],
        extra: &[&str],
    ) -> std::process::ExitStatus {
        let mut cmd = Command::new(CLI);
        cmd.args(["campaign", "xraft"])
            .arg("--campaign-dir")
            .arg(&self.dir)
            .args(["--limit", "12"])
            .args(["--workers", &workers.to_string()])
            .args(["--shard-size", "4"])
            .args(["--max-states", "2000"])
            .args(["--poison-threshold", "2"])
            .args(extra);
        for (k, v) in env {
            cmd.env(k, v);
        }
        cmd.status().expect("spawn mocket-cli campaign")
    }

    fn run_with(&self, workers: usize, env: &[(&str, &str)]) -> std::process::ExitStatus {
        self.run_with_args(workers, env, &[])
    }

    fn run(&self, workers: usize) -> std::process::ExitStatus {
        self.run_with(workers, &[])
    }

    fn read(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(name))
            .unwrap_or_else(|e| panic!("read {name} in {}: {e}", self.dir.display()))
    }
}

impl Drop for CampaignRun {
    fn drop(&mut self) {
        if std::env::var_os("MOCKET_CHAOS_ARTIFACT_DIR").is_none() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

fn assert_canonical_identical(a: &CampaignRun, b: &CampaignRun, context: &str) {
    for name in CANONICAL {
        assert_eq!(
            a.read(name),
            b.read(name),
            "{context}: {name} must be byte-identical"
        );
    }
}

/// The tentpole end-to-end: SIGKILL the supervisor mid-campaign while
/// a seeded fault injector bites every durable write, resume on the
/// same directory (repeatedly, if injected faults fail a run), and
/// demand byte-identity with a clean campaign. Also checks the fault
/// log recorded at least three *distinct* fault kinds actually fired —
/// a chaos test that injected nothing proves nothing.
#[test]
fn supervisor_sigkill_plus_fs_faults_recovers_to_byte_identical_outputs() {
    let clean = CampaignRun::new("clean-ref");
    assert!(clean.run(2).success(), "clean campaign must succeed");

    let chaos = CampaignRun::new("chaos");
    std::fs::create_dir_all(&chaos.dir).unwrap();
    let fault_log_base = std::env::var_os("MOCKET_CHAOS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let fault_log = fault_log_base.join(format!(
        "mocket-chaos-faultlog-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&fault_log);
    let faults = "seed=20260809 rate=300";
    let fault_log_str = fault_log.to_string_lossy().into_owned();

    let marker = chaos.dir.join("supervisor-crash-injected");
    let mut converged = false;
    for attempt in 0..10 {
        let mut env: Vec<(&str, &str)> = vec![
            ("MOCKET_FSIO_FAULTS", faults),
            ("MOCKET_FSIO_FAULT_LOG", &fault_log_str),
        ];
        // Arm the one-shot supervisor kill until it has fired. The
        // marker file makes it one-shot across re-runs regardless.
        if !marker.exists() {
            env.push(("MOCKET_CAMPAIGN_INJECT_SUPERVISOR_CRASH", "1"));
        }
        let status = chaos.run_with(2, &env);
        if marker.exists() && status.success() {
            converged = true;
            break;
        }
        assert!(
            !status.success() || marker.exists(),
            "attempt {attempt}: campaign completed before the injected \
             supervisor crash could fire"
        );
    }
    assert!(
        converged,
        "chaos campaign must converge to success within the retry budget"
    );
    assert!(
        marker.exists(),
        "the injected supervisor SIGKILL must have fired"
    );

    // The injector actually bit, in at least three distinct ways.
    let log = std::fs::read_to_string(&fault_log).expect("fault log written");
    let mut kinds: Vec<&str> = log
        .lines()
        .filter_map(|l| l.split_whitespace().find_map(|t| t.strip_prefix("kind=")))
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert!(
        kinds.len() >= 3,
        "expected >=3 distinct injected fault kinds, got {kinds:?} from:\n{log}"
    );

    // A supervisor takeover happened: the supervisor journal records
    // more than one election.
    let (events, _) = SupervisorJournal::load(&chaos.dir);
    let elections = events
        .iter()
        .filter(|e| matches!(e, SupervisorEvent::Elect { .. }))
        .count();
    assert!(
        elections >= 2,
        "resume must re-elect a supervisor (got {elections} elections)"
    );

    assert_canonical_identical(&clean, &chaos, "chaos-and-recovered vs clean");
    let _ = std::fs::remove_file(&fault_log);
}

/// A given chaos seed replays the same fault schedule deterministically:
/// same seed + same operation sequence → identical decisions, op for
/// op; a different seed diverges.
#[test]
fn fault_schedule_is_a_pure_function_of_the_seed() {
    let points = [
        "plan.write",
        "lease.write",
        "journal.append",
        "obs.flush",
        "trace.append",
    ];
    let run = |seed: u64| -> Vec<Option<(FaultKind, u64)>> {
        let inj = FaultInjector::new(seed, 200);
        let mut schedule = Vec::new();
        for i in 0..400usize {
            let point = points[i % points.len()];
            schedule.push(inj.decide(point).map(|f| (f.kind, f.roll)));
        }
        schedule
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must replay the identical schedule");
    assert!(
        a.iter().any(Option::is_some),
        "rate=200/1024 over 400 ops must fire at least once"
    );
    let c = run(43);
    assert_ne!(a, c, "a different seed must produce a different schedule");

    // Per-point op counters are independent: interleaving order across
    // points does not perturb a point's own schedule.
    let inj = FaultInjector::new(42, 200);
    let mut plan_only = Vec::new();
    for _ in 0..400 / points.len() {
        plan_only.push(inj.decide("plan.write").map(|f| (f.kind, f.roll)));
    }
    let interleaved: Vec<_> = a
        .iter()
        .cloned()
        .enumerate()
        .filter(|(i, _)| points[i % points.len()] == "plan.write")
        .map(|(_, d)| d)
        .collect();
    assert_eq!(
        plan_only, interleaved,
        "a point's schedule must not depend on other points' traffic"
    );
}

/// The `trace.append` fault point: a traced campaign whose every
/// causal-trace append runs under seeded fault injection still
/// completes, its verdicts stay byte-identical to a clean untraced
/// campaign (tracing and its failures never leak into canonical
/// outputs), and the merged `trace.jsonl` parses cleanly — a torn
/// append either rolls back or its debris is isolated for parse-time
/// salvage, never fused into the next record.
#[test]
fn traced_campaign_survives_trace_append_faults() {
    let clean = CampaignRun::new("trace-clean");
    assert!(clean.run(2).success(), "clean untraced campaign");

    let chaos = CampaignRun::new("trace-chaos");
    let fault_log_base = std::env::var_os("MOCKET_CHAOS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let fault_log = fault_log_base.join(format!(
        "mocket-chaos-trace-faultlog-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&fault_log);
    let fault_log_str = fault_log.to_string_lossy().into_owned();
    let status = chaos.run_with_args(
        2,
        &[
            ("MOCKET_FSIO_FAULTS", "seed=20260810 rate=500 points=trace.append"),
            ("MOCKET_FSIO_FAULT_LOG", &fault_log_str),
        ],
        &["--trace"],
    );
    assert!(
        status.success(),
        "faults confined to trace.append must never fail a campaign"
    );

    // The injector actually bit, and only at the trace point.
    let log = std::fs::read_to_string(&fault_log).expect("fault log written");
    assert!(
        log.lines().count() > 0,
        "rate=500/1024 over a traced campaign must inject at least once"
    );
    for line in log.lines() {
        assert!(
            line.contains("point=trace.append"),
            "points= filter must confine faults to trace.append, got: {line}"
        );
    }

    // Verdicts unharmed: every canonical output matches the clean run.
    assert_canonical_identical(&clean, &chaos, "traced-chaos vs clean-untraced");

    // The merged campaign-level trace survived the faults and parses
    // without salvage issues: partial appends rolled back, so the file
    // holds only whole records.
    let trace_text = String::from_utf8(chaos.read("trace.jsonl")).expect("trace is utf-8");
    let (events, issues) = mocket::obs::causal::parse_trace(&trace_text);
    assert!(issues.is_empty(), "torn appends must roll back: {issues:?}");
    assert!(
        events
            .iter()
            .any(|e| e.kind == mocket::obs::CausalKind::CaseEnd),
        "the trace records case outcomes despite injected faults"
    );
    let _ = std::fs::remove_file(&fault_log);
}

/// Minimal xorshift-flavored generator for the fuzz tests below —
/// deterministic, dependency-free.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Applies one random corruption to `text`: truncation, byte flip,
/// garbage insertion, or a garbage suffix — the shapes a torn write,
/// an interleaved writer or a bad disk actually produce.
fn corrupt(rng: &mut Lcg, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(4) {
        0 => {
            // Truncate (a torn write cuts anywhere, not at line ends).
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        1 => {
            if !bytes.is_empty() {
                let i = rng.below(bytes.len());
                bytes[i] = (rng.next() & 0xff) as u8;
            }
        }
        2 => {
            let i = rng.below(bytes.len() + 1);
            let garbage: Vec<u8> = (0..rng.below(9)).map(|_| (rng.next() & 0xff) as u8).collect();
            bytes.splice(i..i, garbage);
        }
        _ => {
            bytes.extend((0..rng.below(17)).map(|_| (rng.next() & 0xff) as u8));
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn sample_plan() -> CampaignPlan {
    CampaignPlan::parse(
        "mocket-campaign-plan v1\n\
         target: xraft\n\
         bug: stale-term\n\
         max_states: 2000\n\
         max_path_len: 40\n\
         max_test_cases: 12\n\
         shard_size: 4\n\
         cases: 3\n\
         case: 0 aaaaaaaaaaaaaaaa len=3\n\
         case: 1 bbbbbbbbbbbbbbbb len=4\n\
         case: 2 cccccccccccccccc len=5\n",
    )
    .expect("sample plan parses")
}

/// Plan parsing under fuzz: corrupted plans yield `Err` or a plan that
/// re-renders consistently — never a panic, never an index panic.
#[test]
fn plan_parse_never_panics_on_corrupted_input() {
    let plan = sample_plan();
    let rendered = plan.render();
    let mut rng = Lcg(0xfeed_beef);
    let mut parsed_ok = 0usize;
    for _ in 0..500 {
        let mutated = corrupt(&mut rng, &rendered);
        if let Ok(p) = CampaignPlan::parse(&mutated) {
            parsed_ok += 1;
            // Whatever survived must round-trip stably.
            assert_eq!(
                CampaignPlan::parse(&p.render()).as_ref(),
                Ok(&p),
                "salvaged plan must re-render consistently"
            );
            let _ = p.stable_hash();
            let _ = p.shard_count();
        }
    }
    // Byte-flips in case hashes still parse; the point is no panic,
    // but the header + count checks must reject most mutilations.
    assert!(parsed_ok < 400, "corruption detection looks too lax");
    assert!(CampaignPlan::parse("").is_err());
    assert!(CampaignPlan::parse("\0\0\0\0").is_err());
}

/// Lease parsing under fuzz: `None` or a sane record, never a panic.
/// Interleaved writes (two lease bodies mashed together) must not
/// fabricate a parseable third owner with a mixed identity.
#[test]
fn lease_parse_never_panics_and_rejects_interleaved_bodies() {
    let lease = LeaseInfo {
        pid: 4242,
        token: Some(987654321),
        worker: 1,
        plan: Some("0123456789abcdef".into()),
        case: Some((7, "ffeeddccbbaa9988".into())),
    };
    let rendered = lease.render();
    assert_eq!(LeaseInfo::parse(&rendered).as_ref(), Some(&lease));

    let mut rng = Lcg(0xdead_cafe);
    for _ in 0..500 {
        let mutated = corrupt(&mut rng, &rendered);
        if let Some(p) = LeaseInfo::parse(&mutated) {
            // Round-trip stability for whatever was salvaged.
            assert_eq!(LeaseInfo::parse(&p.render()), Some(p));
        }
    }

    // Byte-interleaving of two different owners' bodies: split_once on
    // '=' fails or yields inconsistent keys — a fully-mixed body must
    // not parse as a valid third lease with pid from one and token
    // from the other *and* pass a token check.
    let other = LeaseInfo {
        pid: 9999,
        token: Some(1),
        worker: 0,
        plan: None,
        case: None,
    };
    let a = rendered.trim_end();
    let b = other.render();
    let b = b.trim_end();
    let interleaved: String = a
        .chars()
        .zip(b.chars())
        .flat_map(|(x, y)| [x, y])
        .collect();
    let _ = LeaseInfo::parse(&interleaved); // any result, no panic
}

/// Campaign-journal lines under fuzz: typed error or entry, no panic;
/// and garbage-suffixed outcomes never masquerade as `passed`.
#[test]
fn journal_line_parse_never_panics() {
    let line = "case: 0123456789abcdef attempts=3 det=flaky outcome=failed Missing action";
    assert!(JournalEntry::parse_line(line).is_ok());
    let mut rng = Lcg(0x0dd_ba11);
    for _ in 0..500 {
        let mutated = corrupt(&mut rng, line);
        for l in mutated.lines() {
            let _ = JournalEntry::parse_line(l);
        }
    }
    assert!(JournalEntry::parse_line("").is_err());
    assert!(JournalEntry::parse_line("case:").is_err());
    assert!(JournalEntry::parse_line("case: h attempts=1 outcome=passed trailing").is_err());
}

/// Supervisor-journal lines under fuzz: `None` or a record, no panic.
#[test]
fn supervisor_journal_parse_never_panics() {
    let lines = [
        "elect pid=100 tok=123456 plan=0123456789abcdef",
        "spawn worker=1 pid=101 tok=654321 plan=0123456789abcdef",
        "reap worker=1 pid=101",
    ];
    let mut rng = Lcg(0x5123_4567);
    for line in lines {
        assert!(SupervisorEvent::parse_line(line).is_some(), "{line}");
        for _ in 0..300 {
            let mutated = corrupt(&mut rng, line);
            for l in mutated.lines() {
                if let Some(ev) = SupervisorEvent::parse_line(l) {
                    // Salvaged events round-trip.
                    assert_eq!(SupervisorEvent::parse_line(&ev.render_line()), Some(ev));
                }
            }
        }
    }
}

/// History records under fuzz: `CampaignHistory::open` on a mangled
/// `campaign-history.jsonl` salvages the valid lines and reports the
/// rest as issues — never a panic, and `next_seq` stays monotonic.
#[test]
fn campaign_history_salvages_corrupt_files() {
    let dir = std::env::temp_dir().join(format!(
        "mocket-chaos-history-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign-history.jsonl");

    let valid = mocket::obs::CampaignRecord {
        seq: 1,
        spec: "XRaft".into(),
        states: 10,
        edges: 20,
        coverage_edges_visited: 5,
        coverage_edge_targets: 10,
        coverage: 0.5,
        cases_selected: 12,
        cases_run: 12,
        cases_passed: 12,
        cases_failed: 0,
        cases_quarantined: 0,
        cases_skipped_from_journal: 0,
        bugs_by_kind: Default::default(),
        bugs_by_determinism: Default::default(),
        shrink_original_actions: 0,
        shrink_minimized_actions: 0,
        uncovered_frontier_edges: 3,
        wall_checker_states_per_sec: 0.0,
        wall_total_seconds: 0.0,
    }
    .to_json_line();
    let valid = valid.trim_end();
    let mut rng = Lcg(0xc0ff_ee00);
    for _ in 0..50 {
        let mut content = String::new();
        content.push_str(valid);
        content.push('\n');
        content.push_str(&corrupt(&mut rng, valid));
        content.push('\n');
        content.push_str("total garbage, not even json\n");
        // A torn final append: no trailing newline.
        content.push_str(&valid[..rng.below(valid.len())]);
        std::fs::write(&path, &content).unwrap();
        let history = CampaignHistory::open(&dir).expect("open never fails on garbage content");
        assert!(
            !history.records().is_empty(),
            "the valid first line must be salvaged"
        );
        assert!(history.next_seq() >= 2, "seq continues after salvage");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pure-garbage robustness: all the trusted parsers fed random bytes.
#[test]
fn all_parsers_survive_random_bytes() {
    let mut rng = Lcg(0xbad5_eed5);
    for _ in 0..300 {
        let len = rng.below(200);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = CampaignPlan::parse(&text);
        let _ = LeaseInfo::parse(&text);
        let _ = SupervisorEvent::parse_line(&text);
        for line in text.lines() {
            let _ = JournalEntry::parse_line(line);
        }
    }
}

/// The salvage path on disk: a truncated lease and a torn plan in a
/// real campaign directory do not stop a resume (end-to-end guard for
/// the unit-level salvage logic).
#[test]
fn resume_survives_torn_lease_debris_on_disk() {
    let run = CampaignRun::new("torn-debris");
    assert!(run.run(1).success(), "seed campaign");

    // Plant torn debris where a crashed worker would leave it.
    let shards = run.dir.join("shards");
    std::fs::write(shards.join("shard-0.lease"), "pid=").unwrap();
    std::fs::write(shards.join("shard-9.lease"), "\0\0\0garbage").unwrap();

    let before: Vec<Vec<u8>> = CANONICAL.iter().map(|n| run.read(n)).collect();
    assert!(
        run.run(1).success(),
        "resume must shrug off torn lease debris"
    );
    for (name, snapshot) in CANONICAL.iter().zip(before) {
        assert_eq!(
            run.read(name),
            snapshot,
            "{name} must be unchanged by the debris re-run"
        );
    }
}
