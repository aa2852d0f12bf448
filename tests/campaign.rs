//! End-to-end crash tolerance for the sharded campaign orchestrator.
//!
//! Each test drives the real `mocket-cli` binary: a supervisor that
//! shards the pinned case set across crash-isolated worker processes
//! with lease-based work stealing, then deterministically merges the
//! per-shard outputs. The contract under test is byte-identity of the
//! canonical campaign outputs — no matter whether the campaign ran
//! clean, lost a worker to `kill -9` mid-shard, had a hung worker
//! killed, quarantined a poison case, drained on SIGINT and resumed,
//! or used a different worker count.

use std::path::{Path, PathBuf};
use std::process::Command;

use mocket::core::orchestrator::{
    done_path, lease_path, load_crashes, load_poisoned, send_signal, shard_data_dir, CampaignPlan,
    LeaseInfo, SIGKILL,
};
use mocket::core::{CampaignJournal, ReplayArtifact};

const CLI: &str = env!("CARGO_BIN_EXE_mocket-cli");

/// The canonical merged outputs whose bytes must not depend on the
/// campaign's failure history.
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
        let dir = std::env::temp_dir().join(format!(
            "mocket-campaign-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignRun { dir }
    }

    /// `mocket-cli campaign` on a small xraft state space; `extra`
    /// flags come last, so they override the defaults here.
    fn command(&self, workers: usize, extra: &[&str]) -> Command {
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
        cmd
    }

    /// Runs the campaign. Injection env vars are scoped to this one
    /// invocation — a resume must not re-inject the fault it is
    /// recovering from.
    fn run_with(&self, workers: usize, env: &[(&str, &str)]) -> std::process::ExitStatus {
        let mut cmd = self.command(workers, &[]);
        cmd.envs(env.iter().copied());
        cmd.status().expect("spawn mocket-cli campaign")
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
        let _ = std::fs::remove_dir_all(&self.dir);
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

fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

/// A `kill -9`'d worker's shard is stolen and finished by a restarted
/// worker, and the merged outputs are byte-identical to a crash-free
/// campaign's — the crash leaves forensics, not divergence.
#[test]
fn sigkilled_worker_shard_is_recovered_and_merge_is_byte_identical() {
    let clean = CampaignRun::new("clean");
    assert!(clean.run(2).success(), "clean campaign must succeed");

    let crashed = CampaignRun::new("sigkill");
    assert!(
        crashed
            .run_with(2, &[("MOCKET_CAMPAIGN_INJECT_CRASH", "sigkill:5")])
            .success(),
        "campaign must survive a SIGKILLed worker"
    );

    // The crash actually happened and was attributed.
    let (crashes, _) = load_crashes(&crashed.dir).expect("crash log readable");
    assert!(
        crashes.iter().any(|c| c.case == 5),
        "crash log must attribute case 5, got {crashes:?}"
    );
    // ...but exactly once: the stealer saw the crash, retried, passed.
    assert!(
        load_poisoned(&crashed.dir)
            .expect("poison log readable")
            .0
            .is_empty(),
        "a single crash must not quarantine the case"
    );

    assert_canonical_identical(&clean, &crashed, "crashed-and-recovered vs clean");
}

/// The merge is a pure function of the plan and the verdict set: one
/// worker or two, same bytes. And re-running a completed campaign is
/// idempotent — outputs unchanged, history not double-appended.
#[test]
fn merge_is_invariant_to_worker_count_and_rerun_is_idempotent() {
    let two = CampaignRun::new("two-workers");
    assert!(two.run(2).success());
    let one = CampaignRun::new("one-worker");
    assert!(one.run(1).success());
    assert_canonical_identical(&two, &one, "workers=1 vs workers=2");

    // A shard is a window of its worker's one run: each worker leaves
    // one summary covering every case it drove, and none of the
    // per-run files the merge derives for the campaign as a whole.
    for run in [&two, &one] {
        let mut cases_run = 0u64;
        for entry in std::fs::read_dir(&run.dir).unwrap() {
            let worker_dir = entry.unwrap().path();
            let name = worker_dir.file_name().unwrap().to_string_lossy().into_owned();
            if !name.starts_with("worker-") {
                continue;
            }
            for per_run in [
                "coverage.dot",
                "coverage.json",
                "uncovered-edges.txt",
                "campaign-history.jsonl",
            ] {
                assert!(
                    !worker_dir.join(per_run).exists(),
                    "{name}/{per_run} must not be written"
                );
            }
            // A worker that found every shard taken drove nothing and
            // summarises nothing.
            let Ok(summary) = std::fs::read_to_string(worker_dir.join("run-summary.json")) else {
                continue;
            };
            cases_run += mocket::obs::parse_flat_object(&summary)
                .unwrap()
                .iter()
                .find(|(key, _)| key == "cases_run")
                .and_then(|(_, value)| value.as_u64())
                .unwrap_or_else(|| panic!("{name}: no cases_run in {summary}"));
        }
        assert_eq!(cases_run, 12, "worker summaries must add up to the plan");
    }

    let before: Vec<Vec<u8>> = CANONICAL.iter().map(|n| two.read(n)).collect();
    assert!(two.run(2).success(), "re-run of a completed campaign");
    for (name, snapshot) in CANONICAL.iter().zip(before) {
        assert_eq!(two.read(name), snapshot, "{name} must survive a re-run");
    }
    let history = String::from_utf8(two.read("campaign-history.jsonl")).unwrap();
    assert_eq!(
        history.lines().count(),
        1,
        "idempotent re-run must not append a second history record"
    );
}

/// Polls the campaign's lease records until one names a case in
/// flight, stops that worker with SIGSTOP and returns its shard and
/// record. A worker caught after journaling the named case (or after
/// retiring the shard) is not hung in it: it is resumed and the next
/// record tried.
#[cfg(target_os = "linux")]
fn stop_a_worker_mid_case(dir: &Path) -> (usize, LeaseInfo) {
    const SIGSTOP: i32 = 19;
    const SIGCONT: i32 = 18;
    let read = |shard| LeaseInfo::parse(&std::fs::read_to_string(lease_path(dir, shard)).ok()?);
    // About a minute of 2 ms polls.
    for _ in 0..30_000 {
        let shards = CampaignPlan::load(dir)
            .ok()
            .flatten()
            .map_or(0, |p| p.shard_count());
        for shard in 0..shards {
            let Some(seen) = read(shard).filter(|l| l.case.is_some()) else {
                continue;
            };
            send_signal(seen.pid, SIGSTOP);
            // Stopped, the record is final.
            let Some(stopped) = read(shard).filter(|l| l.pid == seen.pid) else {
                send_signal(seen.pid, SIGCONT);
                continue;
            };
            let (journaled, _) =
                CampaignJournal::load_entries(&shard_data_dir(dir, shard)).unwrap();
            let in_flight = match &stopped.case {
                Some((_, hash)) => !journaled.contains_key(hash),
                None => false,
            };
            if in_flight && !done_path(dir, shard).exists() {
                return (shard, stopped);
            }
            send_signal(seen.pid, SIGCONT);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    panic!("no worker was caught with a case in flight");
}

/// A hung worker keeps its shard lock, so only the supervisor's hang
/// rule frees its shard: a worker SIGSTOPped mid-case is SIGKILLed once
/// its lease record has sat unchanged for the lease TTL, a peer claims
/// the shard and attributes the case once, and the merged outputs match
/// a clean campaign's.
#[cfg(target_os = "linux")]
#[test]
fn hung_worker_is_killed_after_the_lease_ttl_and_its_shard_stolen() {
    let flags = ["--limit", "96", "--lease-ttl-ms", "2000"];
    let clean = CampaignRun::new("hang-clean");
    assert!(clean.command(2, &flags).status().unwrap().success());

    let hung = CampaignRun::new("hung");
    let mut campaign = hung
        .command(2, &flags)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mocket-cli campaign");
    let (shard, victim) = stop_a_worker_mid_case(&hung.dir);
    // Two minutes: without the hang rule the campaign never ends.
    let status = (0..1200).find_map(|_| {
        std::thread::sleep(std::time::Duration::from_millis(100));
        campaign.try_wait().unwrap()
    });
    let Some(status) = status else {
        let _ = campaign.kill();
        send_signal(victim.pid, SIGKILL);
        panic!("the stopped worker was never killed, so the campaign never ended");
    };
    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut campaign.stdout.take().unwrap(), &mut stdout).unwrap();
    assert!(
        status.success(),
        "campaign must survive a hung worker: {stdout}"
    );
    assert!(
        stdout.contains(" 1 hung worker(s) killed"),
        "the supervisor must kill the hung worker: {stdout}"
    );

    // The peer that claimed the shard blamed the case, once.
    let (case, hash) = victim.case.clone().unwrap();
    let (crashes, _) = load_crashes(&hung.dir).expect("crash log readable");
    let blamed: Vec<_> = crashes.iter().filter(|c| c.hash == hash).collect();
    assert_eq!(blamed.len(), 1, "shard {shard}, case {case}: {crashes:?}");
    assert_eq!((blamed[0].case, blamed[0].pid), (case, victim.pid));

    assert_canonical_identical(&clean, &hung, "hung-and-killed vs clean");
}

/// A case that deterministically kills its worker is quarantined after
/// K attempts with a replay artifact, and the campaign still completes
/// with every other case resolved.
#[test]
fn poison_case_is_quarantined_with_replay_artifact_and_campaign_completes() {
    let run = CampaignRun::new("poison");
    assert!(
        run.run_with(2, &[("MOCKET_CAMPAIGN_POISON_CASE", "5")])
            .success(),
        "campaign must complete despite a poison case"
    );

    let (poisoned, _) = load_poisoned(&run.dir).expect("poison log readable");
    assert_eq!(poisoned.len(), 1, "exactly one quarantined case");
    assert_eq!(poisoned[0].case, 5);
    assert_eq!(
        poisoned[0].crashes, 2,
        "quarantine exactly at --poison-threshold"
    );

    // The quarantine ships a loadable reproducer for the poison case.
    let artifact_path =
        quarantine_dir(&run.dir).join(format!("case-{}.artifact", poisoned[0].hash));
    let artifact = ReplayArtifact::load(&artifact_path).expect("quarantine replay artifact loads");
    assert_eq!(
        artifact.test_case.stable_hash(),
        poisoned[0].hash,
        "reproducer must be the quarantined schedule"
    );
    assert!(
        !artifact.test_case.is_empty(),
        "reproducer must carry the schedule"
    );

    // Everyone else still got a verdict: 12 planned - 1 poisoned.
    let journal = String::from_utf8(run.read("journal.log")).unwrap();
    assert_eq!(
        journal.lines().filter(|l| l.starts_with("case: ")).count(),
        11,
        "all non-poison cases must reach the canonical journal"
    );
    assert!(
        !journal.contains(&poisoned[0].hash),
        "poisoned case must not claim a verdict"
    );
}

/// A drain request mid-campaign checkpoints cleanly; re-running the
/// same command resumes from the journals and converges to the same
/// bytes as a never-interrupted campaign.
#[test]
fn drained_campaign_resumes_to_byte_identical_outputs() {
    let reference = CampaignRun::new("drain-ref");
    assert!(reference.run(2).success());

    let drained = CampaignRun::new("drained");
    assert!(
        drained
            .run_with(2, &[("MOCKET_CAMPAIGN_INJECT_DRAIN", "6")])
            .success(),
        "a drained campaign exits successfully"
    );
    let partial = String::from_utf8(drained.read("journal.log")).unwrap();
    assert!(
        partial.lines().count() < 12,
        "drain must checkpoint before the case set is exhausted"
    );

    // Same command again, without the injection: the resume picks up
    // the journaled verdicts and finishes the remaining cases.
    assert!(
        drained.run(2).success(),
        "resume must complete the campaign"
    );
    assert_canonical_identical(&reference, &drained, "drained-and-resumed vs clean");
}

/// Two supervisors on one campaign directory must not interleave: the
/// second fails fast with a lock-held diagnostic while the first is
/// alive, and succeeds once the lock is released.
#[test]
fn concurrent_campaign_on_same_dir_fails_fast() {
    use mocket::core::orchestrator::DirLock;

    let run = CampaignRun::new("locked");
    std::fs::create_dir_all(&run.dir).unwrap();
    let lock = DirLock::acquire(&run.dir, "journal.lock").expect("test takes the lock");

    let out = Command::new(CLI)
        .args(["campaign", "xraft"])
        .arg("--campaign-dir")
        .arg(&run.dir)
        .args(["--limit", "4", "--max-states", "2000"])
        .output()
        .expect("spawn contender");
    assert!(
        !out.status.success(),
        "second campaign must refuse the held directory"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("owned by another live campaign"),
        "diagnostic must name the conflict, got: {stderr}"
    );

    drop(lock);
    assert!(run.run(1).success(), "released lock unblocks the campaign");
}

/// A flag no subcommand reads is a typo, not a default: `--sim-sed 7`
/// must not quietly run seed 42, nor `--worker 4` two workers.
#[test]
fn unknown_flag_exits_2_naming_it() {
    for (argv, flag) in [
        (&["test", "xraft", "--sim", "--sim-sed", "7"][..], "--sim-sed"),
        (&["campaign", "xraft", "--worker", "4"][..], "--worker"),
    ] {
        let out = Command::new(CLI).args(argv).output().expect("spawn cli");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "one line, got: {stderr}");
        assert!(stderr.contains(flag), "must name {flag}, got: {stderr}");
    }
}
