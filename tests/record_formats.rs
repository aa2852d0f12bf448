//! Byte fixtures for every line-oriented campaign file.
//!
//! Each on-disk record format gets one verbatim fixture and two
//! checks: `render(parse(fixture)) == fixture`, and the salvage
//! contract on `fixture + garbage line + torn final line` — the valid
//! prefix is kept, two issues are reported, and the torn final line is
//! not trusted even though it parses (it is the fixture again, minus
//! its `'\n'`).
//!
//! Only API that is stable across the record-layer refactor is used,
//! so the file compiles and the byte fixtures hold on either side of
//! it; the [`Loaded`] adapter absorbs the three loader signatures that
//! grew an issue list.

use std::path::{Path, PathBuf};

use mocket::core::orchestrator::{
    load_crashes, load_poisoned, record_worker_crash, CrashRecord, LeaseInfo, PoisonRecord,
    CRASH_LOG_FILE_NAME, POISON_LOG_FILE_NAME, QUARANTINE_DIR_NAME,
};
use mocket::core::{CampaignJournal, CaseOutcome, JournalEntry};
use mocket::obs::causal::{parse_trace, CausalEvent, CausalKind};
use mocket::obs::{
    parse_flat_object, CampaignHistory, CampaignRecord, MetricsRegistry, RunSummary,
    CAMPAIGN_HISTORY_FILE_NAME,
};

const JOURNAL_PASSED: &str = "case: 0123456789abcdef attempts=1 outcome=passed\n";
const JOURNAL_FAILED: &str =
    "case: fedcba9876543210 attempts=2 det=deterministic outcome=failed Inconsistent state\n";
const CRASH: &str = "crash: case=7 hash=ffeeddccbbaa9988 worker=2 pid=4242\n";
const POISON: &str = "poison: case=7 hash=ffeeddccbbaa9988 crashes=2\n";
const LEASE_IDLE: &str = "pid=4242 tok=- worker=2 plan=- case=- hash=-\n";
const LEASE_BUSY: &str =
    "pid=4242 tok=987654321 worker=2 plan=0123456789abcdef case=7 hash=ffeeddccbbaa9988\n";
const HISTORY: &str = "{\"schema_version\":1,\"seq\":3,\"spec\":\"Raft\",\"states\":103,\
\"edges\":300,\"coverage_edges_visited\":253,\"coverage_edge_targets\":280,\"coverage\":0.5,\
\"cases_selected\":12,\"cases_run\":12,\"cases_passed\":10,\"cases_failed\":2,\
\"cases_quarantined\":0,\"cases_skipped_from_journal\":1,\
\"bugs_by_kind.Inconsistent state\":1,\"bugs_by_kind.Missing action\":1,\
\"bugs_by_determinism.deterministic\":1,\"bugs_by_determinism.flaky\":1,\
\"shrink_original_actions\":30,\"shrink_minimized_actions\":12,\
\"uncovered_frontier_edges\":2,\"wall_checker_states_per_sec\":1234.5,\
\"wall_total_seconds\":0.25}\n";
const TRACE: &str = "{\"seq\":7,\"case\":3,\"kind\":\"send\",\"vt\":1250,\"node\":1,\"peer\":2,\
\"msg\":4,\"lamport\":9,\"step\":5,\"action\":\"HandleRequestVote\",\"edge\":17,\
\"note\":\"dup \\\"x\\\"\"}\n";
const SUMMARY: &str = "{\n\
\x20 \"schema_version\": 1,\n\
\x20 \"spec\": \"Counter\",\n\
\x20 \"states\": 12,\n\
\x20 \"edges\": 30,\n\
\x20 \"coverage_edges_visited\": 27,\n\
\x20 \"coverage_edge_targets\": 28,\n\
\x20 \"coverage\": 0.75,\n\
\x20 \"por_excluded_edges\": 2,\n\
\x20 \"cases_selected\": 4,\n\
\x20 \"cases_run\": 4,\n\
\x20 \"cases_passed\": 3,\n\
\x20 \"cases_failed\": 1,\n\
\x20 \"cases_quarantined\": 0,\n\
\x20 \"cases_skipped_from_journal\": 1,\n\
\x20 \"journal_issues\": 2,\n\
\x20 \"bugs_by_kind.Inconsistent state\": 1,\n\
\x20 \"bugs_by_determinism.deterministic\": 1,\n\
\x20 \"metric.checker.distinct_states\": 12,\n\
\x20 \"metric.coverage.fraction\": 0.75,\n\
\x20 \"wall_check_seconds\": 0.5,\n\
\x20 \"wall_test_seconds\": 1.5,\n\
\x20 \"wall_total_seconds\": 2,\n\
\x20 \"wall_metric.timing.stage.check_seconds.count\": 1,\n\
\x20 \"wall_metric.timing.stage.check_seconds.max\": 0.5,\n\
\x20 \"wall_metric.timing.stage.check_seconds.mean\": 0.5,\n\
\x20 \"wall_metric.timing.stage.check_seconds.min\": 0.5,\n\
\x20 \"wall_metric.timing.stage.check_seconds.sum\": 0.5\n\
}\n";

/// The three loaders whose return type gained an issue list
/// (`Vec<T>` and `(Vec<T>, skipped)` became `(Vec<T>, Vec<issue>)`),
/// reduced to what the checks below need: records and an issue count.
trait Loaded<T> {
    fn split(self) -> (Vec<T>, usize);
}

impl<T> Loaded<T> for Vec<T> {
    fn split(self) -> (Vec<T>, usize) {
        (self, 0)
    }
}

impl<T> Loaded<T> for (Vec<T>, usize) {
    fn split(self) -> (Vec<T>, usize) {
        self
    }
}

impl<T, I> Loaded<T> for (Vec<T>, Vec<I>) {
    fn split(self) -> (Vec<T>, usize) {
        (self.0, self.1.len())
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocket-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `fixture`, a line no parser accepts, then `fixture` again with its
/// newline torn off.
fn dirty(fixture: &str) -> String {
    format!("{fixture}%% not a record %%\n{}", fixture.trim_end_matches('\n'))
}

fn write(dir: &Path, name: &str, content: &str) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(name), content).unwrap();
}

fn failed_entry() -> JournalEntry {
    JournalEntry {
        hash: "fedcba9876543210".into(),
        attempts: 2,
        determinism: Some("deterministic".into()),
        outcome: CaseOutcome::Failed {
            kind: "Inconsistent state".into(),
        },
    }
}

#[test]
fn journal_lines_roundtrip_and_append_verbatim() {
    for fixture in [JOURNAL_PASSED, JOURNAL_FAILED] {
        let entry = JournalEntry::parse_line(fixture.trim_end()).unwrap();
        assert_eq!(entry.render_line(), fixture);
    }
    assert_eq!(JournalEntry::parse_line(JOURNAL_FAILED.trim_end()).unwrap(), failed_entry());

    let dir = tmp("journal");
    let mut journal = CampaignJournal::open(&dir).unwrap();
    journal.record(failed_entry()).unwrap();
    drop(journal);
    let bytes = std::fs::read_to_string(dir.join(CampaignJournal::FILE_NAME)).unwrap();
    assert_eq!(bytes, JOURNAL_FAILED);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_salvages_prefix_and_distrusts_torn_line() {
    let dir = tmp("journal-salvage");
    // The torn line is a *different* hash that parses, so trusting it
    // would show up as a second completed case.
    let text = format!("{JOURNAL_PASSED}%% not a record %%\n{}", JOURNAL_FAILED.trim_end());
    write(&dir, CampaignJournal::FILE_NAME, &text);
    let (entries, issues) = CampaignJournal::load_entries(&dir).unwrap();
    assert_eq!(entries.len(), 1);
    assert!(entries.contains_key("0123456789abcdef"));
    assert_eq!(issues.len(), 2);
    let journal = CampaignJournal::open(&dir).unwrap();
    assert_eq!(journal.len(), 1);
    assert_eq!(journal.issues().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_after_a_torn_line_isolates_the_debris_instead_of_completing_it() {
    let dir = tmp("journal-torn-append");
    // The interrupted append was `... outcome=failed Missing action`:
    // cut at `Missing` it still parses, with the wrong kind. A later
    // append must not turn that debris into a trusted record.
    let torn = "case: aaaaaaaaaaaaaaaa attempts=1 det=deterministic outcome=failed Missing";
    assert!(JournalEntry::parse_line(torn).is_ok(), "the debris parses");
    write(&dir, CampaignJournal::FILE_NAME, &format!("{JOURNAL_PASSED}{torn}"));

    let mut journal = CampaignJournal::open(&dir).unwrap();
    assert_eq!((journal.len(), journal.issues().len()), (1, 1));
    journal.record(failed_entry()).unwrap();
    drop(journal);

    let (entries, issues) = CampaignJournal::load_entries(&dir).unwrap();
    let mut hashes: Vec<&str> = entries.keys().map(String::as_str).collect();
    hashes.sort_unstable();
    assert_eq!(hashes, ["0123456789abcdef", "fedcba9876543210"]);
    assert_eq!(issues.len(), 1, "the debris stays an issue on every later load");
    // Clean records around the debris are byte-for-byte the fixtures.
    let bytes = std::fs::read_to_string(dir.join(CampaignJournal::FILE_NAME)).unwrap();
    assert!(bytes.starts_with(JOURNAL_PASSED) && bytes.ends_with(JOURNAL_FAILED));
    let _ = std::fs::remove_dir_all(&dir);
}

fn victim() -> LeaseInfo {
    LeaseInfo::parse(LEASE_BUSY).unwrap()
}

#[test]
fn quarantine_lines_roundtrip_and_append_verbatim() {
    let dir = tmp("quarantine");
    let qdir = dir.join(QUARANTINE_DIR_NAME);
    let none = |_: usize| None;
    // Threshold 2: the second crash of the same case writes the poison
    // record.
    record_worker_crash(&dir, 0, &victim(), 2, &none).unwrap();
    let bytes = std::fs::read_to_string(qdir.join(CRASH_LOG_FILE_NAME)).unwrap();
    assert_eq!(bytes, CRASH);
    record_worker_crash(&dir, 0, &victim(), 2, &none).unwrap();
    let bytes = std::fs::read_to_string(qdir.join(POISON_LOG_FILE_NAME)).unwrap();
    assert_eq!(bytes, POISON);

    write(&qdir, CRASH_LOG_FILE_NAME, CRASH);
    let (crashes, issues) = load_crashes(&dir).unwrap().split();
    assert_eq!(issues, 0);
    assert_eq!(
        crashes,
        vec![CrashRecord {
            case: 7,
            hash: "ffeeddccbbaa9988".into(),
            worker: 2,
            pid: 4242,
        }]
    );
    let (poisoned, issues) = load_poisoned(&dir).unwrap().split();
    assert_eq!(issues, 0);
    assert_eq!(
        poisoned,
        vec![PoisonRecord {
            case: 7,
            hash: "ffeeddccbbaa9988".into(),
            crashes: 2,
        }]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_logs_salvage_prefix_and_distrust_torn_line() {
    let dir = tmp("quarantine-salvage");
    let qdir = dir.join(QUARANTINE_DIR_NAME);
    write(&qdir, CRASH_LOG_FILE_NAME, &dirty(CRASH));
    write(&qdir, POISON_LOG_FILE_NAME, &dirty(POISON));
    let (crashes, issues) = load_crashes(&dir).unwrap().split();
    assert_eq!(crashes.len(), 1, "a torn crash line must not count as a crash");
    assert_eq!(issues, 2);
    let (poisoned, issues) = load_poisoned(&dir).unwrap().split();
    assert_eq!(poisoned.len(), 1, "a torn poison line must not be trusted");
    assert_eq!(issues, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lease_bodies_roundtrip() {
    for fixture in [LEASE_IDLE, LEASE_BUSY] {
        assert_eq!(LeaseInfo::parse(fixture).unwrap().render(), fixture);
    }
    assert_eq!(
        LeaseInfo::parse(LEASE_IDLE),
        Some(LeaseInfo {
            pid: 4242,
            token: None,
            worker: 2,
            plan: None,
            case: None,
        })
    );
    assert_eq!(
        LeaseInfo::parse(LEASE_BUSY),
        Some(LeaseInfo {
            pid: 4242,
            token: Some(987654321),
            worker: 2,
            plan: Some("0123456789abcdef".into()),
            case: Some((7, "ffeeddccbbaa9988".into())),
        })
    );
    // A lease written before the heartbeat counter was dropped still
    // parses: unknown keys are ignored.
    let old = LEASE_BUSY.replace(" plan=", " hb=17 plan=");
    assert_eq!(LeaseInfo::parse(&old), LeaseInfo::parse(LEASE_BUSY));
}

#[test]
fn history_line_roundtrips_and_appends_verbatim() {
    let record = CampaignRecord::parse(HISTORY.trim_end()).unwrap();
    assert_eq!(format!("{}\n", record.to_json_line()), HISTORY);
    assert_eq!(record.bugs_by_kind.len(), 2);
    assert_eq!(record.bugs_by_determinism.len(), 2);

    let dir = tmp("history");
    let mut history = CampaignHistory::open(&dir).unwrap();
    history.append(record).unwrap();
    let bytes = std::fs::read_to_string(dir.join(CAMPAIGN_HISTORY_FILE_NAME)).unwrap();
    assert_eq!(bytes, HISTORY);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_salvages_prefix_and_distrusts_torn_line() {
    let dir = tmp("history-salvage");
    write(&dir, CAMPAIGN_HISTORY_FILE_NAME, &dirty(HISTORY));
    let history = CampaignHistory::open(&dir).unwrap();
    assert_eq!(history.records().len(), 1);
    assert_eq!(history.issues().len(), 2);
    assert_eq!(history.next_seq(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_line_roundtrips_with_every_optional_key() {
    let event = CausalEvent::parse_line(TRACE.trim_end()).unwrap();
    assert_eq!(format!("{}\n", event.to_json_line()), TRACE);
    assert_eq!(
        event,
        CausalEvent {
            seq: 7,
            kind: CausalKind::Send,
            case: 3,
            vt: 1250,
            node: Some(1),
            peer: Some(2),
            msg: Some(4),
            lamport: Some(9),
            step: Some(5),
            action: Some("HandleRequestVote".into()),
            edge: Some(17),
            note: Some("dup \"x\"".into()),
        }
    );
}

#[test]
fn trace_salvages_prefix_and_distrusts_torn_line() {
    let (events, issues) = parse_trace(&dirty(TRACE));
    assert_eq!(events.len(), 1);
    assert_eq!(issues.len(), 2);
}

#[test]
fn run_summary_document_is_pinned() {
    let metrics = MetricsRegistry::default();
    metrics.add("checker.distinct_states", 12);
    metrics.set_gauge("coverage.fraction", 0.75);
    metrics.observe("timing.stage.check_seconds", 0.5);
    let mut summary = RunSummary {
        spec: "Counter".into(),
        states: 12,
        edges: 30,
        coverage_edges_visited: 27,
        coverage_edge_targets: 28,
        coverage: 0.75,
        por_excluded_edges: 2,
        cases_selected: 4,
        cases_run: 4,
        cases_passed: 3,
        cases_failed: 1,
        cases_quarantined: 0,
        cases_skipped_from_journal: 1,
        journal_issues: 2,
        metrics: metrics.snapshot(),
        wall_check_seconds: 0.5,
        wall_test_seconds: 1.5,
        wall_total_seconds: 2.0,
        ..RunSummary::default()
    };
    summary.bugs_by_kind.insert("Inconsistent state".into(), 1);
    summary.bugs_by_determinism.insert("deterministic".into(), 1);
    assert_eq!(summary.to_json(), SUMMARY);

    // The document is one flat object; it parses back key for key.
    let pairs = parse_flat_object(SUMMARY).unwrap();
    assert_eq!(pairs.len(), SUMMARY.lines().count() - 2);
    assert_eq!(pairs[1].1.as_str(), Some("Counter"));
    assert_eq!(pairs.last().unwrap().1.as_f64(), Some(0.5));
}
