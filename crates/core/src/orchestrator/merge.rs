//! Deterministic merge of a sharded campaign into the canonical
//! top-level outputs.
//!
//! The merge never concatenates worker files. Every canonical artifact
//! is *derived* from three logical inputs — the pinned plan, the
//! per-shard verdict sets (shard journals), and the regenerated state
//! graph — so the merged `journal.log`, `coverage.json`,
//! `events.jsonl`, `run-summary.json` and `campaign-history.jsonl`
//! are byte-identical whether the campaign ran clean, crashed and
//! resumed, or ran under any worker count. Wall-clock data is zeroed
//! (history) or omitted (summary metrics) for the same reason.
//!
//! Duplicate-hash semantics: the canonical journal carries one line
//! per unique case hash, ordered by the hash's first plan index; the
//! coverage map counts every plan index whose hash reached a verdict
//! (each index walked its path, whichever shard ran it). Poisoned
//! cases never reached a verdict: they appear in the quarantine logs
//! and the summary's `cases_quarantined`, not in the journal or the
//! coverage map.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use mocket_checker::{uncovered_frontier, EdgeId, StateGraph};
use mocket_obs::{CoverageMap, Event, Obs, RunSummary, EVENTS_FILE_NAME};

use crate::artifact::{CampaignJournal, CaseOutcome, JournalEntry, ReplayArtifact};
use crate::fsio::{points, TORN_MARKER};
use crate::pipeline::outputs::{count_bug, history_record, write_insight, BugTally};

use super::lease::shard_data_dir;
use super::plan::CampaignPlan;
use super::worker::{describe_issues, load_crashes, load_poisoned};

/// What the merge produced.
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Plan indices whose hash reached a verdict.
    pub cases_with_verdict: usize,
    /// Plan indices whose hash passed.
    pub cases_passed: usize,
    /// Unique failed hashes.
    pub failed_unique: usize,
    /// Unique poisoned (quarantined) hashes.
    pub poisoned: usize,
    /// Lines in the canonical journal.
    pub journal_lines: usize,
    /// Replay artifacts promoted from shard directories to the top
    /// level (deduplicated by minimized-case fingerprint).
    pub artifacts_copied: usize,
    /// A history record was appended (campaign complete and the record
    /// was not already the last line).
    pub history_appended: bool,
    /// A campaign-level `trace.jsonl` was assembled from the shard
    /// traces (only traced campaigns produce one).
    pub traces_merged: bool,
    /// Non-fatal anomalies (shard journal issues, unreadable
    /// artifacts). Never part of the canonical outputs.
    pub issues: Vec<String>,
}

/// Everything the merge derives the canonical outputs from. The graph
/// and paths must be the regenerated ones the plan was verified
/// against; the traversal gauges are deterministic graph properties
/// forwarded into the summary.
pub struct MergeInputs<'a> {
    /// The campaign directory.
    pub campaign_dir: &'a Path,
    /// The pinned plan.
    pub plan: &'a CampaignPlan,
    /// The regenerated state graph.
    pub graph: &'a StateGraph,
    /// Edge paths, index-aligned with the plan's cases.
    pub paths: &'a [Vec<EdgeId>],
    /// Spec name for the summary and history record.
    pub spec_name: &'a str,
    /// Traversal gauge: coverage-target edges visited.
    pub coverage_visited: u64,
    /// Traversal gauge: total coverage-target edges.
    pub coverage_targets: u64,
    /// Traversal gauge: visited / targets.
    pub coverage_fraction: f64,
    /// Edges POR removed from the coverage target set.
    pub por_excluded: u64,
    /// Every shard is retired: append the history record.
    pub completed: bool,
    /// Observability handle for the merge's self-profiling
    /// (`timing.profile.merge_*_seconds` histograms). Metrics only —
    /// the canonical outputs stay byte-deterministic; pass
    /// [`Obs::disabled`] to profile nothing.
    pub obs: Obs,
}

/// Canonical outputs go through the fault-injectable atomic writer so
/// chaos campaigns exercise the merge's crash-consistency too.
fn write_atomic(dir: &Path, name: &str, content: &str) -> io::Result<()> {
    crate::fsio::write_atomic(
        dir,
        name,
        content.as_bytes(),
        points::MERGE_WRITE,
        &crate::fsio::RetryPolicy::io(),
    )
    .map(|_| ())
}

/// Resolves one verdict per unique case hash: the entry from the shard
/// owning the hash's first plan index when present, else the lowest
/// shard that journaled it (a duplicate hash spanning shards is run by
/// each of them; the SUT is deterministic, so the entries agree).
fn resolve_verdicts(
    plan: &CampaignPlan,
    shard_entries: &[BTreeMap<String, JournalEntry>],
) -> BTreeMap<String, JournalEntry> {
    let mut verdicts = BTreeMap::new();
    let size = plan.shard_size.max(1);
    for (idx, case) in plan.cases.iter().enumerate() {
        if verdicts.contains_key(&case.hash) {
            continue;
        }
        let home = idx / size;
        let entry = shard_entries
            .get(home)
            .and_then(|m| m.get(&case.hash))
            .or_else(|| shard_entries.iter().find_map(|m| m.get(&case.hash)));
        if let Some(entry) = entry {
            verdicts.insert(case.hash.clone(), entry.clone());
        }
    }
    verdicts
}

/// The `case-*.artifact` file names in `dir`, sorted; a missing
/// directory has none.
fn artifact_names(dir: &Path) -> io::Result<Vec<String>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut names = Vec::new();
    for entry in entries {
        if let Some(name) = entry?.file_name().to_str() {
            if name.starts_with("case-") && name.ends_with(".artifact") {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// Promotes replay artifacts from the shard data directories to the
/// campaign top level. The artifact file name embeds the minimized
/// case's stable hash, so two shards reproducing the same bug collapse
/// to one file — auto-triage dedupe by schedule fingerprint.
fn promote_artifacts(
    campaign_dir: &Path,
    shard_count: usize,
    issues: &mut Vec<String>,
) -> io::Result<usize> {
    let mut promoted = BTreeSet::new();
    let mut copied = 0usize;
    for shard in 0..shard_count {
        let dir = shard_data_dir(campaign_dir, shard);
        for name in artifact_names(&dir)? {
            if !promoted.insert(name.clone()) {
                continue;
            }
            let dest = campaign_dir.join(&name);
            let tmp = campaign_dir.join(format!("{name}.tmp-{}", std::process::id()));
            match fs::copy(dir.join(&name), &tmp).and_then(|_| fs::rename(&tmp, &dest)) {
                Ok(()) => copied += 1,
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    issues.push(format!("artifact {name} promote failed: {e}"));
                }
            }
        }
    }
    Ok(copied)
}

/// Concatenates the per-shard causal traces (`trace.jsonl` in each
/// shard data directory) into one campaign-level `trace.jsonl`, in
/// shard order. A torn shard file (no trailing newline — an append
/// died after its rollback also failed) is sealed with `TORN_MARKER`
/// so the next shard's first record is not fused to the debris and
/// `parse_trace`'s salvage reports the debris instead of parsing it.
/// Untraced campaigns have no shard traces and get no top-level file.
fn promote_traces(
    campaign_dir: &Path,
    shard_count: usize,
    issues: &mut Vec<String>,
) -> io::Result<bool> {
    let mut merged = String::new();
    for shard in 0..shard_count {
        let path = shard_data_dir(campaign_dir, shard).join(mocket_obs::TRACE_FILE_NAME);
        match fs::read_to_string(&path) {
            Ok(text) => {
                if text.is_empty() {
                    continue;
                }
                merged.push_str(&text);
                if !text.ends_with('\n') {
                    merged.push_str(TORN_MARKER);
                    merged.push('\n');
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => issues.push(format!("shard {shard} trace unreadable: {e}")),
        }
    }
    if merged.is_empty() {
        return Ok(false);
    }
    write_atomic(campaign_dir, mocket_obs::TRACE_FILE_NAME, &merged)?;
    Ok(true)
}

/// Shrink totals over the promoted top-level artifacts: the stored
/// case is the minimized reproducer and `original_len` the revealing
/// case's length, mirroring what the single-process pipeline records.
fn shrink_totals(campaign_dir: &Path, issues: &mut Vec<String>) -> (u64, u64) {
    let (mut original, mut minimized) = (0u64, 0u64);
    for name in artifact_names(campaign_dir).unwrap_or_default() {
        match ReplayArtifact::load(&campaign_dir.join(&name)) {
            Ok(a) => {
                original += a.original_len as u64;
                minimized += a.test_case.len() as u64;
            }
            Err(e) => issues.push(format!("artifact {name} unreadable: {e}")),
        }
    }
    (original, minimized)
}

/// Merges the per-shard journals, quarantine logs and replay artifacts
/// into the canonical top-level outputs. Idempotent: re-merging a
/// finished campaign rewrites the same bytes and appends nothing new
/// to the history.
pub fn merge_campaign(inp: &MergeInputs<'_>) -> io::Result<MergeReport> {
    let mut report = MergeReport::default();
    let plan = inp.plan;
    let shard_count = plan.shard_count();
    // Stage self-profiling: histograms only, never canonical output.
    let profile = |name: &str, started: std::time::Instant| {
        inp.obs.metrics().observe(name, started.elapsed().as_secs_f64());
    };

    // Per-shard verdict sets. Journal anomalies (a crash can truncate
    // a shard journal's last line) are reported, never merged.
    let stage = std::time::Instant::now();
    let mut shard_entries = Vec::with_capacity(shard_count);
    for shard in 0..shard_count {
        let (entries, issues) =
            CampaignJournal::load_entries(&shard_data_dir(inp.campaign_dir, shard))?;
        for issue in issues {
            report.issues.push(format!("shard {shard}: journal {issue}"));
        }
        shard_entries.push(entries);
    }
    let verdicts = resolve_verdicts(plan, &shard_entries);
    profile("timing.profile.merge_journals_seconds", stage);

    // Unique poisoned hashes, first-crashing-index order for the logs,
    // hash set for the lookups below.
    let (poisoned, poison_issues) = load_poisoned(inp.campaign_dir)?;
    let poisoned_hashes: BTreeSet<String> = poisoned.into_iter().map(|rec| rec.hash).collect();
    report.poisoned = poisoned_hashes.len();
    // A refused quarantine line is a crash that stopped counting or a
    // case that left quarantine: never silent.
    let (_, crash_issues) = load_crashes(inp.campaign_dir)?;
    for issue in describe_issues(&crash_issues, &poison_issues) {
        report.issues.push(format!("quarantine: {issue}"));
    }

    // Canonical journal: one line per unique hash, first-plan-index
    // order, the exact bytes `CampaignJournal::record` would append.
    let stage = std::time::Instant::now();
    let mut journal = String::new();
    let mut seen = BTreeSet::new();
    for case in &plan.cases {
        if !seen.insert(case.hash.as_str()) {
            continue;
        }
        if let Some(entry) = verdicts.get(&case.hash) {
            journal.push_str(&entry.render_line());
            report.journal_lines += 1;
        }
    }
    write_atomic(inp.campaign_dir, CampaignJournal::FILE_NAME, &journal)?;

    // Coverage: every plan index whose hash reached a verdict walked
    // its path exactly once in some shard.
    let mut coverage = CoverageMap::new(inp.graph.edge_count());
    let mut events = String::new();
    let mut seq = 0u64;
    for (idx, case) in plan.cases.iter().enumerate() {
        let Some(path) = inp.paths.get(idx) else {
            continue;
        };
        let entry = verdicts.get(&case.hash);
        let poisoned = poisoned_hashes.contains(&case.hash);
        if entry.is_none() && !poisoned {
            continue; // never disposed (drained mid-campaign)
        }
        if entry.is_some() {
            report.cases_with_verdict += 1;
            coverage.record_case(
                path.iter().map(|e| e.0),
                path.iter().map(|&e| inp.graph.edge(e).action.name.as_str()),
            );
        }
        let start = Event {
            name: "case.start",
            ts: idx as u64,
            fields: vec![
                ("case", idx.into()),
                ("len", case.len.into()),
                ("hash", case.hash.as_str().into()),
            ],
        };
        events.push_str(&start.to_json_line(seq));
        events.push('\n');
        seq += 1;
        let mut fields = vec![("case", idx.into())];
        match entry {
            Some(e) => {
                fields.push(("attempts", e.attempts.into()));
                match &e.outcome {
                    CaseOutcome::Passed => {
                        report.cases_passed += 1;
                        fields.push(("outcome", "passed".into()));
                    }
                    CaseOutcome::Failed { kind } => {
                        fields.push(("outcome", "failed".into()));
                        fields.push(("kind", kind.as_str().into()));
                    }
                }
            }
            None => fields.push(("outcome", "poisoned".into())),
        }
        let verdict = Event {
            name: "case.verdict",
            ts: idx as u64,
            fields,
        };
        events.push_str(&verdict.to_json_line(seq));
        events.push('\n');
        seq += 1;
    }
    write_atomic(inp.campaign_dir, EVENTS_FILE_NAME, &events)?;
    if let Some((_, e)) = write_insight(inp.campaign_dir, inp.graph, &coverage, points::MERGE_WRITE)
        .into_iter()
        .next()
    {
        return Err(e);
    }
    profile("timing.profile.merge_coverage_seconds", stage);

    // Unique failed hashes → bug tallies.
    let mut bugs = BugTally::default();
    for entry in verdicts.values() {
        if let CaseOutcome::Failed { kind } = &entry.outcome {
            count_bug(&mut bugs, kind, entry.determinism.as_deref().unwrap_or("unconfirmed"));
        }
    }
    let (bugs_by_kind, bugs_by_determinism) = bugs;
    report.failed_unique = bugs_by_kind.values().sum::<u64>() as usize;

    let stage = std::time::Instant::now();
    report.artifacts_copied = promote_artifacts(inp.campaign_dir, shard_count, &mut report.issues)?;
    report.traces_merged = promote_traces(inp.campaign_dir, shard_count, &mut report.issues)?;
    profile("timing.profile.merge_artifacts_seconds", stage);
    let stage = std::time::Instant::now();
    let frontier = uncovered_frontier(inp.graph, coverage.edge_hits());

    // The merged summary carries only logical data: wall-clock fields
    // zeroed, metrics empty (each worker's own metrics are in the one
    // `worker-<id>/run-summary.json` it writes when its loop ends).
    let summary = RunSummary {
        spec: inp.spec_name.to_string(),
        states: inp.graph.state_count() as u64,
        edges: inp.graph.edge_count() as u64,
        coverage_edges_visited: inp.coverage_visited,
        coverage_edge_targets: inp.coverage_targets,
        coverage: inp.coverage_fraction,
        por_excluded_edges: inp.por_excluded,
        cases_selected: plan.cases.len() as u64,
        cases_run: (report.cases_with_verdict + report.poisoned) as u64,
        cases_passed: report.cases_passed as u64,
        cases_failed: report.failed_unique as u64,
        cases_quarantined: report.poisoned as u64,
        cases_skipped_from_journal: 0,
        journal_issues: 0,
        bugs_by_kind,
        bugs_by_determinism,
        ..RunSummary::default()
    };
    summary.write_to(inp.campaign_dir)?;

    // One history record per completed campaign, deduplicated so an
    // idempotent re-run of a finished campaign appends nothing.
    if inp.completed {
        let shrink = shrink_totals(inp.campaign_dir, &mut report.issues);
        let (mut history, record) = history_record(
            inp.campaign_dir,
            &summary,
            shrink,
            frontier.len(),
            &mut report.issues,
        )?;
        report.history_appended = history.append_dedup(record)?;
    }
    profile("timing.profile.merge_summary_seconds", stage);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CampaignJournal;
    use crate::orchestrator::plan::PlanCase;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mocket-merge-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(hash: &str, outcome: CaseOutcome) -> JournalEntry {
        JournalEntry {
            hash: hash.into(),
            attempts: 1,
            determinism: match outcome {
                CaseOutcome::Passed => None,
                CaseOutcome::Failed { .. } => Some("deterministic".into()),
            },
            outcome,
        }
    }

    #[test]
    fn verdict_resolution_prefers_home_shard_and_orders_by_first_index() {
        let plan = CampaignPlan {
            target: "t".into(),
            bug: None,
            max_states: 10,
            max_path_len: 4,
            max_test_cases: 4,
            shard_size: 2,
            cases: vec![
                PlanCase {
                    hash: "aa".into(),
                    len: 2,
                },
                PlanCase {
                    hash: "bb".into(),
                    len: 2,
                },
                PlanCase {
                    hash: "aa".into(),
                    len: 2,
                },
                PlanCase {
                    hash: "cc".into(),
                    len: 2,
                },
            ],
        };
        let mut s0 = BTreeMap::new();
        s0.insert("aa".to_string(), entry("aa", CaseOutcome::Passed));
        s0.insert("bb".to_string(), entry("bb", CaseOutcome::Passed));
        let mut s1 = BTreeMap::new();
        // Duplicate of aa ran here too; cc only here.
        s1.insert("aa".to_string(), entry("aa", CaseOutcome::Passed));
        s1.insert(
            "cc".to_string(),
            entry(
                "cc",
                CaseOutcome::Failed {
                    kind: "Divergence".into(),
                },
            ),
        );
        let verdicts = resolve_verdicts(&plan, &[s0, s1]);
        assert_eq!(verdicts.len(), 3);
        assert_eq!(
            verdicts["cc"].outcome,
            CaseOutcome::Failed {
                kind: "Divergence".into()
            }
        );
    }

    #[test]
    fn canonical_journal_is_unique_hashes_in_first_index_order() {
        let dir = tmp_dir("journal");
        let plan = CampaignPlan {
            target: "t".into(),
            bug: None,
            max_states: 10,
            max_path_len: 4,
            max_test_cases: 3,
            shard_size: 2,
            cases: vec![
                PlanCase {
                    hash: "bb".into(),
                    len: 1,
                },
                PlanCase {
                    hash: "aa".into(),
                    len: 1,
                },
                PlanCase {
                    hash: "bb".into(),
                    len: 1,
                },
            ],
        };
        // Shard 0 owns both hashes; shard 1 re-ran bb.
        let shard0 = shard_data_dir(&dir, 0);
        {
            let mut j = CampaignJournal::open(&shard0).unwrap();
            j.record(entry("bb", CaseOutcome::Passed)).unwrap();
            j.record(entry("aa", CaseOutcome::Passed)).unwrap();
        }
        let shard1 = shard_data_dir(&dir, 1);
        {
            let mut j = CampaignJournal::open(&shard1).unwrap();
            j.record(entry("bb", CaseOutcome::Passed)).unwrap();
        }
        let (e0, _) = CampaignJournal::load_entries(&shard0).unwrap();
        let (e1, _) = CampaignJournal::load_entries(&shard1).unwrap();
        let verdicts = resolve_verdicts(&plan, &[e0, e1]);

        let mut journal = String::new();
        let mut seen = BTreeSet::new();
        for case in &plan.cases {
            if seen.insert(case.hash.as_str()) {
                if let Some(e) = verdicts.get(&case.hash) {
                    journal.push_str(&e.render_line());
                }
            }
        }
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("bb"), "first-index order: {lines:?}");
        assert!(lines[1].contains("aa"));
        let _ = fs::remove_dir_all(&dir);
    }
}
