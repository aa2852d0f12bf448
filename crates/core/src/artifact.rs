//! Self-contained replay artifacts and the campaign journal
//! (failure triage: persist, replay, resume).
//!
//! A bug report that dies with its campaign is a bug lost. Every
//! confirmed failure is persisted as a [`ReplayArtifact`]: one text
//! file carrying the (minimized) revealing [`TestCase`], the actions
//! the specification enables in its final state, the [`RunConfig`],
//! the spec identity and the observed
//! inconsistency classification. [`replay`] re-drives a fresh SUT
//! from nothing but the artifact — the "small, deterministic
//! reproducer" that trace-validation and model-guided-fuzzing work
//! identify as the artifact that matters.
//!
//! The [`CampaignJournal`] is the resume half: an append-only file
//! with one line per *completed* case (hash, outcome, attempts).
//! `Pipeline::run` consults it on startup, skips finished cases and
//! rebuilds its coverage counters, so an interrupted campaign
//! continues instead of restarting. Quarantined cases are deliberately
//! not journaled — they reached no verdict and deserve a fresh try.
//! Corrupt lines (a crash mid-append, a hand-edited file) are
//! collected as [`LineIssue`]s, never panics.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mocket_obs::DivergenceExplanation;
use mocket_tla::{parse_action_instance, ActionInstance, ParseError};

use crate::fsio::{points, AppendLog, LineIssue};
use crate::mapping::MappingRegistry;
use crate::orchestrator::{DirLock, LockError};
use crate::report::{Determinism, Inconsistency};
use crate::runner::{run_test_case, RunConfig, RunCtx, RunStats, TestOutcome};
use crate::sut::{SutError, SystemUnderTest};
use crate::testcase::TestCase;

/// The artifact format version this build writes and reads.
pub const ARTIFACT_VERSION: &str = "v1";

/// A failure to parse or load an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// A required header line is missing.
    MissingField(&'static str),
    /// A header value did not parse.
    BadValue {
        /// The offending key.
        key: String,
        /// What went wrong.
        message: String,
    },
    /// An embedded test case, state or action failed to parse.
    Parse(ParseError),
    /// The file could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::MissingField(key) => write!(f, "artifact is missing {key:?}"),
            ArtifactError::BadValue { key, message } => {
                write!(f, "artifact field {key:?}: {message}")
            }
            ArtifactError::Parse(e) => write!(f, "artifact payload: {e}"),
            ArtifactError::Io(e) => write!(f, "artifact io: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<ParseError> for ArtifactError {
    fn from(e: ParseError) -> Self {
        ArtifactError::Parse(e)
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// A self-contained reproducer for one confirmed failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArtifact {
    /// Specification name (`Spec::name`).
    pub spec: String,
    /// Free-form spec/model identity (servers, bug flags, bounds) —
    /// whatever the campaign operator set; informational.
    pub spec_config: String,
    /// The inconsistency kind label the failure was classified as
    /// (matches `Inconsistency::kind`).
    pub kind: String,
    /// The inconsistency subject (diverging variable / action name).
    pub subject: String,
    /// One-line rendering of the observed inconsistency.
    pub summary: String,
    /// Repro-rate classification from confirm & classify.
    pub determinism: Determinism,
    /// The runner configuration the failure was observed under.
    pub run: RunConfig,
    /// Length of the original revealing case (the stored case is the
    /// minimized reproducer, never longer).
    pub original_len: usize,
    /// Actions the specification enables in the stored case's final
    /// state — needed to re-check for unexpected actions on replay
    /// without the state graph.
    pub final_enabled: Vec<ActionInstance>,
    /// The divergence explanation computed for the original failure
    /// (per-variable diff + nearest-verified-state verdict), when the
    /// explainer covered its inconsistency kind.
    pub explanation: Option<DivergenceExplanation>,
    /// The causal trace recorded while the failure was observed, one
    /// `CausalEvent` JSON line per entry (see `mocket_obs::causal`).
    /// Empty when the campaign ran without `--trace`; older artifacts
    /// parse as empty.
    pub trace: Vec<String>,
    /// The reproducer to replay.
    pub test_case: TestCase,
}

fn dur_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn serialize_run(run: &RunConfig) -> String {
    format!(
        "check_initial={} per_action_budget_ms={}",
        run.check_initial,
        dur_ms(run.per_action_budget),
    )
}

fn deserialize_run(input: &str) -> Result<RunConfig, ArtifactError> {
    let mut run = RunConfig::default();
    for token in input.split_whitespace() {
        let (key, value) = token.split_once('=').ok_or_else(|| ArtifactError::BadValue {
            key: "run".into(),
            message: format!("token {token:?} is not key=value"),
        })?;
        let bad = |message: String| ArtifactError::BadValue {
            key: format!("run.{key}"),
            message,
        };
        match key {
            "check_initial" => {
                run.check_initial = value.parse().map_err(|_| bad(format!("{value:?}")))?
            }
            "per_action_budget_ms" => {
                run.per_action_budget =
                    Duration::from_millis(value.parse().map_err(|e| bad(format!("{e}")))?)
            }
            // Polling knobs of earlier builds: their artifacts still load.
            "offer_deadline_ms" | "poll_backoff_ms" | "poll_backoff_max_ms" => {}
            other => {
                return Err(ArtifactError::BadValue {
                    key: "run".into(),
                    message: format!("unknown key {other:?}"),
                })
            }
        }
    }
    Ok(run)
}

fn serialize_determinism(d: &Determinism) -> String {
    let label = d.label();
    match d {
        Determinism::Unconfirmed => label.to_string(),
        Determinism::Deterministic { reruns } => format!("{label} reruns={reruns}"),
        Determinism::Flaky { reproduced, reruns } => {
            format!("{label} reproduced={reproduced} reruns={reruns}")
        }
    }
}

fn deserialize_determinism(input: &str) -> Result<Determinism, ArtifactError> {
    let bad = |message: String| ArtifactError::BadValue {
        key: "determinism".into(),
        message,
    };
    let mut parts = input.split_whitespace();
    let head = parts.next().ok_or_else(|| bad("empty".into()))?;
    let mut fields = BTreeMap::new();
    for token in parts {
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| bad(format!("token {token:?} is not key=value")))?;
        let n: usize = v.parse().map_err(|e| bad(format!("{k}: {e}")))?;
        fields.insert(k.to_string(), n);
    }
    let field = |name: &str| {
        fields
            .get(name)
            .copied()
            .ok_or_else(|| bad(format!("missing {name}")))
    };
    match head {
        "unconfirmed" => Ok(Determinism::Unconfirmed),
        "deterministic" => Ok(Determinism::Deterministic {
            reruns: field("reruns")?,
        }),
        "flaky" => Ok(Determinism::Flaky {
            reproduced: field("reproduced")?,
            reruns: field("reruns")?,
        }),
        other => Err(bad(format!("unknown classification {other:?}"))),
    }
}

/// Flattens a (possibly multi-line) rendering into one journal-safe
/// line.
fn one_line(text: &str) -> String {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("; ")
}

impl ReplayArtifact {
    /// Builds an artifact from an observed failure. `test_case` is the
    /// reproducer to store (minimized when available); `original_len`
    /// the revealing case's length before shrinking.
    #[allow(clippy::too_many_arguments)]
    pub fn from_failure(
        spec: impl Into<String>,
        spec_config: impl Into<String>,
        inconsistency: &Inconsistency,
        determinism: Determinism,
        run: &RunConfig,
        original_len: usize,
        final_enabled: Vec<ActionInstance>,
        explanation: Option<DivergenceExplanation>,
        test_case: TestCase,
    ) -> Self {
        ReplayArtifact {
            spec: spec.into(),
            spec_config: spec_config.into(),
            kind: inconsistency.kind().to_string(),
            subject: inconsistency.subject(),
            summary: one_line(&inconsistency.to_string()),
            determinism,
            run: run.clone(),
            original_len,
            final_enabled,
            explanation,
            trace: Vec::new(),
            test_case,
        }
    }

    /// Attaches the causal trace (one event JSON line per entry)
    /// recorded while this failure was observed.
    pub fn with_trace(mut self, trace: Vec<String>) -> Self {
        self.trace = trace;
        self
    }

    /// Serializes into the line-oriented artifact format.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("mocket-artifact: {ARTIFACT_VERSION}\n"));
        out.push_str(&format!("spec: {}\n", one_line(&self.spec)));
        out.push_str(&format!("spec-config: {}\n", one_line(&self.spec_config)));
        out.push_str(&format!("kind: {}\n", one_line(&self.kind)));
        out.push_str(&format!("subject: {}\n", one_line(&self.subject)));
        out.push_str(&format!("summary: {}\n", one_line(&self.summary)));
        out.push_str(&format!(
            "determinism: {}\n",
            serialize_determinism(&self.determinism)
        ));
        out.push_str(&format!("run: {}\n", serialize_run(&self.run)));
        out.push_str(&format!("original-len: {}\n", self.original_len));
        for a in &self.final_enabled {
            out.push_str(&format!("final: {a}\n"));
        }
        if let Some(e) = &self.explanation {
            // Tab-separated explanation lines; tabs inside the value
            // survive the key/value split because only leading and
            // trailing whitespace is trimmed on load.
            for line in e.serialize() {
                out.push_str(&format!("explain: {line}\n"));
            }
        }
        // Trace lines only when a trace was recorded: artifacts from
        // untraced campaigns stay byte-identical to older builds.
        for line in &self.trace {
            out.push_str(&format!("trace: {}\n", one_line(line)));
        }
        out.push_str(&self.test_case.serialize());
        out
    }

    /// Parses the [`serialize`](Self::serialize) format. Malformed
    /// input yields a typed [`ArtifactError`], never a panic — a
    /// corrupt artifact is reported, not a harness abort.
    pub fn deserialize(input: &str) -> Result<Self, ArtifactError> {
        let mut version = None;
        let mut spec = None;
        let mut spec_config = None;
        let mut kind = None;
        let mut subject = None;
        let mut summary = None;
        let mut determinism = None;
        let mut run = None;
        let mut original_len = None;
        let mut final_enabled = Vec::new();
        let mut explain_lines: Vec<String> = Vec::new();
        let mut trace = Vec::new();
        let mut case_lines = String::new();

        for line in input.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let Some((key, value)) = trimmed.split_once(':') else {
                return Err(ArtifactError::BadValue {
                    key: "<line>".into(),
                    message: format!("unrecognized line {trimmed:?}"),
                });
            };
            let value = value.trim();
            match key {
                "mocket-artifact" => version = Some(value.to_string()),
                "spec" => spec = Some(value.to_string()),
                "spec-config" => spec_config = Some(value.to_string()),
                "kind" => kind = Some(value.to_string()),
                "subject" => subject = Some(value.to_string()),
                "summary" => summary = Some(value.to_string()),
                "determinism" => determinism = Some(deserialize_determinism(value)?),
                // A link-delay plan of earlier builds: ignored.
                "fault-plan" => {}
                "run" => run = Some(deserialize_run(value)?),
                "original-len" => {
                    original_len =
                        Some(value.parse::<usize>().map_err(|e| ArtifactError::BadValue {
                            key: "original-len".into(),
                            message: e.to_string(),
                        })?)
                }
                "final" => final_enabled.push(parse_action_instance(value)?),
                "explain" => explain_lines.push(value.to_string()),
                "trace" => trace.push(value.to_string()),
                "init" | "step" => {
                    case_lines.push_str(trimmed);
                    case_lines.push('\n');
                }
                other => {
                    return Err(ArtifactError::BadValue {
                        key: other.to_string(),
                        message: "unknown artifact key".into(),
                    })
                }
            }
        }

        let version = version.ok_or(ArtifactError::MissingField("mocket-artifact"))?;
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::BadValue {
                key: "mocket-artifact".into(),
                message: format!("unsupported version {version:?}"),
            });
        }
        let test_case = TestCase::deserialize(&case_lines)?;
        let explanation = if explain_lines.is_empty() {
            None
        } else {
            Some(
                DivergenceExplanation::parse(&explain_lines).map_err(|message| {
                    ArtifactError::BadValue {
                        key: "explain".into(),
                        message,
                    }
                })?,
            )
        };
        Ok(ReplayArtifact {
            spec: spec.ok_or(ArtifactError::MissingField("spec"))?,
            spec_config: spec_config.unwrap_or_default(),
            kind: kind.ok_or(ArtifactError::MissingField("kind"))?,
            subject: subject.unwrap_or_default(),
            summary: summary.unwrap_or_default(),
            determinism: determinism.unwrap_or(Determinism::Unconfirmed),
            run: run.ok_or(ArtifactError::MissingField("run"))?,
            original_len: original_len.unwrap_or(0),
            final_enabled,
            explanation,
            trace,
            test_case,
        })
    }

    /// The file name this artifact is stored under (keyed by the
    /// reproducer's stable hash).
    pub fn file_name(&self) -> String {
        Self::file_name_of(&self.test_case.stable_hash())
    }

    /// The file name of the artifact whose reproducer has the stable
    /// hash `hash`.
    pub fn file_name_of(hash: &str) -> String {
        format!("case-{hash}.artifact")
    }

    /// Writes the artifact into `dir` (created if needed); returns the
    /// path written.
    ///
    /// The write is idempotent and crash-safe: content goes to a
    /// temporary file first and is renamed into place, so a re-run
    /// that writes the same case again (e.g. after a journal
    /// truncation forced a replay) can never leave a torn artifact,
    /// and an interrupted write never clobbers an intact one.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, ArtifactError> {
        let path = crate::fsio::write_atomic(
            dir,
            &self.file_name(),
            self.serialize().as_bytes(),
            crate::fsio::points::ARTIFACT_WRITE,
            &crate::fsio::RetryPolicy::io(),
        )?;
        Ok(path)
    }

    /// Loads an artifact from disk.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let text = fs::read_to_string(path)?;
        Self::deserialize(&text)
    }
}

/// What a replayed artifact did.
#[derive(Debug, Clone)]
pub enum ReplayVerdict {
    /// The run failed with the same inconsistency kind the artifact
    /// records — the bug reproduced.
    Reproduced(Inconsistency),
    /// The run failed, but with a different inconsistency kind.
    DifferentFailure(Inconsistency),
    /// The run passed: the bug did not reproduce (fixed, or flaky).
    Passed,
}

impl ReplayVerdict {
    /// Whether the artifact's inconsistency kind reproduced.
    pub fn reproduced(&self) -> bool {
        matches!(self, ReplayVerdict::Reproduced(_))
    }
}

/// Re-drives a fresh SUT from an artifact: the replay entry point.
///
/// The caller builds the SUT and supplies the same mapping registry
/// the campaign used; everything else comes from the artifact.
pub fn replay(
    artifact: &ReplayArtifact,
    sut: Box<dyn SystemUnderTest>,
    registry: &MappingRegistry,
) -> Result<(ReplayVerdict, RunStats), SutError> {
    let (outcome, stats) = run_test_case(
        sut,
        &artifact.test_case,
        &Arc::new(registry.clone()),
        &artifact.final_enabled,
        &artifact.run,
        &RunCtx::default(),
    )?;
    let verdict = match outcome {
        TestOutcome::Passed => ReplayVerdict::Passed,
        TestOutcome::Failed(inc) => {
            if inc.kind() == artifact.kind {
                ReplayVerdict::Reproduced(inc)
            } else {
                ReplayVerdict::DifferentFailure(inc)
            }
        }
    };
    Ok((verdict, stats))
}

/// The verdict a completed (journaled) case reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// All checks matched.
    Passed,
    /// Failed with the recorded inconsistency kind.
    Failed {
        /// `Inconsistency::kind` label.
        kind: String,
    },
}

/// One completed case in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// `TestCase::stable_hash` of the case.
    pub hash: String,
    /// Attempts spent reaching the verdict. Always 1, since a case runs
    /// once; the slot stays so journals of older builds still parse.
    pub attempts: usize,
    /// Determinism classification label for failed cases
    /// (`deterministic` / `flaky` / `unconfirmed`), recorded so a
    /// campaign merge can rebuild `bugs_by_determinism` without
    /// re-running triage. `None` for passed cases and for lines
    /// written by older builds.
    pub determinism: Option<String>,
    /// The verdict.
    pub outcome: CaseOutcome,
}

impl JournalEntry {
    /// Renders this entry as its single journal line (with trailing
    /// newline) — the exact bytes [`CampaignJournal::record`] appends.
    pub fn render_line(&self) -> String {
        let outcome = match &self.outcome {
            CaseOutcome::Passed => "passed".to_string(),
            CaseOutcome::Failed { kind } => format!("failed {}", one_line(kind)),
        };
        let det = match &self.determinism {
            Some(d) => format!("det={} ", one_line(d)),
            None => String::new(),
        };
        format!(
            "case: {} attempts={} {det}outcome={}\n",
            self.hash, self.attempts, outcome
        )
    }

    /// Parses one journal line (without trailing newline).
    pub fn parse_line(line: &str) -> Result<JournalEntry, String> {
        let rest = line
            .strip_prefix("case:")
            .ok_or_else(|| format!("unrecognized line {line:?}"))?
            .trim();
        let mut parts = rest.splitn(3, char::is_whitespace);
        let hash = parts
            .next()
            .filter(|h| !h.is_empty())
            .ok_or("missing case hash")?;
        let attempts_tok = parts.next().ok_or("missing attempts=N")?;
        let attempts = attempts_tok
            .strip_prefix("attempts=")
            .ok_or_else(|| format!("expected attempts=N, got {attempts_tok:?}"))?
            .parse::<usize>()
            .map_err(|e| format!("bad attempts: {e}"))?;
        let mut tail = parts.next().ok_or("missing outcome=...")?;
        // Optional determinism token, written before the outcome so the
        // free-form failure kind can stay at the end of the line.
        let mut determinism = None;
        if let Some(after) = tail.strip_prefix("det=") {
            let (det, rest) = after
                .split_once(char::is_whitespace)
                .ok_or("det= token without an outcome")?;
            determinism = Some(det.to_string());
            tail = rest.trim_start();
        }
        let outcome_val = tail
            .strip_prefix("outcome=")
            .ok_or_else(|| format!("expected outcome=..., got {tail:?}"))?;
        let outcome = match outcome_val.split_once(' ') {
            None if outcome_val == "passed" => CaseOutcome::Passed,
            Some(("failed", kind)) if !kind.trim().is_empty() => CaseOutcome::Failed {
                kind: kind.trim().to_string(),
            },
            _ => return Err(format!("bad outcome {outcome_val:?}")),
        };
        Ok(JournalEntry {
            hash: hash.to_string(),
            attempts,
            determinism,
            outcome,
        })
    }
}

/// Why a [`CampaignJournal`] could not be opened.
#[derive(Debug)]
pub enum JournalOpenError {
    /// Another live process has the campaign directory's journal
    /// locked — two campaigns pointed at the same directory would
    /// interleave appends, so the second one fails fast.
    Locked {
        /// The lock file.
        path: PathBuf,
        /// The live owner.
        owner_pid: u32,
    },
    /// Plain filesystem trouble.
    Io(std::io::Error),
}

impl fmt::Display for JournalOpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalOpenError::Locked { path, owner_pid } => write!(
                f,
                "campaign directory is locked by live pid {owner_pid} ({})",
                path.display()
            ),
            JournalOpenError::Io(e) => write!(f, "journal io: {e}"),
        }
    }
}

impl std::error::Error for JournalOpenError {}

impl From<std::io::Error> for JournalOpenError {
    fn from(e: std::io::Error) -> Self {
        JournalOpenError::Io(e)
    }
}

impl From<LockError> for JournalOpenError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Held { path, owner_pid } => JournalOpenError::Locked { path, owner_pid },
            LockError::Io(e) => JournalOpenError::Io(e),
        }
    }
}

/// The append-only campaign journal: an [`AppendLog`] of
/// [`JournalEntry`]s plus the hash → entry map of what completed.
///
/// Opening takes an exclusive `flock` on the campaign directory's
/// `journal.lock`; it is released when the journal is dropped or its
/// process dies. [`CampaignJournal::load_entries`] reads without locking —
/// for merge/report stages that only observe.
pub struct CampaignJournal {
    log: AppendLog,
    completed: BTreeMap<String, JournalEntry>,
    issues: Vec<LineIssue>,
    /// Held for the journal's lifetime.
    _lock: DirLock,
}

impl CampaignJournal {
    /// The journal's file name inside a campaign directory.
    pub const FILE_NAME: &'static str = "journal.log";

    /// The lock file guarding a campaign directory's journal.
    pub const LOCK_FILE_NAME: &'static str = "journal.lock";

    fn log_in(dir: &Path) -> AppendLog {
        AppendLog::new(dir.join(Self::FILE_NAME), points::JOURNAL_APPEND)
    }

    /// Opens (or creates) the journal inside campaign directory
    /// `dir`, loading every completed case recorded by previous runs.
    /// Lines the [`AppendLog`] salvage refuses — a crash mid-append
    /// truncates the last line — are collected as
    /// [`issues`](Self::issues) and their cases re-run (artifact
    /// writes are idempotent). Fails with
    /// [`JournalOpenError::Locked`] while another live process has the
    /// directory open; a dead process holds nothing.
    pub fn open(dir: &Path) -> Result<Self, JournalOpenError> {
        fs::create_dir_all(dir)?;
        let lock = DirLock::acquire(dir, Self::LOCK_FILE_NAME)?;
        let (completed, issues) = Self::load_entries(dir)?;
        Ok(CampaignJournal {
            log: Self::log_in(dir),
            completed,
            issues,
            _lock: lock,
        })
    }

    /// Reads `dir`'s journal without taking the lock: a point-in-time
    /// view of completed entries plus any malformed-line issues. Used
    /// by merge and reporting stages, which never append.
    pub fn load_entries(
        dir: &Path,
    ) -> Result<(BTreeMap<String, JournalEntry>, Vec<LineIssue>), std::io::Error> {
        let (entries, issues) = Self::log_in(dir).load(JournalEntry::parse_line)?;
        let completed = entries.into_iter().map(|e| (e.hash.clone(), e)).collect();
        Ok((completed, issues))
    }

    /// The completed entry for `hash`, if a previous run finished it.
    pub fn completed(&self, hash: &str) -> Option<&JournalEntry> {
        self.completed.get(hash)
    }

    /// Number of completed cases on record.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no case has completed yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Malformed lines encountered while loading.
    pub fn issues(&self) -> &[LineIssue] {
        &self.issues
    }

    /// Appends one completed case and flushes it to disk immediately —
    /// an interruption right after a case finishes loses nothing.
    pub fn record(&mut self, entry: JournalEntry) -> Result<(), std::io::Error> {
        self.log
            .append(entry.render_line().trim_end_matches('\n'))?;
        self.completed.insert(entry.hash.clone(), entry);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::{State, Value};

    fn st(n: i64) -> State {
        State::from_pairs([("n", Value::Int(n))])
    }

    fn case() -> TestCase {
        TestCase::new(
            st(0),
            vec![
                (ActionInstance::nullary("Inc"), st(1)),
                (ActionInstance::new("Add", vec![Value::Int(5)]), st(6)),
            ],
        )
    }

    fn artifact() -> ReplayArtifact {
        let inc = Inconsistency::MissingAction {
            step: 1,
            action: ActionInstance::new("Add", vec![Value::Int(5)]),
            offered: vec![ActionInstance::nullary("Inc")],
        };
        let explanation = DivergenceExplanation {
            step: 1,
            action: "Add(5)".into(),
            prefix: vec!["Inc".into(), "Add(5)".into()],
            diffs: vec![mocket_obs::VarDiff::new("n", "6", "5")],
            verdict: mocket_obs::NearestVerdict::Verified {
                distance: 1,
                state: "/\\ n = 5".into(),
                alt_path: vec!["Inc".into()],
            },
        };
        ReplayArtifact::from_failure(
            "Counter",
            "limit=2 buggy=true",
            &inc,
            Determinism::Deterministic { reruns: 2 },
            &RunConfig::fast(),
            5,
            vec![ActionInstance::nullary("Inc")],
            Some(explanation),
            case(),
        )
    }

    #[test]
    fn artifact_text_roundtrip() {
        let a = artifact();
        let text = a.serialize();
        let back = ReplayArtifact::deserialize(&text).unwrap();
        assert_eq!(back, a);
    }

    /// [`artifact`] as this build writes it; any format drift fails
    /// here first.
    const GOLDEN: &str = "mocket-artifact: v1\n\
spec: Counter\n\
spec-config: limit=2 buggy=true\n\
kind: Missing action\n\
subject: Add\n\
summary: Missing action at step 1: Add(5) was never offered.; offered instead: Inc\n\
determinism: deterministic reruns=2\n\
run: check_initial=true per_action_budget_ms=5000\n\
original-len: 5\n\
final: Inc\n\
explain: step\t1\tAdd(5)\n\
explain: prefix\tInc\n\
explain: prefix\tAdd(5)\n\
explain: diff\tn\t6\t5\n\
explain: verified\t1\t/\\ n = 5\tInc\n\
init: /\\ n = 0\n\
step: Inc => /\\ n = 1\n\
step: Add(5) => /\\ n = 6\n";

    #[test]
    fn golden_artifact_roundtrips_byte_identically() {
        assert_eq!(artifact().serialize(), GOLDEN);
        assert_eq!(ReplayArtifact::deserialize(GOLDEN).unwrap().serialize(), GOLDEN);
    }

    /// The same artifact as earlier v1 builds wrote it: a `fault-plan:`
    /// line and the runner's retired polling keys. Campaign directories
    /// in the wild hold documents like this one; they must keep loading,
    /// and saving one again writes the current format.
    #[test]
    fn v1_artifact_with_a_fault_plan_and_polling_keys_still_loads() {
        let old = GOLDEN.replace(
            "run: check_initial=true per_action_budget_ms=5000\n",
            "fault-plan: seed=42 drop=20 dup=20 delay=40 max_delay=3 reorder=40 partition=5 heal=20\n\
             run: check_initial=true offer_deadline_ms=50 per_action_budget_ms=5000 \
             poll_backoff_ms=1 poll_backoff_max_ms=10\n",
        );
        assert_ne!(old, GOLDEN);
        let loaded = ReplayArtifact::deserialize(&old).unwrap();
        assert_eq!(loaded, artifact());
        assert_eq!(loaded.serialize(), GOLDEN, "re-saved in the current format");
    }

    #[test]
    fn artifact_roundtrip_of_a_flaky_failure_without_explanation() {
        let mut a = artifact();
        a.explanation = None;
        a.determinism = Determinism::Flaky {
            reproduced: 1,
            reruns: 3,
        };
        let back = ReplayArtifact::deserialize(&a.serialize()).unwrap();
        assert_eq!(back, a);
        assert!(!a.serialize().contains("explain:"));
    }

    #[test]
    fn artifact_trace_roundtrips_and_is_omitted_when_empty() {
        let plain = artifact();
        assert!(!plain.serialize().contains("trace:"));
        let traced = artifact().with_trace(vec![
            r#"{"seq":0,"kind":"case","vt":0}"#.into(),
            r#"{"seq":1,"kind":"send","node":1,"peer":2,"msg":1,"vt":5}"#.into(),
        ]);
        let text = traced.serialize();
        assert!(text.contains("trace: {\"seq\":0"));
        let back = ReplayArtifact::deserialize(&text).unwrap();
        assert_eq!(back, traced);
        assert_eq!(back.trace.len(), 2);
    }

    #[test]
    fn artifact_deserialize_rejects_garbage() {
        assert!(matches!(
            ReplayArtifact::deserialize(""),
            Err(ArtifactError::MissingField("mocket-artifact"))
        ));
        assert!(ReplayArtifact::deserialize("mocket-artifact: v999\nspec: X\n").is_err());
        assert!(ReplayArtifact::deserialize("totally bogus").is_err());
        let missing_case = "mocket-artifact: v1\nspec: X\nkind: K\nrun: check_initial=true\n";
        assert!(ReplayArtifact::deserialize(missing_case).is_err());
        let bad_run = artifact().serialize().replace("check_initial=true", "check_initial=maybe");
        assert!(ReplayArtifact::deserialize(&bad_run).is_err());
        let bad_det = artifact()
            .serialize()
            .replace("determinism: deterministic reruns=2", "determinism: sometimes");
        assert!(ReplayArtifact::deserialize(&bad_det).is_err());
    }

    #[test]
    fn artifact_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "mocket-artifact-test-{}",
            std::process::id()
        ));
        let a = artifact();
        let path = a.write_to(&dir).unwrap();
        assert!(path.ends_with(a.file_name()));
        let back = ReplayArtifact::load(&path).unwrap();
        assert_eq!(back, a);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_roundtrip_and_resume_view() {
        let dir = std::env::temp_dir().join(format!(
            "mocket-journal-test-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut j = CampaignJournal::open(&dir).unwrap();
            assert!(j.is_empty());
            j.record(JournalEntry {
                hash: "aaaa".into(),
                attempts: 1,
                determinism: None,
                outcome: CaseOutcome::Passed,
            })
            .unwrap();
            j.record(JournalEntry {
                hash: "bbbb".into(),
                attempts: 2,
                determinism: Some("deterministic".into()),
                outcome: CaseOutcome::Failed {
                    kind: "Inconsistent state".into(),
                },
            })
            .unwrap();
        }
        // A fresh open (the "resumed campaign") sees both.
        let j = CampaignJournal::open(&dir).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.completed("aaaa").unwrap().outcome, CaseOutcome::Passed);
        assert_eq!(
            j.completed("bbbb").unwrap().outcome,
            CaseOutcome::Failed {
                kind: "Inconsistent state".into()
            }
        );
        assert!(j.completed("cccc").is_none());
        assert!(j.issues().is_empty());
        assert_eq!(
            j.completed("bbbb").unwrap().determinism.as_deref(),
            Some("deterministic")
        );
        // The lock-free reader sees the same entries.
        drop(j);
        let (entries, issues) = CampaignJournal::load_entries(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(issues.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_of_locked_campaign_dir_fails_fast() {
        let dir = std::env::temp_dir().join(format!(
            "mocket-journal-locked-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let held = CampaignJournal::open(&dir).unwrap();
        match CampaignJournal::open(&dir) {
            Err(JournalOpenError::Locked { owner_pid, .. }) => {
                assert_eq!(owner_pid, std::process::id());
            }
            Ok(_) => panic!("second open of a locked campaign dir must fail"),
            Err(other) => panic!("expected Locked, got {other}"),
        }
        // load_entries is lock-free: it works while the lock is held.
        assert!(CampaignJournal::load_entries(&dir).is_ok());
        drop(held);
        assert!(CampaignJournal::open(&dir).is_ok(), "released on drop");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_lines_are_reported_not_fatal() {
        let dir = std::env::temp_dir().join(format!(
            "mocket-journal-corrupt-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CampaignJournal::FILE_NAME),
            "case: aaaa attempts=1 outcome=passed\n\
             garbage line\n\
             case: bbbb attempts=x outcome=passed\n\
             case: cccc attempts=1 outcome=exploded\n\
             case: dddd attempts=3 outcome=failed Missing action\n\
             case: eeee attempts=1 outco",
        )
        .unwrap();
        let j = CampaignJournal::open(&dir).unwrap();
        assert_eq!(j.len(), 2, "only well-formed lines load");
        assert!(j.completed("aaaa").is_some());
        assert!(j.completed("dddd").is_some());
        assert_eq!(j.issues().len(), 4, "{:?}", j.issues());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_journal_line_is_reported_and_not_trusted() {
        // The dangerous shape: an interrupted append that still
        // parses. "outcome=failed Missing action" cut at "Missing"
        // yields a well-formed entry with the wrong kind; trusting it
        // would both mislabel the bug and skip the re-run.
        let dir = std::env::temp_dir().join(format!(
            "mocket-journal-truncated-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CampaignJournal::FILE_NAME),
            "case: aaaa attempts=1 outcome=passed\n\
             case: bbbb attempts=2 outcome=failed Missing",
        )
        .unwrap();
        let j = CampaignJournal::open(&dir).unwrap();
        assert!(j.completed("aaaa").is_some(), "intact lines still load");
        assert!(
            j.completed("bbbb").is_none(),
            "a partial trailing line must not count as completed"
        );
        assert_eq!(j.issues().len(), 1);
        assert!(
            j.issues()[0].message.contains("truncated final line"),
            "issue must identify the truncation: {}",
            j.issues()[0]
        );
        assert_eq!(j.issues()[0].line, 2);
        // Recording after a truncated tail must start on a fresh line
        // (appending straight on would merge with the partial line):
        // the re-run's entry has to load on the next resume.
        let mut j = j;
        j.record(JournalEntry {
            hash: "bbbb".into(),
            attempts: 1,
            determinism: None,
            outcome: CaseOutcome::Failed {
                kind: "Missing action".into(),
            },
        })
        .unwrap();
        drop(j);
        let resumed = CampaignJournal::open(&dir).unwrap();
        assert_eq!(
            resumed.completed("bbbb").unwrap().outcome,
            CaseOutcome::Failed {
                kind: "Missing action".into()
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_writes_are_idempotent_and_leave_no_temp_files() {
        let dir = std::env::temp_dir().join(format!(
            "mocket-artifact-idempotent-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let a = artifact();
        let p1 = a.write_to(&dir).unwrap();
        let p2 = a.write_to(&dir).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(ReplayArtifact::load(&p1).unwrap(), a);
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [a.file_name()], "no temp files may remain");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_line_roundtrip() {
        for entry in [
            JournalEntry {
                hash: "0123456789abcdef".into(),
                attempts: 1,
                determinism: None,
                outcome: CaseOutcome::Passed,
            },
            JournalEntry {
                hash: "ffff".into(),
                attempts: 7,
                determinism: None,
                outcome: CaseOutcome::Failed {
                    kind: "Watchdog timeout".into(),
                },
            },
            JournalEntry {
                hash: "ffff".into(),
                attempts: 2,
                determinism: Some("flaky".into()),
                outcome: CaseOutcome::Failed {
                    kind: "Missing action".into(),
                },
            },
        ] {
            let line = entry.render_line();
            assert_eq!(JournalEntry::parse_line(line.trim()).unwrap(), entry);
        }
        // Lines written by older builds (no det= token) still parse.
        assert_eq!(
            JournalEntry::parse_line("case: aaaa attempts=1 outcome=passed")
                .unwrap()
                .determinism,
            None
        );
    }
}
