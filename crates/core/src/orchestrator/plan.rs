//! The campaign plan: a pinned, on-disk enumeration of the case set.
//!
//! The supervisor model-checks the spec once, materializes every
//! selected case, and writes `plan.txt` into the campaign directory.
//! The plan is what makes crash-and-resume and work stealing safe:
//! every worker regenerates the same case set deterministically and
//! *verifies* its hashes against the plan before running anything, so
//! a worker from a different binary, target or bound can never
//! corrupt the campaign — it exits with a distinct fatal code instead.
//! Shard boundaries are pure arithmetic over the plan (`shard_size`
//! is recorded in it), so resuming with a different `--workers` count
//! reuses the identical shard layout.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mocket_checker::{EdgeId, StateGraph};
use mocket_obs::fsio::Fnv1a;

use crate::testcase::TestCase;

/// File name of the plan inside a campaign directory.
pub const PLAN_FILE_NAME: &str = "plan.txt";

const HEADER: &str = "mocket-campaign-plan v1";

/// One planned case, in plan (= pipeline) index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCase {
    /// The case's stable hash (`TestCase::stable_hash`), or `-` when
    /// the path could not be materialized (the pipeline skips those).
    pub hash: String,
    /// Action count of the materialized case.
    pub len: usize,
}

/// The full plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Target name as understood by `mocket-cli` (`xraft`, ...).
    pub target: String,
    /// Injected bug flag, if any.
    pub bug: Option<String>,
    /// Model-checking state bound used to build the graph.
    pub max_states: usize,
    /// Traversal path-length bound.
    pub max_path_len: usize,
    /// Case cap applied after traversal (0 = all).
    pub max_test_cases: usize,
    /// Cases per shard (>= 1).
    pub shard_size: usize,
    /// Every selected case, by index.
    pub cases: Vec<PlanCase>,
}

impl CampaignPlan {
    /// Pins the plan for `paths` over `graph`: one [`PlanCase`] per
    /// selected path, by index — its stable hash and length, or `-`
    /// for a path that cannot materialize (the pipeline skips those
    /// indices; they never reach a verdict). The supervisor pins with
    /// this and every worker re-pins to verify, so both must build the
    /// plan the same way.
    #[allow(clippy::too_many_arguments)]
    pub fn pin(
        target: &str,
        bug: Option<&str>,
        max_states: usize,
        max_path_len: usize,
        max_test_cases: usize,
        shard_size: usize,
        graph: &StateGraph,
        paths: &[Vec<EdgeId>],
    ) -> CampaignPlan {
        let cases = paths
            .iter()
            .map(|path| match TestCase::from_edge_path(graph, path) {
                Some(tc) => PlanCase {
                    hash: tc.stable_hash(),
                    len: tc.len(),
                },
                None => PlanCase {
                    hash: "-".into(),
                    len: 0,
                },
            })
            .collect();
        CampaignPlan {
            target: target.to_string(),
            bug: bug.map(str::to_string),
            max_states,
            max_path_len,
            max_test_cases,
            shard_size,
            cases,
        }
    }

    /// Number of shards covering the case set. An empty plan still has
    /// one (empty) shard so the campaign machinery has something to
    /// retire.
    pub fn shard_count(&self) -> usize {
        let size = self.shard_size.max(1);
        self.cases.len().div_ceil(size).max(1)
    }

    /// Half-open case-index range `[start, end)` of `shard`.
    pub fn shard_range(&self, shard: usize) -> (usize, usize) {
        let size = self.shard_size.max(1);
        let start = (shard * size).min(self.cases.len());
        let end = ((shard + 1) * size).min(self.cases.len());
        (start, end)
    }

    fn render_into(&self, out: &mut impl fmt::Write) -> fmt::Result {
        writeln!(out, "{HEADER}")?;
        writeln!(out, "target: {}", self.target)?;
        writeln!(out, "bug: {}", self.bug.as_deref().unwrap_or("-"))?;
        writeln!(out, "max_states: {}", self.max_states)?;
        writeln!(out, "max_path_len: {}", self.max_path_len)?;
        writeln!(out, "max_test_cases: {}", self.max_test_cases)?;
        writeln!(out, "shard_size: {}", self.shard_size)?;
        writeln!(out, "cases: {}", self.cases.len())?;
        for (idx, case) in self.cases.iter().enumerate() {
            writeln!(out, "case: {idx} {} len={}", case.hash, case.len)?;
        }
        Ok(())
    }

    /// Serializes the plan.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// A short, stable fingerprint of the plan (FNV-1a over the
    /// serialized form, hex). Pinned into every lease and supervisor
    /// journal record so a re-elected supervisor and lease stealers
    /// can prove two processes agree on the campaign epoch without
    /// re-reading and re-comparing the whole plan.
    pub fn stable_hash(&self) -> String {
        let mut h = Fnv1a::new();
        self.render_into(&mut h).expect("hashing cannot fail");
        h.hex()
    }

    /// Atomically writes the plan into `dir` (size-verified temp +
    /// rename via the fault-injectable I/O layer).
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        crate::fsio::write_atomic(
            dir,
            PLAN_FILE_NAME,
            self.render().as_bytes(),
            crate::fsio::points::PLAN_WRITE,
            &crate::fsio::RetryPolicy::io(),
        )
    }

    /// Parses a serialized plan.
    pub fn parse(text: &str) -> Result<CampaignPlan, String> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("plan header mismatch (expected `{HEADER}`)"));
        }
        let mut target = None;
        let mut bug = None;
        let mut max_states = None;
        let mut max_path_len = None;
        let mut max_test_cases = None;
        let mut shard_size = None;
        let mut declared_cases = None;
        let mut cases = Vec::new();
        for line in lines {
            let Some((key, value)) = line.split_once(':') else {
                return Err(format!("malformed plan line: {line}"));
            };
            let value = value.trim();
            match key {
                "target" => target = Some(value.to_string()),
                "bug" => bug = Some((value != "-").then(|| value.to_string())),
                "max_states" => max_states = value.parse().ok(),
                "max_path_len" => max_path_len = value.parse().ok(),
                "max_test_cases" => max_test_cases = value.parse().ok(),
                "shard_size" => shard_size = value.parse().ok(),
                "cases" => declared_cases = value.parse::<usize>().ok(),
                "case" => {
                    let mut parts = value.split_whitespace();
                    let idx: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("malformed case line: {line}"))?;
                    let hash = parts
                        .next()
                        .ok_or_else(|| format!("malformed case line: {line}"))?;
                    let len = parts
                        .next()
                        .and_then(|v| v.strip_prefix("len="))
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("malformed case line: {line}"))?;
                    if idx != cases.len() {
                        return Err(format!(
                            "case index {idx} out of order (expected {})",
                            cases.len()
                        ));
                    }
                    cases.push(PlanCase {
                        hash: hash.to_string(),
                        len,
                    });
                }
                other => return Err(format!("unknown plan key: {other}")),
            }
        }
        let plan = CampaignPlan {
            target: target.ok_or("plan missing target")?,
            bug: bug.ok_or("plan missing bug")?,
            max_states: max_states.ok_or("plan missing max_states")?,
            max_path_len: max_path_len.ok_or("plan missing max_path_len")?,
            max_test_cases: max_test_cases.ok_or("plan missing max_test_cases")?,
            shard_size: shard_size.ok_or("plan missing shard_size")?,
            cases,
        };
        match declared_cases {
            Some(n) if n == plan.cases.len() => Ok(plan),
            Some(n) => Err(format!(
                "plan declares {n} cases but lists {}",
                plan.cases.len()
            )),
            None => Err("plan missing cases count".into()),
        }
    }

    /// Loads `dir/plan.txt`, if present.
    pub fn load(dir: &Path) -> io::Result<Option<CampaignPlan>> {
        let path = dir.join(PLAN_FILE_NAME);
        match fs::read_to_string(&path) {
            Ok(text) => CampaignPlan::parse(&text)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Checks that `other` (a freshly computed plan) describes the
    /// same campaign as `self` (the plan on disk) — the resume-safety
    /// gate. Returns a human-readable mismatch.
    pub fn verify_matches(&self, other: &CampaignPlan) -> Result<(), String> {
        if self == other {
            return Ok(());
        }
        if self.target != other.target {
            return Err(format!(
                "target mismatch: plan has `{}`, run has `{}`",
                self.target, other.target
            ));
        }
        if self.bug != other.bug {
            return Err(format!(
                "bug flag mismatch: plan has `{:?}`, run has `{:?}`",
                self.bug, other.bug
            ));
        }
        if self.cases.len() != other.cases.len() {
            return Err(format!(
                "case count mismatch: plan has {}, run generated {}",
                self.cases.len(),
                other.cases.len()
            ));
        }
        for (idx, (a, b)) in self.cases.iter().zip(&other.cases).enumerate() {
            if a != b {
                return Err(format!(
                    "case {idx} mismatch: plan has {} len={}, run generated {} len={}",
                    a.hash, a.len, b.hash, b.len
                ));
            }
        }
        Err("plan bounds mismatch (max_states/max_path_len/max_test_cases/shard_size)".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignPlan {
        CampaignPlan {
            target: "xraft".into(),
            bug: Some("stale-term".into()),
            max_states: 20_000,
            max_path_len: 40,
            max_test_cases: 0,
            shard_size: 4,
            cases: (0..10)
                .map(|i| PlanCase {
                    hash: format!("{i:016x}"),
                    len: i + 1,
                })
                .collect(),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let plan = sample();
        assert_eq!(CampaignPlan::parse(&plan.render()).unwrap(), plan);
        let mut no_bug = plan;
        no_bug.bug = None;
        assert_eq!(CampaignPlan::parse(&no_bug.render()).unwrap(), no_bug);
    }

    #[test]
    fn shard_arithmetic() {
        let plan = sample();
        assert_eq!(plan.shard_count(), 3);
        assert_eq!(plan.shard_range(0), (0, 4));
        assert_eq!(plan.shard_range(2), (8, 10));
        assert_eq!(plan.shard_range(7), (10, 10));
        let empty = CampaignPlan {
            cases: Vec::new(),
            ..sample()
        };
        assert_eq!(empty.shard_count(), 1);
        assert_eq!(empty.shard_range(0), (0, 0));
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mocket-plan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let plan = sample();
        plan.write_to(&dir).unwrap();
        assert_eq!(CampaignPlan::load(&dir).unwrap(), Some(plan));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(CampaignPlan::load(&dir).unwrap(), None);
    }

    #[test]
    fn verify_matches_reports_drift() {
        let plan = sample();
        assert!(plan.verify_matches(&plan.clone()).is_ok());
        let mut other = plan.clone();
        other.cases[3].hash = "deadbeefdeadbeef".into();
        let err = plan.verify_matches(&other).unwrap_err();
        assert!(err.contains("case 3"), "{err}");
        let mut other = plan.clone();
        other.target = "zab".into();
        assert!(plan.verify_matches(&other).unwrap_err().contains("target"));
    }

    #[test]
    fn stable_hash_tracks_content() {
        let plan = sample();
        assert_eq!(plan.stable_hash(), plan.clone().stable_hash());
        assert_eq!(plan.stable_hash().len(), 16);
        let mut other = plan.clone();
        other.cases[0].hash = "ffffffffffffffff".into();
        assert_ne!(plan.stable_hash(), other.stable_hash());
    }

    #[test]
    fn parse_rejects_corruption() {
        assert!(CampaignPlan::parse("not a plan").is_err());
        let plan = sample();
        let truncated: String = plan
            .render()
            .lines()
            .take(9)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(CampaignPlan::parse(&truncated).is_err());
    }
}
