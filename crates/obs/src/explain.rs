//! Divergence explanations: the data model.
//!
//! When controlled testing finds an inconsistent state or an
//! unexpected action, the insight layer reconstructs *where* the
//! implementation departed from the verified path and *how far* it is
//! from any verified state. This module holds the explanation itself —
//! a pure-string data model, so the dependency-free obs crate can host
//! it while `mocket-core` (which can see the `StateGraph`) computes
//! it.
//!
//! Serialization is line-oriented with tab-separated payloads so an
//! explanation can ride inside a replay artifact (`explain:` lines)
//! and round-trip exactly. All rendered values are sanitized at
//! construction ([`sanitize`]): tabs and newlines become spaces, which
//! makes round-tripping a string identity.

use std::fmt;

/// Replaces tabs/newlines with spaces so a rendered value is safe in
/// the tab-separated line format. Idempotent.
pub fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c == '\t' || c == '\n' || c == '\r' { ' ' } else { c })
        .collect()
}

/// One leaf-level difference between the verified spec state and the
/// observed runtime state, with a structured path into the variable
/// (e.g. `votesGranted[1]` for a function entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDiff {
    /// Structured path: variable name plus `[key]` segments.
    pub path: String,
    /// Rendered expected (spec) value; [`VarDiff::MISSING`] when the
    /// path is absent on the spec side.
    pub expected: String,
    /// Rendered actual (runtime, translated to the spec domain) value;
    /// [`VarDiff::MISSING`] when absent at runtime.
    pub actual: String,
}

impl VarDiff {
    /// Marker used when one side does not bind the path at all.
    pub const MISSING: &'static str = "<missing>";

    /// Builds a diff, sanitizing all parts.
    pub fn new(path: &str, expected: &str, actual: &str) -> Self {
        VarDiff {
            path: sanitize(path),
            expected: sanitize(expected),
            actual: sanitize(actual),
        }
    }
}

impl fmt::Display for VarDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: expected {}, got {}", self.path, self.expected, self.actual)
    }
}

/// Outcome of the bounded nearest-verified-state search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NearestVerdict {
    /// The observed runtime state matches a verified state `distance`
    /// graph steps away from the expected one; `alt_path` is a
    /// shortest verified action path from an initial state to it.
    Verified {
        /// Undirected graph distance from the expected state.
        distance: u64,
        /// Rendered verified state the implementation is actually in.
        state: String,
        /// Action names of a shortest verified path reaching it.
        alt_path: Vec<String>,
    },
    /// No verified state within `radius` steps matches; `searched`
    /// counts the states examined before giving up.
    NoneWithin {
        /// The search radius that was exhausted.
        radius: u64,
        /// Number of states examined.
        searched: u64,
    },
}

impl fmt::Display for NearestVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NearestVerdict::Verified {
                distance,
                state,
                alt_path,
            } => {
                write!(
                    f,
                    "the implementation is in verified state {state} (distance {distance})"
                )?;
                if alt_path.is_empty() {
                    write!(f, ", an initial state")
                } else {
                    write!(f, ", reachable via {}", alt_path.join(" -> "))
                }
            }
            NearestVerdict::NoneWithin { radius, searched } => write!(
                f,
                "no verified state within distance {radius} matches ({searched} states searched)"
            ),
        }
    }
}

/// A full explanation of one divergence, attached to a bug report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceExplanation {
    /// Zero-based index of the failing step in the test case.
    pub step: u64,
    /// The action at the failing step (empty when the divergence is
    /// not tied to a scheduled action).
    pub action: String,
    /// Action names of the executed prefix, in schedule order.
    pub prefix: Vec<String>,
    /// Per-variable structured diffs (empty for unexpected actions).
    pub diffs: Vec<VarDiff>,
    /// Nearest-verified-state verdict.
    pub verdict: NearestVerdict,
}

impl DivergenceExplanation {
    /// Serializes into payload lines (no key prefix, no newlines in
    /// any line). The artifact layer wraps each line as `explain: …`.
    pub fn serialize(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("step\t{}\t{}", self.step, self.action));
        for a in &self.prefix {
            out.push(format!("prefix\t{a}"));
        }
        for d in &self.diffs {
            out.push(format!("diff\t{}\t{}\t{}", d.path, d.expected, d.actual));
        }
        match &self.verdict {
            NearestVerdict::Verified {
                distance,
                state,
                alt_path,
            } => {
                let mut line = format!("verified\t{distance}\t{state}");
                for a in alt_path {
                    line.push('\t');
                    line.push_str(a);
                }
                out.push(line);
            }
            NearestVerdict::NoneWithin { radius, searched } => {
                out.push(format!("none\t{radius}\t{searched}"));
            }
        }
        out
    }

    /// Parses payload lines produced by [`DivergenceExplanation::serialize`].
    pub fn parse(lines: &[String]) -> Result<Self, String> {
        let mut step = None;
        let mut action = String::new();
        let mut prefix = Vec::new();
        let mut diffs = Vec::new();
        let mut verdict = None;
        for line in lines {
            let mut parts = line.split('\t');
            let tag = parts.next().unwrap_or("");
            match tag {
                "step" => {
                    let n = parts.next().ok_or("step line missing index")?;
                    step = Some(n.parse::<u64>().map_err(|_| format!("bad step index {n:?}"))?);
                    action = parts.next().unwrap_or("").to_string();
                }
                "prefix" => {
                    prefix.push(parts.next().ok_or("prefix line missing action")?.to_string());
                }
                "diff" => {
                    let path = parts.next().ok_or("diff line missing path")?;
                    let expected = parts.next().ok_or("diff line missing expected")?;
                    let actual = parts.next().ok_or("diff line missing actual")?;
                    diffs.push(VarDiff {
                        path: path.to_string(),
                        expected: expected.to_string(),
                        actual: actual.to_string(),
                    });
                }
                "verified" => {
                    let d = parts.next().ok_or("verified line missing distance")?;
                    let distance =
                        d.parse::<u64>().map_err(|_| format!("bad distance {d:?}"))?;
                    let state = parts.next().ok_or("verified line missing state")?.to_string();
                    let alt_path = parts.map(str::to_string).collect();
                    verdict = Some(NearestVerdict::Verified {
                        distance,
                        state,
                        alt_path,
                    });
                }
                "none" => {
                    let r = parts.next().ok_or("none line missing radius")?;
                    let s = parts.next().ok_or("none line missing searched")?;
                    verdict = Some(NearestVerdict::NoneWithin {
                        radius: r.parse().map_err(|_| format!("bad radius {r:?}"))?,
                        searched: s.parse().map_err(|_| format!("bad searched {s:?}"))?,
                    });
                }
                other => return Err(format!("unknown explanation line tag {other:?}")),
            }
        }
        Ok(DivergenceExplanation {
            step: step.ok_or("explanation has no step line")?,
            action,
            prefix,
            diffs,
            verdict: verdict.ok_or("explanation has no verdict line")?,
        })
    }
}

impl fmt::Display for DivergenceExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "diverged at step {}", self.step)?;
        if !self.action.is_empty() {
            write!(f, " ({})", self.action)?;
        }
        if self.prefix.is_empty() {
            writeln!(f, " before any action")?;
        } else {
            writeln!(f, " after {}", self.prefix.join(" -> "))?;
        }
        for d in &self.diffs {
            writeln!(f, "  {d}")?;
        }
        writeln!(f, "  {}", self.verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DivergenceExplanation {
        DivergenceExplanation {
            step: 2,
            action: "BecomeLeader(1)".into(),
            prefix: vec!["Timeout(1)".into(), "RequestVote(1, 2)".into()],
            diffs: vec![
                VarDiff::new("votesGranted[1]", "{1, 2}", "{1}"),
                VarDiff::new("state[1]", "\"leader\"", VarDiff::MISSING),
            ],
            verdict: NearestVerdict::Verified {
                distance: 1,
                state: "/\\ state = \"candidate\"".into(),
                alt_path: vec!["Timeout(1)".into()],
            },
        }
    }

    #[test]
    fn serialize_parse_round_trips() {
        let e = sample();
        assert_eq!(DivergenceExplanation::parse(&e.serialize()).unwrap(), e);

        let none = DivergenceExplanation {
            verdict: NearestVerdict::NoneWithin {
                radius: 3,
                searched: 57,
            },
            diffs: vec![],
            prefix: vec![],
            ..e
        };
        assert_eq!(DivergenceExplanation::parse(&none.serialize()).unwrap(), none);
    }

    #[test]
    fn sanitize_makes_round_trip_exact() {
        let d = VarDiff::new("x", "a\tb", "c\nd");
        assert_eq!(d.expected, "a b");
        assert_eq!(d.actual, "c d");
        let e = DivergenceExplanation {
            step: 0,
            action: String::new(),
            prefix: vec![],
            diffs: vec![d],
            verdict: NearestVerdict::NoneWithin {
                radius: 1,
                searched: 1,
            },
        };
        assert_eq!(DivergenceExplanation::parse(&e.serialize()).unwrap(), e);
    }

    #[test]
    fn display_is_readable() {
        let text = sample().to_string();
        assert!(text.contains("diverged at step 2 (BecomeLeader(1))"));
        assert!(text.contains("after Timeout(1) -> RequestVote(1, 2)"));
        assert!(text.contains("votesGranted[1]: expected {1, 2}, got {1}"));
        assert!(text.contains("verified state /\\ state = \"candidate\" (distance 1)"));
        assert!(text.contains("reachable via Timeout(1)"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DivergenceExplanation::parse(&["bogus\t1".into()]).is_err());
        assert!(DivergenceExplanation::parse(&["step\tx\tA".into()]).is_err());
        assert!(DivergenceExplanation::parse(&["step\t1\tA".into()]).is_err()); // no verdict
        assert!(DivergenceExplanation::parse(&["none\t1\t2".into()]).is_err()); // no step
    }
}
