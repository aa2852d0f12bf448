//! Campaign observability for Mocket.
//!
//! Three layers, all dependency-free:
//!
//! - **Events** ([`Event`], [`EventLog`], [`Obs`]): structured,
//!   append-only trace of what a campaign did — model-checking waves,
//!   pipeline stages, per-case verdicts. A handle writes one JSON
//!   object per line to `events.jsonl` inside the campaign directory,
//!   or keeps the lines in memory for a test.
//! - **Metrics** ([`MetricsRegistry`]): named counters, gauges and
//!   histograms updated from anywhere (worker threads included —
//!   updates are commutative, so thread interleaving cannot change the
//!   final values).
//! - **Summary** ([`RunSummary`]): a single `run-summary.json` written
//!   next to the replay artifacts at the end of a run: coverage, bug
//!   counts by kind and determinism, effort counters, and wall-clock
//!   timings.
//!
//! On top sits the **insight layer**, which turns the recorded
//! telemetry into explanations:
//!
//! - **Divergence explanations** ([`DivergenceExplanation`]): where a
//!   failing case departed from the verified path, the per-variable
//!   structured diff, and the nearest-verified-state verdict. Computed
//!   by `mocket-core` (which can see the state graph), carried here as
//!   a pure-string model so it can ride in replay artifacts.
//! - **Coverage analytics** ([`CoverageMap`]): per-edge/per-action hit
//!   counts accumulated over executed cases, plus the uncovered-edge
//!   listing the traversal generator consumes next run.
//! - **Cross-run reports** ([`CampaignHistory`], [`render_text`],
//!   [`render_html`]): an append-only `campaign-history.jsonl` of
//!   per-run records and deterministic text/HTML trend renderers
//!   (`mocket-cli report`).
//!
//! # Determinism contract
//!
//! Mocket's replay guarantees are byte-exact, and observability must
//! not weaken them. The rules:
//!
//! - Events carry **logical timestamps** (wave numbers, step counters,
//!   case indices) — never wall-clock time.
//! - Events are recorded only from sequential control points (the
//!   pipeline thread, the checker's merge loop). Worker threads touch
//!   metrics only.
//! - Wall-clock time is confined to metric names under the
//!   [`TIMING_PREFIX`] and to `RunSummary` keys prefixed `wall_`.
//!   Everything else in `events.jsonl` and `run-summary.json` is
//!   byte-identical across same-seed runs; see
//!   [`strip_wall_clock`](summary::strip_wall_clock) for comparing
//!   summaries.

pub mod causal;
pub mod coverage;
mod event;
pub mod explain;
pub mod fsio;
mod json;
mod metrics;
pub mod report;
pub mod summary;

pub use causal::{CausalEvent, CausalKind, MsgTag, Tracer, TRACE_FILE_NAME};
pub use coverage::{
    parse_uncovered_listing, CoverageMap, COVERAGE_FILE_NAME, UNCOVERED_FILE_NAME,
};
pub use event::{Event, EventLog, FieldValue, Obs, ObsDirError, EVENTS_FILE_NAME};
pub use fsio::{
    AppendLog, FaultInjector, FaultKind, LineIssue, RetryPolicy, MOCKET_FSIO_FAULTS_ENV,
    MOCKET_FSIO_FAULT_LOG_ENV,
};
pub use json::{parse_flat_object, FlatJson, JsonScalar};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, TIMING_PREFIX};
pub use report::{
    render_html, render_text, CampaignHistory, CampaignRecord, CAMPAIGN_HISTORY_FILE_NAME,
};
pub use summary::{strip_wall_clock, RunSummary, RUN_SUMMARY_FILE_NAME};
pub use explain::{sanitize, DivergenceExplanation, NearestVerdict, VarDiff};
