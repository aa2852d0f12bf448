//! Mocket: model-checking-guided testing for distributed systems.
//!
//! This crate is the paper's primary contribution. Given a
//! specification (from `mocket-tla`), its state-space graph (from
//! `mocket-checker`) and a mapping onto a target implementation, it:
//!
//! 1. generates test cases — verified paths through the graph —
//!    using edge-coverage-guided traversal ([`traversal`], Algorithm
//!    1) and partial-order reduction ([`por`], §4.2.2);
//! 2. runs controlled testing ([`runner`], §4.3): the action
//!    scheduler ([`scheduler`]) releases blocked actions in test-case
//!    order, message pools ([`msgpool`]) track message-related
//!    variables, and the state checker ([`statecheck`]) compares every
//!    runtime state with its verified counterpart;
//! 3. reports inconsistencies ([`report`]): inconsistent states,
//!    missing actions and unexpected actions.
//!
//! The [`pipeline`] module wires all stages together (Figure 3).

pub mod artifact;
pub mod explain;
pub mod fsio;
pub mod mapping;
pub mod minimize;
pub mod msgpool;
pub mod orchestrator;
pub mod pipeline;
pub mod por;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod statecheck;
pub mod sut;
pub mod testcase;
pub mod traversal;

pub use artifact::{
    replay, ArtifactError, CampaignJournal, CaseOutcome, JournalEntry, JournalOpenError,
    ReplayArtifact, ReplayVerdict,
};
pub use explain::{explain_failure, ExplainConfig};
pub use mapping::{
    ActionBinding, ActionMapping, CompareMode, ConstMap, MappingIssue, MappingRegistry, VarTarget,
    VariableMapping,
};
pub use minimize::{minimize_case, MinimizeConfig, Minimized};
pub use msgpool::{MessagePools, PoolError};
pub use pipeline::{
    AttemptRecord, CaseGate, Pipeline, PipelineConfig, PipelineResult, QuarantinedCase,
    RetryPolicy, TestingEffort, TriageConfig,
};
pub use por::{partial_order_reduction, Diamond, PorResult};
pub use report::{BugClass, BugReport, Determinism, Inconsistency, VariableDivergence};
pub use runner::{pools_from_registry, run_test_case, RunConfig, RunCtx, RunStats, TestOutcome};
pub use scheduler::{find_match, translate_offers, unexpected_offers, SpecOffer};
pub use statecheck::{check_state, value_diff, values_match};
pub use sut::{
    int_param, record_int_field, ExecReport, MsgEvent, Offer, Snapshot, SutError, SystemUnderTest,
};
pub use testcase::{Step, TestCase};
pub use traversal::{
    edge_coverage_paths, node_coverage_paths, random_walk_paths, TraversalConfig, TraversalResult,
};
