//! Crash-tolerant campaign orchestration.
//!
//! A campaign directory is the single source of truth: a pinned
//! [`plan`](crate::orchestrator::CampaignPlan) of cases, per-shard
//! lease files forming a file-backed work queue, per-shard journals
//! and replay artifacts, and a deterministic merge that rebuilds the
//! canonical top-level outputs from the verdict set. Who holds a shard,
//! a worker slot or the directory is decided by the kernel: each is one
//! `flock`, released when its holder dies, and whoever waits for one
//! sleeps in the kernel, not in a poll loop. The supervisor
//! (`mocket-cli campaign`) spawns N crash-isolated worker processes
//! (`mocket-cli campaign-worker`, hidden) and survives worker
//! crashes, hangs, `kill -9`, SIGINT drains and full restarts of the
//! campaign itself. A worker is one pipeline run (one model check, one
//! generation, one summary); a shard is a case window of it.
//!
//! Layout of a campaign directory:
//!
//! ```text
//! <dir>/journal.lock            supervisor's exclusive claim (flock)
//! <dir>/plan.txt                pinned case set + shard arithmetic
//! <dir>/drain                   transient drain request marker
//! <dir>/shards/shard-<s>.lock   shard ownership (flock; gone once done)
//! <dir>/shards/shard-<s>.lease  owner record: pid, plan, case in flight
//! <dir>/shards/shard-<s>.done   shard retirement marker
//! <dir>/shards/shard-<s>/       shard journal (+ journal.lock until
//!                               done) and replay artifacts
//! <dir>/worker-<id>/            worker.lock (slot flock), events.jsonl
//!                               (streamed), worker.log, and one
//!                               run-summary.json at worker exit
//! <dir>/quarantine/             poison cases (crashes.log, artifacts)
//! <dir>/journal.log ...         canonical merged outputs
//! ```

mod kv;
mod lease;
mod lock;
mod merge;
mod plan;
mod procs;
mod supervisor;
mod worker;

pub use lease::{
    done_path, lease_path, shard_data_dir, shards_dir, try_claim, ClaimOutcome, LeaseConfig,
    LeaseHandle, LeaseInfo,
};
pub use lock::{DirLock, LockError};
pub use merge::{merge_campaign, MergeInputs, MergeReport};
pub use plan::{CampaignPlan, PlanCase, PLAN_FILE_NAME};
pub use procs::{
    ignore_sigint, install_sigint_flag, same_process, self_token, send_signal, sigkill_self,
    SIGINT, SIGKILL,
};
pub use supervisor::{
    supervise, sweep_dead_leases, CampaignOutcome, SupervisorConfig, EXIT_PLAN_MISMATCH,
    INJECT_SUPERVISOR_CRASH_ENV,
};
pub use worker::{
    clear_drain_marker, drain_requested, load_crashes, load_poisoned, record_worker_crash,
    request_drain, worker_loop, CrashDisposition, CrashKind, CrashRecord, InjectionConfig,
    PoisonRecord, ShardSetup, WorkerConfig, WorkerContext, WorkerOutcome, CRASH_LOG_FILE_NAME,
    DRAIN_FILE_NAME, POISON_LOG_FILE_NAME, QUARANTINE_DIR_NAME,
};
