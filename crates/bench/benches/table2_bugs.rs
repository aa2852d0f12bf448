//! Table 2: the nine bugs found by Mocket.
//!
//! Each row turns one seeded bug switch (or spec-bug flag) on, runs
//! the full pipeline until the first report, and prints the detected
//! inconsistency, the wall-clock time to reveal it, and the number of
//! actions in the revealing test case — the three columns of the
//! paper's Table 2. Absolute times are far below the paper's (the
//! simulated cluster executes actions in microseconds, the authors'
//! JVM testbed took seconds per case); the *shape* to check is that
//! every row fires with the right inconsistency type and that deeper
//! bugs need longer revealing cases.

use std::sync::Arc;
use std::time::Instant;

use mocket_bench::fmt_secs;
use mocket_core::{BugReport, Pipeline, PipelineConfig, RunConfig};
use mocket_raft_async::XraftBugs;
use mocket_raft_sync::SyncRaftBugs;
use mocket_runtime::Backend;
use mocket_specs::raft::{RaftSpec, RaftSpecConfig};
use mocket_specs::zab::{ZabSpec, ZabSpecConfig};
use mocket_tla::Spec;
use mocket_zab::ZabBugs;

struct Row {
    id: &'static str,
    class: &'static str,
    report: Option<BugReport>,
    seconds: f64,
}

fn pipeline_for(
    spec: Arc<dyn Spec>,
    registry: mocket_core::MappingRegistry,
    case_filter: Option<Arc<dyn Fn(&[&str]) -> bool + Send + Sync>>,
) -> Pipeline {
    let mut pc = PipelineConfig::default();
    pc.por = false;
    pc.stop_at_first_bug = true;
    pc.max_path_len = 60;
    pc.case_filter = case_filter;
    pc.run = RunConfig::fast();
    Pipeline::new(spec, registry, pc).expect("mapping is valid")
}

fn hunt<F>(id: &'static str, class: &'static str, p: Pipeline, mut sut: F) -> Row
where
    F: FnMut() -> Box<dyn mocket_core::SystemUnderTest>,
{
    let start = Instant::now();
    let result = p.run(&mut sut);
    Row {
        id,
        class,
        report: result.reports.into_iter().next(),
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let mut rows = Vec::new();

    // ---- Xraft bug #1: duplicate vote counting ----
    {
        let cfg = RaftSpecConfig {
            restart_limit: 0,
            client_request_limit: 0,
            ..RaftSpecConfig::xraft(vec![1, 2])
        };
        rows.push(hunt(
            "Xraft Bug #1 (new)",
            "Impl. Bug",
            pipeline_for(
                Arc::new(RaftSpec::new(cfg)),
                mocket_raft_async::mapping(),
                None,
            ),
            || {
                Box::new(mocket_raft_async::make_sut(
                    vec![1, 2],
                    XraftBugs {
                        duplicate_vote_counting: true,
                        ..XraftBugs::none()
                    },
                ))
            },
        ));
    }

    // ---- Xraft bug #2: votedFor not persisted ----
    {
        let cfg = RaftSpecConfig {
            dup_limit: 0,
            client_request_limit: 0,
            ..RaftSpecConfig::xraft(vec![1, 2])
        };
        rows.push(hunt(
            "Xraft Bug #2 (new)",
            "Impl. Bug",
            pipeline_for(
                Arc::new(RaftSpec::new(cfg)),
                mocket_raft_async::mapping(),
                None,
            ),
            || {
                Box::new(mocket_raft_async::make_sut(
                    vec![1, 2],
                    XraftBugs {
                        voted_for_not_persisted: true,
                        ..XraftBugs::none()
                    },
                ))
            },
        ));
    }

    // ---- Xraft bug #3: NoOp-discounting vote grant ----
    {
        let cfg = RaftSpecConfig {
            dup_limit: 0,
            restart_limit: 0,
            client_request_limit: 0,
            max_term: 3,
            ..RaftSpecConfig::xraft(vec![1, 2])
        };
        rows.push(hunt(
            "Xraft Bug #3 (new)",
            "Impl. Bug",
            pipeline_for(
                Arc::new(RaftSpec::new(cfg)),
                mocket_raft_async::mapping(),
                None,
            ),
            || {
                Box::new(mocket_raft_async::make_sut(
                    vec![1, 2],
                    XraftBugs {
                        noop_log_grant: true,
                        ..XraftBugs::none()
                    },
                ))
            },
        ));
    }

    // ---- Raft-java bug #1: dropped vote response ----
    {
        let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
        cfg.max_term = 2;
        cfg.client_request_limit = 0;
        cfg.candidates = Some(vec![1]);
        rows.push(hunt(
            "Raft-java Bug #1",
            "Impl. Bug",
            pipeline_for(
                Arc::new(RaftSpec::new(cfg)),
                mocket_raft_sync::mapping(false),
                None,
            ),
            || {
                Box::new(mocket_raft_sync::make_sut(
                    vec![1, 2, 3],
                    SyncRaftBugs {
                        ignore_extra_vote_response: true,
                        ..SyncRaftBugs::none()
                    },
                ))
            },
        ));
    }

    // ---- Raft-java bug #2: off-by-one log truncation (the deep one)
    {
        rows.push(hunt(
            "Raft-java Bug #2",
            "Impl. Bug",
            pipeline_for(
                Arc::new(RaftSpec::new(mocket_bench::raft_java_model())),
                mocket_raft_sync::mapping(false),
                Some(Arc::new(|names: &[&str]| {
                    names.iter().filter(|n| **n == "BecomeLeader").count() >= 2
                        && names.iter().filter(|n| **n == "ClientRequest").count() >= 2
                })),
            ),
            || {
                Box::new(mocket_raft_sync::make_sut(
                    vec![1, 2, 3],
                    SyncRaftBugs {
                        log_truncation_bug: true,
                        ..SyncRaftBugs::none()
                    },
                ))
            },
        ));
    }

    // ---- ZooKeeper bug #1: election echo storm ----
    {
        rows.push(hunt(
            "ZooKeeper Bug #1",
            "Impl. Bug",
            pipeline_for(
                Arc::new(ZabSpec::new(ZabSpecConfig::small(vec![1, 2]))),
                mocket_zab::mapping(),
                None,
            ),
            || {
                Box::new(mocket_zab::make_sut(
                    vec![1, 2],
                    ZabBugs {
                        election_echo_storm: true,
                        ..ZabBugs::none()
                    },
                ))
            },
        ));
    }

    // ---- ZooKeeper bug #2: inconsistent epoch on restart ----
    {
        let mut cfg = ZabSpecConfig::small(vec![1, 2]);
        cfg.restart_limit = 1;
        cfg.client_request_limit = 0;
        rows.push(hunt(
            "ZooKeeper Bug #2",
            "Impl. Bug",
            pipeline_for(Arc::new(ZabSpec::new(cfg)), mocket_zab::mapping(), None),
            || {
                Box::new(mocket_zab::make_sut(
                    vec![1, 2],
                    ZabBugs {
                        epoch_marker_race: true,
                        ..ZabBugs::none()
                    },
                ))
            },
        ));
    }

    // ---- Raft-spec issue #1: independent UpdateTerm ----
    {
        rows.push(hunt(
            "Raft-spec issue #1 (new)",
            "Spec. Bug",
            pipeline_for(
                Arc::new(RaftSpec::new(RaftSpecConfig::official_buggy(vec![1, 2]))),
                mocket_raft_sync::mapping(true),
                None,
            ),
            || {
                Box::new(mocket_raft_sync::make_sut_full(
                    vec![1, 2],
                    SyncRaftBugs::none(),
                    true,
                    Backend::Threads,
                    None,
                ))
            },
        ));
    }

    // ---- Raft-spec issue #2: missing Reply branch ----
    {
        rows.push(hunt(
            "Raft-spec issue #2 (new)",
            "Spec. Bug",
            pipeline_for(
                Arc::new(RaftSpec::new(RaftSpecConfig::official_buggy(vec![1, 2]))),
                mocket_raft_sync::mapping(true),
                None,
            ),
            || {
                Box::new(mocket_raft_sync::make_sut_full(
                    vec![1, 2],
                    SyncRaftBugs::none(),
                    false,
                    Backend::Threads,
                    None,
                ))
            },
        ));
    }

    println!("=== Table 2: Bugs Found by Mocket ===");
    println!(
        "{:<26} {:<10} {:<48} {:>10} {:>9}",
        "ID", "Type", "Reported Inconsistency", "Elapsed", "#Actions"
    );
    for row in &rows {
        match &row.report {
            Some(report) => println!(
                "{:<26} {:<10} {:<48} {:>10} {:>9}",
                row.id,
                row.class,
                format!(
                    "{} : {}",
                    report.inconsistency.kind(),
                    report.inconsistency.subject()
                ),
                fmt_secs(row.seconds),
                report.test_case.len(),
            ),
            None => println!(
                "{:<26} {:<10} {:<48} {:>10} {:>9}",
                row.id,
                row.class,
                "NOT DETECTED",
                fmt_secs(row.seconds),
                "-"
            ),
        }
    }
    println!();
    println!("Paper's Table 2 verdicts for comparison:");
    println!("  Xraft #1:  Inconsistent state votesGranted   (1 min,  6 actions)");
    println!("  Xraft #2:  Inconsistent state votedFor       (7 min,  9 actions)");
    println!("  Xraft #3:  Unexpected HandleRequestVoteResponse (39 min, 19 actions)");
    println!("  Raft-java #1: Missing HandleRequestVoteResponse  (6 min, 18 actions)");
    println!("  Raft-java #2: Inconsistent state log             (5 h,   31 actions)");
    println!("  ZooKeeper #1: Unexpected receive (HandleVote)    (13 h,  39 actions)");
    println!("  ZooKeeper #2: Missing StartElection              (29 h,  51 actions)");
    println!("  Raft-spec #1: Inconsistent state messages        (<1 min, 8 actions)");
    println!("  Raft-spec #2: Missing UpdateTerm                 (<1 min, 5 actions)");

    let detected = rows.iter().filter(|r| r.report.is_some()).count();
    assert_eq!(detected, rows.len(), "every Table 2 row must fire");
}
