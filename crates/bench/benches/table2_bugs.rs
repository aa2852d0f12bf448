//! Table 2: the nine bugs found by Mocket.
//!
//! Each row of the catalogue (`mocket::targets::TABLE2`) turns one
//! seeded bug switch (or spec-bug flag) on; this bench runs the full
//! pipeline until the first report and prints the detected
//! inconsistency, the wall-clock time to reveal it, and the number of
//! actions in the revealing test case — the three columns of the
//! paper's Table 2. Absolute times are far below the paper's (the
//! simulated cluster executes actions in microseconds, the authors'
//! JVM testbed took seconds per case); the *shape* to check is that
//! every row fires with the right inconsistency type and that deeper
//! bugs need longer revealing cases.

use std::time::Instant;

use mocket::runtime::Backend;
use mocket::targets::TABLE2;
use mocket_bench::fmt_secs;

fn main() {
    println!("=== Table 2: Bugs Found by Mocket ===");
    println!(
        "{:<26} {:<10} {:<48} {:>10} {:>9}",
        "ID", "Type", "Reported Inconsistency", "Elapsed", "#Actions"
    );
    let mut detected = 0;
    for row in &TABLE2 {
        let target = row.target();
        let start = Instant::now();
        let result = target.run(target.hunt_config(), &Backend::Threads);
        let elapsed = fmt_secs(start.elapsed().as_secs_f64());
        let (verdict, actions) = match result.reports.first() {
            Some(report) => (
                format!(
                    "{} : {}",
                    report.inconsistency.kind(),
                    report.inconsistency.subject()
                ),
                report.test_case.len().to_string(),
            ),
            None => ("NOT DETECTED".to_string(), "-".to_string()),
        };
        println!(
            "{:<26} {:<10} {:<48} {:>10} {:>9}",
            row.id, row.class, verdict, elapsed, actions
        );
        detected += usize::from(verdict == format!("{} : {}", row.kind, row.subject));
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

    assert_eq!(detected, TABLE2.len(), "every Table 2 row must fire as expected");
}
