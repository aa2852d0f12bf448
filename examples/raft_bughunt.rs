//! Bug hunt on AsyncRaft (the Xraft analog): all three previously
//! unknown Xraft bugs from the paper's Table 2, found by the full
//! Mocket pipeline. The rows — narrowed model, seeded switch — come
//! from the catalogue (`mocket::targets::TABLE2`).
//!
//! Run with: `cargo run --release --example raft_bughunt`

use mocket::runtime::Backend;
use mocket::targets::TABLE2;

fn main() {
    for row in TABLE2.iter().filter(|row| row.target == "xraft") {
        println!("==================================================================");
        println!("{}: {} (expected: {} : {})", row.id, row.bug, row.kind, row.subject);
        println!("==================================================================");
        let target = row.target();
        let result = target.run(target.hunt_config(), &Backend::Threads);
        println!(
            "model: {} states / {} edges; ran {} of {} cases",
            result.effort.states,
            result.effort.edges,
            result.effort.cases_run,
            result.cases_selected,
        );
        match result.reports.first() {
            Some(report) => println!("\n{report}"),
            None => println!("NOT DETECTED (unexpected!)"),
        }
    }
}
