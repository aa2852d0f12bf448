//! Finding bugs in the *specification*: the two official Raft spec
//! issues of Figures 10 and 11, surfaced by testing a conformant
//! implementation against the buggy specification (§6.1) — the two
//! `Spec. Bug` rows of the catalogue (`mocket::targets::TABLE2`).
//!
//! Run with: `cargo run --release --example spec_bugs`

use mocket::runtime::Backend;
use mocket::targets::by_name;

fn hunt(bug: &str) {
    let target = by_name("raft-java", Some(bug)).expect("catalogue row");
    let result = target.run(target.hunt_config(), &Backend::Threads);
    println!("{}", result.reports.first().expect("spec bug must surface"));
}

fn main() {
    println!("The implementation is CONFORMANT; the official spec is buggy.");
    println!("Mocket cannot tell which side is wrong — investigation does (§4.3.3).\n");

    // Natural mapping: the implementation has no standalone UpdateTerm
    // code, so the spec's independent UpdateTerm goes missing.
    println!("--- natural mapping (UpdateTerm has no standalone region) ---");
    hunt("spec-missing-reply");

    // stepDown-region mapping: scheduling UpdateTerm runs the whole
    // handler, so the message the spec keeps in flight is consumed.
    println!("--- stepDown-region mapping (UpdateTerm runs the handler) ---");
    hunt("spec-update-term");

    println!(
        "Both inconsistencies disappear against the FIXED specification \
         (see tests/conformance.rs): the implementation was right, the \
         official spec was wrong — Figures 10 and 11."
    );
}
