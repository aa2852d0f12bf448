//! Finding bugs in the *specification*: the two official Raft spec
//! issues of Figures 10 and 11, surfaced by testing a conformant
//! implementation against the buggy specification (§6.1).
//!
//! Run with: `cargo run --release --example spec_bugs`

use std::sync::Arc;

use mocket::core::{Pipeline, PipelineConfig, RunConfig};
use mocket::raft_sync::{make_sut_full, mapping, SyncRaftBugs};
use mocket::runtime::Backend;
use mocket::specs::raft::{RaftSpec, RaftSpecConfig};

fn pipeline() -> Pipeline {
    let mut pc = PipelineConfig::default();
    pc.por = false;
    pc.stop_at_first_bug = true;
    pc.max_path_len = 60;
    pc.run = RunConfig::fast();
    Pipeline::new(
        Arc::new(RaftSpec::new(RaftSpecConfig::official_buggy(vec![1, 2]))),
        mapping(true),
        pc,
    )
    .expect("mapping is valid")
}

fn main() {
    println!("The implementation is CONFORMANT; the official spec is buggy.");
    println!("Mocket cannot tell which side is wrong — investigation does (§4.3.3).\n");

    // Natural mapping: the implementation has no standalone UpdateTerm
    // code, so the spec's independent UpdateTerm goes missing.
    let natural = pipeline()
        .run(|| {
            Box::new(make_sut_full(
                vec![1, 2],
                SyncRaftBugs::none(),
                false,
                Backend::Threads,
                None,
            ))
        });
    println!("--- natural mapping (UpdateTerm has no standalone region) ---");
    println!(
        "{}",
        natural.reports.first().expect("spec bug must surface")
    );

    // stepDown-region mapping: scheduling UpdateTerm runs the whole
    // handler, so the message the spec keeps in flight is consumed.
    let region = pipeline()
        .run(|| {
            Box::new(make_sut_full(
                vec![1, 2],
                SyncRaftBugs::none(),
                true,
                Backend::Threads,
                None,
            ))
        });
    println!("--- stepDown-region mapping (UpdateTerm runs the handler) ---");
    println!("{}", region.reports.first().expect("spec bug must surface"));

    println!(
        "Both inconsistencies disappear against the FIXED specification \
         (see the raft-sync conformance tests): the implementation was \
         right, the official spec was wrong — Figures 10 and 11."
    );
}
