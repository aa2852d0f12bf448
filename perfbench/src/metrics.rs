//! The metric and workload catalogue: the one place names, units,
//! directions and regression bounds are written down. `BENCHMARK.json`
//! at the repository root is this table rendered (`--print-benchmark-json`);
//! a unit test fails when the two drift apart.

use crate::record::quoted;
use crate::stats::Better::{self, Higher, Lower};

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 30;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Worsening always tolerated, in the metric's unit (`--compare`
    /// only; the driver applies `bound` alone).
    pub abs_floor: f64,
}

/// Same five on every workload; medians over the run's timed rounds.
///
/// The time bounds are as wide as the contract allows because the
/// host is that noisy, not because the workloads are: a pinned
/// single-threaded CPU loop on the 2-vCPU VM this was sized on runs
/// at one of two speeds 1.35x apart, flipping every 5-30 s, and ten
/// back-to-back runs of one workload spread 6-17 % in a calm hour
/// (README.md, "Steadiness"). Memory repeats to 0.0-1.2 %.
pub const END_TO_END: &[EndToEnd] = &[
    // Spec construction to final verdicts of one round (for the
    // campaign: CLI spawn to exit, merged outputs on disk).
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    // Same start until the first case can run: check + POR + traversal
    // (+ DOT round-trip and plan materialisation where the workload
    // has them). Work moved out of the case loop shows here.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        abs_floor: 0.05,
    },
    // Cases with a verdict / (wall_s - setup_s).
    EndToEnd {
        name: "cases_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        abs_floor: 0.0,
    },
    // User + system CPU of the round's whole process tree.
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    // High-water RSS of the largest process in the round's tree.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        abs_floor: 0.0,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by the traced run of every workload, measured on that
/// workload's own model, cases and SUT. README.md says which
/// end-to-end metric each one is predicted to move, and where.
pub const PER_LAYER: &[PerLayer] = &[
    layer("checker.explore_s", "s", Lower),
    layer("checker.states_per_s", "1/s", Higher),
    layer("checker.states", "count", Lower),
    layer("checker.edges", "count", Lower),
    layer("checker.par2_s", "s", Lower),
    layer("checker.rss_mb", "MB", Lower),
    layer("checker.dot_export_s", "s", Lower),
    layer("checker.dot_import_s", "s", Lower),
    layer("checker.dot_mb", "MB", Lower),
    layer("tla.fingerprint_ns", "ns", Lower),
    layer("specs.successors_us", "us", Lower),
    layer("por.reduce_s", "s", Lower),
    layer("por.excluded_edges", "count", Higher),
    layer("traversal.ec_s", "s", Lower),
    layer("traversal.ecpor_s", "s", Lower),
    layer("traversal.paths_ec", "count", Lower),
    layer("traversal.paths_ecpor", "count", Lower),
    layer("testcase.materialize_s", "s", Lower),
    layer("pipeline.run_s", "s", Lower),
    layer("pipeline.self_s", "s", Lower),
    layer("runner.case_ms_p50", "ms", Lower),
    layer("runner.case_ms_tail", "ms", Lower),
    layer("runner.case_tail_pct", "%", Higher),
    layer("scheduler.translate_us", "us", Lower),
    layer("statecheck.check_us", "us", Lower),
    layer("sut.make_s", "s", Lower),
    layer("sut.deploy_s", "s", Lower),
    layer("sut.offers_s", "s", Lower),
    layer("sut.execute_s", "s", Lower),
    layer("sut.snapshot_s", "s", Lower),
    layer("sut.teardown_s", "s", Lower),
    layer("sut.deploys", "count", Lower),
    layer("sut.offer_polls", "count", Lower),
    layer("sut.executes", "count", Lower),
    layer("sut.snapshots", "count", Lower),
    layer("sut.polls_per_execute", "ratio", Lower),
    layer("runtime.threads_ms_per_case", "ms", Lower),
    layer("sim.virtual_s", "s", Lower),
    layer("triage.redeploys_per_failure", "ratio", Lower),
    layer("artifact.files", "count", Lower),
    layer("artifact.mb", "MB", Lower),
    layer("journal.kb", "KB", Lower),
    layer("orchestrator.plan_s", "s", Lower),
    layer("orchestrator.workers_s", "s", Lower),
    layer("orchestrator.merge_s", "s", Lower),
    layer("orchestrator.dir_mb", "MB", Lower),
    layer("orchestrator.files", "count", Lower),
    layer("orchestrator.tax", "ratio", Lower),
    layer("obs.events_mb", "MB", Lower),
    layer("obs.event_append_us", "us", Lower),
    layer("fsio.append_us", "us", Lower),
    layer("bench.accounted_frac", "ratio", Higher),
    layer("bench.trace_overhead_frac", "ratio", Lower),
];

/// `BENCHMARK.json`, rendered from the tables above and the workload
/// list.
pub fn benchmark_json(workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"perfbench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(name),
                quoted(why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && Workload::ALL.len() <= 8);
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    #[test]
    fn benchmark_json_on_disk_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(
            on_disk,
            benchmark_json(&workloads),
            "regenerate with: mocket-perfbench --print-benchmark-json > BENCHMARK.json"
        );
    }
}
