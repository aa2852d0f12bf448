//! Reading result files back: the spread of one set of runs against
//! the bounds (`--spread`), and the parent-versus-change comparison
//! (`--compare`) README.md prescribes.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::END_TO_END;
use crate::record::Record;
use crate::stats;
use crate::workloads::Workload;

/// Untraced result records of `workload` under `dir`, by seed.
fn untraced_results(dir: &Path, workload: Workload) -> BTreeMap<u64, Record> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join(workload.name()))
        .into_iter()
        .flatten()
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with("-trace0.json") {
            continue;
        }
        let parsed = std::fs::read_to_string(entry.path())
            .map_err(|e| e.to_string())
            .and_then(|text| Record::from_json_line(text.trim()));
        match parsed {
            Ok(rec) => {
                out.insert(rec.num("seed").unwrap_or(0.0) as u64, rec);
            }
            Err(e) => eprintln!("perfbench: skipping {}: {e}", entry.path().display()),
        }
    }
    out
}

/// `(seed, run median)` of an end-to-end metric over a set of runs.
fn series(results: &BTreeMap<u64, Record>, metric: &str) -> Vec<(u64, f64)> {
    results
        .iter()
        .filter_map(|(seed, r)| Some((*seed, r.num(&format!("metric.{metric}"))?)))
        .collect()
}

fn values(series: &[(u64, f64)]) -> Vec<f64> {
    series.iter().map(|(_, v)| *v).collect()
}

/// Prints, per workload and end-to-end metric, the median and the
/// interquartile spread of the runs under `dir` as the driver computes
/// them, against the metric's bound. Returns whether every spread
/// (but `setup_s`'s, which the driver exempts) is within a third of
/// its bound and every run was correct.
pub fn spread(dir: &Path) -> bool {
    let mut steady = true;
    for w in Workload::ALL {
        let results = untraced_results(dir, w);
        println!(
            "{} ({} runs, seeds {:?})",
            w.name(),
            results.len(),
            results.keys().collect::<Vec<_>>()
        );
        if results.values().any(|r| r.num("correct") != Some(1.0)) {
            println!("  INCORRECT runs present");
            steady = false;
        }
        println!(
            "  {:<14} {:>12} {:>12} {:>12} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for m in END_TO_END {
            let v = values(&series(&results, m.name));
            let (q1, q3) = stats::quartiles(&v).unwrap_or((f64::NAN, f64::NAN));
            let spread = stats::spread(&v);
            let ok = spread <= m.bound / 3.0 || m.name == "setup_s";
            steady &= ok;
            println!(
                "  {:<14} {:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}% {:>6.0}%{}",
                m.name,
                stats::median(&v),
                spread * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  > bound/3" }
            );
        }
    }
    steady
}

/// How one metric of one workload moved between two sets of runs.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least nine tenths of the seed pairs and the medians
    /// differ by more than the parent's interquartile range.
    Gain,
    /// Change's median worse than the parent's by more than the bound.
    Regression,
    /// Within the bound, but the parent's own spread is wider than the
    /// bound and the runs overlap: not shown unchanged.
    Unresolved,
    Unchanged,
}

pub fn judge(
    parent: &[(u64, f64)],
    change: &[(u64, f64)],
    m: &crate::metrics::EndToEnd,
) -> Verdict {
    let (pv, cv) = (values(parent), values(change));
    let (pm, cm) = (stats::median(&pv), stats::median(&cv));
    if !stats::within_bound(pm, cm, m.better, m.bound, m.abs_floor) {
        return Verdict::Regression;
    }
    let change_by_seed: BTreeMap<u64, f64> = change.iter().copied().collect();
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|(seed, p)| change_by_seed.get(seed).map(|c| (*p, *c)))
        .collect();
    let wins = pairs
        .iter()
        .filter(|(p, c)| stats::worsening(*p, *c, m.better) < 0.0)
        .count();
    let iqr = stats::quartiles(&pv).map_or(0.0, |(q1, q3)| q3 - q1);
    if pairs.len() >= 10
        && wins * 10 >= pairs.len() * 9
        && -stats::worsening(pm, cm, m.better) > iqr
    {
        return Verdict::Gain;
    }
    let every_change_run_better = pv
        .iter()
        .all(|p| cv.iter().all(|c| stats::worsening(*p, *c, m.better) < 0.0));
    if stats::spread(&pv) > m.bound && !every_change_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Compares the runs under `change` with those under `parent`, seed by
/// seed. Count metrics must be identical; end-to-end metrics are
/// judged by [`judge`]. Returns whether nothing regressed or differed.
pub fn compare(parent: &Path, change: &Path) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        let (p, c) = (untraced_results(parent, w), untraced_results(change, w));
        println!(
            "{} ({} parent runs, {} change runs)",
            w.name(),
            p.len(),
            c.len()
        );
        for (seed, pr) in &p {
            let Some(cr) = c.get(seed) else { continue };
            for (key, pv) in pr.with_prefix("count.") {
                let cv = cr.0.get(&format!("count.{key}"));
                if cv != Some(pv) {
                    println!("  seed {seed}: count `{key}` differs: {pv:?} vs {cv:?}");
                    ok = false;
                }
            }
        }
        println!(
            "  {:<14} {:>12} {:>12} {:>9}  verdict",
            "metric", "parent", "change", "delta"
        );
        for m in END_TO_END {
            let (ps, cs) = (series(&p, m.name), series(&c, m.name));
            let verdict = judge(&ps, &cs, m);
            ok &= verdict != Verdict::Regression;
            let (pm, cm) = (stats::median(&values(&ps)), stats::median(&values(&cs)));
            println!(
                "  {:<14} {pm:>12.4} {cm:>12.4} {:>+8.2}%  {verdict:?}",
                m.name,
                (cm - pm) / pm * 100.0
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lower-is-better metric with a 10 % bound.
    fn wall() -> &'static crate::metrics::EndToEnd {
        &crate::metrics::EndToEnd {
            name: "wall_s",
            unit: "s",
            better: stats::Better::Lower,
            bound: 0.10,
            abs_floor: 0.0,
        }
    }

    fn seeded(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    #[test]
    fn regression_is_a_median_worse_by_more_than_the_bound() {
        let parent = seeded(&[10.0; 10]);
        assert_eq!(
            judge(&parent, &seeded(&[11.5; 10]), wall()),
            Verdict::Regression
        );
        assert_eq!(
            judge(&parent, &seeded(&[10.5; 10]), wall()),
            Verdict::Unchanged
        );
    }

    #[test]
    fn gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_iqr() {
        let parent = seeded(&[10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]);
        let faster: Vec<f64> = parent.iter().map(|(_, v)| v - 1.0).collect();
        assert_eq!(judge(&parent, &seeded(&faster), wall()), Verdict::Gain);
        // A gap inside the parent's own spread is not a gain.
        let barely: Vec<f64> = parent.iter().map(|(_, v)| v - 0.05).collect();
        assert_eq!(judge(&parent, &seeded(&barely), wall()), Verdict::Unchanged);
        // Too few pairs to claim anything.
        assert_eq!(
            judge(&parent[..5], &seeded(&faster[..5]), wall()),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_parent_noisier_than_the_bound_is_unresolved_not_unchanged() {
        let parent = seeded(&[8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 10.0, 10.0]);
        assert_eq!(judge(&parent, &parent.clone(), wall()), Verdict::Unresolved);
    }
}
