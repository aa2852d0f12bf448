//! Order statistics and the regression-bound rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is what the driver
//! that gates this benchmark computes its spreads with.

/// Sorted copy of `values` (NaN-free input assumed; timings and counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` by the exclusive method; `None` below two samples (the
/// method is undefined there).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the driver's
/// "spread". 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The tail percentiles the benchmark is willing to report, highest
/// first, in tenths of a percent (whole numbers keep the sample-count
/// arithmetic exact).
const TAIL_LADDER_PER_MILLE: [usize; 4] = [999, 990, 950, 900];

/// The highest percentile of the ladder (99.9, 99, 95, 90) that still
/// has at least ten samples beyond it in a sample of `n`; `None` when
/// even p90 has fewer (n < 100).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER_PER_MILLE
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse `change` is than `parent`, as a positive amount in
/// the metric's own unit (negative = better).
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    }
}

/// The regression rule: `change` may be worse than `parent` by at most
/// `rel_bound` of the parent's value, or by `abs_floor` in the
/// metric's unit, whichever allows more. The floor keeps a metric
/// whose value is a few hundredths of a second from failing on
/// scheduler noise.
pub fn within_bound(
    parent: f64,
    change: f64,
    better: Better,
    rel_bound: f64,
    abs_floor: f64,
) -> bool {
    worsening(parent, change, better) <= (rel_bound * parent.abs()).max(abs_floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn relative_bound_applies_in_the_worse_direction_only() {
        assert!(within_bound(10.0, 10.9, Better::Lower, 0.10, 0.0));
        assert!(!within_bound(10.0, 11.1, Better::Lower, 0.10, 0.0));
        assert!(within_bound(10.0, 2.0, Better::Lower, 0.10, 0.0));
        assert!(within_bound(100.0, 91.0, Better::Higher, 0.10, 0.0));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10, 0.0));
        assert!(within_bound(100.0, 500.0, Better::Higher, 0.10, 0.0));
    }

    #[test]
    fn absolute_floor_rescues_tiny_values() {
        // 15 % of 0.1 s is 0.015 s; the 0.05 s floor allows more.
        assert!(within_bound(0.10, 0.14, Better::Lower, 0.15, 0.05));
        assert!(!within_bound(0.10, 0.16, Better::Lower, 0.15, 0.05));
        // On a large value the relative part dominates.
        assert!(within_bound(10.0, 11.4, Better::Lower, 0.15, 0.05));
        assert!(!within_bound(10.0, 11.6, Better::Lower, 0.15, 0.05));
    }
}
