//! Counters, gauges and histograms.
//!
//! All updates are commutative (add, max-merge, set-latest-from-one-
//! writer), so worker threads may update metrics freely without
//! breaking run-to-run determinism — the final values cannot depend on
//! interleaving. Export order is the `BTreeMap` name order, which is
//! deterministic by construction.
//!
//! Names under [`TIMING_PREFIX`] carry wall-clock-derived values and
//! are the *only* place wall-clock may appear; deterministic
//! comparisons drop them via [`MetricsSnapshot::deterministic`].

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{push_f64, FlatJson};

/// Prefix marking wall-clock-derived metrics.
pub const TIMING_PREFIX: &str = "timing.";

/// Aggregated histogram: count/sum/min/max. Enough for latency and
/// rate reporting without bucket-boundary choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Histogram {
    fn new(v: f64) -> Self {
        Histogram {
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Shared metric store. A single mutex is fine: updates are rare
/// relative to the work they measure (a few per runner step, one per
/// wave / case / fault decision), never per-state. An update looks its
/// name up first and allocates only for a name it has not seen.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Adds `delta` to counter `name` (creating it at 0).
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.counters.get_mut(name) {
            Some(n) => *n += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                inner.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Adds one observation to histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                inner.histograms.insert(name.to_string(), Histogram::new(v));
            }
        }
    }

    /// Current counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    /// A point-in-time copy of every metric, name-ordered.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// An immutable metrics copy, used for export and comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The snapshot with every [`TIMING_PREFIX`] metric removed —
    /// what same-seed runs must agree on byte-for-byte.
    pub fn deterministic(&self) -> MetricsSnapshot {
        let keep = |name: &String| !name.starts_with(TIMING_PREFIX);
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Flattens every metric into `(key, json_value)` lines: counters
    /// and gauges as-is, histograms as `.count/.sum/.min/.max` (and
    /// `.mean`). Used by the run summary.
    pub fn flat_json_entries(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (k, v) in &self.counters {
            out.push((format!("metric.{k}"), v.to_string()));
        }
        for (k, v) in &self.gauges {
            let mut s = String::new();
            push_f64(&mut s, *v);
            out.push((format!("metric.{k}"), s));
        }
        for (k, h) in &self.histograms {
            out.push((format!("metric.{k}.count"), h.count.to_string()));
            for (suffix, v) in [
                ("sum", h.sum),
                ("min", h.min),
                ("max", h.max),
                ("mean", h.mean()),
            ] {
                let mut s = String::new();
                push_f64(&mut s, v);
                out.push((format!("metric.{k}.{suffix}"), s));
            }
        }
        out
    }

    /// Renders the snapshot as a standalone JSON object, one key per
    /// line, keys sorted (flattened form).
    pub fn to_json(&self) -> String {
        let mut entries = self.flat_json_entries();
        entries.sort();
        let mut w = FlatJson::document();
        for (key, value) in &entries {
            w.raw(key, value);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::default();
        m.add("a", 1);
        m.add("a", 2);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_aggregates() {
        let m = MetricsRegistry::default();
        for v in [2.0, 8.0, 5.0] {
            m.observe("h", v);
        }
        let h = m.snapshot().histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 15.0);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.mean(), 5.0);
    }

    #[test]
    fn deterministic_snapshot_drops_timing() {
        let m = MetricsRegistry::default();
        m.add("checker.edges", 4);
        m.add("timing.span.check_seconds.count", 1);
        m.observe("timing.runner.release_latency_ms", 3.5);
        m.set_gauge("coverage.fraction", 1.0);
        let det = m.snapshot().deterministic();
        assert_eq!(det.counters.len(), 1);
        assert!(det.histograms.is_empty());
        assert_eq!(det.gauges.len(), 1);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let m = MetricsRegistry::default();
        m.add("z.last", 1);
        m.add("a.first", 2);
        m.observe("mid", 1.0);
        let json = m.snapshot().to_json();
        let a = json.find("a.first").unwrap();
        let mid = json.find("mid.count").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < mid && mid < z);
        assert_eq!(json, m.snapshot().to_json());
    }

    #[test]
    fn concurrent_updates_are_commutative() {
        let m = std::sync::Arc::new(MetricsRegistry::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.add("n", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter("n"), 4000);
    }
}
