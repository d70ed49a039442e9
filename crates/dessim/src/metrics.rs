//! Cheap structured metrics: log2-bucket latency histograms and monotone
//! counters, registered per component.
//!
//! The paper's evaluation is built on *measured* per-entry traversal
//! latencies; flat counters can say how often something happened but not
//! where the time went. [`Histogram`] answers that with a fixed array of
//! power-of-two buckets over picosecond durations: `record` is one
//! count-leading-zeros, one add, and two increments — cheap enough to
//! leave permanently enabled on hot paths.
//!
//! The [`Metrics`] registry mirrors [`crate::stats::Stats`]: a flat,
//! deterministically ordered key space (`"nic0.match.alpu_hit"`) that
//! experiment harnesses read back after a run. It has one way in, as
//! `Stats` does: a component keeps its histograms and counters in its
//! own fields and writes them in
//! [`Component::publish_metrics`](crate::Component::publish_metrics),
//! which runs only when [`Simulation::metrics`](crate::Simulation::metrics)
//! assembles the registry. Unlike `Stats`, the registry is *disabled by
//! default*: a disabled registry refuses all writes behind a single
//! branch, and [`Ctx::metrics_enabled`](crate::Ctx::metrics_enabled)
//! tells a handler whether to keep its samples at all, so runs that
//! never ask for metrics pay nothing and produce byte-identical output.

use crate::time::Time;
use std::collections::BTreeMap;

/// Number of buckets: one for zero plus one per bit of a `u64`, so every
/// representable duration lands in exactly one bucket.
pub const BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram over picosecond durations.
///
/// Bucket 0 holds zero-length samples; bucket `i >= 1` holds samples in
/// `[2^(i-1), 2^i)` picoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ps: u64,
    max_ps: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ps: 0,
            max_ps: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket a duration of `ps` picoseconds falls into.
    #[inline]
    pub fn bucket_index(ps: u64) -> usize {
        (64 - ps.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`, in picoseconds.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one duration sample.
    #[inline]
    pub fn record(&mut self, d: Time) {
        let ps = d.ps();
        self.buckets[Self::bucket_index(ps)] += 1;
        self.count += 1;
        self.sum_ps = self.sum_ps.saturating_add(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in picoseconds (saturating).
    pub fn sum_ps(&self) -> u64 {
        self.sum_ps
    }

    /// Largest recorded sample, in picoseconds.
    pub fn max_ps(&self) -> u64 {
        self.max_ps
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ps as f64 / self.count as f64 / 1e3
        }
    }

    /// Raw bucket counts, index 0 first.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ps = self.sum_ps.saturating_add(other.sum_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Render the non-empty buckets as an ASCII bar chart, one line per
    /// bucket, with picosecond bounds shown in the coarsest exact unit.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "  (no samples)\n".to_string();
        }
        let peak = *self.buckets.iter().max().expect("fixed-size array");
        let mut out = String::new();
        let lo = self.buckets.iter().position(|&c| c > 0).unwrap_or(0);
        let hi = BUCKETS - 1 - self.buckets.iter().rev().position(|&c| c > 0).unwrap_or(0);
        for i in lo..=hi {
            let c = self.buckets[i];
            // `count > 0` above guarantees a non-zero peak.
            let bar_len = (c * 40 / peak.max(1)) as usize;
            out.push_str(&format!(
                "  [{:>10} .. {:<10}) {:>8} {}\n",
                Time::from_ps(Self::bucket_floor(i)).to_string(),
                if i == 0 {
                    Time::from_ps(1).to_string()
                } else {
                    Time::from_ps(Self::bucket_floor(i + 1)).to_string()
                },
                c,
                "#".repeat(bar_len),
            ));
        }
        out.push_str(&format!(
            "  count {} mean {:.1}ns max {}\n",
            self.count,
            self.mean_ns(),
            Time::from_ps(self.max_ps),
        ));
        out
    }
}

/// A registry of named histograms and monotone counters.
///
/// Disabled by default (all writes are one-branch no-ops); enabling it is
/// an explicit experiment-harness decision, keeping unmetered runs
/// byte-identical.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    enabled: bool,
    hists: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, u64>,
}

impl Metrics {
    /// A disabled registry (the default).
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// Turn the registry on; writes are accepted from here on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Add to monotone counter `key`. Adding zero leaves no key, as in
    /// [`Stats`](crate::Stats). No-op while disabled.
    pub fn add(&mut self, key: &str, v: u64) {
        if !self.enabled || v == 0 {
            return;
        }
        if let Some(c) = self.counters.get_mut(key) {
            *c += v;
        } else {
            self.counters.insert(key.to_string(), v);
        }
    }

    /// Replace histogram `key` with a component-maintained one. Skips an
    /// empty histogram. No-op while disabled.
    pub fn publish_hist(&mut self, key: &str, h: &Histogram) {
        if !self.enabled {
            return;
        }
        if h.count() == 0 {
            return;
        }
        self.hists.insert(key.to_string(), h.clone());
    }

    /// Read a histogram.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// Read a counter; absent counters read zero.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Iterate histograms in deterministic (sorted) order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate counters in deterministic (sorted) order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Human-readable dump of every counter and histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.counters.iter() {
            out.push_str(&format!("{k}: {v}\n"));
        }
        for (k, h) in self.hists.iter() {
            out.push_str(&format!("{k}:\n{}", h.render()));
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_bracket_samples() {
        for ps in [0u64, 1, 2, 5, 999, 1_000, 123_456_789, u64::MAX] {
            let i = Histogram::bucket_index(ps);
            assert!(Histogram::bucket_floor(i) <= ps);
            if i + 1 < BUCKETS {
                assert!(ps < Histogram::bucket_floor(i + 1), "ps={ps} i={i}");
            }
        }
    }

    #[test]
    fn record_accumulates() {
        let mut h = Histogram::new();
        h.record(Time::from_ns(1));
        h.record(Time::from_ns(1));
        h.record(Time::from_us(1));
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ps(), 1_002_000); // 1ns + 1ns + 1us
        assert_eq!(h.max_ps(), 1_000_000);
        assert_eq!(h.buckets().iter().sum::<u64>(), 3);
        assert!(h.render().contains("count 3"));
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Time::from_ns(5));
        b.record(Time::from_ns(7));
        b.record(Time::ZERO);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets().iter().sum::<u64>(), 3);
        assert_eq!(a.max_ps(), 7_000);
    }

    #[test]
    fn disabled_registry_refuses_writes() {
        let mut m = Metrics::disabled();
        m.add("c", 3);
        m.publish_hist("h", &{
            let mut h = Histogram::new();
            h.record(Time::NS);
            h
        });
        assert!(m.hist("h").is_none());
        assert_eq!(m.counter("c"), 0);
        assert!(m.render().contains("no metrics"));
    }

    #[test]
    fn enabled_registry_records_and_renders() {
        let mut m = Metrics::disabled();
        m.enable();
        let mut h = Histogram::new();
        h.record(Time::from_ns(10));
        h.record(Time::from_ns(12));
        m.publish_hist("a.lat", &h);
        m.add("a.ops", 2);
        assert_eq!(m.hist("a.lat").unwrap().count(), 2);
        assert_eq!(m.counter("a.ops"), 2);
        let text = m.render();
        assert!(text.contains("a.ops: 2"));
        assert!(text.contains("a.lat:"));
        // Deterministic ordering.
        let keys: Vec<&str> = m.hists().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.lat"]);
    }

    #[test]
    fn empty_publish_is_skipped() {
        let mut m = Metrics::disabled();
        m.enable();
        m.publish_hist("empty", &Histogram::new());
        assert!(m.hist("empty").is_none());
    }
}
