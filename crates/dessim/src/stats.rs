//! A global statistics registry.
//!
//! Experiments read hardware-internal counters (cache misses, FIFO
//! occupancy highwater marks, ALPU match counts) after — or between —
//! simulation phases. Components publish into a flat string-keyed counter
//! space; the convention is dotted paths like `"nic0.l1.miss"`.
//!
//! Two ways in: a handler writes through [`Ctx::stats`](crate::Ctx::stats)
//! as it runs (cheap for a static key), or a component keeps its counters
//! in its own typed record and writes them in
//! [`Component::publish`](crate::Component::publish), which runs only
//! when [`Simulation::stats`](crate::Simulation::stats) assembles the
//! registry. The second keeps key formatting off the event path.

use std::collections::BTreeMap;

/// Counter registry. Uses a `BTreeMap` so that dumps are deterministically
/// ordered.
#[derive(Default, Debug, Clone)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Empty registry.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Add `v` to counter `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(key) {
            *c += v;
        } else {
            self.counters.insert(key.to_string(), v);
        }
    }

    /// Increment by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Overwrite a counter (for gauges like "current occupancy").
    pub fn set(&mut self, key: &str, v: u64) {
        self.counters.insert(key.to_string(), v);
    }

    /// Read a counter; absent counters read zero.
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum all counters whose key starts with `prefix` (e.g. every node's
    /// L1 misses via prefix `"nic"` + suffix filtering by the caller).
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate `(key, value)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Remove every counter (between measurement phases).
    pub fn clear(&mut self) {
        self.counters.clear();
    }

    /// Render every counter as a JSON object with deterministically sorted
    /// keys. Two registries with equal contents produce byte-identical
    /// output, which is what determinism checks diff.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_incr_get() {
        let mut s = Stats::new();
        s.incr("a.b");
        s.add("a.b", 4);
        assert_eq!(s.get("a.b"), 5);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn set_overwrites() {
        let mut s = Stats::new();
        s.set("g", 10);
        s.set("g", 3);
        assert_eq!(s.get("g"), 3);
    }

    #[test]
    fn prefix_sum_and_ordered_iter() {
        let mut s = Stats::new();
        s.add("nic0.l1.miss", 2);
        s.add("nic1.l1.miss", 3);
        s.add("cpu0.l1.miss", 7);
        assert_eq!(s.sum_prefix("nic"), 5);
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["cpu0.l1.miss", "nic0.l1.miss", "nic1.l1.miss"]);
    }

    #[test]
    fn json_dump_is_sorted_and_stable() {
        let mut s = Stats::new();
        s.add("b", 2);
        s.add("a", 1);
        assert_eq!(s.to_json(), r#"{"a":1,"b":2}"#);
        assert_eq!(Stats::new().to_json(), "{}");
    }

    #[test]
    fn clear_resets() {
        let mut s = Stats::new();
        s.incr("x");
        s.clear();
        assert_eq!(s.get("x"), 0);
    }
}
