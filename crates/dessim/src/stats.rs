//! A global statistics registry.
//!
//! Experiments read hardware-internal counters (cache misses, FIFO
//! occupancy highwater marks, ALPU match counts) after — or between —
//! simulation phases. Components publish into a flat string-keyed counter
//! space; the convention is dotted paths like `"nic0.l1.miss"`.
//!
//! One way in: a component keeps its counters in its own typed fields
//! and adds them in [`Component::publish`](crate::Component::publish),
//! which runs only when [`Simulation::stats`](crate::Simulation::stats)
//! assembles the registry. So a registry is a read of component state
//! at read time, and no key is formatted on the event path.
//!
//! One rule: the registry holds only non-zero counters. Adding zero
//! leaves no key, so a component publishes every counter it has with
//! no condition, and an absent key reads zero.
//!
//! The registry is a vector of counters sorted by key bytes, the order a
//! `BTreeMap<String, u64>` iterates in. The key bytes live back to back
//! in one string, so thousands of keys cost no allocation each. Writes
//! are logged, one segment per component; one ordering pass
//! (`Stats::fold`) then sorts the log by key and sums each key's
//! writes, so thousands of published keys cost no shifting insert
//! each. Reads binary-search the folded counters.

/// A key: a byte range of [`Stats::keys`].
#[derive(Clone, Copy, Debug)]
struct Key {
    start: u32,
    len: u32,
}

/// Counter registry: `(key, value)` pairs sorted by key, so lookups are a
/// binary search and dumps are deterministically ordered. Writes are
/// logged and take effect in one fold after the last publish, so a
/// registry is read only once [`Simulation::stats`](crate::Simulation::stats)
/// has assembled it.
#[derive(Default, Debug, Clone)]
pub struct Stats {
    /// The bytes of every key in `counters` and `log`.
    keys: String,
    /// Sorted by key bytes; keys are unique.
    counters: Vec<(Key, u64)>,
    /// Additions not yet folded into `counters`, in order.
    log: Vec<(Key, u64)>,
    /// Where each writer's writes start in `log` (see [`Stats::segment`]).
    segments: Vec<usize>,
}

impl Stats {
    /// Empty registry.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Add `v` to counter `key`, creating it if absent. Adding zero
    /// leaves no key.
    pub fn add(&mut self, key: &str, v: u64) {
        if v == 0 {
            return;
        }
        let end = self.keys.len() + key.len();
        assert!(u32::try_from(end).is_ok(), "stats keys exceed 4 GiB");
        let k = Key {
            start: self.keys.len() as u32,
            len: key.len() as u32,
        };
        self.keys.push_str(key);
        self.log.push((k, v));
    }

    /// Read a counter; absent counters read zero.
    pub fn get(&self, key: &str) -> u64 {
        debug_assert!(self.log.is_empty(), "read of an unfolded registry");
        self.slot(key).map_or(0, |i| self.counters[i].1)
    }

    /// Sum all counters whose key starts with `prefix` (e.g. every node's
    /// L1 misses via prefix `"nic"` + suffix filtering by the caller).
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        debug_assert!(self.log.is_empty(), "read of an unfolded registry");
        let start = self.slot(prefix).unwrap_or_else(|i| i);
        self.counters[start..]
            .iter()
            .take_while(|&&(k, _)| self.key(k).starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate `(key, value)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        debug_assert!(self.log.is_empty(), "read of an unfolded registry");
        self.counters.iter().map(|&(k, v)| (self.key(k), v))
    }

    /// Render every counter as a JSON object with deterministically sorted
    /// keys. Two registries with equal contents produce byte-identical
    /// output, which is what determinism checks diff.
    pub fn to_json(&self) -> String {
        // `"key":` plus at most 20 digits and a comma per counter.
        let mut out = String::with_capacity(self.keys.len() + 24 * self.counters.len() + 2);
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            push_decimal(&mut out, v);
        }
        out.push('}');
        out
    }

    /// Start the next writer's segment of the log.
    /// [`Simulation::stats`](crate::Simulation::stats) starts one per
    /// component, so that [`Stats::fold`] can order each component's
    /// few keys apart and then place whole segments.
    pub(crate) fn segment(&mut self) {
        if self.segments.last() != Some(&self.log.len()) {
            self.segments.push(self.log.len());
        }
    }

    /// Apply the logged additions to an empty registry: order them by
    /// key and sum each key's.
    ///
    /// Most segments own their keys (`nic7.*`), so sorting each segment,
    /// then placing segments by their first key, orders the log with few
    /// comparisons. Segments whose key ranges overlap (every fabric port
    /// writes `net.messages`) are merged by one sort of their writes.
    pub(crate) fn fold(&mut self) {
        debug_assert!(self.counters.is_empty(), "fold into a folded registry");
        let (keys, log) = (&self.keys, &mut self.log);
        // Writes made before the first segment form one of their own.
        let mut bounds = vec![0];
        bounds.append(&mut self.segments);
        bounds.push(log.len());
        let mut segments: Vec<std::ops::Range<usize>> = bounds
            .windows(2)
            .map(|w| w[0]..w[1])
            .filter(|r| !r.is_empty())
            .collect();
        for r in &segments {
            log[r.clone()].sort_by(|a, b| text(keys, a.0).cmp(text(keys, b.0)));
        }
        let first = |r: &std::ops::Range<usize>| text(keys, log[r.start].0);
        let last = |r: &std::ops::Range<usize>| text(keys, log[r.end - 1].0);
        segments.sort_by(|a, b| first(a).cmp(first(b)).then(a.start.cmp(&b.start)));
        let mut counters: Vec<(Key, u64)> = Vec::with_capacity(log.len());
        let mut push = |k: Key, v: u64| match counters.last_mut() {
            Some((prev, sum)) if text(keys, *prev) == text(keys, k) => *sum += v,
            _ => counters.push((k, v)),
        };
        let mut i = 0;
        while i < segments.len() {
            // The run of segments whose key ranges overlap segment `i`'s.
            let mut hi = last(&segments[i]);
            let mut j = i + 1;
            while j < segments.len() && first(&segments[j]) <= hi {
                hi = hi.max(last(&segments[j]));
                j += 1;
            }
            if j == i + 1 {
                for &(k, v) in &log[segments[i].clone()] {
                    push(k, v);
                }
            } else {
                let mut merged: Vec<(Key, u64)> = segments[i..j]
                    .iter()
                    .flat_map(|r| log[r.clone()].iter().copied())
                    .collect();
                merged.sort_unstable_by(|a, b| text(keys, a.0).cmp(text(keys, b.0)));
                for (k, v) in merged {
                    push(k, v);
                }
            }
            i = j;
        }
        self.counters = counters;
        self.log.clear();
    }

    /// The text of `k`.
    fn key(&self, k: Key) -> &str {
        text(&self.keys, k)
    }

    /// Index of `key` in `counters`, or where it would be inserted.
    fn slot(&self, key: &str) -> Result<usize, usize> {
        self.counters
            .binary_search_by(|&(k, _)| self.key(k).cmp(key))
    }
}

/// The text of `k` in `keys`.
fn text(keys: &str, k: Key) -> &str {
    &keys[k.start as usize..(k.start + k.len) as usize]
}

/// Append `v` in decimal.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn add_incr_get() {
        let mut s = Stats::new();
        s.add("a.b", 1);
        s.add("a.b", 4);
        s.fold();
        assert_eq!(s.get("a.b"), 5);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn adding_zero_leaves_no_key() {
        let mut s = Stats::new();
        s.add("zero", 0);
        s.add("a", 2);
        s.add("a", 0);
        s.fold();
        assert_eq!(s.to_json(), r#"{"a":2}"#);
        assert_eq!(s.get("zero"), 0);
    }

    #[test]
    fn prefix_sum_and_ordered_iter() {
        let mut s = Stats::new();
        s.add("nic0.l1.miss", 2);
        s.add("nic1.l1.miss", 3);
        s.add("cpu0.l1.miss", 7);
        s.fold();
        assert_eq!(s.sum_prefix("nic"), 5);
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["cpu0.l1.miss", "nic0.l1.miss", "nic1.l1.miss"]);
    }

    #[test]
    fn json_dump_is_sorted_and_stable() {
        let mut s = Stats::new();
        s.add("b", 2);
        s.add("a", 1);
        s.add("max", u64::MAX);
        s.fold();
        assert_eq!(s.to_json(), r#"{"a":1,"b":2,"max":18446744073709551615}"#);
        assert_eq!(Stats::new().to_json(), "{}");
    }

    /// The registry as it was built before the sorted vector: a
    /// `BTreeMap` written in place, rendered with one `format!` per key,
    /// that holds no zero.
    #[derive(Default)]
    struct Reference(BTreeMap<String, u64>);

    impl Reference {
        fn add(&mut self, key: &str, v: u64) {
            if v > 0 {
                *self.0.entry(key.to_string()).or_insert(0) += v;
            }
        }

        fn to_json(&self) -> String {
            let mut out = String::from("{");
            for (i, (k, v)) in self.0.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push('}');
            out
        }
    }

    /// Keys that share prefixes in every way that could break an order
    /// (`nic1.` / `nic10.` / `nic1x`), plus one shared by every component.
    fn key(rng: &mut SimRng) -> String {
        const STEMS: [&str; 6] = ["nic1", "nic10", "nic1x", "nic", "net", "nic2"];
        const LEAVES: [&str; 5] = [".a", ".a.b", ".b", "", ".l1.misses"];
        let stem = STEMS[rng.gen_range(STEMS.len() as u64) as usize];
        let leaf = LEAVES[rng.gen_range(LEAVES.len() as u64) as usize];
        format!("{stem}{leaf}")
    }

    /// One random addition on both registries; one in four adds zero.
    fn write(s: &mut Stats, r: &mut Reference, rng: &mut SimRng) {
        let k = key(rng);
        let v = if rng.gen_bool(0.25) {
            0
        } else {
            rng.gen_range(1_000)
        };
        s.add(&k, v);
        r.add(&k, v);
    }

    /// The publishes of several components, as `Simulation::stats`
    /// makes them: the sorted registry must dump the bytes the
    /// `BTreeMap` reference built in place does.
    #[test]
    fn sorted_registry_matches_btreemap_reference() {
        let mut rng = SimRng::new(27);
        for case in 0..500 {
            let mut s = Stats::new();
            let mut r = Reference::default();
            // Case 0 is the empty registry.
            let components = if case == 0 { 0 } else { rng.gen_range(5) };
            for _ in 0..components {
                s.segment();
                for _ in 0..rng.gen_range(20) {
                    write(&mut s, &mut r, &mut rng);
                }
            }
            s.fold();
            let got: Vec<(&str, u64)> = s.iter().collect();
            let want: Vec<(&str, u64)> = r.0.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(s.to_json(), r.to_json(), "case {case}");
            for k in r.0.keys() {
                assert_eq!(s.get(k), r.0[k], "case {case}: {k}");
            }
        }
    }
}
