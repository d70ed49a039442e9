//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement.
//!
//! The model is tag-only: it answers "hit or miss, and did we evict a dirty
//! line" and keeps hit/miss statistics. Latency numbers live in the
//! processor model (`mpiq-cpusim`'s load-to-use) and in
//! [`crate::hierarchy::MemSystem`], which charges DRAM time on misses.

/// Geometry and identity of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set). Use `size/line` for fully associative.
    pub assoc: u64,
    /// Load-to-use latency in core cycles on a hit.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.assoc),
            "cache lines ({lines}) not divisible by associativity ({})",
            self.assoc
        );
        lines / self.assoc
    }

    /// NIC processor L1 from Table III: 32 KB, 64-way, 64 B lines.
    ///
    /// The unusual 64-way associativity is straight from the paper; it makes
    /// the L1 behave nearly fully-associatively so the queue-traversal knee
    /// tracks *capacity*, not conflicts.
    pub fn nic_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            assoc: 64,
            hit_cycles: 2,
        }
    }

    /// Host CPU L1 from Table III: 64 KB, 2-way, 64 B lines.
    pub fn host_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            assoc: 2,
            hit_cycles: 2,
        }
    }

    /// Host CPU L2 from Table III: 512 KB (8-way, 64 B lines assumed).
    pub fn host_l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            assoc: 8,
            hit_cycles: 10,
        }
    }
}

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Base address of a dirty line written back to make room, if any.
    pub writeback: Option<u64>,
}

/// One cache level.
///
/// Line state lives in flat per-way arrays, set `s` owning ways
/// `s * assoc .. (s + 1) * assoc`. A way's stamp is the tick of its last
/// use; stamp 0 marks an invalid way, so the smallest stamp in a set is
/// an invalid way if there is one and the true-LRU line otherwise.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    num_sets: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        let num_sets = cfg.sets();
        let ways = (num_sets * cfg.assoc) as usize;
        Cache {
            cfg,
            num_sets,
            tags: vec![0; ways],
            stamps: vec![0; ways],
            dirty: vec![false; ways],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The way range of `addr`'s set, and its tag.
    #[inline]
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr / self.cfg.line_bytes;
        let set = line % self.num_sets;
        let first = (set * self.cfg.assoc) as usize;
        (first..first + self.cfg.assoc as usize, line / self.num_sets)
    }

    /// Access one address. Write accesses mark the line dirty
    /// (write-allocate: a write miss fetches the line first).
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let (ways, tag) = self.locate(addr);
        // One pass: look for the tag and track the victim — the first
        // way with the smallest stamp.
        let mut victim = ways.start;
        for w in ways {
            let stamp = self.stamps[w];
            if stamp != 0 && self.tags[w] == tag {
                self.stamps[w] = self.tick;
                self.dirty[w] |= is_write;
                self.hits += 1;
                return CacheOutcome {
                    hit: true,
                    writeback: None,
                };
            }
            if stamp < self.stamps[victim] {
                victim = w;
            }
        }

        self.misses += 1;
        let writeback = if self.stamps[victim] != 0 && self.dirty[victim] {
            self.writebacks += 1;
            // Reconstruct the victim's base address from tag + set index.
            let set = victim as u64 / self.cfg.assoc;
            Some((self.tags[victim] * self.num_sets + set) * self.cfg.line_bytes)
        } else {
            None
        };
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        self.dirty[victim] = is_write;
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probe without touching replacement state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (ways, tag) = self.locate(addr);
        ways.into_iter()
            .any(|w| self.stamps[w] != 0 && self.tags[w] == tag)
    }

    /// Invalidate everything (e.g. between measurement phases, or on RESET).
    pub fn flush(&mut self) {
        self.stamps.fill(0);
        self.dirty.fill(false);
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Reset statistics but keep cache contents (warm-cache measurement).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            assoc: 2,
            hit_cycles: 1,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().config().sets(), 4);
        assert_eq!(CacheConfig::nic_l1().sets(), 8);
        assert_eq!(CacheConfig::host_l1().sets(), 512);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x4F, false).hit, "same line, different offset");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with addr % (4*16) == 0: 0x000, 0x040, 0x080...
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // touch 0x000 so 0x040 is LRU
        c.access(0x080, false); // evicts 0x040
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x040, false);
        let out = c.access(0x080, false); // evicts dirty 0x000
        assert_eq!(out.writeback, Some(0x000));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x040, false);
        let out = c.access(0x080, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, true); // now dirty via write hit
        c.access(0x040, false);
        let out = c.access(0x080, false);
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        let mut c = Cache::new(CacheConfig::nic_l1());
        let lines = 32 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64, false);
        }
        c.reset_stats();
        for _ in 0..3 {
            for i in 0..lines {
                assert!(c.access(i * 64, false).hit);
            }
        }
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru_streaming() {
        // Classic LRU pathology: streaming over capacity+1 lines in a
        // fully-associative LRU cache misses every time.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            assoc: 16, // fully associative: 16 lines, 1 set
            hit_cycles: 1,
        });
        let lines = 17;
        for round in 0..4 {
            for i in 0..lines {
                let out = c.access(i * 64, false);
                if round > 0 {
                    assert!(!out.hit, "streaming over capacity must thrash LRU");
                }
            }
        }
    }

    /// The nested-vector true-LRU cache this module used to be, kept as
    /// the reference the flat layout must agree with access for access.
    mod reference {
        use super::super::{CacheConfig, CacheOutcome};

        #[derive(Clone, Copy, Default)]
        struct Line {
            tag: u64,
            valid: bool,
            dirty: bool,
            stamp: u64,
        }

        pub struct LruCache {
            cfg: CacheConfig,
            sets: Vec<Vec<Line>>,
            tick: u64,
        }

        impl LruCache {
            pub fn new(cfg: CacheConfig) -> LruCache {
                LruCache {
                    cfg,
                    sets: vec![vec![Line::default(); cfg.assoc as usize]; cfg.sets() as usize],
                    tick: 0,
                }
            }

            fn index(&self, addr: u64) -> (usize, u64) {
                let line = addr / self.cfg.line_bytes;
                let n = self.sets.len() as u64;
                ((line % n) as usize, line / n)
            }

            pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
                self.tick += 1;
                let (set_idx, tag) = self.index(addr);
                let num_sets = self.sets.len() as u64;
                let set = &mut self.sets[set_idx];
                if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                    line.stamp = self.tick;
                    line.dirty |= is_write;
                    return CacheOutcome {
                        hit: true,
                        writeback: None,
                    };
                }
                let victim = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| (l.valid, l.stamp))
                    .map(|(i, _)| i)
                    .expect("associativity >= 1");
                let old = set[victim];
                let writeback = (old.valid && old.dirty)
                    .then(|| (old.tag * num_sets + set_idx as u64) * self.cfg.line_bytes);
                set[victim] = Line {
                    tag,
                    valid: true,
                    dirty: is_write,
                    stamp: self.tick,
                };
                CacheOutcome {
                    hit: false,
                    writeback,
                }
            }

            pub fn contains(&self, addr: u64) -> bool {
                let (set_idx, tag) = self.index(addr);
                self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
            }

            pub fn flush(&mut self) {
                for set in &mut self.sets {
                    set.fill(Line::default());
                }
            }
        }
    }

    /// Drive the flat cache and the reference with the same seeded
    /// stream — random reads and writes over twice the capacity, a probe
    /// per access, and an occasional flush — and require identical
    /// outcomes throughout.
    fn agrees_with_reference(cfg: CacheConfig, accesses: u64, seed: u64) {
        let mut flat = Cache::new(cfg);
        let mut lru = reference::LruCache::new(cfg);
        let mut x = seed;
        let mut next = move || {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let span = 2 * cfg.size_bytes;
        let (mut hits, mut writebacks) = (0u64, 0u64);
        for i in 0..accesses {
            let r = next();
            let addr = r % span;
            let is_write = (r >> 40) % 10 < 3;
            let got = flat.access(addr, is_write);
            assert_eq!(got, lru.access(addr, is_write), "access {i} to {addr:#x}");
            hits += got.hit as u64;
            writebacks += got.writeback.is_some() as u64;
            let probe = next() % span;
            assert_eq!(
                flat.contains(probe),
                lru.contains(probe),
                "probe {i} of {probe:#x}"
            );
            if next() % 50_000 == 0 {
                flat.flush();
                lru.flush();
            }
        }
        assert_eq!(flat.hits(), hits);
        assert_eq!(flat.misses(), accesses - hits);
        assert_eq!(flat.writebacks(), writebacks);
        // The stream must exercise both outcomes and dirty evictions.
        assert!(
            hits > accesses / 10 && hits < accesses * 9 / 10,
            "{hits} hits"
        );
        assert!(writebacks > 0);
    }

    #[test]
    fn flat_layout_matches_reference_on_nic_l1() {
        // 64 ways make every access a long scan in both models; a quarter
        // of the stream keeps the test about a second in a debug build.
        agrees_with_reference(CacheConfig::nic_l1(), 1 << 18, 1);
    }

    #[test]
    fn flat_layout_matches_reference_on_host_l1() {
        agrees_with_reference(CacheConfig::host_l1(), 1 << 20, 2);
    }

    #[test]
    fn flat_layout_matches_reference_on_host_l2() {
        agrees_with_reference(CacheConfig::host_l2(), 1 << 19, 3);
    }

    #[test]
    fn flat_layout_matches_reference_on_tiny_geometry() {
        agrees_with_reference(tiny().config(), 1 << 20, 4);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x0, true);
        c.flush();
        assert!(!c.contains(0x0));
        assert!(!c.access(0x0, false).hit);
        // Flushed dirty lines do not write back on next eviction.
        assert_eq!(c.writebacks(), 0);
    }
}
