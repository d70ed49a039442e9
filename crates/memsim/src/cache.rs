//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement, at O(1) work per access.
//!
//! The model is tag-only: it answers "hit or miss, and did we evict a dirty
//! line" and keeps hit/miss statistics. Latency numbers live in the
//! processor model (`mpiq-cpusim`'s load-to-use) and in
//! [`crate::hierarchy::MemSystem`], which charges DRAM time on misses.
//!
//! Hardware compares a set's tags in parallel; a scan over 64 ways per
//! load was the simulator's single largest cost. [`Cache`] instead finds
//! a resident line through an open-addressed index and keeps each set's
//! ways on a recency list, so a hit, a miss and an eviction each take a
//! few probes whatever the associativity. Its outcomes are those of the
//! textbook stamp scan access for access (the unit tests keep that scan
//! as their reference).

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

/// Fibonacci hashing multiplier (2^64 / golden ratio).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// One cache level.
///
/// Every geometry is a power of two, so the set of a line number is its
/// low bits and set `s` owns ways `s << way_shift ..` of the per-way
/// arrays. Three structures replace a scan of the set:
///
/// - `index`, open-addressed with linear probing, maps a resident line
///   number to its way: a slot holds the way plus one (0 is empty), and
///   a probe confirms a slot against the way's stored line. It has at
///   least twice as many slots as ways and deletes by backward shift, so
///   it needs no tombstones.
/// - `older`/`newer` link each set's valid ways into a circular recency
///   list by way number within the set; `mru[s]` is its head, and the
///   LRU way is the head's `newer` neighbour. Evicting the LRU line and
///   making the refill most recent is one rotation of the head.
/// - `filled[s]` counts the valid ways of set `s`. Ways fill in way
///   order after a [`flush`](Cache::flush), so ways `filled[s]..` are the
///   invalid ones and a miss picks the first of them before any LRU
///   line, as the stamp-scan reference does.
///
/// For the NIC L1 (512 lines) that is 4 KiB of line numbers, 2 KiB of
/// index, 1 KiB of links and 0.5 KiB of dirty flags.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    way_shift: u32,
    /// `64 - log2(index.len())`: the index slot a line hashes to is the
    /// top bits of its Fibonacci product.
    index_shift: u32,
    lines: Vec<u64>,
    dirty: Vec<bool>,
    older: Vec<u8>,
    newer: Vec<u8>,
    mru: Vec<u8>,
    filled: Vec<u16>,
    index: Vec<u16>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    ///
    /// Panics unless the line size, associativity and set count are
    /// powers of two, a set has at most 256 ways and the cache fewer
    /// than 65,535 lines (every shipped geometry qualifies).
    pub fn new(cfg: CacheConfig) -> Cache {
        let num_sets = cfg.sets();
        for (what, n) in [
            ("line size", cfg.line_bytes),
            ("associativity", cfg.assoc),
            ("set count", num_sets),
        ] {
            assert!(
                n.is_power_of_two(),
                "cache {what} {n} is not a power of two"
            );
        }
        assert!(
            cfg.assoc <= 256,
            "recency links hold at most 256 ways per set"
        );
        let ways = (num_sets * cfg.assoc) as usize;
        assert!(
            ways < u16::MAX as usize,
            "index slots hold fewer than 65,535 ways"
        );
        let slots = (2 * ways).next_power_of_two();
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            way_shift: cfg.assoc.trailing_zeros(),
            index_shift: 64 - slots.trailing_zeros(),
            lines: vec![0; ways],
            dirty: vec![false; ways],
            older: vec![0; ways],
            newer: vec![0; ways],
            mru: vec![0; num_sets as usize],
            filled: vec![0; num_sets as usize],
            index: vec![0; slots],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The index slot `line`'s probe starts at.
    #[inline]
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(FIB) >> self.index_shift) as usize
    }

    /// Probe the index for `line`: `Ok(way)` if it is resident, otherwise
    /// `Err(slot)`, the empty slot that ended the probe.
    #[inline]
    fn find(&self, line: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(line);
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                s if self.lines[s as usize - 1] == line => return Ok(s as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Remove `way`'s line from the index, shifting later entries of its
    /// probe run back so that no lookup stops early.
    fn unindex(&mut self, way: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.lines[way]);
        while self.index[hole] as usize != way + 1 {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.index[j];
            if s == 0 {
                break;
            }
            // The entry at `j` may fill the hole unless its home lies
            // after the hole on the way to `j`.
            let home = self.home(self.lines[s as usize - 1]);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.index[hole] = s;
                hole = j;
            }
        }
        self.index[hole] = 0;
    }

    /// Make way `w` of `set` (a way number within the set, not yet on
    /// the set's recency list) its most recently used.
    #[inline]
    fn push_mru(&mut self, set: usize, w: u8) {
        let base = set << self.way_shift;
        let head = self.mru[set];
        let tail = self.newer[base + head as usize];
        self.older[base + w as usize] = head;
        self.newer[base + w as usize] = tail;
        self.newer[base + head as usize] = w;
        self.older[base + tail as usize] = w;
        self.mru[set] = w;
    }

    /// Move way `w` of `set`, already on its recency list, to the head.
    #[inline]
    fn touch(&mut self, set: usize, w: u8) {
        let base = set << self.way_shift;
        let head = self.mru[set];
        if w == head {
            return;
        }
        if w == self.newer[base + head as usize] {
            // The LRU way: rotating the head onto it keeps every link.
            self.mru[set] = w;
            return;
        }
        let (o, n) = (self.older[base + w as usize], self.newer[base + w as usize]);
        self.newer[base + o as usize] = n;
        self.older[base + n as usize] = o;
        self.push_mru(set, w);
    }

    /// Access one address. Write accesses mark the line dirty
    /// (write-allocate: a write miss fetches the line first).
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set << self.way_shift;
        if let Ok(way) = self.find(line) {
            self.touch(set, (way - base) as u8);
            self.dirty[way] |= is_write;
            self.hits += 1;
            return CacheOutcome {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let filled = self.filled[set];
        let mut writeback = None;
        let way = if u64::from(filled) < self.cfg.assoc {
            // An invalid way is left: take the first.
            let w = filled as u8;
            if filled == 0 {
                self.older[base] = 0;
                self.newer[base] = 0;
                self.mru[set] = 0;
            } else {
                self.push_mru(set, w);
            }
            self.filled[set] = filled + 1;
            base + w as usize
        } else {
            let w = self.newer[base + self.mru[set] as usize];
            self.mru[set] = w;
            let way = base + w as usize;
            if self.dirty[way] {
                self.writebacks += 1;
                writeback = Some(self.lines[way] << self.line_shift);
            }
            self.unindex(way);
            way
        };
        self.lines[way] = line;
        self.dirty[way] = is_write;
        let slot = self.find(line).expect_err("a missed line is not indexed");
        self.index[slot] = way as u16 + 1;
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probe without touching replacement state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr >> self.line_shift).is_ok()
    }

    /// Invalidate everything (e.g. between measurement phases, or on RESET).
    pub fn flush(&mut self) {
        // A way's line and dirty flag are rewritten when it refills.
        self.filled.fill(0);
        self.index.fill(0);
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

    /// True LRU by stamp scan: every way records the tick of its last
    /// use, and a miss evicts the first invalid way, else the smallest
    /// stamp. This is the model the cache used to be, kept as the
    /// reference the indexed cache must agree with access for access.
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

    /// Drive the cache and the reference with the same seeded
    /// stream — random reads and writes over twice the capacity, a probe
    /// per access, and an occasional flush — and require identical
    /// outcomes throughout.
    fn agrees_with_reference(cfg: CacheConfig, accesses: u64, seed: u64) {
        agrees_with_reference_flushing(cfg, accesses, seed, 50_000);
    }

    /// [`agrees_with_reference`] with a flush on average every
    /// `flush_every` accesses.
    fn agrees_with_reference_flushing(
        cfg: CacheConfig,
        accesses: u64,
        seed: u64,
        flush_every: u64,
    ) {
        let mut cache = Cache::new(cfg);
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
            let got = cache.access(addr, is_write);
            assert_eq!(got, lru.access(addr, is_write), "access {i} to {addr:#x}");
            hits += got.hit as u64;
            writebacks += got.writeback.is_some() as u64;
            let probe = next() % span;
            assert_eq!(
                cache.contains(probe),
                lru.contains(probe),
                "probe {i} of {probe:#x}"
            );
            if next() % flush_every == 0 {
                cache.flush();
                lru.flush();
            }
        }
        assert_eq!(cache.hits(), hits);
        assert_eq!(cache.misses(), accesses - hits);
        assert_eq!(cache.writebacks(), writebacks);
        // The stream must exercise both outcomes and dirty evictions.
        assert!(
            hits > accesses / 10 && hits < accesses * 9 / 10,
            "{hits} hits"
        );
        assert!(writebacks > 0);
    }

    #[test]
    fn flat_layout_matches_reference_on_nic_l1() {
        // 64 ways make every access a long scan in the reference; a
        // quarter of the stream keeps the test short in a debug build.
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
    fn flat_layout_matches_reference_direct_mapped() {
        // One way per set: the victim is always the resident line.
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 1,
            hit_cycles: 1,
        };
        agrees_with_reference(cfg, 1 << 18, 5);
    }

    #[test]
    fn flat_layout_matches_reference_one_set_fully_associative() {
        let cfg = CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            assoc: 64,
            hit_cycles: 1,
        };
        assert_eq!(cfg.sets(), 1);
        agrees_with_reference(cfg, 1 << 18, 6);
    }

    #[test]
    fn flat_layout_matches_reference_flushing_partly_filled_sets() {
        // A flush every ~100 accesses on 8 sets of 16 ways leaves most
        // sets partly filled when it lands, so refills mix invalid ways
        // with valid ones.
        let cfg = CacheConfig {
            size_bytes: 8192,
            line_bytes: 64,
            assoc: 16,
            hit_cycles: 1,
        };
        agrees_with_reference_flushing(cfg, 1 << 18, 7, 100);
    }

    #[test]
    fn flush_of_a_partly_filled_set_refills_invalid_ways_first() {
        // One set of four ways, three of them filled (one dirty) when
        // the flush lands.
        let cfg = CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            assoc: 4,
            hit_cycles: 1,
        };
        let mut c = Cache::new(cfg);
        let mut r = reference::LruCache::new(cfg);
        // `u64::MAX` marks the flush.
        let stream: [(u64, bool); 11] = [
            (0x000, true),
            (0x040, false),
            (0x080, false),
            (0x040, false),
            (u64::MAX, false),
            (0x100, false),
            (0x140, true),
            (0x000, false),
            (0x180, false),
            // The set is full again: each miss now evicts the LRU line,
            // 0x100 and then the dirty 0x140.
            (0x1C0, false),
            (0x200, false),
        ];
        for (i, &(addr, is_write)) in stream.iter().enumerate() {
            if addr == u64::MAX {
                c.flush();
                r.flush();
                continue;
            }
            assert_eq!(
                c.access(addr, is_write),
                r.access(addr, is_write),
                "access {i} to {addr:#x}"
            );
            for probe in (0..0x300).step_by(0x40) {
                assert_eq!(
                    c.contains(probe),
                    r.contains(probe),
                    "after {i}: probe {probe:#x}"
                );
            }
        }
        assert!(!c.contains(0x100) && !c.contains(0x140));
        assert_eq!(
            c.writebacks(),
            1,
            "the flushed dirty 0x000 is not written back"
        );
    }

    #[test]
    #[should_panic(expected = "associativity 3 is not a power of two")]
    fn non_power_of_two_geometry_is_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 192,
            line_bytes: 64,
            assoc: 3,
            hit_cycles: 1,
        });
    }

    #[test]
    fn nic_l1_footprint_stays_within_the_stamp_layout() {
        // The stamp scan kept an 8 B tag, an 8 B stamp and a dirty flag
        // per way; a simulation holds one NIC L1 per node.
        let c = Cache::new(CacheConfig::nic_l1());
        let bytes = 8 * c.lines.len()
            + c.dirty.len()
            + c.older.len()
            + c.newer.len()
            + c.mru.len()
            + 2 * c.filled.len()
            + 2 * c.index.len();
        assert!(bytes <= 512 * 17, "{bytes} B");
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
