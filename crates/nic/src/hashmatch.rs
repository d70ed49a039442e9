//! Hash-binned posted-receive matching — the software alternative the
//! paper discusses and rejects (§II).
//!
//! "Hash tables can significantly reduce the time needed to find a
//! matching entry, but can also significantly increase the time needed to
//! insert an entry into the list. [...] Hashing is also complicated by the
//! need to support wildcard matching and maintain ordering semantics."
//!
//! This module makes that trade-off measurable. Exact receives (no
//! wildcards) hash by the full {context, source, tag} triplet into bins;
//! wildcard receives cannot be hashed (the implementation has no *a
//! priori* knowledge of which fields senders will match) and live in a
//! side list that every probe must also walk. MPI ordering is preserved
//! by stamping every posted receive with a monotone sequence number and
//! taking the *earliest-posted* match across both structures.
//!
//! The costs the paper calls out appear explicitly:
//!
//! * **insertion** pays hashing plus maintenance of a second structure on
//!   every post — the `insert_visited` addresses the firmware turns into
//!   stores, plus extra integer work;
//! * **wildcard receives degrade lookup back toward a linear scan**: every
//!   probe walks the full wildcard list in addition to its bin;
//! * **removal** (every successful match!) pays a bin scan to unlink.

use crate::queues::Key;
use mpiq_alpu::match_types::{masked_eq, MaskWord, MatchWord};

/// One indexed posted receive.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Posting order stamp (global across bins and wildcard list).
    seq: u64,
    /// Queue key of the entry.
    key: Key,
    /// NIC-memory address of the entry (for traversal load traces).
    addr: u64,
    /// Stored match bits.
    word: MatchWord,
    /// Stored wildcard mask (exact entries have `MaskWord::EXACT`).
    mask: MaskWord,
}

/// Outcome of a probe: the winning entry and the memory the walk touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashProbe {
    /// Earliest-posted matching entry, if any.
    pub hit: Option<Key>,
    /// Addresses inspected, in walk order (bin first, then wildcards up
    /// to the point the search could stop).
    pub visited: Vec<u64>,
}

/// The hash index over the posted receive queue.
#[derive(Clone, Debug)]
pub struct PostedIndex {
    bins: Vec<Vec<Slot>>,
    wildcards: Vec<Slot>,
    next_seq: u64,
}

impl PostedIndex {
    /// An empty index with `bins` buckets (power of two recommended).
    pub fn new(bins: usize) -> PostedIndex {
        assert!(bins > 0, "hash index needs at least one bin");
        PostedIndex {
            bins: vec![Vec::new(); bins],
            wildcards: Vec::new(),
            next_seq: 0,
        }
    }

    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.bins.iter().map(Vec::len).sum::<usize>() + self.wildcards.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries on the wildcard side list.
    pub fn wildcard_len(&self) -> usize {
        self.wildcards.len()
    }

    /// The bucket a word hashes to — exposed so the firmware can charge
    /// bin-header memory traffic against a stable address.
    pub fn bin_index(&self, word: MatchWord) -> usize {
        self.bin_of(word)
    }

    #[inline]
    fn bin_of(&self, word: MatchWord) -> usize {
        // Fibonacci hashing over the 42 match bits.
        let h = word.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - self.bins.len().trailing_zeros().max(1))) as usize % self.bins.len()
    }

    /// Index a newly posted receive. Returns the sequence stamp assigned.
    pub fn insert(&mut self, key: Key, addr: u64, word: MatchWord, mask: MaskWord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = Slot {
            seq,
            key,
            addr,
            word,
            mask,
        };
        if mask == MaskWord::EXACT {
            let b = self.bin_of(word);
            self.bins[b].push(slot);
        } else {
            self.wildcards.push(slot);
        }
        seq
    }

    /// Probe with an explicit incoming header. The correct match is the
    /// earliest-posted entry that matches — *not* the most specific one
    /// (the ordering-beats-specificity rule of §II).
    pub fn probe(&self, word: MatchWord) -> HashProbe {
        let mut visited = Vec::new();
        // Bin walk: entries are in posting order, so the first match is
        // the earliest exact match.
        let bin = &self.bins[self.bin_of(word)];
        let mut best: Option<(u64, Key)> = None;
        for s in bin {
            visited.push(s.addr);
            if masked_eq(s.word, word, s.mask) {
                best = Some((s.seq, s.key));
                break;
            }
        }
        // Wildcard walk: must continue only until an entry older than the
        // current best could still exist; entries are in posting order, so
        // we can stop at the first wildcard match or once seq exceeds the
        // best exact match.
        for s in &self.wildcards {
            if let Some((seq, _)) = best {
                if s.seq > seq {
                    break;
                }
            }
            visited.push(s.addr);
            if masked_eq(s.word, word, s.mask) {
                best = Some((s.seq, s.key));
                break;
            }
        }
        HashProbe {
            hit: best.map(|(_, k)| k),
            visited,
        }
    }

    /// Unlink a matched entry; returns the addresses touched while
    /// scanning its bin (the removal cost the paper charges against
    /// hashing).
    pub fn remove(&mut self, key: Key) -> Vec<u64> {
        let mut visited = Vec::new();
        for bin in &mut self.bins {
            for (i, s) in bin.iter().enumerate() {
                visited.push(s.addr);
                if s.key == key {
                    bin.remove(i);
                    return visited;
                }
            }
            visited.clear();
        }
        for (i, s) in self.wildcards.iter().enumerate() {
            visited.push(s.addr);
            if s.key == key {
                self.wildcards.remove(i);
                return visited;
            }
        }
        panic!("hash index: removing unknown key {key}");
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        for b in &mut self.bins {
            b.clear();
        }
        self.wildcards.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiq_alpu::match_types::MaskWord;

    fn word(ctx: u16, src: u16, tag: u16) -> MatchWord {
        MatchWord::mpi(ctx, src, tag)
    }

    #[test]
    fn exact_entries_hash_and_match() {
        let mut ix = PostedIndex::new(16);
        ix.insert(1, 0x100, word(1, 2, 3), MaskWord::EXACT);
        ix.insert(2, 0x200, word(1, 2, 4), MaskWord::EXACT);
        let p = ix.probe(word(1, 2, 4));
        assert_eq!(p.hit, Some(2));
        let p = ix.probe(word(1, 2, 9));
        assert_eq!(p.hit, None);
    }

    #[test]
    fn wildcards_go_to_side_list() {
        let mut ix = PostedIndex::new(16);
        ix.insert(1, 0x100, word(1, 0, 3), MaskWord::ANY_SOURCE);
        assert_eq!(ix.wildcard_len(), 1);
        assert_eq!(ix.probe(word(1, 77, 3)).hit, Some(1));
    }

    #[test]
    fn ordering_beats_specificity() {
        // Older ANY_SOURCE receive must beat a newer exact match — the
        // exact rule that breaks naive hash-first designs (§II).
        let mut ix = PostedIndex::new(16);
        ix.insert(10, 0x100, word(1, 0, 3), MaskWord::ANY_SOURCE); // older
        ix.insert(20, 0x200, word(1, 5, 3), MaskWord::EXACT); // newer
        assert_eq!(ix.probe(word(1, 5, 3)).hit, Some(10));
    }

    #[test]
    fn specificity_wins_when_older() {
        let mut ix = PostedIndex::new(16);
        ix.insert(20, 0x200, word(1, 5, 3), MaskWord::EXACT); // older
        ix.insert(10, 0x100, word(1, 0, 3), MaskWord::ANY_SOURCE); // newer
        assert_eq!(ix.probe(word(1, 5, 3)).hit, Some(20));
    }

    #[test]
    fn bin_walk_is_short_but_wildcards_scan() {
        let mut ix = PostedIndex::new(64);
        for i in 0..64u32 {
            ix.insert(
                i,
                0x1000 + i as u64 * 64,
                word(1, 9, 100 + i as u16),
                MaskWord::EXACT,
            );
        }
        for i in 0..32u32 {
            ix.insert(
                1000 + i,
                0x9000 + i as u64 * 64,
                word(2, 0, i as u16),
                MaskWord::ANY_SOURCE,
            );
        }
        // A probe that misses everything walks its (short) bin plus the
        // whole wildcard list.
        let p = ix.probe(word(1, 9, 999));
        assert!(p.visited.len() >= 32, "wildcards must be scanned");
        assert!(
            p.visited.len() < 64,
            "bin walk must not degenerate to a full scan ({} visited)",
            p.visited.len()
        );
    }

    #[test]
    fn wildcard_walk_stops_at_older_exact_match() {
        let mut ix = PostedIndex::new(16);
        ix.insert(1, 0x100, word(1, 5, 3), MaskWord::EXACT); // seq 0
        for i in 0..10u32 {
            ix.insert(
                100 + i,
                0x9000 + i as u64 * 64,
                word(2, 0, i as u16),
                MaskWord::ANY_SOURCE,
            );
        }
        let p = ix.probe(word(1, 5, 3));
        assert_eq!(p.hit, Some(1));
        // Only the bin entry; every wildcard is newer than the exact hit.
        assert_eq!(p.visited.len(), 1);
    }

    #[test]
    fn remove_unlinks() {
        let mut ix = PostedIndex::new(8);
        ix.insert(1, 0x100, word(1, 2, 3), MaskWord::EXACT);
        ix.insert(2, 0x200, word(1, 2, 3), MaskWord::EXACT);
        assert_eq!(ix.probe(word(1, 2, 3)).hit, Some(1));
        ix.remove(1);
        assert_eq!(ix.probe(word(1, 2, 3)).hit, Some(2));
        ix.remove(2);
        assert!(ix.is_empty());
    }

    #[test]
    fn first_match_in_bin_wins_among_duplicates() {
        let mut ix = PostedIndex::new(8);
        ix.insert(1, 0x100, word(1, 2, 3), MaskWord::EXACT);
        ix.insert(2, 0x200, word(1, 2, 3), MaskWord::EXACT);
        ix.insert(3, 0x300, word(1, 2, 3), MaskWord::EXACT);
        assert_eq!(ix.probe(word(1, 2, 3)).hit, Some(1));
    }

    #[test]
    fn clear_empties_everything() {
        let mut ix = PostedIndex::new(8);
        ix.insert(1, 0x100, word(1, 2, 3), MaskWord::EXACT);
        ix.insert(2, 0x200, word(1, 0, 3), MaskWord::ANY_SOURCE);
        ix.clear();
        assert!(ix.is_empty());
        assert_eq!(ix.probe(word(1, 2, 3)).hit, None);
    }
}
