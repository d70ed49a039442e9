//! Match entries: the match list the ALPU was built to accelerate.
//!
//! A Portals match entry filters on `(source nid/pid, match bits under
//! ignore bits)`. Incoming operations walk the portal entry's match list
//! in order and take the first match — the same ordered-first-match
//! semantics as MPI's posted-receive queue, which is why one hardware
//! unit serves both (§II).

use crate::md::MdHandle;
use crate::ni::ProcessId;
use mpiq_alpu::match_types::{masked_eq, MaskWord, MatchWord, MATCH_MASK};

/// Handle to a match entry within one NI.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MeHandle(pub u32);

/// Where to insert relative to an existing entry (`PtlMEInsert`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertPos {
    /// Before the reference entry.
    Before,
    /// After the reference entry.
    After,
}

/// Match-entry behavior flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MeOptions {
    /// Unlink after the first successful match (`PTL_UNLINK` /
    /// use-once) — how MPI receives behave.
    pub use_once: bool,
    /// Accept puts.
    pub op_put: bool,
    /// Accept gets.
    pub op_get: bool,
}

impl Default for MeOptions {
    fn default() -> MeOptions {
        MeOptions {
            use_once: true,
            op_put: true,
            op_get: false,
        }
    }
}

/// One match entry.
#[derive(Clone, Debug)]
pub struct MatchEntry {
    /// Source filter: `None` = any initiator (Portals' `PTL_NID_ANY` /
    /// `PTL_PID_ANY`).
    pub source: Option<ProcessId>,
    /// Match bits (42 significant bits, see crate docs).
    pub match_bits: u64,
    /// Ignore bits: set bits are "don't care".
    pub ignore_bits: u64,
    /// Behavior flags.
    pub options: MeOptions,
    /// The MD deposits land in / gets read from.
    pub md: MdHandle,
}

impl MatchEntry {
    /// Does an incoming operation select this entry?
    pub fn matches(&self, initiator: ProcessId, bits: u64, is_get: bool) -> bool {
        if is_get && !self.options.op_get {
            return false;
        }
        if !is_get && !self.options.op_put {
            return false;
        }
        if let Some(src) = self.source {
            if src != initiator {
                return false;
            }
        }
        masked_eq(
            MatchWord(self.match_bits & MATCH_MASK),
            MatchWord(bits & MATCH_MASK),
            MaskWord(self.ignore_bits & MATCH_MASK),
        )
    }
}

/// An ordered match list (one per portal table entry).
#[derive(Clone, Debug, Default)]
pub struct MatchList {
    entries: Vec<(MeHandle, MatchEntry)>,
    next: u32,
}

impl MatchList {
    /// Append at the tail (`PtlMEAttach` semantics for a new list tail).
    pub fn attach(&mut self, me: MatchEntry) -> MeHandle {
        let h = MeHandle(self.next);
        self.next += 1;
        self.entries.push((h, me));
        h
    }

    /// Insert relative to an existing entry (`PtlMEInsert`).
    pub fn insert(
        &mut self,
        reference: MeHandle,
        pos: InsertPos,
        me: MatchEntry,
    ) -> Option<MeHandle> {
        let idx = self.entries.iter().position(|(h, _)| *h == reference)?;
        let h = MeHandle(self.next);
        self.next += 1;
        let at = match pos {
            InsertPos::Before => idx,
            InsertPos::After => idx + 1,
        };
        self.entries.insert(at, (h, me));
        Some(h)
    }

    /// Remove an entry (`PtlMEUnlink`).
    pub fn unlink(&mut self, h: MeHandle) -> Option<MatchEntry> {
        let idx = self.entries.iter().position(|(eh, _)| *eh == h)?;
        Some(self.entries.remove(idx).1)
    }

    /// First matching entry for an incoming operation; walks in list
    /// order (the traversal the ALPU offloads).
    pub fn first_match(&self, initiator: ProcessId, bits: u64, is_get: bool) -> Option<MeHandle> {
        self.entries
            .iter()
            .find(|(_, me)| me.matches(initiator, bits, is_get))
            .map(|(h, _)| *h)
    }

    /// Borrow an entry.
    pub fn get(&self, h: MeHandle) -> Option<&MatchEntry> {
        self.entries.iter().find(|(eh, _)| *eh == h).map(|(_, e)| e)
    }

    /// Entries in list order (for the ALPU-equivalence tests).
    pub fn iter(&self) -> impl Iterator<Item = (MeHandle, &MatchEntry)> {
        self.entries.iter().map(|(h, e)| (*h, e))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(nid: u32) -> ProcessId {
        ProcessId { nid, pid: 0 }
    }

    fn me(source: Option<ProcessId>, bits: u64, ignore: u64) -> MatchEntry {
        MatchEntry {
            source,
            match_bits: bits,
            ignore_bits: ignore,
            options: MeOptions::default(),
            md: MdHandle(0),
        }
    }

    #[test]
    fn ordered_first_match() {
        let mut l = MatchList::default();
        let a = l.attach(me(None, 5, 0));
        let _b = l.attach(me(None, 5, 0));
        assert_eq!(l.first_match(pid(1), 5, false), Some(a));
    }

    #[test]
    fn source_filter() {
        let mut l = MatchList::default();
        let a = l.attach(me(Some(pid(3)), 5, 0));
        assert_eq!(l.first_match(pid(3), 5, false), Some(a));
        assert_eq!(l.first_match(pid(4), 5, false), None);
    }

    #[test]
    fn ignore_bits_are_dont_care() {
        let mut l = MatchList::default();
        let a = l.attach(me(None, 0xF0, 0x0F));
        assert_eq!(l.first_match(pid(0), 0xF7, false), Some(a));
        assert_eq!(l.first_match(pid(0), 0xE0, false), None);
    }

    #[test]
    fn insert_before_preempts() {
        let mut l = MatchList::default();
        let a = l.attach(me(None, 5, 0));
        let b = l.insert(a, InsertPos::Before, me(None, 5, 0)).unwrap();
        assert_eq!(l.first_match(pid(0), 5, false), Some(b));
        let c = l.insert(a, InsertPos::After, me(None, 5, 0)).unwrap();
        l.unlink(b);
        l.unlink(a);
        assert_eq!(l.first_match(pid(0), 5, false), Some(c));
    }

    #[test]
    fn op_gating() {
        let mut l = MatchList::default();
        let getter = l.attach(MatchEntry {
            options: MeOptions {
                op_put: false,
                op_get: true,
                use_once: false,
            },
            ..me(None, 1, 0)
        });
        assert_eq!(l.first_match(pid(0), 1, true), Some(getter));
        assert_eq!(l.first_match(pid(0), 1, false), None);
    }

    #[test]
    fn unlink_unknown_is_none() {
        let mut l = MatchList::default();
        assert!(l.unlink(MeHandle(9)).is_none());
    }
}
