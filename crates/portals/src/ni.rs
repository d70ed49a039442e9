//! The network interface object and an in-process transport.

use crate::events::{Event, EventKind, EventQueue};
use crate::md::{Md, MdHandle, MdOptions};
use crate::me::{InsertPos, MatchEntry, MatchList, MeHandle};
use bytes::Bytes;
use std::collections::HashMap;

/// A Portals process address: node id + process id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcessId {
    /// Node.
    pub nid: u32,
    /// Process on the node.
    pub pid: u32,
}

/// Index into the portal table.
pub type PortalIndex = usize;

/// Number of portal table entries per NI (Portals implementations expose
/// a small fixed table; 8 suffices for MPI + runtime + I/O).
pub const PORTAL_TABLE_SIZE: usize = 8;

/// One process's network interface state.
pub struct Ni {
    /// Who we are.
    pub id: ProcessId,
    table: Vec<MatchList>,
    mds: HashMap<MdHandle, Md>,
    next_md: u32,
    /// Completion events.
    pub eq: EventQueue,
    dropped: u64,
}

impl Ni {
    /// A fresh NI for `id`.
    pub fn new(id: ProcessId) -> Ni {
        Ni {
            id,
            table: (0..PORTAL_TABLE_SIZE)
                .map(|_| MatchList::default())
                .collect(),
            mds: HashMap::new(),
            next_md: 0,
            eq: EventQueue::new(1024),
            dropped: 0,
        }
    }

    /// Register a memory region (`PtlMDBind`).
    pub fn md_bind(&mut self, len: usize, options: MdOptions) -> MdHandle {
        let h = MdHandle(self.next_md);
        self.next_md += 1;
        self.mds.insert(h, Md::new(len, options));
        h
    }

    /// Borrow an MD's bytes (verification).
    pub fn md_bytes(&self, h: MdHandle) -> Option<&[u8]> {
        self.mds.get(&h).map(|m| m.buf.as_slice())
    }

    /// Attach a match entry at the tail of a portal entry's list
    /// (`PtlMEAttach`).
    pub fn me_attach(&mut self, pt: PortalIndex, me: MatchEntry) -> MeHandle {
        self.table[pt].attach(me)
    }

    /// Insert a match entry relative to another (`PtlMEInsert`).
    pub fn me_insert(
        &mut self,
        pt: PortalIndex,
        reference: MeHandle,
        pos: InsertPos,
        me: MatchEntry,
    ) -> Option<MeHandle> {
        self.table[pt].insert(reference, pos, me)
    }

    /// Remove a match entry (`PtlMEUnlink`).
    pub fn me_unlink(&mut self, pt: PortalIndex, h: MeHandle) -> bool {
        self.table[pt].unlink(h).is_some()
    }

    /// The live match list at a portal index (diagnostics / equivalence
    /// testing).
    pub fn match_list(&self, pt: PortalIndex) -> &MatchList {
        &self.table[pt]
    }

    /// Operations that matched nothing.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Target-side handling of an incoming put. Returns the ack event the
    /// initiator should receive, if the operation matched.
    fn handle_put(
        &mut self,
        initiator: ProcessId,
        pt: PortalIndex,
        bits: u64,
        offset: u64,
        data: Bytes,
    ) -> Option<(u64, u64)> {
        let Some(meh) = self.table[pt].first_match(initiator, bits, false) else {
            self.dropped += 1;
            self.eq.post(Event {
                kind: EventKind::Dropped,
                md: None,
                initiator,
                match_bits: bits,
                offset,
                length: data.len() as u64,
            });
            return None;
        };
        let me = self.table[pt].get(meh).expect("just matched").clone();
        let md = self.mds.get_mut(&me.md).expect("ME references a live MD");
        let Some(dep) = md.deposit(&data, offset) else {
            self.dropped += 1;
            return None;
        };
        self.eq.post(Event {
            kind: EventKind::PutEnd,
            md: Some(me.md),
            initiator,
            match_bits: bits,
            offset: dep.offset,
            length: dep.length,
        });
        if me.options.use_once || dep.unlink {
            self.table[pt].unlink(meh);
            self.eq.post(Event {
                kind: EventKind::Unlink,
                md: Some(me.md),
                initiator,
                match_bits: bits,
                offset: dep.offset,
                length: dep.length,
            });
        }
        Some((dep.offset, dep.length))
    }

    /// Target-side handling of an incoming get: read and return the data.
    fn handle_get(
        &mut self,
        initiator: ProcessId,
        pt: PortalIndex,
        bits: u64,
        offset: u64,
        len: u64,
    ) -> Option<Bytes> {
        let meh = self.table[pt]
            .first_match(initiator, bits, true)
            .or_else(|| {
                self.dropped += 1;
                None
            })?;
        let me = self.table[pt].get(meh).expect("just matched").clone();
        let md = self.mds.get_mut(&me.md).expect("live MD");
        let data = md.read(offset, len);
        self.eq.post(Event {
            kind: EventKind::GetEnd,
            md: Some(me.md),
            initiator,
            match_bits: bits,
            offset,
            length: data.len() as u64,
        });
        if me.options.use_once {
            self.table[pt].unlink(meh);
        }
        Some(data)
    }
}

/// An in-process fabric of NIs, keyed by [`ProcessId`]; delivers
/// operations synchronously (semantics only — timing lives in
/// `mpiq-nic`).
#[derive(Default)]
pub struct Network {
    nis: HashMap<ProcessId, Ni>,
}

impl Network {
    /// Empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Create and register an NI.
    pub fn add(&mut self, id: ProcessId) -> ProcessId {
        self.nis.insert(id, Ni::new(id));
        id
    }

    /// Borrow an NI.
    pub fn ni(&self, id: ProcessId) -> &Ni {
        &self.nis[&id]
    }

    /// Mutably borrow an NI.
    pub fn ni_mut(&mut self, id: ProcessId) -> &mut Ni {
        self.nis.get_mut(&id).expect("known NI")
    }

    /// `PtlPut`: move `data` from `from`'s MD-less initiator buffer to
    /// whatever matches at the target. (The initiator-side MD is elided:
    /// callers pass bytes directly, which keeps the API surface focused
    /// on the matching side this repository studies.)
    pub fn put(
        &mut self,
        from: ProcessId,
        target: ProcessId,
        pt: PortalIndex,
        bits: u64,
        offset: u64,
        data: Bytes,
    ) -> bool {
        let len = data.len() as u64;
        let matched = self
            .nis
            .get_mut(&target)
            .expect("known target")
            .handle_put(from, pt, bits, offset, data);
        let initiator = self.nis.get_mut(&from).expect("known initiator");
        initiator.eq.post(Event {
            kind: EventKind::SendEnd,
            md: None,
            initiator: target,
            match_bits: bits,
            offset,
            length: len,
        });
        if let Some((off, n)) = matched {
            initiator.eq.post(Event {
                kind: EventKind::Ack,
                md: None,
                initiator: target,
                match_bits: bits,
                offset: off,
                length: n,
            });
            true
        } else {
            false
        }
    }

    /// `PtlGet`: read from whatever matches at the target.
    pub fn get(
        &mut self,
        from: ProcessId,
        target: ProcessId,
        pt: PortalIndex,
        bits: u64,
        offset: u64,
        len: u64,
    ) -> Option<Bytes> {
        let data = self
            .nis
            .get_mut(&target)
            .expect("known target")
            .handle_get(from, pt, bits, offset, len)?;
        let initiator = self.nis.get_mut(&from).expect("known initiator");
        initiator.eq.post(Event {
            kind: EventKind::ReplyEnd,
            md: None,
            initiator: target,
            match_bits: bits,
            offset,
            length: data.len() as u64,
        });
        Some(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::me::MeOptions;

    fn pid(nid: u32) -> ProcessId {
        ProcessId { nid, pid: 0 }
    }

    fn net2() -> (Network, ProcessId, ProcessId) {
        let mut net = Network::new();
        let a = net.add(pid(0));
        let b = net.add(pid(1));
        (net, a, b)
    }

    #[test]
    fn put_deposits_and_raises_events() {
        let (mut net, a, b) = net2();
        let md = net.ni_mut(b).md_bind(16, MdOptions::default());
        net.ni_mut(b).me_attach(
            0,
            MatchEntry {
                source: None,
                match_bits: 7,
                ignore_bits: 0,
                options: MeOptions::default(),
                md,
            },
        );
        assert!(net.put(a, b, 0, 7, 0, Bytes::from_static(b"hello")));
        assert_eq!(&net.ni(b).md_bytes(md).unwrap()[..5], b"hello");
        let kinds: Vec<EventKind> = std::iter::from_fn(|| net.ni_mut(b).eq.poll())
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, vec![EventKind::PutEnd, EventKind::Unlink]);
        let ikinds: Vec<EventKind> = std::iter::from_fn(|| net.ni_mut(a).eq.poll())
            .map(|e| e.kind)
            .collect();
        assert_eq!(ikinds, vec![EventKind::SendEnd, EventKind::Ack]);
    }

    #[test]
    fn unmatched_put_is_dropped() {
        let (mut net, a, b) = net2();
        assert!(!net.put(a, b, 0, 99, 0, Bytes::from_static(b"x")));
        assert_eq!(net.ni(b).dropped(), 1);
    }

    #[test]
    fn use_once_unlinks_persistent_stays() {
        let (mut net, a, b) = net2();
        let md = net.ni_mut(b).md_bind(
            64,
            MdOptions {
                manage_local_offset: true,
                ..MdOptions::default()
            },
        );
        net.ni_mut(b).me_attach(
            0,
            MatchEntry {
                source: None,
                match_bits: 7,
                ignore_bits: 0,
                options: MeOptions {
                    use_once: false,
                    ..MeOptions::default()
                },
                md,
            },
        );
        assert!(net.put(a, b, 0, 7, 0, Bytes::from_static(b"one")));
        assert!(net.put(a, b, 0, 7, 0, Bytes::from_static(b"two")));
        assert_eq!(&net.ni(b).md_bytes(md).unwrap()[..6], b"onetwo");
        assert_eq!(net.ni(b).match_list(0).len(), 1, "persistent ME remains");
    }

    #[test]
    fn get_reads_remote_data() {
        let (mut net, a, b) = net2();
        let md = net.ni_mut(b).md_bind(8, MdOptions::default());
        // Pre-fill via a put from b to itself... simpler: direct buffer.
        net.ni_mut(b).mds.get_mut(&md).unwrap().buf[..4].copy_from_slice(b"data");
        net.ni_mut(b).me_attach(
            0,
            MatchEntry {
                source: None,
                match_bits: 3,
                ignore_bits: 0,
                options: MeOptions {
                    op_put: false,
                    op_get: true,
                    use_once: false,
                },
                md,
            },
        );
        let got = net.get(a, b, 0, 3, 0, 4).unwrap();
        assert_eq!(&got[..], b"data");
    }

    #[test]
    fn portal_indices_are_independent() {
        let (mut net, a, b) = net2();
        let md = net.ni_mut(b).md_bind(8, MdOptions::default());
        net.ni_mut(b).me_attach(
            3,
            MatchEntry {
                source: None,
                match_bits: 7,
                ignore_bits: 0,
                options: MeOptions::default(),
                md,
            },
        );
        assert!(
            !net.put(a, b, 0, 7, 0, Bytes::from_static(b"x")),
            "wrong pt"
        );
        assert!(net.put(a, b, 3, 7, 0, Bytes::from_static(b"x")));
    }
}
