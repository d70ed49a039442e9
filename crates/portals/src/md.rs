//! Memory descriptors: the buffers operations deposit into / read from.

use bytes::Bytes;

/// Handle to a memory descriptor within one NI.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MdHandle(pub u32);

/// MD behavior flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MdOptions {
    /// Incoming operations use and advance the MD's local offset
    /// (`PTL_MD_MANAGE_REMOTE` inverse — Portals' locally managed
    /// offsets). When false, the initiator-supplied offset is used.
    pub manage_local_offset: bool,
    /// Truncate oversize deposits instead of rejecting them.
    pub truncate: bool,
    /// Number of operations after which the MD auto-unlinks
    /// (`threshold`); `None` = unlimited.
    pub threshold: Option<u32>,
}

impl Default for MdOptions {
    fn default() -> MdOptions {
        MdOptions {
            manage_local_offset: false,
            truncate: true,
            threshold: None,
        }
    }
}

/// A registered memory region. Data is modeled as real bytes so tests can
/// verify deposits end-to-end.
#[derive(Clone, Debug)]
pub struct Md {
    /// Backing storage.
    pub buf: Vec<u8>,
    /// Behavior flags.
    pub options: MdOptions,
    /// Locally managed offset (next deposit position).
    pub local_offset: u64,
    /// Operations performed so far.
    pub ops: u32,
}

/// Outcome of a deposit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Deposit {
    /// Where the data landed.
    pub offset: u64,
    /// Bytes written (after truncation).
    pub length: u64,
    /// The MD reached its threshold and must unlink.
    pub unlink: bool,
}

impl Md {
    /// A fresh MD over `len` zero bytes.
    pub fn new(len: usize, options: MdOptions) -> Md {
        Md {
            buf: vec![0; len],
            options,
            local_offset: 0,
            ops: 0,
        }
    }

    /// Deposit `data` (a put landing here). `req_offset` is the
    /// initiator-requested offset, used unless the MD manages offsets
    /// locally. Returns `None` if the data does not fit and truncation is
    /// disabled (the operation is rejected).
    pub fn deposit(&mut self, data: &Bytes, req_offset: u64) -> Option<Deposit> {
        let offset = if self.options.manage_local_offset {
            self.local_offset
        } else {
            req_offset
        };
        if offset as usize >= self.buf.len() && !data.is_empty() {
            return None;
        }
        let space = self.buf.len() as u64 - offset.min(self.buf.len() as u64);
        let want = data.len() as u64;
        if want > space && !self.options.truncate {
            return None;
        }
        let n = want.min(space);
        self.buf[offset as usize..(offset + n) as usize].copy_from_slice(&data[..n as usize]);
        if self.options.manage_local_offset {
            self.local_offset = offset + n;
        }
        self.ops += 1;
        let unlink = self.options.threshold.is_some_and(|t| self.ops >= t);
        Some(Deposit {
            offset,
            length: n,
            unlink,
        })
    }

    /// Read `len` bytes at `offset` (a get reading from here). Truncates
    /// to the region.
    pub fn read(&mut self, offset: u64, len: u64) -> Bytes {
        let start = (offset as usize).min(self.buf.len());
        let end = ((offset + len) as usize).min(self.buf.len());
        self.ops += 1;
        Bytes::copy_from_slice(&self.buf[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_at_requested_offset() {
        let mut md = Md::new(16, MdOptions::default());
        let d = md.deposit(&Bytes::from_static(b"abcd"), 4).unwrap();
        assert_eq!(d.offset, 4);
        assert_eq!(d.length, 4);
        assert_eq!(&md.buf[4..8], b"abcd");
    }

    #[test]
    fn locally_managed_offsets_advance() {
        let mut md = Md::new(
            16,
            MdOptions {
                manage_local_offset: true,
                ..MdOptions::default()
            },
        );
        md.deposit(&Bytes::from_static(b"aa"), 999).unwrap();
        let d = md.deposit(&Bytes::from_static(b"bb"), 999).unwrap();
        assert_eq!(d.offset, 2, "requested offset ignored when locally managed");
        assert_eq!(&md.buf[..4], b"aabb");
    }

    #[test]
    fn truncation_clips_oversize_puts() {
        let mut md = Md::new(4, MdOptions::default());
        let d = md.deposit(&Bytes::from_static(b"abcdef"), 0).unwrap();
        assert_eq!(d.length, 4);
        assert_eq!(&md.buf[..], b"abcd");
    }

    #[test]
    fn no_truncate_rejects() {
        let mut md = Md::new(
            4,
            MdOptions {
                truncate: false,
                ..MdOptions::default()
            },
        );
        assert!(md.deposit(&Bytes::from_static(b"abcdef"), 0).is_none());
    }

    #[test]
    fn threshold_requests_unlink() {
        let mut md = Md::new(
            16,
            MdOptions {
                threshold: Some(2),
                ..MdOptions::default()
            },
        );
        assert!(!md.deposit(&Bytes::from_static(b"x"), 0).unwrap().unlink);
        assert!(md.deposit(&Bytes::from_static(b"y"), 1).unwrap().unlink);
    }

    #[test]
    fn read_truncates_to_region() {
        let mut md = Md::new(4, MdOptions::default());
        md.buf.copy_from_slice(b"wxyz");
        assert_eq!(&md.read(2, 10)[..], b"yz");
    }
}
