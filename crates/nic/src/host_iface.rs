//! The host ⇄ NIC interface: request and completion records.
//!
//! "The main processor is only required to dispatch message requests to
//! the NIC and wait for request completion" (§V-C). Requests travel from
//! the host component to the NIC over the local bus; completions travel
//! back the same way.

use mpiq_net::NodeId;

/// Host-visible request identifier: `(rank, sequence)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ReqId {
    /// Issuing rank (== node id in this single-process-per-node model).
    pub rank: u32,
    /// Per-rank monotone sequence number.
    pub seq: u64,
}

/// A request dispatched by the host to its NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostRequest {
    /// Post a send (`MPI_Isend`).
    PostSend {
        /// Request id for completion reporting.
        req: ReqId,
        /// Destination process's global rank (the NIC maps ranks to
        /// nodes; equals the node id when one process runs per node).
        dst: NodeId,
        /// Communicator context.
        context: u16,
        /// Message tag.
        tag: u16,
        /// Payload length in bytes.
        len: u32,
    },
    /// Non-blocking probe of the unexpected queue (`MPI_Iprobe`): reports
    /// whether a matching message has already arrived, without consuming
    /// it. Answered by a completion whose `cancelled` flag encodes
    /// `flag == false` (no matching message).
    Probe {
        /// Request id for the answer.
        req: ReqId,
        /// Explicit source rank or `MPI_ANY_SOURCE`.
        src: Option<u16>,
        /// Communicator context.
        context: u16,
        /// Explicit tag or `MPI_ANY_TAG`.
        tag: Option<u16>,
    },
    /// Cancel a previously posted receive (`MPI_Cancel`). If the receive
    /// is still posted it completes with `cancelled = true`; if it has
    /// already matched, the cancel is a no-op (the normal completion
    /// stands).
    CancelRecv {
        /// The receive request to cancel.
        target: ReqId,
    },
    /// Post a receive (`MPI_Irecv`).
    PostRecv {
        /// Request id for completion reporting.
        req: ReqId,
        /// Explicit source rank, or `None` for `MPI_ANY_SOURCE`.
        src: Option<u16>,
        /// Communicator context.
        context: u16,
        /// Explicit tag, or `None` for `MPI_ANY_TAG`.
        tag: Option<u16>,
        /// Receive buffer length.
        len: u32,
    },
    /// Offload a whole collective to the NIC firmware: the firmware runs
    /// the shared step plan ([`crate::coll::steps`]) without host
    /// round-trips and answers with a single completion at the end. If
    /// the NIC cannot (or will not) offload — ALPU quarantined or dead,
    /// multi-process node, payload past the eager threshold, overload
    /// protection armed — it answers immediately with `cancelled = true`
    /// and the host runs the identical plan itself.
    Collective {
        /// Request id for the single end-of-collective completion.
        req: ReqId,
        /// Which collective.
        op: crate::coll::CollOp,
        /// Root rank (bcast; ignored for barrier/allreduce).
        root: u32,
        /// Payload length per message.
        len: u32,
        /// Collective instance slot (tag-space partition).
        instance: u16,
        /// Communicator size.
        n: u32,
    },
}

impl HostRequest {
    /// The request id this request concerns.
    pub fn req(&self) -> ReqId {
        match *self {
            HostRequest::PostSend { req, .. }
            | HostRequest::PostRecv { req, .. }
            | HostRequest::Probe { req, .. }
            | HostRequest::Collective { req, .. } => req,
            HostRequest::CancelRecv { target } => target,
        }
    }
}

/// A completion record the NIC writes back to the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The finished request.
    pub req: ReqId,
    /// For receives: the actual source rank and tag of the matched
    /// message (wildcard resolution); mirrors `MPI_Status`.
    pub source: u16,
    /// Matched tag.
    pub tag: u16,
    /// Bytes delivered.
    pub len: u32,
    /// The request was cancelled rather than matched (`MPI_Cancel`).
    pub cancelled: bool,
    /// The receive matched a message whose eager payload had been shed
    /// under buffer-pool exhaustion ([`crate::NicConfig::eager_buffer_bytes`]):
    /// the envelope is valid, `len` reports what was actually delivered
    /// (possibly 0), and the application sees `MPI_ERR_TRUNCATE`-like
    /// status (`RecvOverflow`).
    pub overflow: bool,
    /// The operation's peer rank was declared dead (crash-stop node or a
    /// link past its retry budget) before the operation could complete:
    /// the request is finished with a typed ULFM-style `RankFailed` error
    /// instead of hanging. `source` names the dead peer when known.
    pub rank_failed: bool,
}

impl Completion {
    /// A request finished normally: `len` bytes, matched from `source`
    /// under `tag`.
    pub fn ok(req: ReqId, source: u16, tag: u16, len: u32) -> Completion {
        Completion {
            req,
            source,
            tag,
            len,
            cancelled: false,
            overflow: false,
            rank_failed: false,
        }
    }

    /// A request answered with `cancelled = true`: a cancelled receive,
    /// an `MPI_Iprobe` that found nothing, or a declined collective
    /// offload.
    pub fn cancelled(req: ReqId, source: u16, tag: u16) -> Completion {
        Completion {
            cancelled: true,
            ..Completion::ok(req, source, tag, 0)
        }
    }

    /// A request finished with a typed `rank_failed` error; `source`
    /// names the dead peer.
    pub fn failed(req: ReqId, source: u16, tag: u16, len: u32) -> Completion {
        Completion {
            rank_failed: true,
            ..Completion::ok(req, source, tag, len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_extraction() {
        let r = ReqId { rank: 2, seq: 9 };
        let s = HostRequest::PostSend {
            req: r,
            dst: 1,
            context: 1,
            tag: 0,
            len: 0,
        };
        assert_eq!(s.req(), r);
        let v = HostRequest::PostRecv {
            req: r,
            src: None,
            context: 1,
            tag: None,
            len: 0,
        };
        assert_eq!(v.req(), r);
    }

    #[test]
    fn req_ids_order_by_rank_then_seq() {
        let a = ReqId { rank: 0, seq: 5 };
        let b = ReqId { rank: 1, seq: 0 };
        assert!(a < b);
    }
}
