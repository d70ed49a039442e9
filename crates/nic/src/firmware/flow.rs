//! Admission and flow control: the unexpected-queue bound, the eager
//! staging pool, end-to-end eager credits and per-peer send
//! serialization behind rendezvous handshakes. Each rule is off while
//! its [`NicConfig`] bound is 0, gated here, so the firmware calls the
//! rules unconditionally. None charges firmware time.

use super::{FwStats, SendReq};
use crate::config::NicConfig;
use mpiq_dessim::FaultPlan;
use mpiq_net::{MsgHeader, MsgKind, NodeId};
use std::collections::{HashMap, VecDeque};

/// Flow-control state of one NIC, with its counters.
#[derive(Default)]
pub(super) struct Flow {
    node: NodeId,
    /// The bound refusal enforces: [`NicConfig::max_unexpected`] with
    /// the link layer on, which retransmits what is refused, else 0
    /// (never refuse).
    bound: usize,
    /// The bound is configured, so a peer may refuse frames: serialize
    /// sends to a peer behind its in-flight rendezvous handshakes.
    serialize: bool,
    eager_credits: u32,
    pool_bytes: u64,
    /// Match-eligible frames admitted but not yet picked up by the
    /// firmware, counted against the bound so a work-queue backlog
    /// cannot overshoot it between admission and staging.
    pending_rx: u32,
    /// Sender-side eager credit pools, one per destination node, lazily
    /// seeded with [`NicConfig::eager_credits`].
    credits: HashMap<NodeId, u32>,
    /// Receiver-side credit grants awaiting pickup by the NIC, which
    /// hands them to the link layer for piggybacking on ACKs.
    pub(super) grants: Vec<(NodeId, u32)>,
    /// Bytes of eager payload currently staged for unmatched arrivals.
    pub(super) staged_bytes: u64,
    /// Fault stream for firmware-level credit-grant / clear-to-send
    /// leaks (`leak=P`), which the link layer cannot recover.
    leak_plan: Option<FaultPlan>,
    /// Sends held, with their destination node, behind a rendezvous
    /// handshake to that node still in flight (RTS sent, data not yet
    /// shipped). FIFO per peer preserves MPI ordering.
    pub(super) deferred: VecDeque<(NodeId, SendReq)>,
    /// Outstanding rendezvous handshakes per peer.
    rndv_inflight: HashMap<NodeId, u32>,
    admission_refused: u64,
    truncated_admits: u64,
    eager_bytes_highwater: u64,
    credit_stalls: u64,
    credits_spent: u64,
    grants_issued: u64,
    grants_leaked: u64,
    cts_leaked: u64,
    sends_deferred: u64,
}

impl Flow {
    /// Flow control for `node` under `cfg`. Leak faults get their own
    /// stream, disjoint from the fabric and ALPU sites.
    pub(super) fn new(node: NodeId, cfg: &NicConfig) -> Flow {
        Flow {
            node,
            bound: usize::from(cfg.reliability) * cfg.max_unexpected as usize,
            serialize: cfg.max_unexpected > 0,
            eager_credits: cfg.eager_credits,
            pool_bytes: cfg.eager_buffer_bytes,
            leak_plan: cfg
                .faults
                .leak_active()
                .then(|| FaultPlan::new(cfg.faults, 0x8000_0000 + node as u64)),
            ..Flow::default()
        }
    }

    /// Does admission refuse arrival `h`, with `unexpected` entries
    /// queued? A remote match-eligible frame is refused once the queue
    /// plus the frames pending for the firmware reach the bound. A frame
    /// that completes a posted receive (`matches_posted`) never stages,
    /// and refusing it would starve the receives that drain the queue:
    /// it is admitted past the bound when no frame is pending, so none
    /// can take the posted entry first and push this one over.
    pub(super) fn refuse(
        &mut self,
        h: &MsgHeader,
        unexpected: usize,
        matches_posted: impl FnOnce() -> bool,
    ) -> bool {
        let refused = self.bound > 0
            && h.src_node != self.node
            && matches!(h.kind, MsgKind::Eager | MsgKind::RndvRequest)
            && unexpected + self.pending_rx as usize >= self.bound
            && !(self.pending_rx == 0 && matches_posted());
        self.admission_refused += refused as u64;
        refused
    }

    /// A match-eligible frame was admitted and queued for the firmware.
    pub(super) fn rx_queued(&mut self) {
        if self.bound > 0 {
            self.pending_rx += 1;
        }
    }

    /// The firmware picked a match-eligible frame up: from here it shows
    /// in the unexpected queue's length itself if it stages.
    pub(super) fn rx_taken(&mut self) {
        if self.bound > 0 {
            self.pending_rx -= 1;
        }
    }

    /// May a send of `len` bytes to `peer` go eager? Spends one credit
    /// on a nonzero payload to a remote node; at zero credit the send
    /// demotes to rendezvous. Zero-payload control traffic is exempt so
    /// synchronization never starves behind bulk data.
    pub(super) fn spend_credit(&mut self, peer: NodeId, len: u32) -> bool {
        if self.eager_credits == 0 || len == 0 || peer == self.node {
            return true;
        }
        let pool = self.credits.entry(peer).or_insert(self.eager_credits);
        if *pool == 0 {
            self.credit_stalls += 1;
            return false;
        }
        *pool -= 1;
        self.credits_spent += 1;
        true
    }

    /// Credits returned by `peer` arrived on the link layer; refill the
    /// sender-side pool so parked eager traffic can flow again.
    pub(super) fn credit_returned(&mut self, peer: NodeId, n: u32) {
        if self.eager_credits > 0 {
            *self.credits.entry(peer).or_insert(self.eager_credits) += n;
        }
    }

    /// A matched eager message `h` no longer holds its sender's credit:
    /// queue one grant back, for exactly the traffic the sender spent a
    /// credit on. The injected leak models a firmware bug the link layer
    /// cannot see: the grant simply never happens.
    pub(super) fn return_credit(&mut self, h: &MsgHeader) {
        if self.eager_credits == 0
            || h.kind != MsgKind::Eager
            || h.payload_len == 0
            || h.src_node == self.node
        {
            return;
        }
        if self.leak_plan.as_mut().is_some_and(|p| p.roll_leak()) {
            self.grants_leaked += 1;
            return;
        }
        self.grants_issued += 1;
        self.grants.push((h.src_node, 1));
    }

    /// Does the injected leak lose this clear-to-send? It is built but
    /// never queued, so the sender parks forever and only the watchdog
    /// sees it.
    pub(super) fn leak_cts(&mut self) -> bool {
        let leaked = self.leak_plan.as_mut().is_some_and(|p| p.roll_leak());
        self.cts_leaked += leaked as u64;
        leaked
    }

    /// Reserve staging for unmatched arrival `h`. Returns whether the
    /// pool is exhausted: its eager payload is then shed and only the
    /// envelope kept (a header-only admit).
    pub(super) fn stage(&mut self, h: &MsgHeader) -> bool {
        if self.pool_bytes == 0 || h.kind != MsgKind::Eager || h.payload_len == 0 {
            return false;
        }
        let bytes = self.staged_bytes + h.payload_len as u64;
        if bytes > self.pool_bytes {
            self.truncated_admits += 1;
            return true;
        }
        self.staged_bytes = bytes;
        self.eager_bytes_highwater = self.eager_bytes_highwater.max(bytes);
        false
    }

    /// Staged message `h` was consumed: release its payload bytes and
    /// return its sender's credit.
    pub(super) fn release(&mut self, h: &MsgHeader, truncated: bool) {
        if self.pool_bytes > 0 && h.kind == MsgKind::Eager && !truncated {
            self.staged_bytes = self.staged_bytes.saturating_sub(h.payload_len as u64);
        }
        self.return_credit(h);
    }

    /// Hold send `s` to `peer` if a rendezvous handshake to it is in
    /// flight, or earlier sends to it are held: a frame sequenced now
    /// could be refused and head-of-line-block the rendezvous data
    /// behind it in the go-back-N window. Returns whether it was held.
    pub(super) fn defer(&mut self, peer: NodeId, s: SendReq) -> bool {
        let held = self.serialize
            && peer != self.node
            && (self.rndv_inflight.get(&peer).copied().unwrap_or(0) > 0
                || self.deferred.iter().any(|&(p, _)| p == peer));
        if held {
            self.sends_deferred += 1;
            self.deferred.push_back((peer, s));
        }
        held
    }

    /// A rendezvous request to `peer` went out: gate later sends to it.
    pub(super) fn rndv_started(&mut self, peer: NodeId) {
        if self.serialize && peer != self.node {
            *self.rndv_inflight.entry(peer).or_insert(0) += 1;
        }
    }

    /// A rendezvous data frame to `peer` is queued: that handshake is over.
    pub(super) fn rndv_shipped(&mut self, peer: NodeId) {
        if let Some(n) = self.rndv_inflight.get_mut(&peer) {
            *n = n.saturating_sub(1);
        }
    }

    /// The next send held for `peer`, in FIFO order, once no handshake to
    /// it is in flight. A released send that starts a new handshake
    /// re-arms the gate.
    pub(super) fn released(&mut self, peer: NodeId) -> Option<SendReq> {
        if self.rndv_inflight.get(&peer).copied().unwrap_or(0) > 0 {
            return None;
        }
        let pos = self.deferred.iter().position(|&(p, _)| p == peer)?;
        self.deferred.remove(pos).map(|(_, s)| s)
    }

    /// Forget all state keyed to `peer`, which died or restarted: its
    /// credit pool (re-seeded at full on next use), its in-flight
    /// handshake count and the sends held for it, which are returned in
    /// FIFO order for the caller to fail.
    pub(super) fn forget_peer(&mut self, peer: NodeId) -> Vec<SendReq> {
        self.credits.remove(&peer);
        self.rndv_inflight.remove(&peer);
        let (doomed, kept) = self.deferred.drain(..).partition(|&(p, _)| p == peer);
        self.deferred = kept;
        doomed.into_iter().map(|(_, s)| s).collect()
    }

    /// Fold the flow-control counters into firmware statistics.
    pub(super) fn add_counters(&self, s: &mut FwStats) {
        s.admission_refused += self.admission_refused;
        s.truncated_admits += self.truncated_admits;
        s.eager_bytes_highwater += self.eager_bytes_highwater;
        s.credit_stalls += self.credit_stalls;
        s.credits_spent += self.credits_spent;
        s.grants_issued += self.grants_issued;
        s.grants_leaked += self.grants_leaked;
        s.cts_leaked += self.cts_leaked;
        s.sends_deferred += self.sends_deferred;
    }
}
