//! NIC link-layer reliability: go-back-N retransmission over the lossy
//! fabric.
//!
//! The paper's simulation assumes a lossless network; once the fabric can
//! drop, duplicate, or corrupt frames (fault injection), the NIC needs a
//! link-layer protocol to restore the two properties MPI matching is
//! built on: *exactly-once* delivery and *per-(src,dst) order*. This
//! module provides both with the classic NIC-offload recipe (cf. Quadrics
//! Elan / Myrinet GM link engines):
//!
//! * every data frame to a peer carries a per-(src,dst) **link sequence
//!   number** (`Message::link.seq`, starting at 1; 0 = unsequenced),
//! * the receiver accepts frames **in order only**, answering each with a
//!   cumulative [`MsgKind::Ack`]; duplicates are discarded and re-ACKed,
//! * a gap triggers one [`MsgKind::Nack`] naming the needed sequence
//!   (rate-limited: one NACK per gap, not per out-of-order frame),
//! * the sender keeps unacknowledged frames buffered and **goes back** —
//!   retransmits the whole window — on a NACK or a retransmit-timer
//!   expiry, with exponential backoff and a hard retry budget,
//! * frames whose CRC check failed in flight are dropped silently at the
//!   receiver; loss recovery covers them like any other drop.
//!
//! The protocol lives in the NIC's link hardware, not its firmware: ACK
//! generation and retransmission consume fabric bandwidth but no embedded
//! processor time. When reliability is disabled the NIC never constructs
//! this type — a zero-cost abstraction; byte-identical schedules.
//!
//! Everything is deterministic: peers iterate in `BTreeMap` order and all
//! timeouts derive from configured constants, so a faulty run replays
//! bit-identically from its seed.

use bytes::Bytes;
use mpiq_dessim::{Histogram, Time};
use mpiq_net::{Message, MsgHeader, MsgKind, NodeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Tunables for the link protocol.
#[derive(Clone, Copy, Debug)]
pub struct ReliabilityConfig {
    /// Initial retransmit timeout. A few round trips of the 200 ns wire:
    /// long enough that ACK latency under load rarely fires it, short
    /// enough that a real loss stalls the pipe only briefly.
    pub rto: Time,
    /// Ceiling for the exponential backoff.
    pub rto_max: Time,
    /// Consecutive no-progress timer retransmissions tolerated before the
    /// link is declared **dead**: a typed, inspectable state
    /// ([`Reliability::dead_peers`]) rather than a panic. A dead link
    /// stops retransmitting (so the simulation can quiesce instead of
    /// spinning timers forever) and the watchdog diagnosis names the
    /// peer.
    pub retry_budget: u32,
    /// How long after a peer's (scheduled) crash the NIC's keepalive
    /// declares it dead. Consumed by the NIC component, not the link
    /// engine: crash detection needs a shared notion of "the peer went
    /// silent at T", and only the fault schedule provides one that every
    /// NIC can evaluate deterministically on its own. Distinct
    /// from the retry budget, which detects dead *links* from this
    /// side's own (local) retransmission history.
    pub keepalive_timeout: Time,
}

impl Default for ReliabilityConfig {
    fn default() -> ReliabilityConfig {
        ReliabilityConfig {
            rto: Time::from_us(5),
            rto_max: Time::from_us(80),
            retry_budget: 16,
            keepalive_timeout: Time::from_us(100),
        }
    }
}

/// Counters published under `nicN.link.*`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Data frames retransmitted (NACK- and timer-triggered).
    pub retransmits: u64,
    /// Cumulative ACK frames sent.
    pub acks_sent: u64,
    /// NACK frames sent (one per detected gap).
    pub nacks_sent: u64,
    /// Frames discarded because their CRC check failed.
    pub crc_dropped: u64,
    /// In-window duplicates discarded (and re-ACKed).
    pub dup_discarded: u64,
    /// Out-of-order frames discarded while waiting for a gap to fill.
    pub gap_discarded: u64,
    /// Retransmit-timer expiries that actually resent a window.
    pub timer_fires: u64,
    /// Links declared dead after exhausting the retry budget.
    pub links_dead: u64,
    /// Eager flow-control credits granted to peers (attached to outgoing
    /// ACK frames). 0 unless credit flow control is configured.
    pub credits_granted: u64,
    /// Eager flow-control credits received from peers.
    pub credits_received: u64,
    /// Per-peer link states wiped because the peer came back under a new
    /// incarnation (scheduled restart wake or a higher-epoch frame).
    pub epoch_fences: u64,
    /// Frames dropped because they carried a *pre-restart* incarnation —
    /// ghost traffic from a dead epoch that must never resync the window.
    pub stale_epoch_dropped: u64,
}

/// Sender-side state for one peer.
#[derive(Debug)]
struct TxLink {
    /// Next link sequence to assign (starts at 1).
    next_seq: u64,
    /// Sent-but-unacknowledged frames, oldest first.
    unacked: VecDeque<(u64, Message)>,
    /// Current retransmit timeout (backs off on repeated expiry).
    rto: Time,
    /// When the oldest unacknowledged frame times out; `None` = idle.
    deadline: Option<Time>,
    /// Timer retransmissions since the last acknowledged progress.
    retries: u32,
}

impl TxLink {
    fn new(rto: Time) -> TxLink {
        TxLink {
            next_seq: 1,
            unacked: VecDeque::new(),
            rto,
            deadline: None,
            retries: 0,
        }
    }
}

/// Receiver-side state for one peer.
#[derive(Debug)]
struct RxLink {
    /// The link sequence the receiver will accept next (starts at 1).
    expected: u64,
    /// The `expect` value of the last NACK sent, so one gap produces one
    /// NACK rather than one per out-of-order frame behind it. 0 = none.
    nacked_for: u64,
}

impl Default for RxLink {
    fn default() -> RxLink {
        RxLink {
            expected: 1,
            nacked_for: 0,
        }
    }
}

/// What the link layer decided about one received frame.
#[derive(Debug, Default)]
pub struct RxResult {
    /// The frame to hand to the firmware (in-order, exactly once), if any.
    pub deliver: Option<Message>,
    /// Control frames and retransmissions to inject into the fabric now.
    pub send: Vec<Message>,
}

/// One go-back-N window retransmission, for the trace ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetxFire {
    /// When the window was resent.
    pub at: Time,
    /// Peer the window was resent to.
    pub peer: NodeId,
    /// Frames in the resent window.
    pub frames: u32,
    /// The retransmit timeout armed after this fire (current backoff).
    pub backoff: Time,
}

/// Per-NIC reliability engine: one `TxLink`/`RxLink` pair per peer.
pub struct Reliability {
    node: NodeId,
    cfg: ReliabilityConfig,
    tx: BTreeMap<NodeId, TxLink>,
    rx: BTreeMap<NodeId, RxLink>,
    stats: LinkStats,
    /// Armed-RTO samples, one per window retransmission — the backoff
    /// profile of the run. Always recorded (cheap); published to the
    /// metrics registry by the NIC when metrics are enabled.
    backoff_hist: Histogram,
    /// Retransmission events buffered for the trace ring; pushes are
    /// skipped (and nothing allocates) unless the NIC enabled telemetry.
    telemetry: bool,
    fires: Vec<RetxFire>,
    /// Peers whose links exhausted the retry budget. Sticky.
    dead: BTreeSet<NodeId>,
    /// Peers that entered `dead` via retry-budget exhaustion since the
    /// last [`Reliability::take_newly_dead`] drain.
    newly_dead: Vec<NodeId>,
    /// Eager credits waiting to ride out on the next ACK to each peer.
    pending_grants: BTreeMap<NodeId, u32>,
    /// Credits extracted from arriving frames, waiting for the firmware
    /// to collect ([`Reliability::take_credit_returns`]).
    credit_returns: Vec<(NodeId, u32)>,
    /// This node's incarnation epoch, stamped on every outgoing frame.
    /// 0 from boot; a NIC reborn after a crash constructs its fresh
    /// engine with the bumped epoch.
    epoch: u32,
    /// Highest incarnation seen (or scheduled) per peer. Frames below a
    /// peer's entry are ghosts from a dead epoch and are fenced.
    peer_epoch: BTreeMap<NodeId, u32>,
}

impl Reliability {
    /// Engine for the NIC on `node`.
    pub fn new(node: NodeId, cfg: ReliabilityConfig) -> Reliability {
        Reliability {
            node,
            cfg,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            stats: LinkStats::default(),
            backoff_hist: Histogram::new(),
            telemetry: false,
            fires: Vec::new(),
            dead: BTreeSet::new(),
            newly_dead: Vec::new(),
            pending_grants: BTreeMap::new(),
            credit_returns: Vec::new(),
            epoch: 0,
            peer_epoch: BTreeMap::new(),
        }
    }

    /// Set this node's incarnation epoch (a reborn NIC constructs its
    /// fresh engine, then stamps it with the post-restart epoch).
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// This node's current incarnation epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// `peer` is (about to be) back under incarnation `epoch`: wipe every
    /// piece of link state keyed to its previous life — the tx window and
    /// its ghost sequence numbers, the rx cursor, pending credit grants,
    /// and the sticky dead mark — so the next exchange starts from seq 1
    /// on both sides instead of deadlocking on pre-crash numbers. Returns
    /// whether the peer had been marked dead (i.e. this is a revival).
    /// Idempotent per epoch: a second fence at the same epoch is a no-op.
    pub fn fence_peer(&mut self, peer: NodeId, epoch: u32) -> bool {
        let known = self.peer_epoch.get(&peer).copied().unwrap_or(0);
        if epoch <= known {
            return false;
        }
        self.peer_epoch.insert(peer, epoch);
        self.tx.remove(&peer);
        self.rx.remove(&peer);
        self.pending_grants.remove(&peer);
        let was_dead = self.dead.remove(&peer);
        self.stats.epoch_fences += 1;
        was_dead
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Turn retransmission-event collection on or off.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Drain buffered retransmission events (oldest first).
    pub fn take_fires(&mut self) -> Vec<RetxFire> {
        std::mem::take(&mut self.fires)
    }

    /// Armed-RTO histogram: one sample per window retransmission.
    pub fn backoff_hist(&self) -> &Histogram {
        &self.backoff_hist
    }

    /// Frames currently buffered for possible retransmission (diagnostics;
    /// 0 on a quiesced link).
    pub fn unacked_frames(&self) -> usize {
        self.tx.values().map(|l| l.unacked.len()).sum()
    }

    /// Peers whose links exhausted the retry budget and were declared
    /// dead. Empty on a healthy NIC.
    pub fn dead_peers(&self) -> Vec<NodeId> {
        self.dead.iter().copied().collect()
    }

    /// Is the link to `peer` currently declared dead?
    pub fn peer_dead(&self, peer: NodeId) -> bool {
        self.dead.contains(&peer)
    }

    /// Peers declared dead by retry-budget exhaustion since the last
    /// drain. Lets the NIC fail the pending operations exactly once.
    /// (Keepalive deaths are initiated by the NIC itself via
    /// [`Reliability::mark_peer_dead`] and are not reported here.)
    pub fn take_newly_dead(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.newly_dead)
    }

    /// Declare the link to `peer` dead from *outside* the protocol: the
    /// NIC's keepalive concluded the far end crashed. Sticky, like a
    /// retry-budget death, but not counted under [`LinkStats::links_dead`]
    /// — the link did not fail, its far end did. The timer disarms (there
    /// is no one left to retransmit to) but the window is retained for
    /// watchdog diagnosis, mirroring the budget-exhaustion path.
    pub fn mark_peer_dead(&mut self, peer: NodeId) {
        self.dead.insert(peer);
        if let Some(link) = self.tx.get_mut(&peer) {
            link.deadline = None;
        }
    }

    /// In-flight window depth per peer (diagnostics for the watchdog:
    /// which links still hold unacknowledged frames, and how many).
    pub fn window_depths(&self) -> Vec<(NodeId, usize)> {
        self.tx
            .iter()
            .filter(|(_, l)| !l.unacked.is_empty())
            .map(|(p, l)| (*p, l.unacked.len()))
            .collect()
    }

    /// Queue `n` eager credits to ride to `peer` on the next ACK (or on a
    /// standalone credit frame from [`Reliability::flush_grants`]).
    pub fn queue_grant(&mut self, peer: NodeId, n: u32) {
        if n > 0 {
            *self.pending_grants.entry(peer).or_insert(0) += n;
        }
    }

    /// Build standalone credit-carrying ACKs for every peer with pending
    /// grants. Called by the NIC after firmware processing so consumed
    /// eager buffers return their credits even when no data frame (and
    /// hence no piggyback ACK) is about to flow the other way.
    pub fn flush_grants(&mut self) -> Vec<Message> {
        let mut out = Vec::new();
        for (peer, n) in std::mem::take(&mut self.pending_grants) {
            if n == 0 {
                continue;
            }
            let cum = self.rx.get(&peer).map_or(0, |l| l.expected - 1);
            let mut m = Self::control(self.node, peer, MsgKind::Ack { cum }, self.epoch);
            m.link.credit = n;
            self.stats.credits_granted += n as u64;
            self.stats.acks_sent += 1;
            out.push(m);
        }
        out
    }

    /// Drain credits extracted from arriving frames: `(peer, n)` pairs
    /// for the firmware's sender-side credit pools.
    pub fn take_credit_returns(&mut self) -> Vec<(NodeId, u32)> {
        std::mem::take(&mut self.credit_returns)
    }

    /// The NIC refused `msg` admission (unexpected-queue bound). The frame
    /// is *not* sequenced — the sender's go-back-N window will retransmit
    /// it — but silence here would read as a dead link and burn the retry
    /// budget. Answer with a duplicate cumulative ACK: no progress, but
    /// proof of life (any ACK resets the sender's retry counter). Returns
    /// the keepalive for sequenced, intact data frames; refusing anything
    /// else needs no reply.
    pub fn refuse(&mut self, msg: &Message) -> Option<Message> {
        if msg.link.seq == 0 || !msg.link.crc_ok || msg.header.kind.is_link_control() {
            return None;
        }
        let peer = msg.header.src_node;
        if msg.link.incarnation < self.peer_epoch.get(&peer).copied().unwrap_or(0) {
            // Ghost frame from a dead epoch: no keepalive for the dead.
            self.stats.stale_epoch_dropped += 1;
            return None;
        }
        let cum = self.rx.get(&peer).map_or(0, |l| l.expected - 1);
        self.stats.acks_sent += 1;
        let mut ack = Self::control(self.node, peer, MsgKind::Ack { cum }, self.epoch);
        self.attach_grants(peer, &mut ack);
        Some(ack)
    }

    /// Attach any pending grants for `peer` to an outgoing control frame.
    fn attach_grants(&mut self, peer: NodeId, msg: &mut Message) {
        if let Some(n) = self.pending_grants.remove(&peer) {
            if n > 0 {
                msg.link.credit = n;
                self.stats.credits_granted += n as u64;
            }
        }
    }

    /// Stamp an outgoing frame with its link sequence and buffer it for
    /// retransmission. `at` is the frame's fabric-injection time (the
    /// retransmit timer arms from it). Control frames pass through
    /// unsequenced.
    pub fn transmit(&mut self, mut msg: Message, at: Time) -> Message {
        msg.link.incarnation = self.epoch;
        if msg.header.kind.is_link_control() {
            return msg;
        }
        let dead = self.dead.contains(&msg.header.dst_node);
        let link = self
            .tx
            .entry(msg.header.dst_node)
            .or_insert_with(|| TxLink::new(self.cfg.rto));
        msg.link.seq = link.next_seq;
        link.next_seq += 1;
        link.unacked.push_back((msg.link.seq, msg.clone()));
        // A dead link buffers (the window depth is part of the watchdog
        // diagnosis) but never re-arms its timer: retransmitting into a
        // void would keep the simulation from quiescing.
        if link.deadline.is_none() && !dead {
            link.deadline = Some(at + link.rto);
        }
        msg
    }

    /// Run one arriving frame through the link layer.
    pub fn receive(&mut self, msg: Message, now: Time) -> RxResult {
        let mut out = RxResult::default();
        if !msg.link.crc_ok {
            // Hardware CRC check failed: the frame's content cannot be
            // trusted (not even its sequence number). Drop it on the
            // floor; NACK/timer recovery covers it like a plain loss.
            self.stats.crc_dropped += 1;
            return out;
        }
        // Incarnation gate, ahead of everything else the frame could
        // touch: a frame from a *newer* epoch proves the peer restarted —
        // fence its stale link state first, then process the frame
        // against the fresh window. A frame from an *older* epoch is
        // ghost traffic (a pre-crash frame still in the fabric, or a
        // stale retransmission): accepting it — or even ACK/NACKing it —
        // would resync the new link onto dead sequence numbers.
        let peer = msg.header.src_node;
        let known = self.peer_epoch.get(&peer).copied().unwrap_or(0);
        if msg.link.incarnation > known {
            self.fence_peer(peer, msg.link.incarnation);
        } else if msg.link.incarnation < known {
            self.stats.stale_epoch_dropped += 1;
            return out;
        }
        if msg.link.credit > 0 {
            // Credit grants ride the link state of (usually ACK) frames;
            // collect them for the firmware's sender-side pools.
            self.stats.credits_received += msg.link.credit as u64;
            self.credit_returns
                .push((msg.header.src_node, msg.link.credit));
        }
        match msg.header.kind {
            MsgKind::Ack { cum } => {
                self.handle_ack(msg.header.src_node, cum, now);
            }
            MsgKind::Nack { expect } => {
                out.send = self.handle_nack(msg.header.src_node, expect, now);
            }
            _ => self.receive_data(msg, &mut out),
        }
        out
    }

    fn receive_data(&mut self, msg: Message, out: &mut RxResult) {
        let seq = msg.link.seq;
        if seq == 0 {
            // Unsequenced: the peer runs without reliability. Pass through.
            out.deliver = Some(msg);
            return;
        }
        let peer = msg.header.src_node;
        let link = self.rx.entry(peer).or_default();
        if seq == link.expected {
            link.expected += 1;
            link.nacked_for = 0;
            self.stats.acks_sent += 1;
            let mut ack = Self::control(self.node, peer, MsgKind::Ack { cum: seq }, self.epoch);
            self.attach_grants(peer, &mut ack);
            out.send.push(ack);
            out.deliver = Some(msg);
        } else if seq < link.expected {
            // Duplicate (fabric-duplicated or retransmitted after the ACK
            // was lost). Discard, but re-ACK so the sender stops resending.
            self.stats.dup_discarded += 1;
            self.stats.acks_sent += 1;
            let cum = link.expected - 1;
            let mut ack = Self::control(self.node, peer, MsgKind::Ack { cum }, self.epoch);
            self.attach_grants(peer, &mut ack);
            out.send.push(ack);
        } else {
            // Gap: something before this frame was lost. Go-back-N
            // receivers buffer nothing — discard, and ask for the missing
            // frame once per gap.
            self.stats.gap_discarded += 1;
            if link.nacked_for != link.expected {
                link.nacked_for = link.expected;
                self.stats.nacks_sent += 1;
                let expect = link.expected;
                out.send.push(Self::control(
                    self.node,
                    peer,
                    MsgKind::Nack { expect },
                    self.epoch,
                ));
            }
        }
    }

    fn handle_ack(&mut self, peer: NodeId, cum: u64, now: Time) {
        let Some(link) = self.tx.get_mut(&peer) else {
            return;
        };
        let before = link.unacked.len();
        while link.unacked.front().is_some_and(|(s, _)| *s <= cum) {
            link.unacked.pop_front();
        }
        // Any ACK — even a no-progress duplicate from an overloaded peer
        // refusing admission — proves the link is alive; only silence
        // should spend the retry budget. The backoff (rto) collapses only
        // on real progress, so retransmissions into a refusing peer stay
        // exponentially spaced.
        link.retries = 0;
        if link.unacked.len() != before {
            link.rto = self.cfg.rto;
        }
        link.deadline = if link.unacked.is_empty() {
            None
        } else {
            Some(now + link.rto)
        };
    }

    fn handle_nack(&mut self, peer: NodeId, expect: u64, now: Time) -> Vec<Message> {
        let mut resend = Vec::new();
        let Some(link) = self.tx.get_mut(&peer) else {
            return resend;
        };
        // A NACK for `expect` acknowledges everything before it.
        while link.unacked.front().is_some_and(|(s, _)| *s < expect) {
            link.unacked.pop_front();
        }
        // Go back: retransmit the whole remaining window, in order.
        for (_, m) in &link.unacked {
            resend.push(m.clone());
        }
        self.stats.retransmits += resend.len() as u64;
        link.retries = 0; // the peer is demonstrably alive
        link.deadline = if link.unacked.is_empty() {
            None
        } else {
            Some(now + link.rto)
        };
        if !resend.is_empty() {
            self.backoff_hist.record(link.rto);
            if self.telemetry {
                self.fires.push(RetxFire {
                    at: now,
                    peer,
                    frames: resend.len() as u32,
                    backoff: link.rto,
                });
            }
        }
        resend
    }

    /// Earliest pending retransmit deadline across all peers, if any. The
    /// NIC schedules a wakeup for it.
    pub fn next_deadline(&self) -> Option<Time> {
        self.tx.values().filter_map(|l| l.deadline).min()
    }

    /// Fire the retransmit timer: every peer whose deadline has passed
    /// gets its window retransmitted, with exponential backoff. Returns
    /// the frames to inject. A link that exhausts the retry budget is
    /// declared **dead** ([`Reliability::dead_peers`]): it stops
    /// retransmitting and disarms its timer so the simulation can drain
    /// to quiescence, where the watchdog turns the stall into a typed
    /// diagnosis naming the peer.
    pub fn on_timer(&mut self, now: Time) -> Vec<Message> {
        let mut resend = Vec::new();
        for (peer, link) in self.tx.iter_mut() {
            let Some(deadline) = link.deadline else {
                continue;
            };
            if now < deadline || link.unacked.is_empty() {
                continue;
            }
            link.retries += 1;
            if link.retries > self.cfg.retry_budget {
                // Typed link-dead: keep the window for diagnosis, stop
                // the timer, remember the peer.
                link.deadline = None;
                if self.dead.insert(*peer) {
                    self.stats.links_dead += 1;
                    self.newly_dead.push(*peer);
                }
                continue;
            }
            self.stats.timer_fires += 1;
            self.stats.retransmits += link.unacked.len() as u64;
            for (_, m) in &link.unacked {
                resend.push(m.clone());
            }
            link.rto = (link.rto + link.rto).min(self.cfg.rto_max);
            link.deadline = Some(now + link.rto);
            self.backoff_hist.record(link.rto);
            if self.telemetry {
                self.fires.push(RetxFire {
                    at: now,
                    peer: *peer,
                    frames: link.unacked.len() as u32,
                    backoff: link.rto,
                });
            }
        }
        resend
    }

    /// Header-only link control frame (ACK/NACK), stamped with the
    /// sender's incarnation epoch.
    fn control(src: NodeId, dst: NodeId, kind: MsgKind, epoch: u32) -> Message {
        let mut m = Message::new(
            MsgHeader {
                src_node: src,
                dst_node: dst,
                dst_rank: 0,
                context: 0,
                src_rank: 0,
                tag: 0,
                payload_len: 0,
                kind,
                seq: 0,
            },
            Bytes::new(),
        );
        m.link.incarnation = epoch;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(src: NodeId, dst: NodeId, seq: u64) -> Message {
        Message::new(
            MsgHeader {
                src_node: src,
                dst_node: dst,
                dst_rank: dst,
                context: 0,
                src_rank: src as u16,
                tag: 7,
                payload_len: 0,
                kind: MsgKind::Eager,
                seq,
            },
            Bytes::new(),
        )
    }

    fn cfg() -> ReliabilityConfig {
        ReliabilityConfig::default()
    }

    #[test]
    fn in_order_frames_deliver_and_ack() {
        let mut tx = Reliability::new(0, cfg());
        let mut rx = Reliability::new(1, cfg());
        for i in 0..3u64 {
            let m = tx.transmit(data(0, 1, i), Time::from_ns(10 * i));
            assert_eq!(m.link.seq, i + 1);
            let r = rx.receive(m, Time::from_ns(10 * i + 5));
            assert!(r.deliver.is_some());
            assert_eq!(r.send.len(), 1);
            assert_eq!(r.send[0].header.kind, MsgKind::Ack { cum: i + 1 });
            // Feed the ACK back; the window drains.
            let back = tx.receive(
                r.send.into_iter().next().unwrap(),
                Time::from_ns(10 * i + 9),
            );
            assert!(back.deliver.is_none());
        }
        assert_eq!(tx.unacked_frames(), 0);
        assert_eq!(tx.next_deadline(), None);
        assert_eq!(rx.stats().acks_sent, 3);
    }

    #[test]
    fn gap_nacks_once_and_go_back_n_retransmits() {
        let mut tx = Reliability::new(0, cfg());
        let mut rx = Reliability::new(1, cfg());
        let m1 = tx.transmit(data(0, 1, 0), Time::ZERO);
        let m2 = tx.transmit(data(0, 1, 1), Time::ZERO);
        let m3 = tx.transmit(data(0, 1, 2), Time::ZERO);
        // m1 is lost; m2 and m3 arrive out of window.
        let r2 = rx.receive(m2, Time::from_ns(100));
        assert!(r2.deliver.is_none());
        assert_eq!(r2.send.len(), 1, "gap produces exactly one NACK");
        assert_eq!(r2.send[0].header.kind, MsgKind::Nack { expect: 1 });
        let r3 = rx.receive(m3, Time::from_ns(110));
        assert!(r3.deliver.is_none());
        assert!(r3.send.is_empty(), "second out-of-order frame is silent");
        // The NACK reaches the sender: whole window comes back, in order.
        let back = tx.receive(r2.send.into_iter().next().unwrap(), Time::from_ns(200));
        let seqs: Vec<u64> = back.send.iter().map(|m| m.link.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(tx.stats().retransmits, 3);
        // Receiver now accepts the replayed window in order.
        let mut delivered = Vec::new();
        for m in back.send {
            if let Some(d) = rx.receive(m, Time::from_ns(300)).deliver {
                delivered.push(d.link.seq);
            }
        }
        assert_eq!(delivered, vec![1, 2, 3]);
        assert_eq!(m1.link.seq, 1); // the lost original really was seq 1
    }

    #[test]
    fn duplicates_discard_and_reack() {
        let mut tx = Reliability::new(0, cfg());
        let mut rx = Reliability::new(1, cfg());
        let m = tx.transmit(data(0, 1, 0), Time::ZERO);
        assert!(rx.receive(m.clone(), Time::from_ns(50)).deliver.is_some());
        let r = rx.receive(m, Time::from_ns(60));
        assert!(r.deliver.is_none(), "duplicate must not deliver twice");
        assert_eq!(r.send[0].header.kind, MsgKind::Ack { cum: 1 });
        assert_eq!(rx.stats().dup_discarded, 1);
    }

    #[test]
    fn corrupt_frames_drop_silently() {
        let mut rx = Reliability::new(1, cfg());
        let mut m = data(0, 1, 0);
        m.link.seq = 1;
        m.link.crc_ok = false;
        let r = rx.receive(m, Time::from_ns(10));
        assert!(r.deliver.is_none());
        assert!(r.send.is_empty());
        assert_eq!(rx.stats().crc_dropped, 1);
    }

    #[test]
    fn timer_retransmits_with_backoff() {
        let mut tx = Reliability::new(0, cfg());
        tx.transmit(data(0, 1, 0), Time::ZERO);
        let d1 = tx.next_deadline().expect("armed");
        assert_eq!(d1, Time::from_us(5));
        let resent = tx.on_timer(d1);
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].link.seq, 1);
        let d2 = tx.next_deadline().expect("re-armed");
        assert_eq!(d2, d1 + Time::from_us(10), "backoff doubled the RTO");
        // An ACK clears the window and the timer, and resets backoff.
        let ack = Reliability::control(1, 0, MsgKind::Ack { cum: 1 }, 0);
        tx.receive(ack, d2);
        assert_eq!(tx.next_deadline(), None);
        assert_eq!(tx.unacked_frames(), 0);
        assert_eq!(tx.stats().timer_fires, 1);
    }

    #[test]
    fn retry_budget_declares_the_link_dead() {
        let mut tx = Reliability::new(
            0,
            ReliabilityConfig {
                retry_budget: 3,
                ..ReliabilityConfig::default()
            },
        );
        tx.transmit(data(0, 1, 0), Time::ZERO);
        assert!(tx.dead_peers().is_empty());
        // 3 budgeted retransmissions, then the 4th expiry kills the link.
        for round in 0..4 {
            let now = tx.next_deadline().unwrap_or_else(|| {
                panic!("timer disarmed before the budget was spent (round {round})")
            });
            tx.on_timer(now);
        }
        assert_eq!(tx.dead_peers(), vec![1], "dead peer must be named");
        assert_eq!(tx.stats().links_dead, 1);
        assert_eq!(tx.stats().timer_fires, 3, "budget bounds retransmissions");
        // The timer is disarmed — the simulation can quiesce — but the
        // window is retained for the watchdog diagnosis.
        assert_eq!(tx.next_deadline(), None);
        assert_eq!(tx.unacked_frames(), 1);
        assert_eq!(tx.window_depths(), vec![(1, 1)]);
        // Further traffic to the dead peer buffers without re-arming.
        tx.transmit(data(0, 1, 1), Time::from_us(500));
        assert_eq!(tx.next_deadline(), None);
        assert_eq!(tx.unacked_frames(), 2);
        // Death is counted once, not per expiry.
        tx.on_timer(Time::from_us(900));
        assert_eq!(tx.stats().links_dead, 1);
    }

    #[test]
    fn credits_piggyback_on_acks_and_flush_standalone() {
        let mut tx = Reliability::new(0, cfg());
        let mut rx = Reliability::new(1, cfg());
        // Receiver queues 3 credits for node 0; next in-order data frame's
        // ACK carries them.
        rx.queue_grant(0, 3);
        let m = tx.transmit(data(0, 1, 0), Time::ZERO);
        let r = rx.receive(m, Time::from_ns(50));
        assert_eq!(r.send.len(), 1);
        assert_eq!(r.send[0].link.credit, 3, "grants piggyback on the ACK");
        assert_eq!(rx.stats().credits_granted, 3);
        // Sender extracts them on receive.
        tx.receive(r.send.into_iter().next().unwrap(), Time::from_ns(90));
        assert_eq!(tx.take_credit_returns(), vec![(1, 3)]);
        assert_eq!(tx.stats().credits_received, 3);
        assert!(tx.take_credit_returns().is_empty(), "drained");
        // With no data flowing, grants flush as standalone credit-ACKs.
        rx.queue_grant(0, 2);
        let flushed = rx.flush_grants();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].link.credit, 2);
        assert_eq!(flushed[0].header.kind, MsgKind::Ack { cum: 1 });
        assert!(rx.flush_grants().is_empty(), "grants sent once");
        // The standalone re-ACK is harmless at the sender.
        let back = tx.receive(flushed.into_iter().next().unwrap(), Time::from_us(1));
        assert!(back.deliver.is_none() && back.send.is_empty());
        assert_eq!(tx.take_credit_returns(), vec![(1, 2)]);
    }

    #[test]
    fn zero_grants_never_touch_the_wire() {
        let mut rx = Reliability::new(1, cfg());
        rx.queue_grant(0, 0);
        assert!(rx.flush_grants().is_empty());
        assert_eq!(rx.stats().credits_granted, 0);
    }

    #[test]
    fn control_frames_pass_transmit_unsequenced() {
        let mut tx = Reliability::new(0, cfg());
        let ack = Reliability::control(0, 1, MsgKind::Ack { cum: 9 }, 0);
        let out = tx.transmit(ack, Time::ZERO);
        assert_eq!(out.link.seq, 0);
        assert_eq!(tx.unacked_frames(), 0, "control frames are not buffered");
    }

    #[test]
    fn per_peer_sequences_are_independent() {
        let mut tx = Reliability::new(0, cfg());
        assert_eq!(tx.transmit(data(0, 1, 0), Time::ZERO).link.seq, 1);
        assert_eq!(tx.transmit(data(0, 2, 1), Time::ZERO).link.seq, 1);
        assert_eq!(tx.transmit(data(0, 1, 2), Time::ZERO).link.seq, 2);
    }

    /// The reincarnation bug, pinned at the link layer: node 0 delivers a
    /// few frames, crashes, and comes back with a fresh engine whose
    /// sequences restart at 1. Without fencing, the receiver's old
    /// `expected` cursor reads the reborn node's seq 1 as an ancient
    /// duplicate and discards it forever. The epoch stamp must (a) wipe
    /// the stale rx cursor so post-restart traffic delivers, and (b) drop
    /// ghost frames from the dead epoch without ACK/NACKing them.
    #[test]
    fn reincarnation_fence_resyncs_window_and_drops_ghosts() {
        let mut tx = Reliability::new(0, cfg());
        let mut rx = Reliability::new(1, cfg());
        // Pre-crash life: three frames delivered, cursor at expected=4.
        for i in 0..3u64 {
            let m = tx.transmit(data(0, 1, i), Time::from_ns(10 * i));
            assert!(rx.receive(m, Time::from_ns(10 * i + 5)).deliver.is_some());
        }
        // A pre-crash frame still sitting in the fabric.
        let ghost = tx.transmit(data(0, 1, 3), Time::from_ns(40));
        assert_eq!(ghost.link.seq, 4);
        assert_eq!(ghost.link.incarnation, 0);
        // Node 0 crashes and is reborn: fresh engine, epoch 1, seq from 1.
        let mut tx = Reliability::new(0, cfg());
        tx.set_epoch(1);
        let reborn = tx.transmit(data(0, 1, 0), Time::from_us(300));
        assert_eq!(reborn.link.seq, 1);
        assert_eq!(reborn.link.incarnation, 1);
        // Without fencing this would be dup_discarded; the epoch bump
        // must wipe the stale cursor and deliver.
        let r = rx.receive(reborn, Time::from_us(300));
        assert!(r.deliver.is_some(), "post-restart seq 1 must deliver");
        assert_eq!(r.send[0].header.kind, MsgKind::Ack { cum: 1 });
        assert_eq!(rx.stats().dup_discarded, 0);
        assert_eq!(rx.stats().epoch_fences, 1);
        // The ghost arrives late: dropped cold — no deliver, no control
        // frame that could resync either side onto dead numbers.
        let g = rx.receive(ghost.clone(), Time::from_us(301));
        assert!(g.deliver.is_none() && g.send.is_empty());
        assert_eq!(rx.stats().stale_epoch_dropped, 1);
        // Refusal path: a stale frame gets no keepalive ACK either.
        assert!(rx.refuse(&ghost).is_none());
        assert_eq!(rx.stats().stale_epoch_dropped, 2);
        // Fencing is idempotent per epoch.
        assert!(!rx.fence_peer(0, 1));
        assert_eq!(rx.stats().epoch_fences, 1);
    }

    /// A proactive fence (scheduled restart wake) revives a dead peer:
    /// the sticky dead mark, the stale tx window, and pending grants all
    /// clear so the next exchange starts from scratch.
    #[test]
    fn fence_revives_dead_peer_and_clears_tx_state() {
        let mut tx = Reliability::new(0, cfg());
        tx.transmit(data(0, 1, 0), Time::ZERO);
        tx.queue_grant(1, 4);
        tx.mark_peer_dead(1);
        assert!(tx.peer_dead(1));
        assert_eq!(tx.unacked_frames(), 1);
        let was_dead = tx.fence_peer(1, 1);
        assert!(was_dead, "fence must report the revival");
        assert!(!tx.peer_dead(1));
        assert_eq!(tx.unacked_frames(), 0, "stale window wiped");
        assert!(tx.flush_grants().is_empty(), "stale grants wiped");
        // Fresh traffic restarts at seq 1 with a live timer.
        let m = tx.transmit(data(0, 1, 1), Time::from_us(10));
        assert_eq!(m.link.seq, 1);
        assert!(tx.next_deadline().is_some());
    }
}
