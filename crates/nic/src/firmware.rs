//! The NIC firmware: the MPI engine of §V-C, with the ALPU management
//! heuristics of §IV, as the paper's four-action loop: poll the network,
//! poll the host, advance active work, update the ALPUs. Each action is
//! a [`WorkItem`], run functionally in Rust on the NIC's one embedded
//! [`Core`], which is charged each step's work at the counts named in
//! [`cost`]; the cycle-level [`Alpu`](mpiq_alpu::Alpu)s run alongside.
//!
//! Every match ends in one of a few outcomes, each written once:
//!
//! * `match_posted` and `match_unexpected` search a queue: the ALPU
//!   response, a tombstone re-match, then the hash-bin or linear walk;
//! * `deliver` finishes a match, made on arrival or by a receive's post:
//!   the eager Rx DMA and completion, or the rendezvous clear-to-send;
//! * `stage_unexpected` queues an arrival nothing matched;
//! * `consume_unexpected` takes a matched message off the unexpected
//!   queue, for a receive or a collective harvest;
//! * `unlink_posted` removes a posted receive or leaves its tombstone,
//!   for a match, a cancel or a dead peer.

mod alpu;
mod coll;
pub mod cost;
mod fault;
mod flow;

pub use alpu::{AlpuPort, AlpuWedged};

use crate::config::{NicConfig, SwMatch};
use crate::dma::Dma;
use crate::hashmatch::PostedIndex;
use crate::host_iface::{Completion, HostRequest, ReqId};
use crate::queues::{Item, Key, NicQueue};
use alpu::HwRead;
use coll::CollEngine;
use fault::Faults;
use flow::Flow;
use mpiq_alpu::match_types::masked_eq;
use mpiq_alpu::{Command, MaskWord, MatchWord, Probe};
use mpiq_cpusim::{Core, Run};
use mpiq_dessim::trace::{AlpuCmdKind, DmaDir, QueueKind, QueueOpKind, SearchSource, TraceEvent};
use mpiq_dessim::{watchdog::Health, Histogram, Time};
use mpiq_net::{Message, MsgHeader, MsgKind, NodeId};
use std::collections::HashMap;

/// NIC memory map (addresses feed the cache model).
mod layout {
    /// Posted-receive queue entries.
    pub const POSTED_BASE: u64 = 0x10_0000;
    /// Unexpected queue entries.
    pub const UNEXP_BASE: u64 = 0x20_0000;
    /// Rx ring buffers.
    pub const RXBUF_BASE: u64 = 0x30_0000;
    /// Host request mailbox.
    pub const MAILBOX_BASE: u64 = 0x40_0000;
    /// Pending-send records.
    pub const SENDQ_BASE: u64 = 0x50_0000;
    /// Hash-bin headers (hash matching strategy only).
    pub const HASHBIN_BASE: u64 = 0x60_0000;
}

/// Effective matching context: the user context with the destination
/// process's local id folded into the high bits, so co-located processes'
/// queues cannot cross-match (the footnote-1 extension).
fn eff_ctx(ranks_per_node: u32, context: u16, dst_rank: u32) -> u16 {
    if ranks_per_node <= 1 {
        return context;
    }
    debug_assert!(
        context < 256,
        "contexts limited to 8 bits with multi-process NICs"
    );
    debug_assert!(ranks_per_node <= 8, "at most 8 processes per NIC");
    context | (((dst_rank % ranks_per_node) as u16) << 8)
}

/// The match word of a header: what it probes with on arrival, and what
/// it is matched (and inserted into the unexpected ALPU) by while it
/// waits on the unexpected queue.
fn header_word(ranks_per_node: u32, h: &MsgHeader) -> MatchWord {
    MatchWord::mpi(
        eff_ctx(ranks_per_node, h.context, h.dst_rank),
        h.src_rank,
        h.tag,
    )
}

/// The unexpected-queue search predicate for a receive's `probe`.
fn unexpected_match(ranks_per_node: u32, probe: Probe) -> impl Fn(&UnexpEntry) -> bool {
    move |e| {
        masked_eq(
            header_word(ranks_per_node, &e.header),
            probe.word,
            probe.mask,
        )
    }
}

/// The two matching queues, in the order every ALPU rule visits them.
const UNITS: [QueueKind; 2] = [QueueKind::Posted, QueueKind::Unexpected];

/// One unit of work for the embedded processor.
#[derive(Clone, Debug)]
pub enum WorkItem {
    /// A message arrived from the network. `probed` records whether the
    /// hardware delivered a header copy to the posted-receive ALPU at
    /// arrival time (the firmware must read exactly one response per
    /// probed header).
    Rx {
        /// The arrived message.
        msg: Message,
        /// Whether the posted-receive ALPU saw a copy of this header.
        probed: bool,
    },
    /// The host dispatched a request.
    Host(HostRequest),
    /// Move not-yet-inserted queue tails into the ALPUs (insert session).
    AlpuUpdate,
}

/// Externally visible effects of processing one work item.
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to inject into the fabric, with their injection times.
    pub tx: Vec<(Time, Message)>,
    /// Completions to deliver to the host, with their delivery times.
    pub completions: Vec<(Time, Completion)>,
}

/// A posted receive as the NIC stores it.
#[derive(Clone, Copy, Debug)]
pub struct RecvEntry {
    req: ReqId,
    word: MatchWord,
    mask: MaskWord,
    len: u32,
    /// Tombstone: the receive was cancelled (or already consumed via a
    /// ghost-hit re-match) while its copy still sits in the ALPU, which
    /// has no DELETE command (Table I). Ghosts are skipped by software
    /// search and reclaimed when the hardware matches them.
    ghost: bool,
}

impl RecvEntry {
    /// Does this live receive accept a header with match word `word`?
    fn matches(&self, word: MatchWord) -> bool {
        !self.ghost && masked_eq(self.word, word, self.mask)
    }

    /// The source rank this receive is pinned to (`None` for
    /// `MPI_ANY_SOURCE`).
    fn pinned_source(&self) -> Option<u16> {
        (self.mask.0 & MaskWord::ANY_SOURCE.0 == 0).then(|| self.word.source())
    }

    /// The typed failure of this receive: its pinned source died.
    fn failed(&self) -> Completion {
        Completion::failed(self.req, self.word.source(), self.word.tag(), 0)
    }
}

/// An unexpected message as the NIC stores it.
#[derive(Clone, Debug)]
struct UnexpEntry {
    header: MsgHeader,
    /// The eager payload was shed at admission because the staging pool
    /// ([`NicConfig::eager_buffer_bytes`]) was exhausted. Only the
    /// envelope survives; the eventual receive completes with
    /// `overflow = true` and `len = 0`.
    truncated: bool,
}

/// A send as the host posted it.
#[derive(Clone, Copy, Debug)]
struct SendReq {
    req: ReqId,
    dst: NodeId,
    context: u16,
    tag: u16,
    len: u32,
}

impl SendReq {
    /// The local completion of this send, once its data left.
    fn completion(&self) -> Completion {
        Completion::ok(self.req, self.req.rank as u16, self.tag, self.len)
    }

    /// The typed failure of this send: its destination died.
    fn failed(&self) -> Completion {
        Completion::failed(self.req, self.dst as u16, self.tag, self.len)
    }
}

/// A parked rendezvous send awaiting its clear-to-send.
#[derive(Clone, Copy, Debug)]
struct SendEntry {
    send: SendReq,
    token: u64,
    addr: u64,
}

/// A matched rendezvous awaiting its data message.
#[derive(Clone, Copy, Debug)]
struct RndvExpect {
    req: ReqId,
    len: u32,
    src_rank: u16,
    tag: u16,
}

/// Firmware statistics relevant to the experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct FwStats {
    /// Posted-queue entries visited by software search.
    pub posted_entries_traversed: u64,
    /// Unexpected-queue entries visited by software search.
    pub unexpected_entries_traversed: u64,
    /// Headers resolved by the posted ALPU.
    pub posted_alpu_hits: u64,
    /// Receives resolved by the unexpected ALPU.
    pub unexpected_alpu_hits: u64,
    /// Messages that arrived with no matching receive.
    pub unexpected_arrivals: u64,
    /// ALPU insert-session count.
    pub insert_sessions: u64,
    /// Receives cancelled while ALPU-resident (tombstoned).
    pub ghosted_cancels: u64,
    /// Hardware matches on tombstones, re-matched in software.
    pub ghost_rematches: u64,
    /// Full RESET+rebuild purges forced by tombstone buildup.
    pub alpu_purges: u64,
    /// Probed headers resolved by a full software walk because their unit
    /// was quarantined (or their response died with it).
    pub alpu_fallbacks: u64,
    /// Hard resets forced by a wedged or corrupted unit (quarantines).
    pub alpu_resets: u64,
    /// Quarantined units brought back into service after cooldown.
    pub alpu_reengagements: u64,
    /// Parity errors found reading responses from a corrupted unit.
    pub alpu_parity_errors: u64,
    /// Cycles spent spinning on a full ALPU command FIFO (bounded).
    pub alpu_overflow_spins: u64,
    /// High-water mark of the unexpected queue (entries).
    pub unexpected_highwater: u64,
    /// High-water mark of staged eager payload bytes.
    pub eager_bytes_highwater: u64,
    /// Unmatched eager arrivals admitted header-only because the staging
    /// pool ([`NicConfig::eager_buffer_bytes`]) was exhausted.
    pub truncated_admits: u64,
    /// Match-eligible arrivals refused at the wire at the
    /// [`NicConfig::max_unexpected`] bound (retransmitted later).
    pub admission_refused: u64,
    /// Eager sends demoted to the rendezvous path for lack of credit.
    pub credit_stalls: u64,
    /// Eager credits spent (one per credited eager send).
    pub credits_spent: u64,
    /// Eager credits granted back to senders as messages were consumed.
    pub grants_issued: u64,
    /// Credit grants lost to injected firmware leaks (`leak=P`).
    pub grants_leaked: u64,
    /// Rendezvous clear-to-sends lost to injected firmware leaks.
    pub cts_leaked: u64,
    /// Sends held behind an in-flight rendezvous to the same peer.
    pub sends_deferred: u64,
    /// Peer nodes declared dead (crash detected, or a link dead).
    pub peers_failed: u64,
    /// Operations finished with a typed `rank_failed` completion.
    pub ops_rank_failed: u64,
    /// ALPUs permanently retired by a scheduled hardware death.
    pub alpus_killed: u64,
    /// Late rendezvous frames from a peer already declared dead.
    pub stale_rndv_dropped: u64,
    /// Dead peers un-declared because they restarted.
    pub peers_revived: u64,
    /// Collectives accepted for NIC-side offload.
    pub coll_offloaded: u64,
    /// Collective offloads declined back to the host, which replays them.
    pub coll_declined: u64,
    /// Collective step frames injected by the NIC engine.
    pub coll_steps_sent: u64,
    /// Collective step frames harvested by the NIC engine.
    pub coll_steps_recv: u64,
    /// Offloaded collectives finished typed `rank_failed`.
    pub coll_rank_failed: u64,
}

/// Match-path latency histograms, one per entry source (§VI's latency
/// breakdown). A software search adds a sample only when it visited an
/// entry. Always recorded (a [`Histogram::record`] is a few integer
/// ops), published to the metrics registry only when enabled.
#[derive(Clone, Debug, Default)]
pub struct FwHists {
    /// Posted-queue matches resolved by the ALPU (response wait + §IV-D
    /// retrieval reads).
    pub posted_alpu_hit: Histogram,
    /// Posted-queue software searches through the hash-bin index.
    pub posted_hash: Histogram,
    /// Posted-queue software searches over the linear list (whole list in
    /// the baseline, tail after an ALPU miss, full redo after a ghost
    /// re-match).
    pub posted_linear: Histogram,
    /// Receive postings resolved by the unexpected ALPU.
    pub unexpected_alpu_hit: Histogram,
    /// Unexpected-queue linear software searches.
    pub unexpected_linear: Histogram,
}

/// The firmware: all NIC-resident MPI state plus the hardware ports.
pub struct Firmware {
    cfg: NicConfig,
    node: NodeId,
    posted: NicQueue<RecvEntry>,
    unexpected: NicQueue<UnexpEntry>,
    send_park: Vec<SendEntry>,
    rndv_expect: HashMap<(NodeId, u64), RndvExpect>,
    flow: Flow,
    wire_seq: u64,
    host_seq: u64,
    dma_rx: Dma,
    dma_tx: Dma,
    /// Posted-receive ALPU, if configured.
    pub posted_alpu: Option<AlpuPort>,
    /// Unexpected-message ALPU, if configured.
    pub unexpected_alpu: Option<AlpuPort>,
    /// Hash index over the posted queue (hash matching strategy only).
    posted_index: Option<PostedIndex>,
    faults: Faults,
    colls: CollEngine,
    stats: FwStats,
    hists: FwHists,
    /// Structured trace events buffered during a work item and drained by
    /// the NIC component into the simulation trace ring. Empty (and all
    /// pushes skipped) unless the NIC turned telemetry on, so untraced
    /// runs allocate nothing.
    telemetry: bool,
    events: Vec<(Time, TraceEvent)>,
}

impl Firmware {
    /// Build the firmware for `node` under `cfg`.
    pub fn new(node: NodeId, cfg: NicConfig) -> Firmware {
        let posted_index = match cfg.sw_match {
            SwMatch::LinearList => None,
            SwMatch::HashBins { bins } => {
                assert!(
                    cfg.posted_alpu.is_none(),
                    "hash matching and the posted-receive ALPU are mutually exclusive"
                );
                Some(PostedIndex::new(bins))
            }
        };
        Firmware {
            node,
            posted: NicQueue::new(layout::POSTED_BASE, cfg.entry_bytes),
            unexpected: NicQueue::new(layout::UNEXP_BASE, cfg.entry_bytes),
            send_park: Vec::new(),
            rndv_expect: HashMap::new(),
            flow: Flow::new(node, &cfg),
            wire_seq: 0,
            host_seq: 0,
            dma_rx: Dma::new(cfg.dma_bytes_per_ns, cfg.dma_setup),
            dma_tx: Dma::new(cfg.dma_bytes_per_ns, cfg.dma_setup),
            posted_alpu: cfg
                .posted_alpu
                .map(|s| AlpuPort::new(QueueKind::Posted, s, &cfg, node)),
            unexpected_alpu: cfg
                .unexpected_alpu
                .map(|s| AlpuPort::new(QueueKind::Unexpected, s, &cfg, node)),
            posted_index,
            faults: Faults::default(),
            colls: CollEngine::default(),
            stats: FwStats::default(),
            hists: FwHists::default(),
            telemetry: false,
            events: Vec::new(),
            cfg,
        }
    }

    /// Turn structured event collection on or off (the NIC mirrors the
    /// simulation's tracing state here each event).
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Drain the buffered trace events (oldest first).
    pub fn take_events(&mut self) -> Vec<(Time, TraceEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Match-path latency histograms.
    pub fn hists(&self) -> &FwHists {
        &self.hists
    }

    #[inline]
    fn ev(&mut self, at: Time, what: TraceEvent) {
        if self.telemetry {
            self.events.push((at, what));
        }
    }

    /// Trace an operation on `queue`, with the depth it left behind.
    fn queue_op(&mut self, at: Time, queue: QueueKind, op: QueueOpKind) {
        let depth = match queue {
            QueueKind::Posted => self.posted.len(),
            QueueKind::Unexpected => self.unexpected.len(),
        } as u32;
        self.ev(at, TraceEvent::QueueOp { queue, op, depth });
    }

    /// Statistics snapshot (folds in each unit's and each job's
    /// counters).
    pub fn stats(&self) -> FwStats {
        let mut s = self.stats;
        for port in [&self.posted_alpu, &self.unexpected_alpu]
            .into_iter()
            .flatten()
        {
            port.add_counters(&mut s);
        }
        self.flow.add_counters(&mut s);
        self.faults.add_counters(&mut s);
        self.colls.add_counters(&mut s);
        s
    }

    /// Drain the credit grants queued for the link layer. Each entry is
    /// `(peer, credits)`; the NIC piggybacks them on ACKs to `peer`.
    pub fn take_grants(&mut self) -> Vec<(NodeId, u32)> {
        std::mem::take(&mut self.flow.grants)
    }

    /// Credits returned by `peer` arrived on the link layer; refill the
    /// sender-side pool so parked eager traffic can flow again.
    pub fn credit_returned(&mut self, peer: NodeId, n: u32) {
        self.flow.credit_returned(peer, n);
    }

    /// Does admission refuse arrival `h` at the wire, before the link
    /// layer sequences it? Reads the posted queue at no simulated cost:
    /// the hardware header-copy path (Fig. 1) inspects it at wire speed.
    pub fn refuse(&mut self, h: &MsgHeader) -> bool {
        let (rpn, posted) = (self.cfg.ranks_per_node, &self.posted);
        let matches_posted = || {
            let word = header_word(rpn, h);
            posted.iter().any(|item| item.val.matches(word))
        };
        self.flow.refuse(h, self.unexpected.len(), matches_posted)
    }

    /// Posted-queue length (diagnostics/benchmarks).
    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    /// Unexpected-queue length (diagnostics/benchmarks).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// The firmware's part of the NIC's watchdog report `h`: busy while
    /// a rendezvous send is parked or deferred or a matched rendezvous
    /// receive awaits its data, plus the queue gauges.
    pub fn health(&self, h: Health) -> Health {
        let parked = self.send_park.len() as u64;
        let deferred = self.flow.deferred.len() as u64;
        let expected = self.rndv_expect.len() as u64;
        Health {
            busy: h.busy || parked + deferred + expected > 0,
            ..h
        }
        .gauge("posted", self.posted.len() as u64)
        .gauge("unexpected", self.unexpected.len() as u64)
        .gauge("sends_parked", parked)
        .gauge("sends_deferred", deferred)
        .gauge("rndv_expected", expected)
        .gauge("eager_bytes_staged", self.flow.staged_bytes)
    }

    /// Is the posted-receive ALPU currently worth probing? (See
    /// [`AlpuPort`]'s engage rule.)
    pub fn posted_engaged(&self) -> bool {
        self.posted_alpu
            .as_ref()
            .is_some_and(|p| p.engaged(&self.posted))
    }

    /// Is the posted ALPU currently quarantined? (diagnostics/tests)
    pub fn posted_quarantined(&self) -> bool {
        self.posted_alpu.as_ref().is_some_and(AlpuPort::quarantined)
    }

    /// Is the unexpected ALPU currently quarantined? (diagnostics/tests)
    pub fn unexpected_quarantined(&self) -> bool {
        self.unexpected_alpu
            .as_ref()
            .is_some_and(AlpuPort::quarantined)
    }

    /// Advance both ALPU clock domains to `now` (test/diagnostic hook:
    /// lets in-flight insert commands drain so quiescent-state invariants
    /// can be checked).
    pub fn sync_hardware(&mut self, now: Time) {
        for p in [&mut self.posted_alpu, &mut self.unexpected_alpu]
            .into_iter()
            .flatten()
        {
            p.sync(now);
        }
    }

    /// Node hosting a global rank (block distribution).
    fn node_of(&self, rank: u32) -> NodeId {
        rank / self.cfg.ranks_per_node
    }

    /// Hardware path: an incoming header is copied to the posted-receive
    /// ALPU's header FIFO the moment it arrives (Fig. 1), independent of
    /// when the processor gets to it. Returns whether a copy was
    /// delivered (the processor "can disable the delivery of duplicate
    /// information ... until it is initialized", §IV-C).
    pub fn header_arrival(&mut self, msg: &Message, now: Time) -> bool {
        if !matches!(msg.header.kind, MsgKind::Eager | MsgKind::RndvRequest) {
            return false; // protocol messages don't probe the match queues
        }
        self.flow.rx_queued();
        if !self.posted_engaged() {
            return false;
        }
        let probe = Probe::exact(header_word(self.cfg.ranks_per_node, &msg.header));
        match self.port_mut(QueueKind::Posted).push_probe(probe, now) {
            Ok(()) => true,
            Err(AlpuWedged) => {
                // The copy path backpressured past the budget: the unit is
                // wedged. Quarantine it; this header goes software-only.
                self.fail_unit(QueueKind::Posted, now);
                false
            }
        }
    }

    /// Process one work item starting at `now` on `core`; returns the
    /// finish time and the external effects.
    pub fn process(&mut self, item: WorkItem, now: Time, core: &mut Core) -> (Time, Effects) {
        let mut fx = Effects::default();
        let end = match item {
            WorkItem::Rx { msg, probed } => {
                // A collective frame (internal context, partition-bit
                // tag) that lands in the unexpected queue may be exactly
                // what a parked NIC-resident collective is waiting on.
                let coll_frame =
                    msg.header.context == crate::coll::COLL_CTX && msg.header.tag & 0x8000 != 0;
                let mut end = self.do_rx(msg, probed, now, core, &mut fx);
                if coll_frame {
                    end = self.coll_poll(end, core, &mut fx);
                }
                end
            }
            WorkItem::Host(req) => self.do_host(req, now, core, &mut fx),
            WorkItem::AlpuUpdate => self.do_update(now, core),
        };
        (end, fx)
    }

    /// Does either ALPU need an update item (re-engage, purge or insert
    /// session; see [`AlpuPort`]'s update rule)? `idle` says the NIC has
    /// no other work pending.
    pub fn update_needed(&self, idle: bool, now: Time) -> bool {
        self.posted_alpu
            .as_ref()
            .is_some_and(|p| p.wants_update(&self.posted, idle, now))
            || self
                .unexpected_alpu
                .as_ref()
                .is_some_and(|p| p.wants_update(&self.unexpected, idle, now))
    }

    // ---- Rx path -------------------------------------------------------

    fn do_rx(
        &mut self,
        msg: Message,
        probed: bool,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        // Poll + header pickup from the rx ring.
        let rxslot = layout::RXBUF_BASE + (msg.header.seq % 64) * 128;
        let t = core
            .begin(now)
            .int(cost::RX_PICKUP)
            .load(rxslot)
            .load(rxslot + 64)
            .end();
        match msg.header.kind {
            MsgKind::Eager | MsgKind::RndvRequest => {
                self.rx_match_eligible(msg, probed, t, core, fx)
            }
            MsgKind::RndvReply { token } => self.rx_rndv_reply(msg, token, t, core, fx),
            MsgKind::RndvData { token } => self.rx_rndv_data(msg, token, t, core, fx),
            MsgKind::Ack { .. } | MsgKind::Nack { .. } => {
                unreachable!("link control frames are consumed by the NIC's link layer")
            }
        }
    }

    /// Eager or rendezvous-request header: search the posted receive
    /// queue, then deliver to the matched receive or stage the message on
    /// the unexpected queue.
    fn rx_match_eligible(
        &mut self,
        msg: Message,
        probed: bool,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        self.flow.rx_taken();
        let h = msg.header;
        let word = header_word(self.cfg.ranks_per_node, &h);
        let (mut t, matched) = self.match_posted(word, probed, now, core);
        let Some((key, ghost)) = matched else {
            return self.stage_unexpected(h, t, core);
        };
        // Direct access to the entry + unlink. If the entry was
        // ALPU-resident the hardware already deleted its copy at match
        // time. Hardware occupancy can transiently trail the software
        // prefix by the number of still-unread MATCH SUCCESS responses
        // (back-to-back probes resolve in hardware before firmware
        // catches up); the two reconverge at quiesce (`check_invariants`).
        let (item, bin_walk) = self.unlink_posted(key, ghost, t);
        t = core
            .begin(t)
            .load(item.addr)
            .int(cost::POSTED_UNLINK)
            .store(item.addr)
            .end();
        if let (Some(walked), Some(index)) = (bin_walk, &self.posted_index) {
            // Hash maintenance on every successful match: the bin walk
            // that unlinked the entry, then the bin header write-back.
            let bin = layout::HASHBIN_BASE + (index.bin_index(word) as u64) * 64;
            t = bin_unlink(core, &walked, t).store(bin).end();
        }
        let arrived = UnexpEntry {
            header: h,
            truncated: false,
        };
        t = self.deliver(arrived, item.val, true, t, core, fx);
        // Matched on arrival: the message never staged in NIC memory, so
        // its credit returns immediately.
        self.flow.return_credit(&h);
        t
    }

    /// Search the posted receive queue for a header with match word
    /// `word`; the twin of [`Self::match_unexpected`]. A `probed` header
    /// first reads the posted ALPU's response: a hit is the match, a miss
    /// leaves only the software tail to walk, and a failed unit (or an
    /// orphaned probe) degrades to a walk of the whole list. A hit on a
    /// tombstone reclaims it and re-matches over the whole list — the
    /// unit's next candidate is unknowable without a DELETE command.
    /// Unprobed headers walk the hash bins or the whole list. Returns the
    /// finish time and the matched key, flagged when the entry must stay
    /// behind as a tombstone (software found it while its copy is still
    /// live in the unit).
    fn match_posted(
        &mut self,
        word: MatchWord,
        probed: bool,
        now: Time,
        core: &mut Core,
    ) -> (Time, Option<(Key, bool)>) {
        let mut t = now;
        let mut software_from = 0usize;
        if probed {
            let read;
            (t, read) = self.unit_response(QueueKind::Posted, t, core);
            match read {
                // The alarm rode in on the status word just read.
                HwRead::Poisoned => self.stats.alpu_fallbacks += 1,
                HwRead::Wedged => t = self.fallback_status_read(t, core),
                HwRead::Miss => software_from = self.posted.alpu_prefix(),
                HwRead::Hit(key) => {
                    let entry = self.posted.iter().find(|it| it.key == key);
                    if !entry
                        .expect("ALPU cookie references a live entry")
                        .val
                        .ghost
                    {
                        self.stats.posted_alpu_hits += 1;
                        self.hists.posted_alpu_hit.record(t - now);
                        return (t, Some((key, false)));
                    }
                    // The hardware matched a tombstone (a cancelled or
                    // already-consumed entry it still held): reclaim it.
                    self.stats.ghost_rematches += 1;
                    self.port_mut(QueueKind::Posted).ghosts -= 1;
                    let item = self.posted.remove_key(key);
                    t = core.begin(t).load(item.addr).int(cost::GHOST_RECLAIM).end();
                }
            }
        }
        let run = core.begin(t);
        let (hit, visited, run, source) = match &self.posted_index {
            Some(index) => {
                // Hash strategy: bin walk + mandatory wildcard walk.
                let p = index.probe(word);
                let hit = p.hit.map(|key| (key, false));
                let run = run.int(cost::HASH_PROBE);
                (hit, p.visited, run, SearchSource::HashIndex)
            }
            None => {
                let mut visited = Vec::new();
                let hit = self
                    .posted
                    .find_from(software_from, |e| e.matches(word), &mut visited)
                    .map(|(pos, key)| (key, self.posted.get(pos).in_alpu));
                (hit, visited, run, SearchSource::Linear)
            }
        };
        t = self.charge_walk(QueueKind::Posted, source, run, &visited);
        (t, hit)
    }

    /// Unlink posted receive `key` at `at`, tracing the queue operation.
    /// With `ghost` the entry stays behind as a tombstone (its copy still
    /// sits in the ALPU; see [`RecvEntry::ghost`]); otherwise it is
    /// removed, along with its hash-bin link. Returns the entry as it was
    /// and, under hash matching, the bin addresses walked to find the
    /// link, for the caller to charge ([`bin_unlink`]).
    fn unlink_posted(
        &mut self,
        key: Key,
        ghost: bool,
        at: Time,
    ) -> (Item<RecvEntry>, Option<Vec<u64>>) {
        if ghost {
            let item = self.posted.iter().find(|it| it.key == key);
            let item = item.expect("tombstone target is live").clone();
            self.posted.update_key(key, |e| e.ghost = true);
            self.port_mut(QueueKind::Posted).ghosts += 1;
            self.queue_op(at, QueueKind::Posted, QueueOpKind::Ghost);
            return (item, None);
        }
        let item = self.posted.remove_key(key);
        self.queue_op(at, QueueKind::Posted, QueueOpKind::Remove);
        let walked = self.posted_index.as_mut().map(|index| index.remove(key));
        (item, walked)
    }

    /// No posted receive matched `h`: append it to the unexpected queue.
    /// An eager payload is buffered in NIC memory by the Rx DMA — unless
    /// the staging pool is exhausted, in which case only the envelope is
    /// kept (header-only admit) and the eventual receive reports
    /// `overflow`.
    fn stage_unexpected(&mut self, h: MsgHeader, now: Time, core: &mut Core) -> Time {
        self.stats.unexpected_arrivals += 1;
        let staged = h.kind == MsgKind::Eager && h.payload_len > 0;
        let truncated = self.flow.stage(&h);
        let (_, addr) = self.unexpected.push(UnexpEntry {
            header: h,
            truncated,
        });
        self.stats.unexpected_highwater = self
            .stats
            .unexpected_highwater
            .max(self.unexpected.len() as u64);
        self.queue_op(now, QueueKind::Unexpected, QueueOpKind::Push);
        let t = core
            .begin(now)
            .int(cost::STAGE)
            .store(addr)
            .store(addr + 32)
            .end();
        if staged && !truncated {
            self.dma(DmaDir::Rx, h.payload_len, t);
        }
        t
    }

    /// Deliver `msg` to the posted receive `rx` it matched. An eager
    /// payload is DMAed to the user buffer and completes truncated to the
    /// buffer, like MPI; a header-only admit completes with `overflow`
    /// and no bytes (`MPI_ERR_TRUNCATE`-like). A rendezvous request is
    /// answered with a clear-to-send; its data will arrive as `RndvData`
    /// carrying our token. A match made on arrival also charges the
    /// receive path's bookkeeping ([`cost::DELIVER_EAGER`] after an eager
    /// completion, [`cost::DELIVER_RNDV`] before a clear-to-send); a
    /// match made by a receive's post charges none.
    fn deliver(
        &mut self,
        msg: UnexpEntry,
        rx: RecvEntry,
        on_arrival: bool,
        mut t: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        let h = msg.header;
        match h.kind {
            MsgKind::Eager => {
                let delivered = if msg.truncated {
                    0
                } else {
                    h.payload_len.min(rx.len)
                };
                let comp = Completion {
                    overflow: msg.truncated,
                    ..Completion::ok(rx.req, h.src_rank, h.tag, delivered)
                };
                let done = if h.payload_len > 0 && !msg.truncated {
                    self.dma(DmaDir::Rx, h.payload_len, t)
                } else {
                    t
                };
                fx.completions.push((done + self.cfg.completion_cost, comp));
                if on_arrival {
                    t = core.begin(t).int(cost::DELIVER_EAGER).end();
                }
            }
            MsgKind::RndvRequest => {
                self.rndv_expect.insert(
                    (h.src_node, h.seq),
                    RndvExpect {
                        req: rx.req,
                        len: h.payload_len,
                        src_rank: h.src_rank,
                        tag: h.tag,
                    },
                );
                if on_arrival {
                    t = core.begin(t).int(cost::DELIVER_RNDV).end();
                }
                let reply = self.make_msg(
                    h.src_rank as u32,
                    rx.req.rank,
                    h.context,
                    h.tag,
                    0,
                    MsgKind::RndvReply { token: h.seq },
                );
                if !self.flow.leak_cts() {
                    let at = self.inject(reply.wire_bytes(), t);
                    fx.tx.push((at, reply));
                }
            }
            _ => unreachable!("only match-eligible headers are matched"),
        }
        t
    }

    /// Move `bytes` of payload through the `dir` DMA engine starting at
    /// `t`, tracing the transfer; returns when it lands.
    fn dma(&mut self, dir: DmaDir, bytes: u32, t: Time) -> Time {
        let engine = match dir {
            DmaDir::Rx => &mut self.dma_rx,
            DmaDir::Tx => &mut self.dma_tx,
        };
        let (start, done) = engine.transfer(bytes as u64, t);
        self.ev(
            start,
            TraceEvent::Dma {
                dir,
                bytes: bytes as u64,
                dur: done - start,
            },
        );
        done
    }

    fn rx_rndv_reply(
        &mut self,
        msg: Message,
        token: u64,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        // Find the parked send (short list scan).
        let pos = self
            .send_park
            .iter()
            .position(|s| s.token == token && self.node_of(s.send.dst) == msg.header.src_node);
        let mut run = core.begin(now).int(cost::PARK_SCAN);
        for entry in self.send_park.iter().take(pos.unwrap_or(0) + 1) {
            run = run.load_chain(entry.addr).int(cost::PARK_COMPARE);
        }
        let mut t = run.end();
        let Some(pos) = pos else {
            let bug = "rndv reply for unknown send";
            self.faults.drop_stale_rndv(msg.header.src_node, bug);
            return t;
        };
        let s = self.send_park.remove(pos).send;
        // DMA the payload from host memory and ship it.
        let dma_done = self.dma(DmaDir::Tx, s.len, t);
        t = core.begin(t).int(cost::RNDV_SHIP).end();
        let kind = MsgKind::RndvData { token };
        let data = self.make_msg(s.dst, s.req.rank, s.context, s.tag, s.len, kind);
        let at = dma_done.max(t);
        fx.tx.push((at, data));
        // Local send completion once the data left.
        fx.completions
            .push((at + self.cfg.completion_cost, s.completion()));
        // The handshake to this peer is over: release the sends held
        // behind it.
        let peer = msg.header.src_node;
        self.flow.rndv_shipped(peer);
        while let Some(s) = self.flow.released(peer) {
            t = self.send_now(s, t, core, fx);
        }
        t
    }

    fn rx_rndv_data(
        &mut self,
        msg: Message,
        token: u64,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        let mut t = core.begin(now).int(cost::RNDV_DATA_LOOKUP).end();
        let Some(exp) = self.rndv_expect.remove(&(msg.header.src_node, token)) else {
            let bug = "rndv data for unknown token";
            self.faults.drop_stale_rndv(msg.header.src_node, bug);
            return t;
        };
        let done = self.dma(DmaDir::Rx, exp.len, t);
        t = core.begin(t).int(cost::RNDV_DATA_COMPLETE).end();
        let comp = Completion::ok(exp.req, exp.src_rank, exp.tag, exp.len);
        fx.completions.push((done + self.cfg.completion_cost, comp));
        t
    }

    // ---- Host request path ---------------------------------------------

    fn do_host(&mut self, req: HostRequest, now: Time, core: &mut Core, fx: &mut Effects) -> Time {
        // Pick the request out of the mailbox.
        let slot = layout::MAILBOX_BASE + (self.host_seq % 16) * 64;
        self.host_seq += 1;
        let t = core.begin(now).int(cost::MAILBOX).load(slot).end();
        match req {
            HostRequest::CancelRecv { target } => self.do_cancel(target, t, core, fx),
            HostRequest::Probe {
                req,
                src,
                context,
                tag,
            } => {
                let probe = self.recv_probe(req, src, context, tag);
                self.do_probe(req, probe, t, core, fx)
            }
            HostRequest::PostSend {
                req,
                dst,
                context,
                tag,
                len,
            } => {
                let send = SendReq {
                    req,
                    dst,
                    context,
                    tag,
                    len,
                };
                self.do_post_send(send, t, core, fx)
            }
            HostRequest::PostRecv {
                req,
                src,
                context,
                tag,
                len,
            } => {
                let Probe { word, mask } = self.recv_probe(req, src, context, tag);
                let rx = RecvEntry {
                    req,
                    word,
                    mask,
                    len,
                    ghost: false,
                };
                self.do_post_recv(rx, t, core, fx)
            }
            HostRequest::Collective { .. } => self.do_collective(req, t, core, fx),
        }
    }

    /// The match probe of a receive (or `MPI_Iprobe`) posted by `req`'s
    /// process.
    fn recv_probe(&self, req: ReqId, src: Option<u16>, context: u16, tag: Option<u16>) -> Probe {
        Probe::recv(
            eff_ctx(self.cfg.ranks_per_node, context, req.rank),
            src,
            tag,
        )
    }

    // ---- Send path -----------------------------------------------------

    fn do_post_send(&mut self, s: SendReq, now: Time, core: &mut Core, fx: &mut Effects) -> Time {
        let t = core.begin(now).int(cost::SEND_DISPATCH).end();
        let peer = self.node_of(s.dst);
        // ULFM-style typed failure at post time: the peer is already
        // declared dead, so this send can never complete — finish it now
        // instead of parking it forever.
        if self.peer_dead(peer) {
            self.faults
                .fail_op(t + self.cfg.completion_cost, s.failed(), fx);
            return t;
        }
        if self.flow.defer(peer, s) {
            return t;
        }
        self.send_now(s, t, core, fx)
    }

    /// The actual send path (eager or rendezvous), past the deferral
    /// gate. `t` already includes the dispatch bookkeeping cost.
    fn send_now(&mut self, s: SendReq, mut t: Time, core: &mut Core, fx: &mut Effects) -> Time {
        let peer = self.node_of(s.dst);
        let eager = s.len <= self.cfg.eager_threshold && self.flow.spend_credit(peer, s.len);
        let kind = if eager {
            MsgKind::Eager
        } else {
            MsgKind::RndvRequest
        };
        let msg = self.make_msg(s.dst, s.req.rank, s.context, s.tag, s.len, kind);
        if eager {
            // Eager: DMA payload from host, send header+payload.
            let at = if s.len > 0 {
                self.dma(DmaDir::Tx, s.len, t)
            } else {
                self.inject(msg.wire_bytes(), t)
            };
            fx.completions
                .push((at + self.cfg.completion_cost, s.completion()));
            fx.tx.push((at, msg));
            t = core.begin(t).int(cost::EAGER_SEND).bus_write().end();
        } else {
            // Rendezvous: header-only request; park the send.
            self.flow.rndv_started(peer);
            let addr = layout::SENDQ_BASE + (self.send_park.len() as u64) * 64;
            self.send_park.push(SendEntry {
                send: s,
                token: msg.header.seq,
                addr,
            });
            t = core.begin(t).int(cost::RNDV_PARK).store(addr).end();
            let at = self.inject(msg.wire_bytes(), t);
            fx.tx.push((at, msg));
        }
        t
    }

    // ---- Receive path --------------------------------------------------

    /// Probe the unexpected queue for `probe` — hardware first when the
    /// unexpected ALPU is engaged, software walk otherwise (or after a
    /// miss/fallback) — charging the full §IV-D retrieval and search
    /// costs. Returns the finish time and the matched key, if any. This
    /// is the matching core both `do_post_recv` and the collective
    /// engine's harvest path go through: routing *every* consumer here
    /// keeps the ALPU's hardware shadow in sync with the software queue
    /// (a hardware match deletes its cell, so the software removal must
    /// always be paired with the probe that triggered it).
    fn match_unexpected(
        &mut self,
        probe: Probe,
        now: Time,
        core: &mut Core,
    ) -> (Time, Option<Key>) {
        let mut t = now;
        let mut software_from = 0usize;
        if self
            .unexpected_alpu
            .as_ref()
            .is_some_and(|p| p.engaged(&self.unexpected))
        {
            // Hardware copy of the new receive probes the unexpected
            // unit. This exchange is synchronous within the work item, so
            // a failure needs no orphan bookkeeping: quarantine and walk
            // the whole queue in software right here.
            let read = match self.port_mut(QueueKind::Unexpected).push_probe(probe, t) {
                Ok(()) => {
                    let read;
                    (t, read) = self.unit_response(QueueKind::Unexpected, t, core);
                    read
                }
                Err(AlpuWedged) => {
                    self.fail_unit(QueueKind::Unexpected, t);
                    HwRead::Wedged
                }
            };
            match read {
                HwRead::Hit(key) => {
                    self.stats.unexpected_alpu_hits += 1;
                    self.hists.unexpected_alpu_hit.record(t - now);
                    return (t, Some(key));
                }
                HwRead::Miss => software_from = self.unexpected.alpu_prefix(),
                // Degraded: software_from stays 0 (full walk).
                HwRead::Poisoned | HwRead::Wedged => t = self.fallback_status_read(t, core),
            }
        }
        let mut visited = Vec::new();
        let pred = unexpected_match(self.cfg.ranks_per_node, probe);
        let hit = self.unexpected.find_from(software_from, pred, &mut visited);
        let (queue, source) = (QueueKind::Unexpected, SearchSource::Linear);
        t = self.charge_walk(queue, source, core.begin(t), &visited);
        (t, hit.map(|(_, key)| key))
    }

    /// Take matched entry `key` off the unexpected queue: unlink it,
    /// release its staged payload bytes and return its sender's credit.
    /// Returns the finish time and the entry.
    fn consume_unexpected(&mut self, key: Key, now: Time, core: &mut Core) -> (Time, UnexpEntry) {
        let item = self.unexpected.remove_key(key);
        self.queue_op(now, QueueKind::Unexpected, QueueOpKind::Remove);
        let t = core
            .begin(now)
            .load(item.addr)
            .int(cost::CONSUME)
            .store(item.addr)
            .end();
        self.flow.release(&item.val.header, item.val.truncated);
        (t, item.val)
    }

    fn do_post_recv(
        &mut self,
        rx: RecvEntry,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        let probe = Probe {
            word: rx.word,
            mask: rx.mask,
        };
        let (t, matched) = self.match_unexpected(probe, now, core);
        if let Some(key) = matched {
            let (t, msg) = self.consume_unexpected(key, t, core);
            return self.deliver(msg, rx, false, t, core, fx);
        }
        // Nothing already arrived: a receive pinned to a rank on a dead
        // node can never match — fail it typed, now, instead of posting
        // an obligation nothing will satisfy. (A match above is still
        // honored: the message was sent before the failure, which ULFM
        // lets us deliver.)
        if rx
            .pinned_source()
            .is_some_and(|s| self.peer_dead(self.node_of(s as u32)))
        {
            self.faults
                .fail_op(t + self.cfg.completion_cost, rx.failed(), fx);
            return t;
        }
        // Post it: append to the posted-receive queue.
        let (key, addr) = self.posted.push(rx);
        self.queue_op(t, QueueKind::Posted, QueueOpKind::Push);
        let mut t = core
            .begin(t)
            .int(cost::POST_RECV)
            .store(addr)
            .store(addr + 32)
            .end();
        if let Some(index) = &mut self.posted_index {
            // The insertion cost the paper calls prohibitive (§II): hash
            // the triplet, read-modify-write the bin header, link the
            // entry in.
            index.insert(key, addr, rx.word, rx.mask);
            let bin = layout::HASHBIN_BASE + (index.bin_index(rx.word) as u64) * 64;
            t = core
                .begin(t)
                .int(cost::HASH_INSERT)
                .load_chain(bin)
                .store(bin)
                .store(addr + 48)
                .end();
        }
        t
    }

    /// `MPI_Iprobe`: peek the unexpected queue without consuming. The
    /// unexpected ALPU cannot help here — its matches *delete* the
    /// matched cell (the delete is baked into the pipeline, §III-B) — so
    /// probing is always a software walk, ALPU or not. The completion's
    /// `cancelled` flag carries `flag == false`.
    fn do_probe(
        &mut self,
        req: ReqId,
        probe: Probe,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        let mut visited = Vec::new();
        let pred = unexpected_match(self.cfg.ranks_per_node, probe);
        let hit = self.unexpected.find_from(0, pred, &mut visited);
        let run = core.begin(now).int(cost::PROBE);
        let source = SearchSource::Linear;
        let t = self.charge_walk(QueueKind::Unexpected, source, run, &visited);
        let comp = match hit {
            Some((pos, _)) => {
                let h = self.unexpected.get(pos).val.header;
                Completion::ok(req, h.src_rank, h.tag, h.payload_len)
            }
            // flag == false: nothing waiting.
            None => Completion::cancelled(req, 0, 0),
        };
        fx.completions.push((t + self.cfg.completion_cost, comp));
        t
    }

    /// Live tombstone count (diagnostics).
    pub fn posted_ghost_count(&self) -> usize {
        self.posted_alpu.as_ref().map_or(0, |p| p.ghosts)
    }

    /// `MPI_Cancel` on a posted receive (§II's wildcard-workaround
    /// ingredient). Entries still in software unlink immediately;
    /// ALPU-resident entries become tombstones because Table I offers no
    /// DELETE command — they are reclaimed when the hardware matches
    /// them.
    fn do_cancel(&mut self, target: ReqId, now: Time, core: &mut Core, fx: &mut Effects) -> Time {
        let mut visited = Vec::new();
        let hit = self
            .posted
            .find_from(0, |e| !e.ghost && e.req == target, &mut visited);
        let mut run = core.begin(now).int(cost::CANCEL_SCAN);
        for &addr in &visited {
            run = run.load_chain(addr).int(cost::CANCEL_COMPARE);
        }
        let mut t = run.end();
        let Some((pos, key)) = hit else {
            // Already matched (or never existed): the normal completion
            // stands; the cancel is a no-op.
            return t;
        };
        let in_alpu = self.posted.get(pos).in_alpu;
        let (item, bin_walk) = self.unlink_posted(key, in_alpu, t);
        if in_alpu {
            self.stats.ghosted_cancels += 1;
        }
        if let Some(walked) = bin_walk {
            t = bin_unlink(core, &walked, t).end();
        }
        t = core
            .begin(t)
            .int(cost::CANCEL_COMPLETE)
            .store(item.addr)
            .end();
        let comp = Completion::cancelled(target, 0, item.val.word.tag());
        fx.completions.push((t + self.cfg.completion_cost, comp));
        t
    }

    // ---- ALPU unit lifecycle (§IV-B/C/D): queue-side halves of AlpuPort's rules

    /// The unit shadowing `unit`'s queue, if configured.
    fn port(&self, unit: QueueKind) -> Option<&AlpuPort> {
        match unit {
            QueueKind::Posted => self.posted_alpu.as_ref(),
            QueueKind::Unexpected => self.unexpected_alpu.as_ref(),
        }
    }

    /// The unit shadowing `unit`'s queue; only called on paths where the
    /// unit exists (it probed, holds entries, or is being serviced).
    fn port_mut(&mut self, unit: QueueKind) -> &mut AlpuPort {
        match unit {
            QueueKind::Posted => &mut self.posted_alpu,
            QueueKind::Unexpected => &mut self.unexpected_alpu,
        }
        .as_mut()
        .expect("unit present")
    }

    /// Read `unit`'s response to the oldest outstanding probe (§IV-D,
    /// [`AlpuPort::read_response`]), starting at `now`. A probe orphaned
    /// by an earlier quarantine has no response left to read; a poisoned
    /// or wedged unit is quarantined here. The caller charges the
    /// software fallback.
    fn unit_response(&mut self, unit: QueueKind, now: Time, core: &mut Core) -> (Time, HwRead) {
        let port = self.port_mut(unit);
        if port.orphans > 0 {
            port.orphans -= 1;
            return (now, HwRead::Wedged);
        }
        let (t, read) = port.read_response(now, core);
        match read {
            HwRead::Hit(_) | HwRead::Miss => {
                let hit = matches!(read, HwRead::Hit(_));
                self.ev(
                    now,
                    TraceEvent::AlpuResponse {
                        unit,
                        hit,
                        dur: t - now,
                    },
                );
            }
            HwRead::Poisoned | HwRead::Wedged => self.fail_unit(unit, t),
        }
        (t, read)
    }

    /// A work item whose unit failed under it: one status read discovers
    /// the unit is offline, then software takes over.
    fn fallback_status_read(&mut self, t: Time, core: &mut Core) -> Time {
        self.stats.alpu_fallbacks += 1;
        core.begin(t).bus_read().int(cost::STATUS_DECODE).end()
    }

    /// Charge a software walk that visited `visited` to `run`, which
    /// holds the walk's prelude: a dependent load and a compare per entry.
    /// Counts the entries, records the search's trace event and, when it
    /// visited an entry, its histogram sample; returns the end time.
    fn charge_walk(
        &mut self,
        queue: QueueKind,
        source: SearchSource,
        mut run: Run<'_>,
        visited: &[u64],
    ) -> Time {
        let t = run.start();
        for &addr in visited {
            run = run.load_chain(addr).int(cost::ENTRY_COMPARE);
        }
        let end = run.end();
        let (count, hist) = match (queue, source) {
            (QueueKind::Posted, SearchSource::HashIndex) => (
                &mut self.stats.posted_entries_traversed,
                &mut self.hists.posted_hash,
            ),
            (QueueKind::Posted, _) => (
                &mut self.stats.posted_entries_traversed,
                &mut self.hists.posted_linear,
            ),
            (QueueKind::Unexpected, _) => (
                &mut self.stats.unexpected_entries_traversed,
                &mut self.hists.unexpected_linear,
            ),
        };
        *count += visited.len() as u64;
        // A search of an empty queue is no walk: it adds no sample.
        if !visited.is_empty() {
            hist.record(end - t);
        }
        let entries = visited.len() as u32;
        self.ev(
            t,
            TraceEvent::SwSearch {
                queue,
                source,
                entries,
                dur: end - t,
            },
        );
        end
    }

    /// Take `unit` out of service ([`AlpuPort::quarantine`]) and drop its
    /// queue's ALPU marks: the software queue — the source of truth — is
    /// otherwise untouched, so matching continues degraded but correct.
    fn fail_unit(&mut self, unit: QueueKind, now: Time) {
        self.port_mut(unit).quarantine(now);
        self.unit_emptied(unit);
        self.ev(
            now,
            TraceEvent::Quarantine {
                unit,
                engaged: false,
            },
        );
    }

    /// `unit` was just emptied by a RESET: every live entry becomes tail
    /// again, and the posted queue's tombstones, which lived only in the
    /// hardware, are dropped. Returns the dropped tombstones' addresses.
    fn unit_emptied(&mut self, unit: QueueKind) -> Vec<u64> {
        if unit == QueueKind::Unexpected {
            self.unexpected.clear_alpu_marks();
            return Vec::new();
        }
        let dead: Vec<Key> = self
            .posted
            .iter()
            .filter(|it| it.val.ghost)
            .map(|it| it.key)
            .collect();
        let addrs = dead
            .into_iter()
            .map(|key| self.posted.remove_key(key).addr)
            .collect();
        self.posted.clear_alpu_marks();
        self.port_mut(QueueKind::Posted).ghosts = 0;
        addrs
    }

    /// RESET the posted ALPU and drop tombstones; the subsequent insert
    /// session (same update item) re-fills it from the live queue.
    fn purge_posted(&mut self, now: Time, core: &mut Core) -> Time {
        let port = self.port_mut(QueueKind::Posted);
        if !port.probe_quiescent(now) {
            return now; // retry on a later update
        }
        let Ok(mut t) = port.push_command(Command::Reset, now) else {
            // Can't even push RESET: quarantine does the same cleanup
            // through the reset pin.
            self.fail_unit(QueueKind::Posted, now);
            return now;
        };
        t = core.begin(t).int(cost::ALPU_COMMAND).bus_write().end();
        self.port_mut(QueueKind::Posted).sync(t + Time::from_ns(20));
        let mut run = core.begin(t).int(cost::PURGE_SWEEP);
        for addr in self.unit_emptied(QueueKind::Posted) {
            run = run.store(addr);
        }
        self.stats.alpu_purges += 1;
        run.end()
    }

    /// The update item: re-engage both units whose cooldown has expired,
    /// purge the posted unit's tombstones if due, then run each unit's
    /// insert session.
    fn do_update(&mut self, now: Time, core: &mut Core) -> Time {
        let mut t = now;
        for unit in UNITS {
            if self.port(unit).is_some() && self.port_mut(unit).reengage(now) {
                t = core.begin(t).int(cost::REENGAGE).bus_write().end();
                self.ev(
                    t,
                    TraceEvent::Quarantine {
                        unit,
                        engaged: true,
                    },
                );
            }
        }
        if self
            .posted_alpu
            .as_ref()
            .is_some_and(AlpuPort::purge_needed)
        {
            let purge_start = t;
            let ghosts = self.posted_ghost_count() as u32;
            t = self.purge_posted(t, core);
            if t > purge_start {
                self.ev(
                    purge_start,
                    TraceEvent::AlpuCommand {
                        unit: QueueKind::Posted,
                        kind: AlpuCmdKind::Reset,
                        dur: t - purge_start,
                        entries: ghosts,
                    },
                );
            }
        }
        for unit in UNITS {
            t = self.refill_unit(unit, t, core);
        }
        t
    }

    /// Run `unit`'s insert session ([`AlpuPort::insert_session`]) if one
    /// is due, tracing it, and quarantine the unit if it wedged.
    fn refill_unit(&mut self, unit: QueueKind, now: Time, core: &mut Core) -> Time {
        let rpn = self.cfg.ranks_per_node;
        let (t, inserted, wedged) = match unit {
            QueueKind::Posted => match &mut self.posted_alpu {
                Some(p) if p.session_due(&self.posted) => {
                    p.insert_session(&mut self.posted, now, core, |e| (e.word, e.mask))
                }
                _ => return now,
            },
            QueueKind::Unexpected => match &mut self.unexpected_alpu {
                Some(p) if p.session_due(&self.unexpected) => {
                    p.insert_session(&mut self.unexpected, now, core, |e| {
                        (header_word(rpn, &e.header), MaskWord::EXACT)
                    })
                }
                _ => return now,
            },
        };
        if inserted > 0 {
            self.ev(
                now,
                TraceEvent::AlpuCommand {
                    unit,
                    kind: AlpuCmdKind::InsertSession,
                    dur: t - now,
                    entries: inserted as u32,
                },
            );
        }
        if wedged {
            self.fail_unit(unit, t);
        }
        t
    }

    // ---- Helpers -------------------------------------------------------

    fn make_msg(
        &mut self,
        dst_rank: u32,
        src_rank: u32,
        context: u16,
        tag: u16,
        len: u32,
        kind: MsgKind,
    ) -> Message {
        self.wire_seq += 1;
        Message::new(MsgHeader {
            src_node: self.node,
            dst_node: self.node_of(dst_rank),
            dst_rank,
            context,
            src_rank: src_rank as u16,
            tag,
            payload_len: len,
            kind,
            seq: self.wire_seq - 1,
        })
    }

    /// Serialize a header-only (or already-DMAed) message through the Tx
    /// engine so per-destination ordering is preserved even when payload
    /// DMAs of earlier messages are still draining.
    fn inject(&mut self, wire_bytes: u64, t: Time) -> Time {
        let (_, done) = self
            .dma_tx
            .transfer(wire_bytes.min(Message::HEADER_BYTES), t);
        done
    }
}

/// Open a run charging the hash-bin walk that found an unlinked posted
/// receive's link: the bin search, then a load of each of the first eight
/// links `walked`.
fn bin_unlink<'c>(core: &'c mut Core, walked: &[u64], t: Time) -> Run<'c> {
    let run = core.begin(t).int(cost::BIN_UNLINK);
    walked.iter().take(8).fold(run, |run, &addr| run.load(addr))
}

/// Check the software/hardware shadowing invariants: each queue's
/// ALPU-resident entries form a prefix, and each unit holds exactly that
/// prefix once the commands it has already accepted drain. Exact at any
/// point between work items, including the end of a run that stopped
/// with an insert session still queued in a unit.
pub fn check_invariants(fw: &Firmware) {
    assert!(fw.posted.check_prefix_invariant());
    assert!(fw.unexpected.check_prefix_invariant());
    let prefixes = [fw.posted.alpu_prefix(), fw.unexpected.alpu_prefix()];
    for (unit, prefix) in UNITS.into_iter().zip(prefixes) {
        if let Some(port) = fw.port(unit) {
            port.check_shadow(prefix);
        }
    }
}
