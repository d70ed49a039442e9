//! The NIC firmware: the MPI engine of §V-C, with the ALPU management
//! heuristics of §IV.
//!
//! The firmware executes functionally in Rust; timing comes from charging
//! each step's work to the embedded [`Core`] as it goes, at the counts
//! named in [`cost`], and from explicit interactions with the cycle-level
//! [`Alpu`](mpiq_alpu::Alpu)s. Each
//! externally triggered activity is a [`WorkItem`]; the NIC component
//! serializes items on the (single) embedded processor.
//!
//! Protocol summary:
//!
//! * **Eager** (payload ≤ threshold): header+payload in one message. On a
//!   posted-queue match the Rx DMA moves the payload to the user buffer;
//!   unmatched payloads are buffered in NIC memory on the unexpected
//!   queue.
//! * **Rendezvous**: the request carries only the header. The receiver
//!   replies with a clear-to-send on match; the sender then DMAs the data
//!   across; the receiver DMAs it to the user buffer on arrival.
//!
//! ALPU usage follows §IV-B/C/D: the software keeps the full queues (the
//! ALPU returns a *key* into them), an insert session moves the
//! not-yet-inserted tail into the unit in batches, every match-eligible
//! header is answered by exactly one MATCH response which the firmware
//! pairs with its message, and a failed hardware match falls back to a
//! software search of the tail only. Those rules are written once, for
//! both queues, in [`AlpuPort`] (the `alpu` submodule: one unit's whole
//! lifecycle); this file keeps the four-action loop — poll the network,
//! poll the host, advance active work, update the ALPUs — and the
//! queue-side halves of each rule.
//!
//! Every match ends in one of a few outcomes, each written once and
//! shared by every caller:
//!
//! * `match_posted` and `match_unexpected` search a queue: the ALPU
//!   response, a tombstone re-match, then the hash-bin or linear walk;
//! * `deliver` finishes a match, made on arrival or by a receive's post:
//!   the eager Rx DMA and completion, or the rendezvous clear-to-send;
//! * `stage_unexpected` queues an arrival nothing matched;
//! * `consume_unexpected` takes a matched message off the unexpected
//!   queue, for a receive or a collective harvest, releasing its staged
//!   bytes and returning its sender's credit (`return_credit`);
//! * `unlink_posted` removes a posted receive or leaves its tombstone,
//!   for a match, a cancel or a dead peer;
//! * `fail_op` finishes an operation with a typed `rank_failed`
//!   completion.
//!
//! Completions are built by the [`Completion`] constructors.

mod alpu;
pub mod cost;

pub use alpu::{AlpuPort, AlpuWedged};

use crate::coll::{self, CollOp, Dir};
use crate::config::{NicConfig, SwMatch};
use crate::dma::Dma;
use crate::hashmatch::PostedIndex;
use crate::host_iface::{Completion, HostRequest, ReqId};
use crate::queues::{Item, Key, NicQueue};
use alpu::HwRead;
use mpiq_alpu::match_types::masked_eq;
use mpiq_alpu::{Command, MaskWord, MatchWord, Probe};
use mpiq_cpusim::{Core, Run};
use mpiq_dessim::trace::{AlpuCmdKind, DmaDir, QueueKind, QueueOpKind, SearchSource, TraceEvent};
use mpiq_dessim::{FaultPlan, Histogram, Time};
use mpiq_net::{Message, MsgHeader, MsgKind, NodeId};
use std::collections::{BTreeSet, HashMap, VecDeque};

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
    /// Hardware matches that landed on tombstones and were re-matched in
    /// software.
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
    /// Parity errors detected when reading responses from a unit whose
    /// stored match words were corrupted.
    pub alpu_parity_errors: u64,
    /// Cycles spent spinning on a full ALPU command FIFO (bounded; a
    /// budget overrun quarantines the unit instead of hanging).
    pub alpu_overflow_spins: u64,
    /// Cycles spent spinning on a full ALPU probe (header-copy) FIFO.
    pub alpu_probe_spins: u64,
    /// Probes dropped because the probe FIFO never drained within the
    /// spin budget (the unit is wedged and quarantined).
    pub alpu_probe_drops: u64,
    /// High-water mark of the unexpected queue (entries).
    pub unexpected_highwater: u64,
    /// High-water mark of staged eager payload bytes.
    pub eager_bytes_highwater: u64,
    /// Unmatched eager arrivals admitted header-only because the staging
    /// pool ([`NicConfig::eager_buffer_bytes`]) was exhausted.
    pub truncated_admits: u64,
    /// Match-eligible arrivals refused at the wire because the unexpected
    /// queue was at [`NicConfig::max_unexpected`] (go-back-N retransmits
    /// them later — this is backpressure, not loss).
    pub admission_refused: u64,
    /// Eager sends demoted to the rendezvous path for lack of credit.
    pub credit_stalls: u64,
    /// Eager credits spent (one per credited eager send).
    pub credits_spent: u64,
    /// Eager credits granted back to senders as staged messages were
    /// consumed.
    pub grants_issued: u64,
    /// Credit grants lost to injected firmware leaks (`leak=P`).
    pub grants_leaked: u64,
    /// Rendezvous clear-to-sends lost to injected firmware leaks.
    pub cts_leaked: u64,
    /// Sends held back behind an in-flight rendezvous to the same peer
    /// (deadlock avoidance while the admission bound is armed).
    pub sends_deferred: u64,
    /// Peer nodes declared dead (crash-stop detection or a link past its
    /// retry budget with a fault schedule armed).
    pub peers_failed: u64,
    /// Operations finished with a typed `rank_failed` completion instead
    /// of hanging on a dead peer.
    pub ops_rank_failed: u64,
    /// ALPUs permanently retired by a scheduled hardware death (never
    /// re-engaged; matching pinned to the software path).
    pub alpus_killed: u64,
    /// Late rendezvous control frames from an already-declared-dead peer,
    /// dropped because their parked state was failed at detection time.
    pub stale_rndv_dropped: u64,
    /// Dead peers un-declared because they restarted under a new
    /// incarnation epoch (the sticky death cleared; traffic may resume).
    pub peers_revived: u64,
    /// Collectives accepted for NIC-side offload.
    pub coll_offloaded: u64,
    /// Collective offloads declined back to the host (`cancelled`
    /// completion; the host replays the identical step plan itself).
    pub coll_declined: u64,
    /// Collective step frames injected by the NIC engine.
    pub coll_steps_sent: u64,
    /// Collective step frames harvested from the unexpected queue by the
    /// NIC engine.
    pub coll_steps_recv: u64,
    /// Offloaded collectives finished with a typed `rank_failed`
    /// completion because a step peer died mid-plan.
    pub coll_rank_failed: u64,
}

/// Match-path latency histograms, one per entry source (§VI's latency
/// breakdown). Always recorded — a [`Histogram::record`] is a handful of
/// integer ops — and published to the metrics registry only when the
/// harness enabled it.
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

/// One NIC-resident collective in flight: the shared step plan
/// ([`coll::steps`]) plus a cursor. Steps run strictly in plan
/// order; a `Recv` step that no arrived frame satisfies parks the
/// instance until a collective frame arrives or the step's peer is
/// declared dead.
struct CollInstance {
    /// The host request answered by the single end-of-plan completion.
    req: ReqId,
    /// The shared step plan, identical to the host fallback's.
    steps: Vec<coll::CollStep>,
    /// Next step to run.
    idx: usize,
    /// First dead peer encountered mid-plan: steps naming a dead peer
    /// are skipped and the end completion is typed `rank_failed` with
    /// this rank as its source. Never set for agreement instances —
    /// there, dead peers are the *payload*, not an error.
    failed: Option<u16>,
    /// True for [`CollOp::Agree`] instances: the failed-set
    /// mask below rides in every sent frame's `payload_len`, arriving
    /// frames OR theirs in, and the end completion reports the mask in
    /// `len` instead of typing a failure.
    agree: bool,
    /// Accumulated failed-rank bitmask (agreement instances only):
    /// seeded from the request's `len`, grown by every received mask and
    /// every dead peer met mid-plan (in step order, matching the host
    /// fallback's discovery order byte for byte).
    mask: u16,
}

/// The firmware: all NIC-resident MPI state plus the hardware ports.
pub struct Firmware {
    cfg: NicConfig,
    node: NodeId,
    posted: NicQueue<RecvEntry>,
    unexpected: NicQueue<UnexpEntry>,
    send_park: Vec<SendEntry>,
    rndv_expect: HashMap<(NodeId, u64), RndvExpect>,
    /// Sender-side eager credit pools, one per destination node, lazily
    /// seeded with [`NicConfig::eager_credits`]. Empty (and never
    /// touched) when credit flow control is unconfigured.
    credits: HashMap<NodeId, u32>,
    /// Receiver-side credit grants awaiting pickup by the NIC, which
    /// hands them to the link layer for piggybacking on ACKs.
    pending_grants: Vec<(NodeId, u32)>,
    /// Bytes of eager payload currently staged for unmatched arrivals
    /// (tracked only when [`NicConfig::eager_buffer_bytes`] is nonzero).
    eager_bytes_used: u64,
    /// Fault stream for firmware-level credit-grant / clear-to-send
    /// leaks (`leak=P`) — losses the link layer cannot recover, used to
    /// induce genuine deadlocks for the watchdog.
    leak_plan: Option<FaultPlan>,
    /// Sends held back because a rendezvous handshake to the same peer is
    /// still in flight (RTS sent, data not yet shipped). Only used when
    /// `max_unexpected` is armed: the receiver may then *refuse* frames,
    /// and a refused frame sequenced between a clear-to-send and its data
    /// would head-of-line-block the data forever. Serializing per peer
    /// keeps every obligation frame immediately deliverable. FIFO order
    /// per peer preserves MPI ordering.
    deferred_sends: VecDeque<SendReq>,
    /// Outstanding rendezvous handshakes per peer (RTS sent, data not yet
    /// queued to the wire).
    rndv_inflight: HashMap<NodeId, u32>,
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
    /// Peer nodes declared dead. Operations naming these peers fail with
    /// a typed `rank_failed` completion at post time; state already
    /// parked on them was failed when the peer entered the set. A
    /// `BTreeSet` so any iteration is deterministic.
    dead_peers: BTreeSet<NodeId>,
    /// NIC-resident collectives in flight (offloaded step plans).
    coll: Vec<CollInstance>,
    /// Scheduled permanent ALPU death: both units are quarantined and
    /// retired, so the re-engage check in `do_update` never fires and
    /// matching stays in software forever.
    alpus_dead: bool,
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
        // Firmware-level leak faults get their own stream, disjoint from
        // the fabric (site 0) and ALPU (sites 2n+1, 2n+2) sites.
        let leak_plan = cfg
            .faults
            .leak_active()
            .then(|| FaultPlan::new(cfg.faults, 0x8000_0000 + node as u64));
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
            credits: HashMap::new(),
            pending_grants: Vec::new(),
            eager_bytes_used: 0,
            leak_plan,
            deferred_sends: VecDeque::new(),
            rndv_inflight: HashMap::new(),
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
            dead_peers: BTreeSet::new(),
            coll: Vec::new(),
            alpus_dead: false,
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

    /// Statistics snapshot (folds in the per-unit lifecycle counters).
    pub fn stats(&self) -> FwStats {
        let mut s = self.stats;
        for port in [&self.posted_alpu, &self.unexpected_alpu]
            .into_iter()
            .flatten()
        {
            port.add_counters(&mut s);
        }
        s
    }

    /// Drain the credit grants queued for the link layer. Each entry is
    /// `(peer, credits)`; the NIC piggybacks them on ACKs to `peer`.
    pub fn take_pending_grants(&mut self) -> Vec<(NodeId, u32)> {
        std::mem::take(&mut self.pending_grants)
    }

    /// Credits returned by `peer` arrived on the link layer; refill the
    /// sender-side pool so parked eager traffic can flow again.
    pub fn credit_returned(&mut self, peer: NodeId, n: u32) {
        if self.cfg.eager_credits > 0 {
            let pool = self.credits.entry(peer).or_insert(self.cfg.eager_credits);
            *pool += n;
        }
    }

    /// The NIC refused a match-eligible arrival at the wire because the
    /// unexpected queue is at its bound (diagnostics only; the refusal
    /// itself happens in the NIC component before the link layer).
    pub fn note_admission_refused(&mut self) {
        self.stats.admission_refused += 1;
    }

    /// Bytes of eager payload currently staged (diagnostics).
    pub fn eager_bytes_used(&self) -> u64 {
        self.eager_bytes_used
    }

    /// Spend one eager credit toward `dst_node`, or report starvation.
    fn take_credit(&mut self, dst_node: NodeId) -> bool {
        let pool = self
            .credits
            .entry(dst_node)
            .or_insert(self.cfg.eager_credits);
        if *pool == 0 {
            self.stats.credit_stalls += 1;
            false
        } else {
            *pool -= 1;
            self.stats.credits_spent += 1;
            true
        }
    }

    /// A matched eager message `h` no longer holds its sender's credit:
    /// queue one grant back — for exactly the traffic the sender spent a
    /// credit on (remote, eager, nonzero payload). The injected leak
    /// models a firmware bug the link layer cannot see: the grant simply
    /// never happens.
    fn return_credit(&mut self, h: &MsgHeader) {
        if self.cfg.eager_credits == 0
            || h.kind != MsgKind::Eager
            || h.payload_len == 0
            || h.src_node == self.node
        {
            return;
        }
        if self.leak_plan.as_mut().is_some_and(|p| p.roll_leak()) {
            self.stats.grants_leaked += 1;
            return;
        }
        self.stats.grants_issued += 1;
        self.pending_grants.push((h.src_node, 1));
    }

    /// Would `h` match a currently posted receive? Read-only, costs no
    /// simulated time: this models the hardware header-copy path (Fig. 1)
    /// inspecting the posted list at wire speed. The NIC's admission
    /// filter consults it when the unexpected queue sits at its bound — a
    /// frame destined for a posted receive never stages, so refusing it
    /// would deadlock the very receives that could drain the queue.
    pub fn would_match_posted(&self, h: &MsgHeader) -> bool {
        let word = header_word(self.cfg.ranks_per_node, h);
        self.posted.iter().any(|item| item.val.matches(word))
    }

    /// Posted-queue length (diagnostics/benchmarks).
    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    /// Unexpected-queue length (diagnostics/benchmarks).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// Rendezvous sends parked awaiting a clear-to-send (diagnostics).
    pub fn sends_parked(&self) -> usize {
        self.send_park.len()
    }

    /// Sends held behind an in-flight rendezvous handshake (diagnostics).
    pub fn deferred_len(&self) -> usize {
        self.deferred_sends.len()
    }

    /// Matched rendezvous receives awaiting their data (diagnostics).
    pub fn rndv_expected(&self) -> usize {
        self.rndv_expect.len()
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
                    msg.header.context == coll::COLL_CTX && msg.header.tag & 0x8000 != 0;
                let mut end = self.do_rx(msg, probed, now, core, &mut fx);
                if coll_frame && !self.coll.is_empty() {
                    end = self.coll_poll(end, core, &mut fx);
                }
                end
            }
            WorkItem::Host(req) => self.do_host(req, now, core, &mut fx),
            WorkItem::AlpuUpdate => self.do_update(now, core, &mut fx),
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

    // ------------------------------------------------------------------
    // Rx path
    // ------------------------------------------------------------------

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
        self.return_credit(&h);
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
        let truncated = staged
            && self.cfg.eager_buffer_bytes > 0
            && self.eager_bytes_used + h.payload_len as u64 > self.cfg.eager_buffer_bytes;
        if truncated {
            self.stats.truncated_admits += 1;
        } else if staged && self.cfg.eager_buffer_bytes > 0 {
            self.eager_bytes_used += h.payload_len as u64;
            self.stats.eager_bytes_highwater =
                self.stats.eager_bytes_highwater.max(self.eager_bytes_used);
        }
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
                // Injected firmware leak: the clear-to-send is built but
                // never queued — the sender parks forever. The link layer
                // can't recover what was never transmitted; only the
                // watchdog sees it.
                if self.leak_plan.as_mut().is_some_and(|p| p.roll_leak()) {
                    self.stats.cts_leaked += 1;
                } else {
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
            // A clear-to-send whose parked send we already failed when
            // its peer was declared dead (a link can die asymmetrically:
            // the reply squeaked through after detection). Drop it.
            assert!(
                self.peer_dead(msg.header.src_node),
                "rndv reply for unknown send"
            );
            self.stats.stale_rndv_dropped += 1;
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
        // The data frame is queued (it sequences ahead of anything we
        // send from here on): the handshake to this peer is over, release
        // sends held behind it — until one re-enters rendezvous, which
        // re-arms the gate.
        let peer = msg.header.src_node;
        if self.cfg.max_unexpected > 0 {
            if let Some(n) = self.rndv_inflight.get_mut(&peer) {
                *n = n.saturating_sub(1);
            }
            t = self.release_deferred(peer, t, core, fx);
        }
        t
    }

    /// Re-issue sends deferred behind a now-finished rendezvous to
    /// `peer`, in FIFO order, stopping when one starts a new handshake
    /// (the gate re-arms) or none remain.
    fn release_deferred(
        &mut self,
        peer: NodeId,
        mut t: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        while self.rndv_inflight.get(&peer).copied().unwrap_or(0) == 0 {
            let Some(pos) = self
                .deferred_sends
                .iter()
                .position(|p| self.node_of(p.dst) == peer)
            else {
                break;
            };
            let s = self.deferred_sends.remove(pos).expect("position valid");
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
            // Data for an expectation we failed when the sender was
            // declared dead — the frame outlived the declaration. Drop it.
            assert!(
                self.peer_dead(msg.header.src_node),
                "rndv data for unknown token"
            );
            self.stats.stale_rndv_dropped += 1;
            return t;
        };
        let done = self.dma(DmaDir::Rx, exp.len, t);
        t = core.begin(t).int(cost::RNDV_DATA_COMPLETE).end();
        let comp = Completion::ok(exp.req, exp.src_rank, exp.tag, exp.len);
        fx.completions.push((done + self.cfg.completion_cost, comp));
        t
    }

    // ------------------------------------------------------------------
    // Host request path
    // ------------------------------------------------------------------

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

    // ------------------------------------------------------------------
    // NIC-offloaded collectives
    // ------------------------------------------------------------------

    /// Accept (or decline) a whole-collective offload. A declined
    /// request answers immediately with `cancelled = true` and the host
    /// replays the identical step plan itself — so the wire pattern is
    /// the same either way and mixed offload/fallback ranks interoperate.
    ///
    /// Decline conditions: offload not configured, multi-process nodes
    /// (the engine matches on the bare context), payloads past the eager
    /// threshold (rendezvous steps would need host buffers), overload
    /// protection armed (credits and staging accounting belong to the
    /// host path), degraded/dead ALPUs (quarantine recovery already
    /// owns the unexpected queue), or an agreement wider than its
    /// one-bit-per-rank mask ([`coll::AGREE_MAX_RANKS`]).
    fn do_collective(
        &mut self,
        request: HostRequest,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        let HostRequest::Collective {
            req,
            op,
            root,
            len,
            instance,
            n,
        } = request
        else {
            unreachable!("dispatched for collective requests only")
        };
        let t = core.begin(now).int(cost::COLL_DISPATCH).end();
        let agree = op == CollOp::Agree;
        let decline = !self.cfg.coll_offload
            || self.cfg.ranks_per_node > 1
            || len > self.cfg.eager_threshold
            || self.cfg.overload_active()
            || self.posted_quarantined()
            || self.unexpected_quarantined()
            || self.alpus_dead
            || (agree && n > coll::AGREE_MAX_RANKS);
        if decline {
            self.stats.coll_declined += 1;
            let comp = Completion::cancelled(req, req.rank as u16, 0);
            fx.completions.push((t + self.cfg.completion_cost, comp));
            return t;
        }
        self.stats.coll_offloaded += 1;
        // Agreement seeds only from the host's view (carried in `len`);
        // peers this NIC already declared dead are discovered *in step
        // order* (each skipped step ORs its bit in), exactly as the host
        // fallback discovers them through typed per-step failures — so
        // both paths stamp identical masks on identical frames.
        self.coll.push(CollInstance {
            req,
            steps: coll::steps(op, req.rank, n, root, len, instance),
            idx: 0,
            failed: None,
            agree,
            mask: if agree { len as u16 } else { 0 },
        });
        self.coll_poll(t, core, fx)
    }

    /// Drive every NIC-resident collective as far as its plan allows,
    /// emitting the single end-of-plan completion for each instance that
    /// finishes. Called when an instance is created, when a collective
    /// frame arrives, and when a peer is declared dead.
    fn coll_poll(&mut self, now: Time, core: &mut Core, fx: &mut Effects) -> Time {
        let mut t = now;
        let mut i = 0;
        while i < self.coll.len() {
            t = self.coll_advance(i, t, core, fx);
            if self.coll[i].idx < self.coll[i].steps.len() {
                i += 1;
                continue;
            }
            // `swap_remove` moves the former tail into slot `i`: it is
            // examined next.
            let inst = self.coll.swap_remove(i);
            let comp = match inst.failed {
                Some(dead) => {
                    self.stats.coll_rank_failed += 1;
                    Completion::failed(inst.req, dead, 0, 0)
                }
                // Agreement returns its accumulated failed-set mask as
                // the completion length (zero for every other
                // collective) — failures are the collective's *output*,
                // never an error.
                None => Completion::ok(inst.req, inst.req.rank as u16, 0, inst.mask as u32),
            };
            fx.completions.push((t + self.cfg.completion_cost, comp));
        }
        t
    }

    /// Run instance `i`'s steps in plan order until one parks (a `Recv`
    /// whose frame has not arrived) or the plan ends. `Send` steps inject
    /// the frame straight from NIC memory — no host DMA, no per-step
    /// completion: that is the offload. `Recv` steps harvest from the
    /// unexpected queue through [`Self::match_unexpected`] and
    /// [`Self::consume_unexpected`] (keeping the unexpected ALPU's shadow
    /// in sync); harvest is tried *before* the dead-peer check so a frame
    /// sent before its sender died is still consumed, exactly as
    /// `do_post_recv` orders it. A step naming a dead peer is skipped:
    /// agreement ORs the peer into its mask, any other collective ends
    /// typed `rank_failed`, naming the first dead peer met.
    fn coll_advance(&mut self, i: usize, mut t: Time, core: &mut Core, fx: &mut Effects) -> Time {
        loop {
            let (req, step) = {
                let inst = &self.coll[i];
                match inst.steps.get(inst.idx) {
                    Some(s) => (inst.req, *s),
                    None => return t,
                }
            };
            let dead = self.peer_dead(self.node_of(step.peer));
            let ran = match step.dir {
                Dir::Send if dead => false,
                Dir::Send => {
                    // Agreement frames carry the *current* mask, not the
                    // plan's static length — the mask is the data plane.
                    let inst = &self.coll[i];
                    let len = if inst.agree {
                        inst.mask as u32
                    } else {
                        step.len
                    };
                    let (ctx, tag) = (coll::COLL_CTX, step.tag);
                    let msg = self.make_msg(step.peer, req.rank, ctx, tag, len, MsgKind::Eager);
                    let at = self.inject(msg.wire_bytes(), t);
                    fx.tx.push((at, msg));
                    self.stats.coll_steps_sent += 1;
                    t = core.begin(t).int(cost::COLL_SEND).bus_write().end();
                    true
                }
                Dir::Recv => {
                    let from = Some(step.peer as u16);
                    let probe = self.recv_probe(req, from, coll::COLL_CTX, Some(step.tag));
                    let matched;
                    (t, matched) = self.match_unexpected(probe, t, core);
                    match matched {
                        // The payload is combined in NIC memory — no host
                        // DMA.
                        Some(key) => {
                            let frame;
                            (t, frame) = self.consume_unexpected(key, t, core);
                            self.stats.coll_steps_recv += 1;
                            if self.coll[i].agree {
                                self.coll[i].mask |= frame.header.payload_len as u16;
                            }
                            true
                        }
                        None if dead => false,
                        // Park: the frame is still in flight.
                        None => return t,
                    }
                }
            };
            let inst = &mut self.coll[i];
            if !ran && inst.agree {
                inst.mask |= 1 << step.peer.min(15);
            } else if !ran {
                inst.failed.get_or_insert(step.peer as u16);
            }
            inst.idx += 1;
        }
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    fn do_post_send(&mut self, s: SendReq, now: Time, core: &mut Core, fx: &mut Effects) -> Time {
        let t = core.begin(now).int(cost::SEND_DISPATCH).end();
        let peer = self.node_of(s.dst);
        // ULFM-style typed failure at post time: the peer is already
        // declared dead, so this send can never complete — finish it now
        // instead of parking it forever.
        if self.peer_dead(peer) {
            self.fail_op(t + self.cfg.completion_cost, s.failed(), fx);
            return t;
        }
        // Deadlock avoidance under the admission bound: while a
        // rendezvous handshake to this peer is still in flight (RTS out,
        // data not yet shipped), any further frame we sequence to that
        // peer could be refused at the receiver and head-of-line-block
        // the rendezvous data behind it in the go-back-N window. Hold the
        // send back; it is released the moment the data frame is queued.
        // FIFO per peer, so MPI ordering is untouched; unarmed
        // configurations never reach this path.
        if self.cfg.max_unexpected > 0
            && peer != self.node
            && (self.rndv_inflight.get(&peer).copied().unwrap_or(0) > 0
                || self
                    .deferred_sends
                    .iter()
                    .any(|p| self.node_of(p.dst) == peer))
        {
            self.stats.sends_deferred += 1;
            self.deferred_sends.push_back(s);
            return t;
        }
        self.send_now(s, t, core, fx)
    }

    /// The actual send path (eager or rendezvous), past the deferral
    /// gate. `t` already includes the dispatch bookkeeping cost.
    fn send_now(&mut self, s: SendReq, mut t: Time, core: &mut Core, fx: &mut Effects) -> Time {
        // Credit flow control: each nonzero-payload eager message to a
        // remote node spends one credit; at zero credit the send demotes
        // to the rendezvous path below, staging the payload on *this*
        // side until the receiver matches. Zero-payload messages (barrier
        // tokens and other control traffic) are exempt so synchronization
        // can never starve behind bulk data.
        let peer = self.node_of(s.dst);
        let eager = s.len <= self.cfg.eager_threshold
            && (s.len == 0
                || self.cfg.eager_credits == 0
                || peer == self.node
                || self.take_credit(peer));
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
            if self.cfg.max_unexpected > 0 && peer != self.node {
                *self.rndv_inflight.entry(peer).or_insert(0) += 1;
            }
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

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

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
        let h = item.val.header;
        if h.kind == MsgKind::Eager
            && h.payload_len > 0
            && !item.val.truncated
            && self.cfg.eager_buffer_bytes > 0
        {
            self.eager_bytes_used = self.eager_bytes_used.saturating_sub(h.payload_len as u64);
        }
        self.return_credit(&h);
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
            self.fail_op(t + self.cfg.completion_cost, rx.failed(), fx);
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

    // ------------------------------------------------------------------
    // Component fault domain: dead peers, dead hardware
    // ------------------------------------------------------------------

    /// Has `peer` been declared dead?
    pub fn peer_dead(&self, peer: NodeId) -> bool {
        self.dead_peers.contains(&peer)
    }

    /// Finish an operation that can never complete with the typed
    /// `rank_failed` completion `comp` at `at`.
    fn fail_op(&mut self, at: Time, comp: Completion, fx: &mut Effects) {
        self.stats.ops_rank_failed += 1;
        fx.completions.push((at, comp));
    }

    /// Declare `peer` dead and fail — with typed `rank_failed`
    /// completions — every operation that can now never finish: posted
    /// receives pinned to a rank on `peer`, parked and deferred sends
    /// toward it, and matched rendezvous receives awaiting its data.
    ///
    /// Deliberately *kept*: unexpected-queue entries that already
    /// arrived from `peer` — ULFM lets a receive posted after the
    /// failure still match a message sent before it — and wildcard
    /// receives, which any live rank can still satisfy.
    ///
    /// The cleanup walk costs no simulated firmware time: it models the
    /// asynchronous work a real NIC would run off the critical path.
    /// NIC-resident collectives parked on the dead peer are the
    /// exception: skipping their dead steps un-parks the rest of the
    /// plan, and those live steps charge normal engine time on `core`.
    pub fn fail_peer(&mut self, peer: NodeId, now: Time, core: &mut Core, fx: &mut Effects) {
        if peer == self.node || !self.dead_peers.insert(peer) {
            return;
        }
        self.stats.peers_failed += 1;
        let at = now + self.cfg.completion_cost;
        let k = self.cfg.ranks_per_node;
        let on_peer = move |rank: u32| rank / k == peer;

        // Posted receives whose source is pinned to a rank on the dead
        // node. ALPU-resident copies become tombstones, exactly as
        // `MPI_Cancel` leaves them (no DELETE command, Table I).
        let victims: Vec<(Key, bool, Completion)> = self
            .posted
            .iter()
            .filter(|it| !it.val.ghost && it.val.pinned_source().is_some_and(|s| on_peer(s as u32)))
            .map(|it| (it.key, it.in_alpu, it.val.failed()))
            .collect();
        for (key, in_alpu, comp) in victims {
            self.unlink_posted(key, in_alpu, now);
            self.fail_op(at, comp, fx);
        }

        // Rendezvous sends parked on a clear-to-send that will never
        // come, then sends still held behind one of those handshakes.
        let mut doomed: Vec<SendReq> = Vec::new();
        let mut keep = |s: SendReq| {
            if on_peer(s.dst) {
                doomed.push(s);
            }
            !on_peer(s.dst)
        };
        self.send_park.retain(|e| keep(e.send));
        self.deferred_sends.retain(|s| keep(*s));
        for s in doomed {
            self.fail_op(at, s.failed(), fx);
        }

        // Matched rendezvous receives whose data frame died with the
        // sender. Keys are sorted before removal so the completion order
        // never depends on hash-map iteration.
        let mut stale: Vec<(NodeId, u64)> = self
            .rndv_expect
            .keys()
            .filter(|(n, _)| *n == peer)
            .copied()
            .collect();
        stale.sort_unstable();
        for key in stale {
            let exp = self.rndv_expect.remove(&key).expect("key just listed");
            let comp = Completion::failed(exp.req, exp.src_rank, exp.tag, 0);
            self.fail_op(at, comp, fx);
        }
        self.rndv_inflight.remove(&peer);

        // Offloaded collectives parked on (or about to step toward) the
        // dead peer: skip the doomed steps and drive the rest of each
        // plan, so the surviving tree keeps making progress and every
        // instance still ends in exactly one (typed) completion.
        if !self.coll.is_empty() {
            self.coll_poll(now, core, fx);
        }
    }

    /// `peer` restarted under a new incarnation: clear the sticky death
    /// so fresh operations toward it flow again, and forget every piece
    /// of sender-side state keyed to its previous life — the credit pool
    /// (re-seeded at full on next use; the reborn NIC's staging is empty)
    /// and any rendezvous-in-flight count. Operations failed at detection
    /// time stay failed: recovery is the application's job (`agree` /
    /// `shrink` / retry), not a silent un-failing. Returns whether the
    /// peer had actually been declared dead.
    pub fn revive_peer(&mut self, peer: NodeId) -> bool {
        if peer == self.node || !self.dead_peers.remove(&peer) {
            return false;
        }
        self.credits.remove(&peer);
        self.rndv_inflight.remove(&peer);
        self.stats.peers_revived += 1;
        true
    }

    /// Scheduled permanent ALPU death: quarantine both units (RESET-pin
    /// wipe; orphaned probes fall back to software) and retire them, so
    /// the update-item re-engage check never fires. Matching continues on
    /// the software queues — degraded, never wrong, and never trusted to
    /// hardware again.
    pub fn kill_alpus(&mut self, now: Time) {
        if self.alpus_dead {
            return;
        }
        self.alpus_dead = true;
        for unit in UNITS {
            let Some(port) = self.port(unit) else {
                continue;
            };
            if !port.quarantined() {
                self.fail_unit(unit, now);
            }
            self.port_mut(unit).retire();
            self.stats.alpus_killed += 1;
        }
    }

    // ------------------------------------------------------------------
    // ALPU unit lifecycle (§IV-B/C/D); the per-unit rules live in
    // [`AlpuPort`], the queue-side halves here.
    // ------------------------------------------------------------------

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
    /// Counts the entries and records the search's histogram and trace
    /// event; returns the end time.
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
        hist.record(end - t);
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
    fn do_update(&mut self, now: Time, core: &mut Core, _fx: &mut Effects) -> Time {
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

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

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
