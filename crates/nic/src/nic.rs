//! The NIC as a discrete-event component.
//!
//! Serializes [`WorkItem`]s on the single embedded processor: events
//! (network arrivals, host requests) enqueue work; the component processes
//! one item at a time, scheduling a self-wakeup at the item's finish time.
//! Hardware that runs concurrently with the processor — the ALPUs' header
//! copy path and the DMA engines — acts at event time or through
//! firmware-computed completion timestamps.

use crate::config::NicConfig;
use crate::firmware::{Effects, Firmware, WorkItem};
use crate::host_iface::HostRequest;
use crate::reliability::Reliability;
use mpiq_cpusim::Core;
use mpiq_dessim::prelude::*;
use mpiq_dessim::{
    watchdog::Health, ComponentFaultKind, FaultSchedule, Histogram, Metrics, Stats, TraceEvent,
};
use mpiq_net::{Message, MsgKind, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Input port: messages from the fabric.
pub const PORT_NET_RX: InPort = InPort(0);
/// Input port: requests from the host.
pub const PORT_HOST_REQ: InPort = InPort(1);
/// Self-wakeup port (internal).
pub const PORT_WAKE: InPort = InPort(2);
/// Retransmit-timer wakeup port (internal; link reliability layer).
pub const PORT_RETX: InPort = InPort(3);
/// Scheduled-fault wakeup port (internal; component fault domains).
pub const PORT_FAULT: InPort = InPort(4);
/// Output port: messages to the fabric.
pub const PORT_NET_TX: OutPort = OutPort(0);
/// Output port: completions to the host of local process 0.
pub const PORT_HOST_COMP: OutPort = OutPort(1);

/// Completion port for the host of local process `pid`
/// (multi-process-per-node NICs; `host_comp_port(0) == PORT_HOST_COMP`).
pub fn host_comp_port(pid: u32) -> OutPort {
    OutPort(1 + pid as u16)
}

/// Scheduled-fault wakeup payloads (internal to the NIC). Every wake is
/// computed locally from the shared [`FaultSchedule`] at start-up, so no
/// fault information ever travels between components at run time.
#[derive(Clone, Copy, Debug)]
enum FaultWake {
    /// This node crash-stops now.
    Crash,
    /// This NIC's ALPUs die permanently now.
    AlpuDeath,
    /// `peer` crashed one keepalive-timeout ago: declare it dead —
    /// unless the schedule shows it already restarted (a slow-but-alive
    /// peer must not be declared dead by a lenient detector).
    PeerDead(NodeId),
    /// This node restarts now: fresh firmware, core, and link engine
    /// under the next incarnation epoch. The wipe is the point — a
    /// restarted node remembers nothing.
    Restart,
    /// `peer` restarts now: fence its stale link state (the proactive
    /// half of the reincarnation guard; the frame-borne epoch stamp
    /// covers ghosts already in the fabric) and clear its sticky death.
    PeerRestart(NodeId),
}

// Key suffixes of each `StatRecord` group, in slot order.
const BASE_KEYS: [&str; 11] = [
    "l1.misses",
    "l1.hits",
    "posted.traversed",
    "unexpected.traversed",
    "posted.alpu_hits",
    "unexpected.alpu_hits",
    "unexpected.arrivals",
    "insert_sessions",
    "posted.occ_integral",
    "unexpected.occ_integral",
    "sampled_until_ns",
];
const LEN_MAX_KEYS: [&str; 2] = ["posted.len_max", "unexpected.len_max"];
const ALPU_KEYS: [&str; 5] = [
    "alpu.resets",
    "alpu.fallbacks",
    "alpu.reengagements",
    "alpu.parity_errors",
    "alpu.overflow_spins",
];
const LINK_KEYS: [&str; 8] = [
    "link.retransmits",
    "link.acks_sent",
    "link.nacks_sent",
    "link.crc_dropped",
    "link.dup_discarded",
    "link.gap_discarded",
    "link.timer_fires",
    "link.links_dead",
];
const FAULT_KEYS: [&str; 5] = [
    "fault.peers_failed",
    "fault.ops_rank_failed",
    "fault.alpus_killed",
    "fault.stale_rndv_dropped",
    "fault.peers_revived",
];
const FAULT_LINK_KEYS: [&str; 2] = ["fault.epoch_fences", "fault.stale_epoch_dropped"];
const COLL_KEYS: [&str; 5] = [
    "coll.offloaded",
    "coll.declined",
    "coll.steps_sent",
    "coll.steps_recv",
    "coll.rank_failed",
];
const FLOW_KEYS: [&str; 10] = [
    "flow.unexpected_highwater",
    "flow.eager_bytes_highwater",
    "flow.truncated_admits",
    "flow.admission_refused",
    "flow.credit_stalls",
    "flow.sends_deferred",
    "flow.credits_spent",
    "flow.grants_issued",
    "flow.grants_leaked",
    "flow.cts_leaked",
];
const FLOW_LINK_KEYS: [&str; 2] = ["flow.credits_granted", "flow.credits_received"];

/// A NIC's registry counters, kept typed so the event path never formats
/// a key. Each group holds the values from the last snapshot point at
/// which its condition held (`None` = never published, so its keys stay
/// out of the registry); the record outlives a restart, which rebuilds
/// the firmware and core beneath it. [`Nic::publish`] turns it into
/// `nic{N}.*` keys once per registry read.
#[derive(Default)]
struct StatRecord {
    /// Always published: cache, traversal, arrival and occupancy counters.
    base: Option<[u64; 11]>,
    /// Running maxima of the posted and unexpected queue lengths over
    /// the snapshot points (published alongside `base`).
    len_max: [u64; 2],
    /// An ALPU is configured.
    alpu: Option<[u64; 5]>,
    /// The link reliability layer is on.
    link: Option<[u64; 8]>,
    /// A fault schedule is armed.
    fault: Option<[u64; 5]>,
    /// A fault schedule is armed and the link layer is on.
    fault_link: Option<[u64; 2]>,
    /// The collective engine has seen a request.
    coll: Option<[u64; 5]>,
    /// An overload bound (or the leak fault) is configured.
    flow: Option<[u64; 10]>,
    /// Overload is configured and the link layer is on.
    flow_link: Option<[u64; 2]>,
    /// Scheduled crashes of this node (`fault.crashed`).
    crashed: Option<u64>,
    /// Incarnation epoch of the last restart (`fault.incarnation`).
    incarnation: Option<u64>,
    /// CRC failures dropped with the link layer off (`link.crc_dropped`;
    /// with the layer on, the `link` group carries that key).
    crc_dropped: Option<u64>,
}

/// One NIC: firmware + embedded core + work-item scheduler.
pub struct Nic {
    node: NodeId,
    ranks_per_node: u32,
    /// Unexpected-queue bound ([`NicConfig::max_unexpected`]); arrivals
    /// that would exceed it are refused at the wire, before the link
    /// layer sequences them, so go-back-N retransmission becomes the
    /// backpressure. `0` = unbounded.
    max_unexpected: u32,
    /// Any overload bound configured (gates flow-control stat keys so
    /// unconfigured stat dumps stay byte-identical).
    overload: bool,
    /// Match-eligible frames (Eager / RndvRequest) the link layer has
    /// sequenced but the firmware has not yet processed. Counted against
    /// `max_unexpected` at admission so a work-queue backlog cannot
    /// overshoot the bound between wire acceptance and staging. Only
    /// maintained when the bound is armed.
    pending_rx_match: u32,
    /// The construction config, kept so a scheduled restart can rebuild
    /// the firmware/core/link stack from scratch (wiped state is the
    /// semantic, not an accident).
    cfg: NicConfig,
    fw: Firmware,
    core: Core,
    work: VecDeque<WorkItem>,
    busy: bool,
    update_queued: bool,
    /// Link reliability engine (go-back-N); `None` when disabled, which
    /// keeps the lossless fast path byte-identical to the pre-fault code.
    link: Option<Reliability>,
    /// Earliest retransmit wakeup already scheduled, to avoid flooding
    /// the event queue with one wake per transmitted frame.
    retx_scheduled: Option<Time>,
    /// Scheduled component faults (shared, read-only, pure function of
    /// time). `None` = unarmed: every fault path below is a single flag
    /// check and the NIC behaves byte-identically to the pre-fault code.
    schedule: Option<Arc<FaultSchedule>>,
    /// Crash-stop: this node died at its scheduled instant. All further
    /// events fall on silence; in-flight state died with it.
    crashed: bool,
    /// How long after a peer's scheduled crash the keepalive declares it
    /// dead ([`ReliabilityConfig::keepalive_timeout`]).
    keepalive: Time,
    stat_prefix: String,
    /// The `nic{N}.*` registry counters as of the last snapshot point;
    /// written into the registry by [`Component::publish`].
    record: StatRecord,
    /// Metered runs only: work items processed and their service times,
    /// written into the metrics registry as `nic{N}.work_items` and
    /// `nic{N}.work_service` by [`Component::publish_metrics`].
    work_items: u64,
    work_service: Histogram,
    /// Latency histograms of incarnations a restart replaced, as the
    /// crash left them; [`Component::publish_metrics`] writes them under
    /// the live ones, which win wherever they hold samples.
    retired_hists: Vec<(&'static str, Histogram)>,
    /// Time-weighted queue-occupancy accumulation (for the application
    /// queue-characterization study, after refs [8,9]). Accumulated in
    /// entry·picoseconds — whole-ns accumulation silently dropped sub-ns
    /// inter-event gaps from the integral — and converted to entry·ns
    /// only when published.
    last_sample: Time,
    posted_integral_ps: u64,
    unexpected_integral_ps: u64,
}

impl Nic {
    /// Build the NIC for `node`.
    pub fn new(node: NodeId, cfg: NicConfig) -> Nic {
        Nic {
            node,
            ranks_per_node: cfg.ranks_per_node.max(1),
            max_unexpected: cfg.max_unexpected,
            overload: cfg.overload_active() || cfg.faults.leak_active(),
            pending_rx_match: 0,
            cfg,
            fw: Firmware::new(node, cfg),
            core: Core::new(cfg.core),
            work: VecDeque::new(),
            busy: false,
            update_queued: false,
            link: cfg.reliability.then(|| Reliability::new(node, cfg.link)),
            retx_scheduled: None,
            schedule: None,
            crashed: false,
            keepalive: cfg.link.keepalive_timeout,
            stat_prefix: format!("nic{node}"),
            record: StatRecord::default(),
            work_items: 0,
            work_service: Histogram::new(),
            retired_hists: Vec::new(),
            last_sample: Time::ZERO,
            posted_integral_ps: 0,
            unexpected_integral_ps: 0,
        }
    }

    /// Accumulate queue-depth ∫len·dt up to `now` (piecewise constant
    /// between work items). Units: entry·picoseconds.
    fn sample_occupancy(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last_sample).ps();
        self.posted_integral_ps += self.fw.posted_len() as u64 * dt;
        self.unexpected_integral_ps += self.fw.unexpected_len() as u64 * dt;
        self.last_sample = now;
    }

    /// Arm the component-level fault schedule. `None` (or an empty
    /// schedule) leaves every fault path disabled.
    pub fn with_schedule(mut self, schedule: Option<Arc<FaultSchedule>>) -> Nic {
        self.schedule = schedule.filter(|s| !s.is_empty());
        self
    }

    /// Has this node crash-stopped (scheduled fault)?
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The node this NIC serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The firmware state (queues, ALPUs, statistics).
    pub fn firmware(&self) -> &Firmware {
        &self.fw
    }

    /// The embedded core (cache statistics).
    pub fn core(&self) -> &Core {
        &self.core
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy {
            return;
        }
        if self.work.is_empty() {
            // Idle NIC: flush any not-yet-inserted tails into the ALPUs.
            if self.fw.update_needed(true, ctx.now()) && !self.update_queued {
                self.work.push_back(WorkItem::AlpuUpdate);
                self.update_queued = true;
            } else {
                return;
            }
        }
        let item = self.work.pop_front().expect("checked nonempty");
        if matches!(item, WorkItem::AlpuUpdate) {
            self.update_queued = false;
        }
        if self.max_unexpected > 0 {
            if let WorkItem::Rx { msg, .. } = &item {
                if matches!(msg.header.kind, MsgKind::Eager | MsgKind::RndvRequest) {
                    // The frame is about to be staged (or matched): it now
                    // shows up in `unexpected_len` itself if it lands there.
                    self.pending_rx_match -= 1;
                }
            }
        }
        let now = ctx.now();
        self.sample_occupancy(now);
        let (end, fx) = self.fw.process(item, now, &mut self.core);
        debug_assert!(end >= now);
        if ctx.metrics().enabled() {
            self.work_items += 1;
            self.work_service.record(end - now);
        }
        for (at, what) in self.fw.take_events() {
            ctx.trace_at(at, what);
        }
        for (at, msg) in fx.tx {
            // The link layer stamps a sequence number and buffers the
            // frame for retransmission before it hits the wire.
            let msg = match self.link.as_mut() {
                Some(link) => link.transmit(msg, at),
                None => msg,
            };
            ctx.emit_after(PORT_NET_TX, Payload::new(msg), at.saturating_sub(now));
        }
        // Credit grants the firmware queued while consuming staged eager
        // messages ride the link layer back to their senders: piggybacked
        // on the next ACK if one is due, else as standalone credit-carrying
        // ACK frames right now.
        if let Some(link) = self.link.as_mut() {
            let grants = self.fw.take_pending_grants();
            if !grants.is_empty() {
                for (peer, n) in grants {
                    link.queue_grant(peer, n);
                }
                for frame in link.flush_grants() {
                    ctx.emit_after(PORT_NET_TX, Payload::new(frame), Time::ZERO);
                }
            }
        }
        for (at, comp) in fx.completions {
            // Route to the issuing process's host.
            let pid = comp.req.rank % self.ranks_per_node;
            ctx.trace_at(
                at,
                TraceEvent::HostCompletion {
                    rank: comp.req.rank,
                    cancelled: comp.cancelled,
                },
            );
            ctx.emit_after(
                host_comp_port(pid),
                Payload::new(comp),
                at.saturating_sub(now),
            );
        }
        // Batch-aware update scheduling (§IV-B).
        if !self.update_queued && self.fw.update_needed(self.work.is_empty(), now) {
            self.work.push_back(WorkItem::AlpuUpdate);
            self.update_queued = true;
        }
        self.busy = true;
        ctx.wake_me(PORT_WAKE, Payload::empty(), end - now);
        self.schedule_retx(ctx);
        self.snapshot_stats();
    }

    /// Make sure a wakeup covers the link layer's earliest retransmit
    /// deadline. Spurious wakes (a deadline that moved later) are cheap
    /// and harmless; missing one would strand a lost frame forever.
    fn schedule_retx(&mut self, ctx: &mut Ctx<'_>) {
        let Some(link) = &self.link else {
            return;
        };
        let Some(deadline) = link.next_deadline() else {
            return;
        };
        if self.retx_scheduled.is_some_and(|t| t <= deadline) {
            return; // an earlier (or equal) wake is already pending
        }
        self.retx_scheduled = Some(deadline);
        ctx.wake_me(
            PORT_RETX,
            Payload::empty(),
            deadline.saturating_sub(ctx.now()),
        );
    }

    /// Handle one scheduled-fault wakeup.
    fn on_fault(&mut self, wake: FaultWake, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        match wake {
            FaultWake::Crash => {
                // Crash-stop (fail-stop): all in-flight state — the work
                // queue, retransmit windows, staged payloads — dies with
                // the node. Peers learn of it through their keepalive,
                // never from us.
                self.crashed = true;
                self.busy = false;
                self.work.clear();
                self.pending_rx_match = 0;
                ctx.metrics().add("fault.nodes_crashed", 1);
                ctx.trace(TraceEvent::ComponentFault {
                    kind: ComponentFaultKind::NodeCrash,
                    node: self.node,
                    peer: self.node,
                });
                self.record.crashed = Some(self.record.crashed.unwrap_or(0) + 1);
            }
            FaultWake::AlpuDeath => {
                self.fw.set_telemetry(ctx.trace_enabled());
                self.fw.kill_alpus(now);
                for (at, what) in self.fw.take_events() {
                    ctx.trace_at(at, what);
                }
                ctx.metrics().add("fault.alpus_dead", 1);
                ctx.trace(TraceEvent::ComponentFault {
                    kind: ComponentFaultKind::AlpuDead,
                    node: self.node,
                    peer: self.node,
                });
                self.snapshot_stats();
            }
            FaultWake::PeerDead(peer) => {
                // False-positive guard: if the schedule shows the peer
                // back up by detection time, it answered (or will answer)
                // keepalives — a slow-but-alive peer is not a dead one.
                if self
                    .schedule
                    .as_ref()
                    .is_some_and(|s| !s.node_down(peer, now))
                {
                    return;
                }
                self.declare_peer_dead(peer, ComponentFaultKind::PeerDead, ctx);
            }
            FaultWake::Restart => {
                // Rebirth under the next incarnation epoch: everything is
                // rebuilt from the construction config — queues, ALPUs,
                // caches, link windows. Only the epoch distinguishes the
                // reborn NIC from a cold boot, and only the epoch needs
                // to: peers fence on it.
                let epoch = self
                    .schedule
                    .as_ref()
                    .map_or(0, |s| s.incarnation_at(self.node, now));
                self.crashed = false;
                self.busy = false;
                self.work.clear();
                self.update_queued = false;
                self.pending_rx_match = 0;
                self.retx_scheduled = None;
                self.retire_hists();
                self.fw = Firmware::new(self.node, self.cfg);
                self.core = Core::new(self.cfg.core);
                self.link = self.cfg.reliability.then(|| {
                    let mut l = Reliability::new(self.node, self.cfg.link);
                    l.set_epoch(epoch);
                    l
                });
                self.last_sample = now;
                ctx.metrics().add("fault.nodes_restarted", 1);
                ctx.trace(TraceEvent::ComponentFault {
                    kind: ComponentFaultKind::NodeRestart,
                    node: self.node,
                    peer: self.node,
                });
                self.record.incarnation = Some(epoch as u64);
                // Detection wakes that fired during our downtime were
                // (correctly) swallowed — a dead node observes nothing.
                // Re-derive them: every peer still down right now gets a
                // fresh keepalive wake, clamped to fire no earlier than
                // our rebirth.
                if let Some(sched) = self.schedule.clone() {
                    for peer in sched.crashing_nodes() {
                        if peer == self.node || !sched.node_down(peer, now) {
                            continue;
                        }
                        let crashed_at = sched
                            .crash_times(peer)
                            .into_iter()
                            .rfind(|&t| t <= now)
                            .unwrap_or(now);
                        ctx.wake_me(
                            PORT_FAULT,
                            Payload::new(FaultWake::PeerDead(peer)),
                            (crashed_at + self.keepalive).saturating_sub(now),
                        );
                    }
                }
                self.snapshot_stats();
            }
            FaultWake::PeerRestart(peer) => {
                let epoch = self
                    .schedule
                    .as_ref()
                    .map_or(0, |s| s.incarnation_at(peer, now));
                let mut revived = false;
                if let Some(link) = self.link.as_mut() {
                    revived |= link.fence_peer(peer, epoch);
                }
                revived |= self.fw.revive_peer(peer);
                if revived {
                    ctx.metrics().add("fault.peers_revived", 1);
                }
                ctx.trace(TraceEvent::ComponentFault {
                    kind: ComponentFaultKind::PeerRestart,
                    node: self.node,
                    peer,
                });
                self.snapshot_stats();
            }
        }
    }

    /// Declare `peer` dead: sticky-kill the link, fail every operation
    /// that can now never finish with a typed `rank_failed` completion,
    /// and record the transition. Idempotent.
    fn declare_peer_dead(&mut self, peer: NodeId, kind: ComponentFaultKind, ctx: &mut Ctx<'_>) {
        if self.fw.peer_dead(peer) {
            return;
        }
        let now = ctx.now();
        if let Some(link) = self.link.as_mut() {
            link.mark_peer_dead(peer);
        }
        self.fw.set_telemetry(ctx.trace_enabled());
        let mut fx = Effects::default();
        self.fw.fail_peer(peer, now, &mut self.core, &mut fx);
        for (at, what) in self.fw.take_events() {
            ctx.trace_at(at, what);
        }
        // Failing a peer sends nothing *except* collective step frames
        // un-parked by skipping the dead peer's steps.
        for (at, msg) in fx.tx {
            let msg = match self.link.as_mut() {
                Some(link) => link.transmit(msg, at),
                None => msg,
            };
            ctx.emit_after(PORT_NET_TX, Payload::new(msg), at.saturating_sub(now));
        }
        for (at, comp) in fx.completions {
            let pid = comp.req.rank % self.ranks_per_node;
            ctx.trace_at(
                at,
                TraceEvent::HostCompletion {
                    rank: comp.req.rank,
                    cancelled: comp.cancelled,
                },
            );
            ctx.emit_after(
                host_comp_port(pid),
                Payload::new(comp),
                at.saturating_sub(now),
            );
        }
        ctx.metrics().add("fault.peers_failed", 1);
        ctx.trace(TraceEvent::ComponentFault {
            kind,
            node: self.node,
            peer,
        });
        self.snapshot_stats();
    }

    /// Snapshot the registry counters into [`Nic::record`], checking
    /// each group's condition now. Runs after almost every event, so it
    /// formats no key.
    fn snapshot_stats(&mut self) {
        let fw = self.fw.stats();
        let r = &mut self.record;
        let l1 = self.core.mem().l1();
        r.base = Some([
            l1.misses(),
            l1.hits(),
            fw.posted_entries_traversed,
            fw.unexpected_entries_traversed,
            fw.posted_alpu_hits,
            fw.unexpected_alpu_hits,
            fw.unexpected_arrivals,
            fw.insert_sessions,
            self.posted_integral_ps / 1_000,
            self.unexpected_integral_ps / 1_000,
            self.last_sample.ns(),
        ]);
        r.len_max = [
            r.len_max[0].max(self.fw.posted_len() as u64),
            r.len_max[1].max(self.fw.unexpected_len() as u64),
        ];
        // Fault/recovery counters: published only for configurations that
        // can produce them, so fault-free stat dumps stay unchanged.
        if self.fw.posted_alpu.is_some() || self.fw.unexpected_alpu.is_some() {
            r.alpu = Some([
                fw.alpu_resets,
                fw.alpu_fallbacks,
                fw.alpu_reengagements,
                fw.alpu_parity_errors,
                fw.alpu_overflow_spins,
            ]);
        }
        let ls = self.link.as_ref().map(Reliability::stats);
        if let Some(ls) = ls {
            r.link = Some([
                ls.retransmits,
                ls.acks_sent,
                ls.nacks_sent,
                ls.crc_dropped,
                ls.dup_discarded,
                ls.gap_discarded,
                ls.timer_fires,
                ls.links_dead,
            ]);
        }
        // Component-fault counters: keyed only when a schedule is armed,
        // so unarmed stat dumps stay byte-identical.
        if self.schedule.is_some() {
            r.fault = Some([
                fw.peers_failed,
                fw.ops_rank_failed,
                fw.alpus_killed,
                fw.stale_rndv_dropped,
                fw.peers_revived,
            ]);
            if let Some(ls) = ls {
                r.fault_link = Some([ls.epoch_fences, ls.stale_epoch_dropped]);
            }
        }
        // Collective-offload counters: keyed only once the engine has
        // seen a request (every Collective request increments exactly one
        // of offloaded/declined), so non-collective stat dumps stay
        // byte-identical.
        if fw.coll_offloaded + fw.coll_declined > 0 {
            r.coll = Some([
                fw.coll_offloaded,
                fw.coll_declined,
                fw.coll_steps_sent,
                fw.coll_steps_recv,
                fw.coll_rank_failed,
            ]);
        }
        // Flow-control / overload counters: keyed out entirely unless a
        // bound (or the leak fault) is configured, so pre-existing stat
        // dumps stay byte-identical.
        if self.overload {
            r.flow = Some([
                fw.unexpected_highwater,
                fw.eager_bytes_highwater,
                fw.truncated_admits,
                fw.admission_refused,
                fw.credit_stalls,
                fw.sends_deferred,
                fw.credits_spent,
                fw.grants_issued,
                fw.grants_leaked,
                fw.cts_leaked,
            ]);
            if let Some(ls) = ls {
                r.flow_link = Some([ls.credits_granted, ls.credits_received]);
            }
        }
    }

    /// The latency histograms, keyed by `nic{N}.` suffix: the firmware's
    /// match times and, with the link layer on, its retransmit backoff.
    fn latency_hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        let h = self.fw.hists();
        [
            ("match.posted.alpu_hit", &h.posted_alpu_hit),
            ("match.posted.hash", &h.posted_hash),
            ("match.posted.linear", &h.posted_linear),
            ("match.unexpected.alpu_hit", &h.unexpected_alpu_hit),
            ("match.unexpected.linear", &h.unexpected_linear),
        ]
        .into_iter()
        .chain(
            self.link
                .as_ref()
                .map(|l| ("link.backoff", l.backoff_hist())),
        )
    }

    /// Keep the histograms a restart is about to wipe: each one that
    /// holds samples replaces what an earlier incarnation left under its
    /// key.
    fn retire_hists(&mut self) {
        let live: Vec<(&'static str, Histogram)> = self
            .latency_hists()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| (k, h.clone()))
            .collect();
        for (key, h) in live {
            match self.retired_hists.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = h,
                None => self.retired_hists.push((key, h)),
            }
        }
    }
}

impl Component for Nic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Pre-compute every fault wakeup this NIC will ever need from the
        // shared schedule. All wake times are pure functions of the
        // schedule, so every NIC derives the same virtual-time behavior.
        let Some(sched) = self.schedule.clone() else {
            return;
        };
        let now = ctx.now();
        for t in sched.crash_times(self.node) {
            ctx.wake_me(
                PORT_FAULT,
                Payload::new(FaultWake::Crash),
                t.saturating_sub(now),
            );
        }
        for t in sched.restart_times(self.node) {
            ctx.wake_me(
                PORT_FAULT,
                Payload::new(FaultWake::Restart),
                t.saturating_sub(now),
            );
        }
        if let Some(t) = sched.alpu_death_time(self.node) {
            ctx.wake_me(
                PORT_FAULT,
                Payload::new(FaultWake::AlpuDeath),
                t.saturating_sub(now),
            );
        }
        for peer in sched.crashing_nodes() {
            if peer == self.node {
                continue;
            }
            // One detection wake per crash instant (a node may die more
            // than once); the handler re-checks the schedule so a peer
            // that restarted inside the keepalive window is spared.
            for t in sched.crash_times(peer) {
                ctx.wake_me(
                    PORT_FAULT,
                    Payload::new(FaultWake::PeerDead(peer)),
                    (t + self.keepalive).saturating_sub(now),
                );
            }
            for t in sched.restart_times(peer) {
                ctx.wake_me(
                    PORT_FAULT,
                    Payload::new(FaultWake::PeerRestart(peer)),
                    t.saturating_sub(now),
                );
            }
        }
    }

    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if self.crashed {
            // Crash-stop: the NIC is gone. Frames, host requests, stale
            // timer wakes, and even fault wakes about *other* components
            // all fall on silence — a dead node observes nothing. The
            // one exception is its own scheduled rebirth.
            if ev.port == PORT_FAULT {
                let wake = *ev
                    .payload
                    .downcast::<FaultWake>()
                    .expect("FAULT carries FaultWake");
                if matches!(wake, FaultWake::Restart) {
                    self.on_fault(wake, ctx);
                }
            }
            return;
        }
        // Mirror the simulation's tracing state into the firmware and
        // link layer so they buffer structured events only when someone
        // will read them.
        let telemetry = ctx.trace_enabled();
        self.fw.set_telemetry(telemetry);
        if let Some(link) = self.link.as_mut() {
            link.set_telemetry(telemetry);
        }
        match ev.port {
            PORT_NET_RX => {
                let mut msg = *ev
                    .payload
                    .downcast::<Message>()
                    .expect("NET_RX carries Message");
                // Bounded unexpected queue: a match-eligible arrival that
                // could overflow the bound is refused *at the wire* — the
                // link layer never sequences it, so the sender's go-back-N
                // window retransmits it later. Backpressure, not loss: by
                // the retry the receiver has usually drained. Only armed
                // together with the reliability layer
                // ([`NicConfig::overload_active`] forces it on).
                if self.max_unexpected > 0
                    && self.link.is_some()
                    && msg.header.src_node != self.node
                    && matches!(msg.header.kind, MsgKind::Eager | MsgKind::RndvRequest)
                    && self.fw.unexpected_len() + self.pending_rx_match as usize
                        >= self.max_unexpected as usize
                    // A frame that completes a posted receive never stages;
                    // refusing it would starve the receives that drain the
                    // queue. Admit it past the bound — but only with no
                    // other match-eligible frames in flight to the
                    // firmware, so a racing frame cannot consume the
                    // posted entry first and push this one over the bound.
                    && !(self.pending_rx_match == 0
                        && self.fw.would_match_posted(&msg.header))
                {
                    self.fw.note_admission_refused();
                    // A refused frame must not read as a dead link: answer
                    // with a duplicate cumulative ACK (liveness, zero
                    // progress) so the sender's retry budget survives
                    // sustained backpressure.
                    if let Some(link) = self.link.as_mut() {
                        if let Some(ack) = link.refuse(&msg) {
                            ctx.emit_after(PORT_NET_TX, Payload::new(ack), Time::ZERO);
                        }
                    }
                    self.snapshot_stats();
                    return;
                }
                if let Some(link) = self.link.as_mut() {
                    // Link layer first: CRC check, sequencing, ACK/NACK
                    // generation, duplicate suppression. Only in-order,
                    // intact data frames reach the firmware.
                    let result = link.receive(msg, ctx.now());
                    // Credits the peer piggybacked on this frame refill
                    // the firmware's sender-side pool.
                    for (peer, n) in link.take_credit_returns() {
                        self.fw.credit_returned(peer, n);
                    }
                    for frame in result.send {
                        ctx.emit_after(PORT_NET_TX, Payload::new(frame), Time::ZERO);
                    }
                    for f in link.take_fires() {
                        // NACK-triggered go-back-N replays.
                        ctx.trace_at(
                            f.at,
                            TraceEvent::LinkRetransmit {
                                peer: f.peer,
                                frames: f.frames,
                                backoff: f.backoff,
                            },
                        );
                    }
                    self.schedule_retx(ctx);
                    match result.deliver {
                        Some(delivered) => msg = delivered,
                        None => {
                            self.snapshot_stats();
                            return;
                        }
                    }
                } else if !msg.link.crc_ok {
                    // No link layer: the hardware CRC check still drops
                    // mangled frames on the floor (unrecoverable).
                    self.record.crc_dropped = Some(self.record.crc_dropped.unwrap_or(0) + 1);
                    return;
                }
                // Hardware header-copy path fires at arrival time,
                // regardless of processor occupancy (Fig. 1).
                if self.max_unexpected > 0
                    && matches!(msg.header.kind, MsgKind::Eager | MsgKind::RndvRequest)
                {
                    self.pending_rx_match += 1;
                }
                let probed = self.fw.header_arrival(&msg, ctx.now());
                self.work.push_back(WorkItem::Rx { msg, probed });
                self.try_start(ctx);
            }
            PORT_HOST_REQ => {
                let req = *ev
                    .payload
                    .downcast::<HostRequest>()
                    .expect("HOST_REQ carries HostRequest");
                self.work.push_back(WorkItem::Host(req));
                self.try_start(ctx);
            }
            PORT_WAKE => {
                self.busy = false;
                self.try_start(ctx);
            }
            PORT_RETX => {
                self.retx_scheduled = None;
                let mut newly_dead = Vec::new();
                if let Some(link) = self.link.as_mut() {
                    for frame in link.on_timer(ctx.now()) {
                        ctx.emit_after(PORT_NET_TX, Payload::new(frame), Time::ZERO);
                    }
                    for f in link.take_fires() {
                        ctx.trace_at(
                            f.at,
                            TraceEvent::LinkRetransmit {
                                peer: f.peer,
                                frames: f.frames,
                                backoff: f.backoff,
                            },
                        );
                    }
                    newly_dead = link.take_newly_dead();
                }
                // A retry-budget link death escalates to a typed peer
                // failure only when a fault schedule is armed; unarmed
                // overload runs keep their established semantics (the
                // dead link is a watchdog diagnosis, not a completion).
                if self.schedule.is_some() {
                    for peer in newly_dead {
                        ctx.metrics().add("fault.links_dead", 1);
                        self.declare_peer_dead(peer, ComponentFaultKind::LinkDead, ctx);
                    }
                }
                self.schedule_retx(ctx);
                self.snapshot_stats();
            }
            PORT_FAULT => {
                let wake = *ev
                    .payload
                    .downcast::<FaultWake>()
                    .expect("FAULT carries FaultWake");
                self.on_fault(wake, ctx);
            }
            other => panic!("nic{}: event on unknown port {other:?}", self.node),
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// Write the snapshot record as `nic{N}.*` keys: every group that some
    /// snapshot point published, with its values from the last one.
    fn publish(&self, stats: &mut Stats) {
        fn put<const N: usize>(
            stats: &mut Stats,
            prefix: &str,
            keys: &[&str; N],
            values: Option<[u64; N]>,
        ) {
            for (key, v) in keys.iter().zip(values.iter().flatten()) {
                stats.set(&format!("{prefix}.{key}"), *v);
            }
        }
        let (p, r) = (self.stat_prefix.as_str(), &self.record);
        put(stats, p, &BASE_KEYS, r.base);
        put(stats, p, &LEN_MAX_KEYS, r.base.map(|_| r.len_max));
        put(stats, p, &ALPU_KEYS, r.alpu);
        put(stats, p, &LINK_KEYS, r.link);
        put(stats, p, &FAULT_KEYS, r.fault);
        put(stats, p, &FAULT_LINK_KEYS, r.fault_link);
        put(stats, p, &COLL_KEYS, r.coll);
        put(stats, p, &FLOW_KEYS, r.flow);
        put(stats, p, &FLOW_LINK_KEYS, r.flow_link);
        put(stats, p, &["fault.crashed"], r.crashed.map(|v| [v]));
        put(stats, p, &["fault.incarnation"], r.incarnation.map(|v| [v]));
        put(stats, p, &["link.crc_dropped"], r.crc_dropped.map(|v| [v]));
    }

    /// Write the work-item counter and histograms as `nic{N}.*` metrics.
    /// The latency histograms follow the snapshot rule: only once some
    /// snapshot point was reached, and only those holding samples.
    fn publish_metrics(&self, metrics: &mut Metrics) {
        let p = &self.stat_prefix;
        if self.work_items > 0 {
            metrics.add(&format!("{p}.work_items"), self.work_items);
        }
        metrics.publish_hist(&format!("{p}.work_service"), &self.work_service);
        if self.record.base.is_none() {
            return;
        }
        let retired = self.retired_hists.iter().map(|(k, h)| (*k, h));
        for (key, h) in retired.chain(self.latency_hists()) {
            metrics.publish_hist(&format!("{p}.{key}"), h);
        }
    }

    /// Watchdog self-report: a NIC is busy while it holds work items,
    /// parked rendezvous sends, matched-but-undelivered rendezvous
    /// receives, or unacknowledged frames in a retransmit window.
    fn health(&self) -> Option<Health> {
        if self.crashed {
            // A crashed node holds no obligations: whatever it owed died
            // with it. Peers surface the consequences (dead links, failed
            // ranks) from their own side.
            return Some(
                Health::default().note("node crashed (scheduled fault); state died with it"),
            );
        }
        let windows = self
            .link
            .as_ref()
            .map(|l| l.window_depths())
            .unwrap_or_default();
        let busy = self.busy
            || !self.work.is_empty()
            || self.fw.sends_parked() > 0
            || self.fw.rndv_expected() > 0
            || self.fw.deferred_len() > 0
            || !windows.is_empty();
        let mut h = Health {
            busy,
            ..Health::default()
        }
        .gauge("work_queued", self.work.len() as u64)
        .gauge("posted", self.fw.posted_len() as u64)
        .gauge("unexpected", self.fw.unexpected_len() as u64)
        .gauge("sends_parked", self.fw.sends_parked() as u64)
        .gauge("sends_deferred", self.fw.deferred_len() as u64)
        .gauge("rndv_expected", self.fw.rndv_expected() as u64)
        .gauge("eager_bytes_staged", self.fw.eager_bytes_used());
        for (peer, depth) in windows {
            h = h.note(format!("in-flight window to node {peer}: {depth} frame(s)"));
        }
        if let Some(link) = &self.link {
            for peer in link.dead_peers() {
                h = h.note(format!("link to node {peer} DEAD (retry budget exhausted)"));
            }
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_iface::ReqId;

    /// Regression: `sample_occupancy` used to truncate each inter-event
    /// gap to whole nanoseconds, so sub-ns gaps silently vanished from
    /// the ∫len·dt integral. Two samples 500 ps apart must contribute.
    #[test]
    fn occupancy_integral_keeps_sub_ns_gaps() {
        let mut nic = Nic::new(0, NicConfig::baseline());
        // Post one receive so the posted queue has depth 1.
        let mut core = Core::new(NicConfig::baseline().core);
        nic.fw.process(
            WorkItem::Host(HostRequest::PostRecv {
                req: ReqId { rank: 0, seq: 1 },
                src: None,
                context: 0,
                tag: Some(7),
                len: 0,
            }),
            Time::ZERO,
            &mut core,
        );
        assert_eq!(nic.fw.posted_len(), 1);
        nic.last_sample = Time::ZERO;
        nic.sample_occupancy(Time::from_ps(500));
        nic.sample_occupancy(Time::from_ps(1_000));
        // 1 entry × 1000 ps = 1000 entry·ps; the pre-fix code truncated
        // each 500 ps gap to 0 ns and accumulated nothing.
        assert_eq!(nic.posted_integral_ps, 1_000);
        // Published value converts to entry·ns at report time.
        assert_eq!(nic.posted_integral_ps / 1_000, 1);
    }

    /// Gaps that are a whole number of nanoseconds accumulate exactly as
    /// before the fix (entry·ns report-time units are unchanged).
    #[test]
    fn occupancy_integral_matches_ns_accounting_on_whole_ns() {
        let mut nic = Nic::new(0, NicConfig::baseline());
        let mut core = Core::new(NicConfig::baseline().core);
        nic.fw.process(
            WorkItem::Host(HostRequest::PostRecv {
                req: ReqId { rank: 0, seq: 1 },
                src: None,
                context: 0,
                tag: Some(7),
                len: 0,
            }),
            Time::ZERO,
            &mut core,
        );
        nic.last_sample = Time::ZERO;
        nic.sample_occupancy(Time::from_ns(40));
        assert_eq!(nic.posted_integral_ps / 1_000, 40);
    }
}
