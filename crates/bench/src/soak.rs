//! Overload soak/chaos harness: drive the cluster into resource
//! exhaustion on purpose and check that it degrades by protocol.
//!
//! Three scenarios, all funneling traffic at rank 0:
//!
//! * **incast** — every sender blasts its full message load at a
//!   receiver that posts nothing until the flood is in flight. The
//!   unexpected queue and eager staging pool hit their configured
//!   bounds; the NIC must shed the excess by refusing admission (the
//!   go-back-N window retransmits) and by truncating staged payloads,
//!   never by panicking or growing without bound.
//! * **hot-receiver** — a randomized mix (sizes spanning the eager /
//!   rendezvous threshold, most traffic aimed at rank 0, a side channel
//!   between senders) drawn deterministically from the scenario seed.
//! * **credit-starve** — a tiny per-peer credit allowance against a
//!   receiver that consumes in widely spaced batches, forcing senders
//!   to exhaust their credits and fall back to rendezvous.
//! * **chaos** — component-level faults instead of resource exhaustion:
//!   a seeded link-flap storm (mean time between failures = `mtbf`), one
//!   scheduled node crash mid-run, and (with `--alpu`) a permanent ALPU
//!   death, over ring traffic with pinned sources. Survivors must finish
//!   around the hole with typed `RankFailed` completions — never hang.
//!
//! Every run executes under the [`Cluster::run_watched`] watchdog, so a
//! flow-control bug shows up as a typed [`Diagnosis`] naming the stuck
//! components — not as a hung process. A completed run is oracle-checked:
//! every rank finished, every queue drained, the shadow-list invariants
//! hold, and the unexpected high-water mark respected the configured
//! bound.

use mpiq_dessim::watchdog::Diagnosis;
use mpiq_dessim::{FaultConfig, FaultEvent, FaultSchedule, SimRng, Time};
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_net::NetConfig;
use mpiq_nic::firmware::check_invariants;
use mpiq_nic::NicConfig;

/// The overload scenarios.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// All-to-one incast against a receiver that posts late.
    Incast,
    /// Seed-randomized skewed traffic with mixed protocols.
    HotReceiver,
    /// Eager credits exhausted against a slow-draining receiver.
    CreditStarve,
    /// Component-fault storm: link flaps, a node crash, an ALPU death.
    Chaos,
}

impl Scenario {
    /// All scenarios, in presentation order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Incast,
        Scenario::HotReceiver,
        Scenario::CreditStarve,
        Scenario::Chaos,
    ];

    /// CLI / CSV name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Incast => "incast",
            Scenario::HotReceiver => "hot-receiver",
            Scenario::CreditStarve => "credit-starve",
            Scenario::Chaos => "chaos",
        }
    }

    /// Parse a CLI name (the inverse of [`Scenario::name`]).
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|v| v.name() == s)
    }
}

/// One soak run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Which traffic shape to run.
    pub scenario: Scenario,
    /// Sender count; the cluster has `senders + 1` ranks, rank 0 receives.
    pub senders: u32,
    /// Messages per sender.
    pub msgs: u32,
    /// Payload bytes of the bulk traffic (eager when ≤ the threshold).
    pub msg_size: u32,
    /// Simulation seed; also feeds the hot-receiver traffic matrix.
    pub seed: u64,
    /// Per-peer eager credit allowance (0 disables credit flow control).
    pub eager_credits: u32,
    /// Unexpected-queue admission bound (0 = unbounded).
    pub max_unexpected: u32,
    /// Eager staging pool in bytes (0 = unbounded).
    pub eager_buffer_bytes: u64,
    /// Attach 128-entry ALPUs (otherwise the baseline NIC).
    pub alpu: bool,
    /// Optional wire/ALPU fault campaign layered on top.
    pub faults: Option<FaultConfig>,
    /// Virtual-time watchdog deadline.
    pub deadline: Time,
    /// Network parameters (wire latency, bandwidth, per-pair profile).
    pub net: NetConfig,
    /// Mean time between link flaps for the chaos scenario's seeded
    /// storm (ignored by the other scenarios). Smaller = stormier.
    pub mtbf: Time,
    /// Mean time to repair a flapped link — the outage length, drawn
    /// independently of `mtbf` so the availability curve has the classic
    /// `mtbf / (mtbf + mttr)` shape.
    pub mttr: Time,
    /// Chaos only: restart the crashed node this long after its crash
    /// (`None` = crash-stop forever, the pre-recovery behavior). The
    /// reborn rank boots a staged recovery program and every survivor
    /// reconnects to it through the retry-with-backoff verbs, so the run
    /// additionally measures crash-to-recovered time. Must exceed the
    /// NIC keepalive so the death is *declared* before the rebirth —
    /// pinned round receives fail typed instead of parking on a peer
    /// that silently returned.
    pub node_mttr: Option<Time>,
}

impl SoakConfig {
    /// Defaults sized so one run takes well under a second of wall clock:
    /// 16 senders, 8 messages each, 512 B payloads, 4 credits, a
    /// 32-entry unexpected bound and a 16 KiB staging pool.
    pub fn new(scenario: Scenario, seed: u64) -> SoakConfig {
        SoakConfig {
            scenario,
            senders: 16,
            msgs: 8,
            msg_size: 512,
            seed,
            eager_credits: 4,
            max_unexpected: 32,
            eager_buffer_bytes: 16 << 10,
            alpu: false,
            faults: None,
            deadline: Time::from_ms(500),
            net: NetConfig::default(),
            mtbf: Time::from_us(150),
            mttr: Time::from_us(50),
            node_mttr: None,
        }
    }
}

/// What a completed (non-deadlocked) soak run measured.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// End-to-end simulated time.
    pub runtime: Time,
    /// Events the scheduler processed.
    pub events: u64,
    /// Messages the workload delivered (oracle-implied: every rank's
    /// waits completed).
    pub delivered: u64,
    /// Deepest unexpected queue on any NIC (≤ `max_unexpected` when set).
    pub unexpected_highwater: u64,
    /// Peak eager staging-pool occupancy on any NIC, bytes.
    pub eager_bytes_highwater: u64,
    /// Frames refused admission at the wire (recovered by go-back-N).
    pub admission_refused: u64,
    /// Sends that found an empty credit pool and fell back to rendezvous.
    pub credit_stalls: u64,
    /// Eager payloads admitted header-only because the pool was full.
    pub truncated_admits: u64,
    /// Link-layer frames re-sent.
    pub retransmits: u64,
    /// Credit grants receivers issued.
    pub grants_issued: u64,
    /// Nodes the chaos schedule crash-stopped (0 outside chaos).
    pub ranks_crashed: u64,
    /// Peer-death declarations across all NICs (keepalive or dead link).
    pub peers_failed: u64,
    /// Operations completed with a typed `RankFailed` error. With
    /// restarts enabled this includes the survivors' failed retry
    /// *attempts* against the still-down node — the price of
    /// reconnecting is on the books, not hidden.
    pub ops_rank_failed: u64,
    /// Links declared dead by retry-budget exhaustion.
    pub links_dead: u64,
    /// Nodes that came back under a new incarnation (restart mode).
    pub nodes_restarted: u64,
    /// Per-NIC revivals of a previously-dead peer, summed.
    pub peers_revived: u64,
    /// Stale pre-crash link state fenced on an incarnation change.
    pub epoch_fences: u64,
    /// Crash-to-recovered span: from the scheduled crash instant to the
    /// fully drained cluster — every survivor reconnected to the reborn
    /// rank and the recovery handshake completed. Zero without restarts.
    pub recovery_ns: u64,
    /// Full statistics dump (bit-identical across same-seed runs).
    pub stats_json: String,
}

impl SoakOutcome {
    /// Fraction of the planned operations that completed *without* a
    /// typed failure — the availability axis of the chaos curve.
    pub fn availability(&self, planned_ops: u64) -> f64 {
        if planned_ops == 0 {
            return 1.0;
        }
        1.0 - self.ops_rank_failed as f64 / planned_ops as f64
    }
}

impl SoakConfig {
    /// Operations (sends + receives) the chaos ring plans across all
    /// ranks — the denominator of [`SoakOutcome::availability`].
    pub fn planned_ops(&self) -> u64 {
        ((self.senders + 1) * self.msgs * 2) as u64
    }
}

fn boxed(s: Script) -> Box<dyn AppProgram> {
    Box::new(s)
}

/// All-to-one: receiver sits out the flood, then posts everything.
fn incast_programs(cfg: &SoakConfig) -> Vec<Box<dyn AppProgram>> {
    let mut programs = Vec::new();
    let mut b0 = Script::builder();
    b0.barrier();
    // Let the flood arrive (and pile up / be refused) before posting.
    b0.sleep(Time::from_us(50));
    let mut pending = Vec::new();
    for src in 1..=cfg.senders {
        for i in 0..cfg.msgs {
            pending.push(b0.irecv(Some(src as u16), Some(i as u16), cfg.msg_size));
        }
    }
    b0.wait_all(pending);
    programs.push(boxed(b0.build(mark_log())));
    for _s in 1..=cfg.senders {
        let mut b = Script::builder();
        b.barrier();
        let slots: Vec<usize> = (0..cfg.msgs)
            .map(|i| b.isend(0, i as u16, cfg.msg_size))
            .collect();
        b.wait_all(slots);
        programs.push(boxed(b.build(mark_log())));
    }
    programs
}

/// Randomized hot-spot: a deterministic traffic matrix drawn from the
/// seed. ~3/4 of messages target rank 0; the rest go sender-to-sender.
/// Sizes span the eager/rendezvous threshold so both protocols run under
/// pressure at once.
fn hot_receiver_programs(cfg: &SoakConfig) -> Vec<Box<dyn AppProgram>> {
    let ranks = cfg.senders + 1;
    let mut rng = SimRng::new(cfg.seed ^ 0x50AC);
    // (src, dst, tag, len) with a per-(src,dst) tag counter so every
    // message pairs with exactly one receive.
    let mut tag_ctr = vec![0u16; (ranks * ranks) as usize];
    let mut traffic: Vec<(u32, u32, u16, u32)> = Vec::new();
    for src in 1..ranks {
        for _ in 0..cfg.msgs {
            let dst = if rng.gen_bool(0.75) {
                0
            } else {
                // A peer sender (not self): heat without total serialization.
                let mut d = 1 + rng.gen_range(cfg.senders as u64 - 1) as u32;
                if d >= src {
                    d += 1;
                }
                d
            };
            let len = match rng.gen_range(4) {
                0 => 0,
                1 => cfg.msg_size,
                2 => 2048, // exactly at the eager threshold
                _ => 8192, // rendezvous
            };
            let ctr = &mut tag_ctr[(src * ranks + dst) as usize];
            let tag = *ctr;
            *ctr += 1;
            traffic.push((src, dst, tag, len));
        }
    }
    (0..ranks)
        .map(|me| {
            let mut b = Script::builder();
            let mut pending = Vec::new();
            // Receives first (nonblocking), in traffic order.
            for &(src, dst, tag, len) in traffic.iter().filter(|t| t.1 == me) {
                let _ = dst;
                pending.push(b.irecv(Some(src as u16), Some(tag), len));
            }
            b.barrier();
            if me == 0 {
                // The hot receiver is also slow: its receives were posted
                // pre-barrier, but senders start all at once.
                b.sleep(Time::from_us(10));
            }
            for &(src, dst, tag, len) in traffic.iter().filter(|t| t.0 == me) {
                let _ = src;
                pending.push(b.isend(dst, tag, len));
            }
            b.wait_all(pending);
            b.build(mark_log())
        })
        .map(boxed)
        .collect()
}

/// Credit starvation: senders burst everything; the receiver consumes in
/// batches separated by long sleeps, so credit return is slow and the
/// per-peer pools run dry.
fn credit_starve_programs(cfg: &SoakConfig) -> Vec<Box<dyn AppProgram>> {
    let mut programs = Vec::new();
    let batch = cfg.msgs.div_ceil(4).max(1);
    let mut b0 = Script::builder();
    b0.barrier();
    let mut first = 0;
    while first < cfg.msgs {
        b0.sleep(Time::from_us(20));
        let mut pending = Vec::new();
        for src in 1..=cfg.senders {
            for i in first..(first + batch).min(cfg.msgs) {
                pending.push(b0.irecv(Some(src as u16), Some(i as u16), cfg.msg_size));
            }
        }
        b0.wait_all(pending);
        first += batch;
    }
    programs.push(boxed(b0.build(mark_log())));
    for _s in 1..=cfg.senders {
        let mut b = Script::builder();
        b.barrier();
        let slots: Vec<usize> = (0..cfg.msgs)
            .map(|i| b.isend(0, i as u16, cfg.msg_size))
            .collect();
        b.wait_all(slots);
        programs.push(boxed(b.build(mark_log())));
    }
    programs
}

/// Virtual-time span the chaos storm covers; the ring workload's sleeps
/// are sized so traffic spans it too.
const CHAOS_HORIZON: Time = Time::from_us(600);

/// When the chaos scenario's scheduled node crash lands.
const CHAOS_CRASH_AT: Time = Time::from_us(250);

/// The chaos scenario's deterministic fault timeline: a seeded flap
/// storm at the configured MTBF, the last node crash-stopped mid-run,
/// and — when the ALPU variant is on — a permanent ALPU death on node 1.
/// With `node_mttr` set, the crashed node restarts that long after the
/// crash (under a new incarnation epoch). Pure function of the config,
/// so `run_soak` and its caller agree on who crashed.
pub fn chaos_schedule(cfg: &SoakConfig) -> FaultSchedule {
    let ranks = cfg.senders + 1;
    let mut sched =
        FaultSchedule::generate(cfg.seed ^ 0xC4A05, ranks, cfg.mtbf, cfg.mttr, CHAOS_HORIZON);
    sched.push(CHAOS_CRASH_AT, FaultEvent::NodeCrash { host: ranks - 1 });
    if let Some(mttr) = cfg.node_mttr {
        sched.push(
            CHAOS_CRASH_AT + mttr,
            FaultEvent::NodeRestart { host: ranks - 1 },
        );
    }
    if cfg.alpu {
        sched.push(Time::from_us(80), FaultEvent::AlpuDeath { nic: 1 });
    }
    sched
}

/// Rotating-partner rounds with pinned sources: in round `r` every rank
/// sends to `me + s` and receives from `me - s` (s cycling over every
/// offset), then sleeps, so the rounds spread across the storm horizon
/// *and* touch every fabric edge — a flap anywhere can bite. Pinned
/// sources mean every operation doomed by the crash fails typed —
/// survivors always finish.
fn chaos_programs(cfg: &SoakConfig) -> Vec<Box<dyn AppProgram>> {
    let ranks = cfg.senders + 1;
    let gap = Time::from_ps(CHAOS_HORIZON.ps() / cfg.msgs.max(1) as u64);
    let mut programs = Vec::new();
    for me in 0..ranks {
        let mut b = Script::builder();
        for round in 0..cfg.msgs {
            let s = 1 + (round % (ranks - 1));
            let dst = (me + s) % ranks;
            let src = (me + ranks - s) % ranks;
            let recv = b.irecv(Some(src as u16), Some(round as u16), cfg.msg_size);
            let pending = vec![recv, b.isend(dst, round as u16, cfg.msg_size)];
            b.wait_all(pending);
            b.sleep(gap);
        }
        if cfg.node_mttr.is_some() && me != ranks - 1 {
            // Recovery epilogue: reconnect to the reborn rank through the
            // retry verbs. Backoff absorbs all timing uncertainty — an
            // attempt against the still-down node fails typed and backs
            // off; once the node is back the exchange just completes.
            let dead = ranks - 1;
            b.retry_recv(dead as u16, 999, cfg.msg_size, 20, Time::from_us(25), None);
            b.retry_send(dead, 998, cfg.msg_size, 20, Time::from_us(25), None);
        }
        programs.push(boxed(b.build(mark_log())));
    }
    programs
}

/// The crashed rank's staged recovery program (restart mode): greet
/// every survivor, then collect each survivor's reconnect message. No
/// pre-crash state survives the reboot — this is a fresh script matched
/// against the survivors' retry epilogue.
fn chaos_recovery_programs(cfg: &SoakConfig) -> Vec<Option<Box<dyn AppProgram>>> {
    let ranks = cfg.senders + 1;
    (0..ranks)
        .map(|me| {
            if cfg.scenario != Scenario::Chaos || cfg.node_mttr.is_none() || me != ranks - 1 {
                return None;
            }
            let mut b = Script::builder();
            for peer in 0..ranks - 1 {
                b.isend(peer, 999, cfg.msg_size);
            }
            for peer in 0..ranks - 1 {
                let r = b.irecv(Some(peer as u16), Some(998), cfg.msg_size);
                b.wait(r);
            }
            Some(boxed(b.build(mark_log())))
        })
        .collect()
}

fn build_programs(cfg: &SoakConfig) -> Vec<Box<dyn AppProgram>> {
    match cfg.scenario {
        Scenario::Incast => incast_programs(cfg),
        Scenario::HotReceiver => hot_receiver_programs(cfg),
        Scenario::CreditStarve => credit_starve_programs(cfg),
        Scenario::Chaos => chaos_programs(cfg),
    }
}

/// Reject a fan-in [`run_soak`] cannot run: every scenario needs at
/// least two senders. Callers taking user input check this first, so a
/// bad `--senders` is a one-line error rather than `run_soak`'s assert.
pub fn check_senders(senders: u32) -> Result<(), String> {
    if senders < 2 {
        return Err("--senders must be >= 2".to_string());
    }
    Ok(())
}

/// Run one soak configuration under the watchdog and oracle-check the
/// result. A stall (deadlock or missed deadline) comes back as the
/// watchdog's diagnosis; a completed run that violated an overload bound
/// panics with the violation.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakOutcome, Box<Diagnosis>> {
    assert!(cfg.senders >= 2, "soak needs at least 2 senders");
    let base = if cfg.alpu {
        NicConfig::with_alpus(128)
    } else {
        NicConfig::baseline()
    };
    let nic = base.with_flow_control(
        cfg.eager_credits,
        cfg.max_unexpected,
        cfg.eager_buffer_bytes,
    );
    let mut builder = ClusterConfig::builder(nic).seed(cfg.seed).net(cfg.net);
    if let Some(f) = cfg.faults {
        builder = builder.faults(f);
    }
    if let Some(mttr) = cfg.node_mttr {
        assert_eq!(
            cfg.scenario,
            Scenario::Chaos,
            "node restarts are a chaos knob"
        );
        // The reborn node must come back only after the ring rounds are
        // over (and well past the keepalive declaration), or a pinned
        // round receive could park forever on a peer that silently
        // returned with no program left to send that round.
        assert!(
            mttr >= Time::from_us(400),
            "node_mttr must leave the storm horizon behind before the restart"
        );
    }
    let crashed: Vec<u32> = if cfg.scenario == Scenario::Chaos {
        let sched = chaos_schedule(cfg);
        let crashed = sched.crashed_nodes();
        builder = builder.fault_schedule(sched);
        crashed
    } else {
        Vec::new()
    };
    let mut cluster = Cluster::with_recovery(
        builder.build(),
        build_programs(cfg),
        chaos_recovery_programs(cfg),
    );
    let events = cluster.run_watched(cfg.deadline)?;

    // Oracle: every queue drained, invariants hold on every NIC. Crashed
    // nodes are exempt — their state froze mid-operation — and under
    // chaos the drain checks are relaxed everywhere: typed failures
    // legitimately leave ALPU tombstones in the posted queue and
    // pre-failure unexpected entries that ULFM keeps deliverable.
    let ranks = cfg.senders + 1;
    for rank in (0..ranks).filter(|r| !crashed.contains(r)) {
        let fw = cluster.nic(rank).firmware();
        check_invariants(fw);
        if cfg.scenario != Scenario::Chaos {
            assert_eq!(
                fw.posted_len(),
                0,
                "rank {rank}: posted receives left behind"
            );
            assert_eq!(
                fw.unexpected_len(),
                0,
                "rank {rank}: unexpected entries never consumed"
            );
        }
    }

    let stats = cluster.stats();
    let mut out = SoakOutcome {
        runtime: cluster.now(),
        events,
        delivered: (cfg.senders * cfg.msgs) as u64,
        unexpected_highwater: 0,
        eager_bytes_highwater: 0,
        admission_refused: 0,
        credit_stalls: 0,
        truncated_admits: 0,
        retransmits: 0,
        grants_issued: 0,
        ranks_crashed: 0,
        peers_failed: 0,
        ops_rank_failed: 0,
        links_dead: 0,
        nodes_restarted: 0,
        peers_revived: 0,
        epoch_fences: 0,
        recovery_ns: if cfg.node_mttr.is_some() {
            (cluster.now() - CHAOS_CRASH_AT).ns()
        } else {
            0
        },
        stats_json: stats.to_json(),
    };
    for node in 0..ranks {
        let p = format!("nic{node}");
        let get = |k: &str| stats.get(&format!("{p}.{k}"));
        out.unexpected_highwater = out
            .unexpected_highwater
            .max(get("flow.unexpected_highwater"));
        out.eager_bytes_highwater = out
            .eager_bytes_highwater
            .max(get("flow.eager_bytes_highwater"));
        out.admission_refused += get("flow.admission_refused");
        out.credit_stalls += get("flow.credit_stalls");
        out.truncated_admits += get("flow.truncated_admits");
        out.retransmits += get("link.retransmits");
        out.grants_issued += get("flow.grants_issued");
        out.peers_failed += get("fault.peers_failed");
        out.ops_rank_failed += get("fault.ops_rank_failed");
        out.links_dead += get("link.links_dead");
        out.ranks_crashed += get("fault.crashed");
        // A NIC's incarnation counts its completed restarts.
        out.nodes_restarted += get("fault.incarnation");
        out.peers_revived += get("fault.peers_revived");
        out.epoch_fences += get("fault.epoch_fences");
    }
    if cfg.node_mttr.is_some() {
        // Restart-mode oracle: the crash landed, the node came back, and
        // every survivor both revived it and fenced its stale epoch.
        assert_eq!(out.nodes_restarted, 1, "the scheduled restart never landed");
        assert!(
            out.peers_revived >= cfg.senders as u64,
            "only {} of {} survivors revived the reborn peer",
            out.peers_revived,
            cfg.senders
        );
        assert!(out.epoch_fences >= 1, "nobody fenced the old incarnation");
    }
    if cfg.max_unexpected > 0 {
        assert!(
            out.unexpected_highwater <= cfg.max_unexpected as u64,
            "unexpected high-water {} exceeded the configured bound {}",
            out.unexpected_highwater,
            cfg.max_unexpected
        );
    }
    if cfg.eager_buffer_bytes > 0 {
        assert!(
            out.eager_bytes_highwater <= cfg.eager_buffer_bytes,
            "eager staging high-water {} exceeded the pool {}",
            out.eager_bytes_highwater,
            cfg.eager_buffer_bytes
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_respects_unexpected_bound_and_drains() {
        let cfg = SoakConfig::new(Scenario::Incast, 7);
        let out = run_soak(&cfg).expect("incast must complete under the watchdog");
        assert!(out.unexpected_highwater <= cfg.max_unexpected as u64);
        assert!(
            out.admission_refused > 0 || out.credit_stalls > 0,
            "a 16->1 incast with bounds this tight must trip overload handling"
        );
    }

    #[test]
    fn credit_starve_forces_rendezvous_fallback() {
        let mut cfg = SoakConfig::new(Scenario::CreditStarve, 3);
        cfg.eager_credits = 2;
        cfg.msgs = 12;
        let out = run_soak(&cfg).expect("starve must complete");
        assert!(
            out.credit_stalls > 0,
            "2 credits against a 12-message burst must stall: {out:?}"
        );
    }

    #[test]
    fn chaos_survivors_finish_with_typed_failures() {
        let mut cfg = SoakConfig::new(Scenario::Chaos, 5);
        cfg.senders = 7;
        let out = run_soak(&cfg).expect("chaos must complete around the hole, never hang");
        assert_eq!(out.ranks_crashed, 1, "the scheduled crash must land");
        assert!(
            out.peers_failed > 0,
            "nobody ever declared the crashed peer dead: {out:?}"
        );
        assert!(
            out.ops_rank_failed > 0,
            "a crash mid-ring must doom at least one operation: {out:?}"
        );
        let avail = out.availability(cfg.planned_ops());
        assert!(
            (0.0..1.0).contains(&avail),
            "one crashed rank must cost some availability: {avail}"
        );
    }

    #[test]
    fn chaos_with_restarts_recovers_and_reconnects() {
        let mut cfg = SoakConfig::new(Scenario::Chaos, 5);
        cfg.senders = 7;
        cfg.node_mttr = Some(Time::from_us(600));
        let out = run_soak(&cfg).expect("chaos-with-restarts must drain, never hang");
        assert_eq!(out.ranks_crashed, 1, "the scheduled crash must land");
        assert_eq!(out.nodes_restarted, 1, "the scheduled restart must land");
        assert!(
            out.peers_revived >= cfg.senders as u64,
            "every survivor must revive the reborn peer: {out:?}"
        );
        assert!(
            out.epoch_fences >= 1,
            "the old incarnation was never fenced"
        );
        assert!(
            out.recovery_ns > 0,
            "crash-to-recovered span must be measured: {out:?}"
        );
        // Recovery is not free: the crash still doomed mid-ring ops and
        // the reconnect retries paid typed failures while the node was
        // down — but the run *drained*, which a crash-stop alone cannot
        // claim for the reconnect handshake.
        assert!(out.ops_rank_failed > 0, "{out:?}");
    }

    #[test]
    fn chaos_with_restarts_same_seed_is_bit_identical() {
        let mut cfg = SoakConfig::new(Scenario::Chaos, 9);
        cfg.senders = 7;
        cfg.node_mttr = Some(Time::from_us(600));
        let a = run_soak(&cfg).expect("run a");
        let b = run_soak(&cfg).expect("run b");
        assert_eq!(
            a.stats_json, b.stats_json,
            "same-seed recovery chaos diverged"
        );
    }

    #[test]
    fn chaos_same_seed_is_bit_identical() {
        let mut cfg = SoakConfig::new(Scenario::Chaos, 9);
        cfg.senders = 7;
        let a = run_soak(&cfg).expect("run a");
        let b = run_soak(&cfg).expect("run b");
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.stats_json, b.stats_json, "same-seed chaos diverged");
    }

    #[test]
    fn hot_receiver_same_seed_is_bit_identical() {
        let cfg = SoakConfig::new(Scenario::HotReceiver, 11);
        let a = run_soak(&cfg).expect("run a");
        let b = run_soak(&cfg).expect("run b");
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.stats_json, b.stats_json, "same-seed soak diverged");
    }
}
