//! Deterministic fault injection.
//!
//! A [`FaultConfig`] describes *what* can go wrong (message drops,
//! duplications, corruption on the wire; bit-flips and command-FIFO
//! stalls in an offload unit) and with what probability; a [`FaultPlan`]
//! turns that description into a reproducible stream of concrete fault
//! decisions. Every decision is drawn from a private SplitMix64 stream
//! derived from `(config seed, site id)`, never from the simulation's
//! shared RNG — so enabling faults cannot perturb any other randomized
//! choice, and two runs with the same seed make bit-identical decisions
//! at every injection site regardless of event interleaving.
//!
//! Sites (one plan per fabric, one per offload unit) each get their own
//! stream id, keeping decisions at different sites uncorrelated.
//!
//! Above the message-level streams sits the component level: a
//! [`FaultSchedule`] is a deterministic *timeline* of component failures —
//! node crashes, link flaps, fabric partitions, permanent offload-unit
//! death — evaluated as pure functions of virtual time. Every component
//! holds its own (shared, immutable) copy of the schedule and asks
//! "is this edge down at `t`?" locally, so no fault information ever
//! travels as an event and the layer is deterministic by construction.

use crate::rng::SimRng;
use crate::time::Time;
use std::fmt;

/// Probabilities and seed for a fault campaign. `FaultConfig::none()`
/// (the `Default`) disables everything; injection sites must be zero-cost
/// in that case.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Master seed; all per-site streams derive from it.
    pub seed: u64,
    /// Probability a wire message is dropped.
    pub drop_p: f64,
    /// Probability a wire message is delivered twice.
    pub dup_p: f64,
    /// Probability a wire message arrives with a failed CRC.
    pub corrupt_p: f64,
    /// Probability, per queued probe, of a bit-flip in the unit's cells.
    pub flip_p: f64,
    /// Probability, per pushed command, of a transient pipeline stall.
    pub stall_p: f64,
    /// Probability, per flow-control credit grant or rendezvous
    /// clear-to-send, that the message authorizing further progress is
    /// silently lost *inside the NIC* (a firmware bug model, not a wire
    /// fault — the reliability layer cannot recover it). Used to induce
    /// real credit-leak deadlocks for the watchdog.
    pub leak_p: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// No faults. Every probability zero.
    pub const fn none() -> FaultConfig {
        FaultConfig {
            seed: 1,
            drop_p: 0.0,
            dup_p: 0.0,
            corrupt_p: 0.0,
            flip_p: 0.0,
            stall_p: 0.0,
            leak_p: 0.0,
        }
    }

    /// True if any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.net_active() || self.alpu_active() || self.leak_active()
    }

    /// True if any wire-level fault class can fire.
    pub fn net_active(&self) -> bool {
        self.drop_p > 0.0 || self.dup_p > 0.0 || self.corrupt_p > 0.0
    }

    /// True if any offload-unit fault class can fire.
    pub fn alpu_active(&self) -> bool {
        self.flip_p > 0.0 || self.stall_p > 0.0
    }

    /// True if the credit/CTS leak class can fire.
    pub fn leak_active(&self) -> bool {
        self.leak_p > 0.0
    }
}

/// Parse `seed=N,drop=P,dup=P,corrupt=P,flip=P,stall=P,leak=P` (any
/// subset, any order; omitted fields default to the `none()` values).
impl std::str::FromStr for FaultConfig {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::none();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability `{v}` outside [0,1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => cfg.seed = val.parse().map_err(|_| format!("bad seed `{val}`"))?,
                "drop" => cfg.drop_p = prob(val)?,
                "dup" => cfg.dup_p = prob(val)?,
                "corrupt" => cfg.corrupt_p = prob(val)?,
                "flip" => cfg.flip_p = prob(val)?,
                "stall" => cfg.stall_p = prob(val)?,
                "leak" => cfg.leak_p = prob(val)?,
                other => {
                    return Err(format!(
                        "unknown fault key `{other}` (want seed|drop|dup|corrupt|flip|stall|leak)"
                    ))
                }
            }
        }
        Ok(cfg)
    }
}

/// The three independent verdicts for one wire message. Rolled in a fixed
/// order with a fixed number of RNG draws, so the decision stream for
/// message *n* does not depend on the outcomes for messages `0..n`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireFault {
    pub drop: bool,
    pub duplicate: bool,
    pub corrupt: bool,
}

/// A bit-flip target inside an offload unit: an occupied-cell selector
/// (reduced modulo occupancy by the unit) and a bit index within the
/// cell's match word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlipTarget {
    pub cell_sel: u64,
    pub bit: u32,
}

/// A reproducible stream of fault decisions for one injection site.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SimRng,
}

/// Stall durations drawn per command, in unit clock cycles. The upper
/// bound is deliberately above typical firmware spin budgets so that some
/// stalls are survivable and some force a quarantine.
const STALL_MIN_CYCLES: u64 = 512;
const STALL_MAX_CYCLES: u64 = 8192;

impl FaultPlan {
    /// Plan for injection site `site`, derived from `cfg.seed`. Distinct
    /// sites get uncorrelated streams; the same `(seed, site)` pair always
    /// yields the same stream.
    pub fn new(cfg: FaultConfig, site: u64) -> FaultPlan {
        // One fork step per site id separates the streams; the xor keeps
        // site 0 from replaying the raw seed stream.
        let mut base = SimRng::new(cfg.seed ^ 0xa076_1d64_78bd_642f);
        let mut rng = SimRng::new(base.next_u64() ^ site.wrapping_mul(0xe703_7ed1_a0b4_28db));
        rng.next_u64(); // burn one step to decouple from the mix constant
        FaultPlan { cfg, rng }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Roll the wire-fault verdicts for the next message (three Bernoulli
    /// draws, always consumed).
    pub fn roll_wire(&mut self) -> WireFault {
        WireFault {
            drop: self.rng.gen_bool(self.cfg.drop_p),
            duplicate: self.rng.gen_bool(self.cfg.dup_p),
            corrupt: self.rng.gen_bool(self.cfg.corrupt_p),
        }
    }

    /// Roll a possible bit-flip for the next queued probe. Consumes a
    /// fixed three draws whether or not the flip fires.
    pub fn roll_flip(&mut self) -> Option<FlipTarget> {
        let fire = self.rng.gen_bool(self.cfg.flip_p);
        let cell_sel = self.rng.next_u64();
        let bit = self.rng.gen_range(64) as u32;
        fire.then_some(FlipTarget { cell_sel, bit })
    }

    /// Roll a possible pipeline stall for the next pushed command, in unit
    /// clock cycles. Consumes a fixed two draws.
    pub fn roll_stall(&mut self) -> Option<u64> {
        let fire = self.rng.gen_bool(self.cfg.stall_p);
        let cycles = STALL_MIN_CYCLES + self.rng.gen_range(STALL_MAX_CYCLES - STALL_MIN_CYCLES);
        fire.then_some(cycles)
    }

    /// Roll whether the next credit grant / clear-to-send is leaked.
    /// Consumes a fixed one draw.
    pub fn roll_leak(&mut self) -> bool {
        self.rng.gen_bool(self.cfg.leak_p)
    }
}

/// One component-level fault on a [`FaultSchedule`] timeline.
///
/// Component identifiers are node ids (`host` and `nic` coincide in this
/// simulator: one NIC per node); edges are undirected node pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Host (and its NIC) crash-stops: all in-flight state is lost and the
    /// node never speaks again. Its links are down from this instant on.
    NodeCrash { host: u32 },
    /// The undirected edge `a–b` refuses all frames for `down_for`, then
    /// heals; the go-back-N layer is expected to resync across the gap.
    LinkFlap { a: u32, b: u32, down_for: Time },
    /// The fabric splits into the listed `groups` (nodes absent from every
    /// group form one implicit extra group); all inter-group edges are down
    /// until the absolute time `heal_at`.
    Partition {
        groups: Vec<Vec<u32>>,
        heal_at: Time,
    },
    /// The node's offload unit dies permanently: firmware is pinned in the
    /// software-fallback path and never re-engages the unit.
    AlpuDeath { nic: u32 },
    /// A previously crashed host (and its NIC) comes back up with *all*
    /// volatile state wiped — queues, ALPU contents, link windows — under
    /// a new incarnation epoch. Its links carry frames again from this
    /// instant; peers fence any state keyed to the old incarnation.
    NodeRestart { host: u32 },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::NodeCrash { host } => write!(f, "crash node {host}"),
            FaultEvent::LinkFlap { a, b, down_for } => {
                write!(f, "flap edge {a}-{b} for {down_for}")
            }
            FaultEvent::Partition { groups, heal_at } => {
                let gs: Vec<String> = groups
                    .iter()
                    .map(|g| g.iter().map(u32::to_string).collect::<Vec<_>>().join("."))
                    .collect();
                write!(f, "partition {} until {heal_at}", gs.join("|"))
            }
            FaultEvent::AlpuDeath { nic } => write!(f, "alpu death on nic {nic}"),
            FaultEvent::NodeRestart { host } => write!(f, "restart node {host}"),
        }
    }
}

/// A deterministic timeline of component-level faults, shared read-only by
/// every component (each holds an `Arc`). All queries are pure functions of
/// `(schedule, time)` so the same schedule gives byte-identical behavior
/// in every run.
///
/// Build one programmatically with [`FaultSchedule::push`], generate a flap
/// storm from a seed with [`FaultSchedule::generate`], or parse the text
/// spec grammar (events separated by `;`):
///
/// ```text
/// crash@500us:node=3
/// crash@500us:node=3,mttr=300us     (sugar: crash + restart@800us)
/// restart@800us:node=3
/// flap@1ms:edge=0-2,down=200us
/// partition@2ms:groups=0.1|2.3,heal=3ms
/// alpu@1ms:nic=1
/// ```
///
/// Times are `N` with a `ps`/`ns`/`us`/`ms` suffix. [`fmt::Display`]
/// renders the canonical spec (the `mttr=` sugar desugars into an
/// explicit `restart@`), so `format(parse(s))` parses back to the same
/// schedule for every event kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// `(at, event)`, kept sorted by `at` (ties in insertion order).
    events: Vec<(Time, FaultEvent)>,
}

impl FaultSchedule {
    /// An empty timeline (nothing ever fails).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Add an event at absolute time `at`, keeping the timeline sorted.
    pub fn push(&mut self, at: Time, event: FaultEvent) -> &mut Self {
        let idx = self.events.partition_point(|&(t, _)| t <= at);
        self.events.insert(idx, (at, event));
        self
    }

    /// The sorted timeline.
    pub fn events(&self) -> &[(Time, FaultEvent)] {
        &self.events
    }

    /// Generate a reproducible link-flap storm: flap arrivals spaced
    /// uniformly in `[mtbf/2, 3·mtbf/2)` across random edges of a
    /// `nodes`-node cluster, each outage lasting `[mttr/2, 3·mttr/2)`,
    /// until `horizon`. Failure rate and repair time are independent
    /// knobs — availability follows the classic `mtbf / (mtbf + mttr)`
    /// shape only when the outage length does *not* scale with the
    /// arrival spacing. Crashes and ALPU deaths are deliberate, targeted
    /// events — push them explicitly on top of the generated storm.
    pub fn generate(seed: u64, nodes: u32, mtbf: Time, mttr: Time, horizon: Time) -> FaultSchedule {
        assert!(nodes >= 2, "a flap needs an edge, so at least two nodes");
        assert!(mtbf > Time::ZERO, "mtbf must be positive");
        assert!(mttr > Time::ZERO, "mttr must be positive");
        let mut rng = SimRng::new(seed ^ 0x5bd1_e995_97f4_a7c5);
        let mut sched = FaultSchedule::new();
        let mut at = Time::ZERO;
        loop {
            let gap = mtbf.ps() / 2 + rng.gen_range(mtbf.ps().max(1));
            at += Time::from_ps(gap);
            if at >= horizon {
                return sched;
            }
            let a = rng.gen_range(nodes as u64) as u32;
            let mut b = rng.gen_range(nodes as u64 - 1) as u32;
            if b >= a {
                b += 1;
            }
            let down = mttr.ps() / 2 + rng.gen_range(mttr.ps().max(1));
            sched.push(
                at,
                FaultEvent::LinkFlap {
                    a,
                    b,
                    down_for: Time::from_ps(down),
                },
            );
        }
    }

    /// Generate a reproducible crash/restart storm: crash arrivals spaced
    /// uniformly in `[mtbf/2, 3·mtbf/2)` across random nodes, each outage
    /// lasting `[mttr/2, 3·mttr/2)` before the node restarts under a new
    /// incarnation — `NodeCrash` with an MTTR, exactly as
    /// [`FaultSchedule::generate`] gives `LinkFlap` one. A node is never
    /// re-crashed while still down, and a crash whose restart would land
    /// past `horizon` is emitted without one (it stays down).
    pub fn generate_crashes(
        seed: u64,
        nodes: u32,
        mtbf: Time,
        mttr: Time,
        horizon: Time,
    ) -> FaultSchedule {
        assert!(
            nodes >= 2,
            "a crash needs surviving peers, so at least two nodes"
        );
        assert!(mtbf > Time::ZERO, "mtbf must be positive");
        assert!(mttr > Time::ZERO, "mttr must be positive");
        let mut rng = SimRng::new(seed ^ 0x94d0_49bb_1331_11eb);
        let mut sched = FaultSchedule::new();
        let mut down_until = vec![Time::ZERO; nodes as usize];
        let mut at = Time::ZERO;
        loop {
            let gap = mtbf.ps() / 2 + rng.gen_range(mtbf.ps().max(1));
            at += Time::from_ps(gap);
            if at >= horizon {
                return sched;
            }
            // Draw the victim *before* filtering so the stream of draws —
            // and thus the storm — does not depend on outage overlap.
            let host = rng.gen_range(nodes as u64) as u32;
            let down = mttr.ps() / 2 + rng.gen_range(mttr.ps().max(1));
            if at < down_until[host as usize] {
                continue; // still rebooting from its previous crash
            }
            sched.push(at, FaultEvent::NodeCrash { host });
            let up = at + Time::from_ps(down);
            if up < horizon {
                sched.push(up, FaultEvent::NodeRestart { host });
                down_until[host as usize] = up;
            } else {
                down_until[host as usize] = Time::MAX;
            }
        }
    }

    /// Is anything scheduled at all?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// When (if ever) does `node` first crash-stop? Earliest crash wins.
    pub fn crash_time(&self, node: u32) -> Option<Time> {
        self.events
            .iter()
            .find(|(_, e)| matches!(e, FaultEvent::NodeCrash { host } if *host == node))
            .map(|&(t, _)| t)
    }

    /// Every crash instant of `node`, ascending.
    pub fn crash_times(&self, node: u32) -> Vec<Time> {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::NodeCrash { host } if *host == node))
            .map(|&(t, _)| t)
            .collect()
    }

    /// Every restart instant of `node`, ascending.
    pub fn restart_times(&self, node: u32) -> Vec<Time> {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::NodeRestart { host } if *host == node))
            .map(|&(t, _)| t)
            .collect()
    }

    /// The earliest restart of `node` strictly after `at`, if any.
    fn restart_after(&self, node: u32, at: Time) -> Option<Time> {
        self.events
            .iter()
            .find(|&&(t, ref e)| {
                t > at && matches!(e, FaultEvent::NodeRestart { host } if *host == node)
            })
            .map(|&(t, _)| t)
    }

    /// Is `node` down — crashed and not (yet) restarted — at time `t`?
    pub fn node_down(&self, node: u32, t: Time) -> bool {
        self.events
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .filter_map(|(_, e)| match e {
                FaultEvent::NodeCrash { host } if *host == node => Some(true),
                FaultEvent::NodeRestart { host } if *host == node => Some(false),
                _ => None,
            })
            .last()
            .unwrap_or(false)
    }

    /// `node`'s incarnation epoch at time `t`: 0 from boot, bumped by
    /// every completed restart. Pure function of `(schedule, time)`, so
    /// every component agrees on the epoch without exchanging fault
    /// information.
    pub fn incarnation_at(&self, node: u32, t: Time) -> u32 {
        self.events
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .filter(|(_, e)| matches!(e, FaultEvent::NodeRestart { host } if *host == node))
            .count() as u32
    }

    /// Every node down at the *end* of the timeline (a crash with no
    /// later restart), deduplicated, ascending. A node that crashed and
    /// came back is not listed: it finishes the run alive.
    pub fn crashed_nodes(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .events
            .iter()
            .filter_map(|&(t, ref e)| match e {
                FaultEvent::NodeCrash { host } if self.restart_after(*host, t).is_none() => {
                    Some(*host)
                }
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every node with at least one crash anywhere on the timeline —
    /// including nodes that later restart — deduplicated, ascending.
    /// Peers schedule one keepalive-detection wake per crash instant.
    pub fn crashing_nodes(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                FaultEvent::NodeCrash { host } => Some(*host),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// When (if ever) does `nic`'s offload unit die permanently?
    pub fn alpu_death_time(&self, nic: u32) -> Option<Time> {
        self.events
            .iter()
            .find(|(_, e)| matches!(e, FaultEvent::AlpuDeath { nic: n } if *n == nic))
            .map(|&(t, _)| t)
    }

    /// Is the undirected edge `a–b` refusing frames at time `t`? True
    /// during any covering flap outage, while a partition separates the
    /// endpoints, or while either endpoint is crashed — until that
    /// endpoint's next scheduled restart (forever, absent one).
    pub fn edge_down(&self, a: u32, b: u32, t: Time) -> bool {
        for &(at, ref ev) in &self.events {
            if at > t {
                break;
            }
            match ev {
                FaultEvent::NodeCrash { host } if *host == a || *host == b => {
                    match self.restart_after(*host, at) {
                        Some(up) if t >= up => {} // already back: this crash is history
                        _ => return true,
                    }
                }
                FaultEvent::LinkFlap {
                    a: fa,
                    b: fb,
                    down_for,
                } if ((*fa == a && *fb == b) || (*fa == b && *fb == a)) && t < at + *down_for => {
                    return true;
                }
                FaultEvent::Partition { groups, heal_at } if t < *heal_at => {
                    let side = |n: u32| groups.iter().position(|g| g.contains(&n));
                    if side(a) != side(b) {
                        return true;
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Connectivity groups of an `n`-node cluster at time `t`: connected
    /// components over the edges currently alive, each component sorted,
    /// components ordered by their smallest member. Crashed nodes come out
    /// as singletons (every edge at a crashed endpoint is down). One group
    /// of `0..n` means "no partition in effect".
    pub fn groups_at(&self, n: u32, t: Time) -> Vec<Vec<u32>> {
        let n = n as usize;
        let mut parent: Vec<usize> = (0..n).collect();
        fn root(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if !self.edge_down(a as u32, b as u32, t) {
                    let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
                    parent[ra.max(rb)] = ra.min(rb);
                }
            }
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n];
        for x in 0..n {
            let r = root(&mut parent, x);
            groups[r].push(x as u32);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }
}

/// Render a time as the spec grammar's `N<suffix>` literal, picking the
/// coarsest suffix that loses nothing — the inverse of
/// [`parse_schedule_time`].
fn fmt_schedule_time(t: Time) -> String {
    let ps = t.ps();
    if ps == 0 {
        "0ns".to_string()
    } else if ps.is_multiple_of(1_000_000_000) {
        format!("{}ms", ps / 1_000_000_000)
    } else if ps.is_multiple_of(1_000_000) {
        format!("{}us", ps / 1_000_000)
    } else if ps.is_multiple_of(1_000) {
        format!("{}ns", ps / 1_000)
    } else {
        format!("{ps}ps")
    }
}

/// Render the canonical spec grammar: `;`-separated `kind@time:args`
/// events in timeline order. Round-trips through [`FromStr`](std::str::FromStr): parsing the
/// rendered text reproduces the schedule exactly.
impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(at, ref ev) in &self.events {
            if !first {
                write!(f, "; ")?;
            }
            first = false;
            let at = fmt_schedule_time(at);
            match ev {
                FaultEvent::NodeCrash { host } => write!(f, "crash@{at}:node={host}")?,
                FaultEvent::NodeRestart { host } => write!(f, "restart@{at}:node={host}")?,
                FaultEvent::AlpuDeath { nic } => write!(f, "alpu@{at}:nic={nic}")?,
                FaultEvent::LinkFlap { a, b, down_for } => write!(
                    f,
                    "flap@{at}:edge={a}-{b},down={}",
                    fmt_schedule_time(*down_for)
                )?,
                FaultEvent::Partition { groups, heal_at } => {
                    let gs: Vec<String> = groups
                        .iter()
                        .map(|g| g.iter().map(u32::to_string).collect::<Vec<_>>().join("."))
                        .collect();
                    write!(
                        f,
                        "partition@{at}:groups={},heal={}",
                        gs.join("|"),
                        fmt_schedule_time(*heal_at)
                    )?
                }
            }
        }
        Ok(())
    }
}

/// Parse a time literal like `200us` (suffixes: `ps`, `ns`, `us`, `ms`).
fn parse_schedule_time(s: &str) -> Result<Time, String> {
    let (digits, make): (&str, fn(u64) -> Time) = if let Some(d) = s.strip_suffix("ms") {
        (d, Time::from_ms)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, Time::from_us)
    } else if let Some(d) = s.strip_suffix("ns") {
        (d, Time::from_ns)
    } else if let Some(d) = s.strip_suffix("ps") {
        (d, Time::from_ps)
    } else {
        return Err(format!("time `{s}` needs a ps|ns|us|ms suffix"));
    };
    digits
        .parse()
        .map(make)
        .map_err(|_| format!("bad time `{s}`"))
}

/// Parse the [`FaultSchedule`] spec grammar: `;`-separated events, each
/// `kind@time:key=value,...` — see the type-level docs for the shapes.
impl std::str::FromStr for FaultSchedule {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultSchedule, String> {
        let mut sched = FaultSchedule::new();
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (head, body) = part
                .split_once(':')
                .ok_or_else(|| format!("event `{part}` is not kind@time:args"))?;
            let (kind, at) = head
                .split_once('@')
                .ok_or_else(|| format!("event head `{head}` is not kind@time"))?;
            let at = parse_schedule_time(at)?;
            let mut args = std::collections::BTreeMap::new();
            for kv in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("arg `{kv}` is not key=value"))?;
                args.insert(k, v);
            }
            let want = |key: &str| -> Result<&str, String> {
                args.get(key)
                    .copied()
                    .ok_or_else(|| format!("event `{part}` is missing `{key}=`"))
            };
            let node = |v: &str| -> Result<u32, String> {
                v.parse().map_err(|_| format!("bad node id `{v}`"))
            };
            let event = match kind {
                "crash" => {
                    let host = node(want("node")?)?;
                    if let Some(mttr) = args.get("mttr") {
                        // Sugar: a crash with a mean-time-to-repair is a
                        // crash plus an explicit restart `mttr` later.
                        sched.push(
                            at + parse_schedule_time(mttr)?,
                            FaultEvent::NodeRestart { host },
                        );
                    }
                    FaultEvent::NodeCrash { host }
                }
                "restart" => FaultEvent::NodeRestart {
                    host: node(want("node")?)?,
                },
                "alpu" => FaultEvent::AlpuDeath {
                    nic: node(want("nic")?)?,
                },
                "flap" => {
                    let edge = want("edge")?;
                    let (a, b) = edge
                        .split_once('-')
                        .ok_or_else(|| format!("edge `{edge}` is not a-b"))?;
                    FaultEvent::LinkFlap {
                        a: node(a)?,
                        b: node(b)?,
                        down_for: parse_schedule_time(want("down")?)?,
                    }
                }
                "partition" => {
                    let groups = want("groups")?
                        .split('|')
                        .map(|g| g.split('.').map(node).collect())
                        .collect::<Result<Vec<Vec<u32>>, _>>()?;
                    FaultEvent::Partition {
                        groups,
                        heal_at: parse_schedule_time(want("heal")?)?,
                    }
                }
                other => {
                    return Err(format!(
                        "unknown fault event `{other}` (want crash|restart|flap|partition|alpu)"
                    ))
                }
            };
            sched.push(at, event);
        }
        Ok(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_default() {
        let cfg = FaultConfig::none();
        assert!(!cfg.is_active());
        assert_eq!(cfg, FaultConfig::default());
    }

    #[test]
    fn parse_full_spec() {
        let cfg: FaultConfig = "seed=42,drop=0.01,dup=0.005,corrupt=0.002,flip=0.1,stall=0.2"
            .parse()
            .unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.drop_p, 0.01);
        assert_eq!(cfg.dup_p, 0.005);
        assert_eq!(cfg.corrupt_p, 0.002);
        assert_eq!(cfg.flip_p, 0.1);
        assert_eq!(cfg.stall_p, 0.2);
        assert!(cfg.is_active() && cfg.net_active() && cfg.alpu_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("drop".parse::<FaultConfig>().is_err());
        assert!("drop=2.0".parse::<FaultConfig>().is_err());
        assert!("warp=0.1".parse::<FaultConfig>().is_err());
        assert!("seed=x".parse::<FaultConfig>().is_err());
    }

    #[test]
    fn plans_are_reproducible_per_site() {
        let cfg: FaultConfig = "seed=7,drop=0.5,dup=0.5,corrupt=0.5".parse().unwrap();
        let mut a = FaultPlan::new(cfg, 3);
        let mut b = FaultPlan::new(cfg, 3);
        for _ in 0..200 {
            assert_eq!(a.roll_wire(), b.roll_wire());
        }
    }

    #[test]
    fn sites_are_uncorrelated() {
        let cfg: FaultConfig = "seed=7,drop=0.5".parse().unwrap();
        let mut a = FaultPlan::new(cfg, 0);
        let mut b = FaultPlan::new(cfg, 1);
        let same = (0..256)
            .filter(|_| a.roll_wire().drop == b.roll_wire().drop)
            .count();
        // Two fair-coin streams should agree about half the time.
        assert!((64..=192).contains(&same), "suspicious agreement: {same}");
    }

    #[test]
    fn drop_rate_close_to_requested() {
        let cfg: FaultConfig = "seed=11,drop=0.01".parse().unwrap();
        let mut plan = FaultPlan::new(cfg, 0);
        let n = 100_000;
        let drops = (0..n).filter(|_| plan.roll_wire().drop).count();
        let rate = drops as f64 / n as f64;
        assert!((0.005..0.02).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn stall_cycles_bounded() {
        let cfg: FaultConfig = "seed=5,stall=1.0".parse().unwrap();
        let mut plan = FaultPlan::new(cfg, 0);
        for _ in 0..1_000 {
            let c = plan.roll_stall().unwrap();
            assert!((STALL_MIN_CYCLES..STALL_MAX_CYCLES).contains(&c));
        }
    }

    #[test]
    fn inactive_plan_never_fires() {
        let mut plan = FaultPlan::new(FaultConfig::none(), 0);
        for _ in 0..1_000 {
            assert_eq!(plan.roll_wire(), WireFault::default());
            assert!(plan.roll_flip().is_none());
            assert!(plan.roll_stall().is_none());
            assert!(!plan.roll_leak());
        }
    }

    #[test]
    fn parse_leak_key() {
        let cfg: FaultConfig = "seed=3,leak=1.0".parse().unwrap();
        assert_eq!(cfg.leak_p, 1.0);
        assert!(cfg.leak_active() && cfg.is_active());
        assert!(!cfg.net_active() && !cfg.alpu_active());
        let mut plan = FaultPlan::new(cfg, 9);
        assert!(plan.roll_leak());
    }

    #[test]
    fn schedule_spec_round_trips_every_event_kind() {
        let sched: FaultSchedule = "crash@500us:node=3; flap@1ms:edge=0-2,down=200us; \
             partition@2ms:groups=0.1|2.3,heal=3ms; alpu@1ms:nic=1"
            .parse()
            .unwrap();
        assert_eq!(sched.events().len(), 4);
        assert_eq!(sched.crash_time(3), Some(Time::from_us(500)));
        assert_eq!(sched.crash_time(0), None);
        assert_eq!(sched.alpu_death_time(1), Some(Time::from_ms(1)));
        assert_eq!(sched.crashed_nodes(), vec![3]);
        // Timeline is sorted by time even though the spec is not.
        let times: Vec<Time> = sched.events().iter().map(|&(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn schedule_spec_rejects_garbage() {
        assert!("crash@500us".parse::<FaultSchedule>().is_err());
        assert!("crash:node=1".parse::<FaultSchedule>().is_err());
        assert!("crash@500us:host=1".parse::<FaultSchedule>().is_err());
        assert!("flap@1ms:edge=02,down=1us"
            .parse::<FaultSchedule>()
            .is_err());
        assert!("flap@1ms:edge=0-2,down=1".parse::<FaultSchedule>().is_err());
        assert!("melt@1ms:node=0".parse::<FaultSchedule>().is_err());
    }

    #[test]
    fn flap_downs_edge_for_exactly_the_outage() {
        let sched: FaultSchedule = "flap@1ms:edge=0-2,down=200us".parse().unwrap();
        let down = |us| sched.edge_down(0, 2, Time::from_us(us));
        assert!(!down(999));
        assert!(down(1000) && down(1100) && down(1199));
        assert!(!down(1200), "edge must heal at flap end");
        // Undirected: the reverse orientation sees the same outage.
        assert!(sched.edge_down(2, 0, Time::from_us(1100)));
        // Unrelated edges never notice.
        assert!(!sched.edge_down(0, 1, Time::from_us(1100)));
    }

    #[test]
    fn crash_downs_every_adjacent_edge_forever() {
        let sched: FaultSchedule = "crash@10us:node=1".parse().unwrap();
        assert!(!sched.edge_down(0, 1, Time::from_us(9)));
        assert!(sched.edge_down(0, 1, Time::from_us(10)));
        assert!(sched.edge_down(1, 3, Time::from_ms(500)));
        assert!(!sched.edge_down(0, 3, Time::from_ms(500)));
    }

    #[test]
    fn partition_separates_groups_then_heals() {
        let sched: FaultSchedule = "partition@2ms:groups=0.1|2.3,heal=3ms".parse().unwrap();
        let at = Time::from_us(2500);
        assert!(sched.edge_down(0, 2, at) && sched.edge_down(1, 3, at));
        assert!(!sched.edge_down(0, 1, at) && !sched.edge_down(2, 3, at));
        assert!(!sched.edge_down(0, 2, Time::from_ms(3)), "heals at heal_at");
        assert_eq!(sched.groups_at(4, at), vec![vec![0, 1], vec![2, 3]],);
        assert_eq!(sched.groups_at(4, Time::from_ms(3)).len(), 1);
    }

    #[test]
    fn groups_at_isolates_crashed_nodes() {
        let sched: FaultSchedule = "crash@10us:node=2".parse().unwrap();
        assert_eq!(
            sched.groups_at(4, Time::from_us(11)),
            vec![vec![0, 1, 3], vec![2]],
        );
    }

    #[test]
    fn restart_heals_crashed_edges_and_bumps_incarnation() {
        let sched: FaultSchedule = "crash@10us:node=1; restart@60us:node=1".parse().unwrap();
        assert!(!sched.edge_down(0, 1, Time::from_us(9)));
        assert!(sched.edge_down(0, 1, Time::from_us(10)));
        assert!(sched.edge_down(0, 1, Time::from_us(59)));
        assert!(
            !sched.edge_down(0, 1, Time::from_us(60)),
            "restart must heal the edge"
        );
        assert!(!sched.edge_down(0, 1, Time::from_ms(500)));
        assert!(sched.node_down(1, Time::from_us(30)));
        assert!(!sched.node_down(1, Time::from_us(60)));
        assert_eq!(sched.incarnation_at(1, Time::from_us(59)), 0);
        assert_eq!(sched.incarnation_at(1, Time::from_us(60)), 1);
        assert_eq!(
            sched.incarnation_at(0, Time::from_ms(1)),
            0,
            "peers keep epoch 0"
        );
        // A restarted node is alive at the end: not a crashed node.
        assert!(sched.crashed_nodes().is_empty());
        assert_eq!(sched.crash_times(1), vec![Time::from_us(10)]);
        assert_eq!(sched.restart_times(1), vec![Time::from_us(60)]);
        // groups_at folds the node back into the connected component.
        assert_eq!(
            sched.groups_at(3, Time::from_us(30)),
            vec![vec![0, 2], vec![1]]
        );
        assert_eq!(sched.groups_at(3, Time::from_us(61)).len(), 1);
    }

    #[test]
    fn crash_mttr_sugar_desugars_to_restart() {
        let sugar: FaultSchedule = "crash@10us:node=1,mttr=50us".parse().unwrap();
        let explicit: FaultSchedule = "crash@10us:node=1; restart@60us:node=1".parse().unwrap();
        assert_eq!(sugar, explicit);
    }

    #[test]
    fn second_incarnation_counts_repeat_crashes() {
        let sched: FaultSchedule = "crash@10us:node=2,mttr=20us; crash@50us:node=2,mttr=20us"
            .parse()
            .unwrap();
        assert_eq!(sched.incarnation_at(2, Time::from_us(29)), 0);
        assert_eq!(sched.incarnation_at(2, Time::from_us(30)), 1);
        assert_eq!(sched.incarnation_at(2, Time::from_us(70)), 2);
        assert!(sched.edge_down(0, 2, Time::from_us(55)));
        assert!(!sched.edge_down(0, 2, Time::from_us(40)));
        assert!(!sched.edge_down(0, 2, Time::from_us(70)));
    }

    #[test]
    fn schedule_display_round_trips_every_event_kind() {
        let spec = "crash@500us:node=3; flap@1ms:edge=0-2,down=200us; \
                    partition@2ms:groups=0.1|2.3,heal=3ms; alpu@1ms:nic=1; \
                    restart@4ms:node=3";
        let sched: FaultSchedule = spec.parse().unwrap();
        let rendered = sched.to_string();
        let reparsed: FaultSchedule = rendered
            .parse()
            .unwrap_or_else(|e| panic!("canonical render `{rendered}` failed to parse: {e}"));
        assert_eq!(sched, reparsed, "format→parse must be the identity");
        // Sub-microsecond times survive too (suffix selection).
        let odd: FaultSchedule = "flap@1500ns:edge=0-1,down=750ps".parse().unwrap();
        assert_eq!(odd, odd.to_string().parse().unwrap());
        // The mttr sugar renders as its desugared pair.
        let sugar: FaultSchedule = "crash@10us:node=1,mttr=50us".parse().unwrap();
        assert_eq!(sugar, sugar.to_string().parse().unwrap());
    }

    #[test]
    fn generated_crash_storm_is_reproducible_and_paired() {
        let mk = || {
            FaultSchedule::generate_crashes(
                7,
                6,
                Time::from_us(100),
                Time::from_us(40),
                Time::from_ms(1),
            )
        };
        let a = mk();
        assert_eq!(a, mk());
        assert!(!a.is_empty());
        let mut down: Vec<Option<Time>> = vec![None; 6];
        for &(t, ref ev) in a.events() {
            assert!(t < Time::from_ms(1));
            match ev {
                FaultEvent::NodeCrash { host } => {
                    assert!(
                        down[*host as usize].is_none(),
                        "node {host} re-crashed while still down"
                    );
                    down[*host as usize] = Some(t);
                }
                FaultEvent::NodeRestart { host } => {
                    let since = down[*host as usize]
                        .take()
                        .expect("restart without a crash");
                    let outage = t - since;
                    assert!(outage >= Time::from_us(20) && outage < Time::from_us(60));
                }
                other => panic!("crash storm emitted {other}"),
            }
        }
        // Every node that restarted is alive at the end.
        for host in a.crashed_nodes() {
            assert!(down[host as usize].is_some());
        }
    }

    #[test]
    fn generated_storm_is_reproducible_and_bounded() {
        let a =
            FaultSchedule::generate(9, 8, Time::from_us(50), Time::from_us(20), Time::from_ms(1));
        let b =
            FaultSchedule::generate(9, 8, Time::from_us(50), Time::from_us(20), Time::from_ms(1));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for (t, ev) in a.events() {
            assert!(*t < Time::from_ms(1));
            match ev {
                FaultEvent::LinkFlap { a, b, down_for } => {
                    assert!(a != b && *a < 8 && *b < 8);
                    assert!(*down_for >= Time::from_us(10) && *down_for < Time::from_us(30));
                }
                other => panic!("generate should only emit flaps, got {other}"),
            }
        }
        let c = FaultSchedule::generate(
            10,
            8,
            Time::from_us(50),
            Time::from_us(20),
            Time::from_ms(1),
        );
        assert_ne!(a, c, "different seeds should give different storms");
    }
}
