//! The four workloads: seeded op lists, and the runner that drives one op
//! through the program's public API.
//!
//! The script builders are ports of the harnesses in `crates/bench`
//! (`preposted`, `unexpected`, the soak incast and the collectives cell).
//! They live here so that edits to the old harness cannot change what
//! this benchmark measures.

use crate::sys::Fnv;
use crate::trace::Tracer;
use mpiq_dessim::{SimRng, Time};
use mpiq_mpi::script::{mark_log, MarkLog, ScriptBuilder};
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_net::Topology;
use mpiq_nic::firmware::check_invariants;
use mpiq_nic::{CollOp, NicConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PostedSweep,
    UnexpectedSweep,
    Incast,
    Collectives512,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PostedSweep,
        Workload::UnexpectedSweep,
        Workload::Incast,
        Workload::Collectives512,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PostedSweep => "posted-sweep",
            Workload::UnexpectedSweep => "unexpected-sweep",
            Workload::Incast => "incast",
            Workload::Collectives512 => "collectives-512",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One pass: the workload's seeded op list, shuffled so that any
    /// prefix is a fair sample of it. Depths, message counts, incast sizes
    /// and payloads are stratified, one draw per stratum, and strata are
    /// paired in a fixed order, so passes from different seeds carry
    /// nearly the same work and the same quantiles.
    pub fn pass(self, seed: u64) -> Vec<Op> {
        let mut rng = SimRng::new(seed ^ (0xB3C4_0000 + self as u64));
        let mut ops = Vec::new();
        match self {
            Workload::PostedSweep => {
                for variant in Variant::ALL {
                    for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
                        for size in [0, 1024, 8192] {
                            for queue_len in strata(&mut rng, POSTED_PER_CELL, 0, 600) {
                                ops.push(Op::Posted {
                                    variant,
                                    queue_len: queue_len as usize,
                                    fraction,
                                    size,
                                });
                            }
                        }
                    }
                }
            }
            Workload::UnexpectedSweep => {
                // Sizes near 64 B, 1 KiB and 2 KiB. Below its capacity an
                // ALPU's latency does not depend on depth, so many ops
                // share one latency per size; drawn sizes keep the
                // quantiles off those plateaus, which would otherwise read
                // the same for every seed.
                for variant in Variant::ALL {
                    for (lo, hi) in [(48, 80), (960, 1088), (1920, 2048)] {
                        for queue_len in strata(&mut rng, UNEXPECTED_PER_CELL, 0, 500) {
                            ops.push(Op::Unexpected {
                                variant,
                                queue_len: queue_len as usize,
                                size: uniform(&mut rng, lo, hi) as u32,
                            });
                        }
                    }
                }
            }
            Workload::Incast => {
                let n = INCAST_EAGER + INCAST_RNDV;
                let msgs = strata(&mut rng, n, 16, 32);
                // Sizes on both sides of the 2 KiB eager threshold but
                // clear of it, so no draw can flip a run's protocol.
                let mut sizes = strata(&mut rng, INCAST_EAGER, 512, 1792);
                sizes.extend(strata(&mut rng, INCAST_RNDV, 2560, 4096));
                for k in 0..n {
                    let (msgs, size) = (msgs[k] as u32, sizes[pair(k, 13, n)] as u32);
                    ops.push(Op::Incast { msgs, size });
                }
            }
            Workload::Collectives512 => {
                // Sequence lengths are fixed. Hub cells cost several times
                // fat-tree cells, and there are fewer of them, so the
                // median op is a fat-tree cell and the p90 op a hub cell,
                // not whichever op borders the gap between the two.
                let cells = [(false, &[2, 3, 4][..]), (true, &[2, 3, 4, 5, 6][..])];
                let slots = 2 * cells.iter().flat_map(|c| c.1).sum::<usize>();
                // Payloads log-uniform over 8..1024 B.
                let payloads: Vec<u32> = strata(&mut rng, slots, 0, 999)
                    .into_iter()
                    .map(|k| (8.0 * 128f64.powf(k as f64 / 999.0)) as u32)
                    .collect();
                // A bcast's latency on the fat tree jumps with the root's
                // edge switch. Each slot's switch is fixed and the seed
                // draws the root among the switch's ranks, so no draw
                // crosses a switch boundary.
                let down = COLL_FAT_TREE_DOWN as usize;
                let groups = COLL_RANKS as usize / down;
                let roots: Vec<u64> = (0..slots)
                    .map(|k| {
                        (k * groups / slots * down) as u64 + uniform(&mut rng, 0, down as u64 - 1)
                    })
                    .collect();
                let mut slot = 0;
                for (fat_tree, lens) in cells {
                    for offload in [true, false] {
                        for (j, &len) in lens.iter().enumerate() {
                            // The verbs cycle in a fixed order.
                            let seq = (0..len)
                                .map(|i| {
                                    let len = payloads[pair(slot, 13, slots)];
                                    let root = roots[pair(slot, 7, slots)] as u32;
                                    slot += 1;
                                    match (i + j) % 3 {
                                        0 => (CollOp::Barrier, 0, 0),
                                        1 => (CollOp::Bcast, root, len),
                                        _ => (CollOp::Allreduce, 0, len),
                                    }
                                })
                                .collect();
                            ops.push(Op::Collectives {
                                fat_tree,
                                offload,
                                seq,
                            });
                        }
                    }
                }
            }
        }
        rng.shuffle(&mut ops);
        ops
    }
}

/// The share of its stratum, around the middle, that a draw may fall in.
/// A seed thus moves every input a little, and a simulated metric's
/// spread across seeds stays near 1%, against 2-3% for draws over whole
/// strata.
const JITTER: f64 = 0.25;

/// `n` draws over `lo..=hi`: one uniform draw inside the middle
/// [`JITTER`] of each of `n` equal strata, in stratum order.
fn strata(rng: &mut SimRng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let span = (hi - lo + 1) as f64;
    (0..n)
        .map(|k| {
            let at = k as f64 + 0.5 + JITTER * (rng.gen_f64() - 0.5);
            lo + (at * span / n as f64) as u64
        })
        .collect()
}

/// A uniform draw over `lo..=hi`.
fn uniform(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + (rng.gen_f64() * (hi - lo + 1) as f64) as u64
}

/// The stratum paired with the `k`th of `n`: a fixed permutation (`stride`
/// must be coprime to `n`), so that inputs drawn from two stratified lists
/// mix light and heavy values the same way for every seed.
fn pair(k: usize, stride: usize, n: usize) -> usize {
    (k * stride) % n
}

/// Ops per (variant, fraction, size) cell of one posted-sweep pass.
const POSTED_PER_CELL: usize = 16;
/// Ops per (variant, size) cell of one unexpected-sweep pass.
const UNEXPECTED_PER_CELL: usize = 40;
/// Eager and rendezvous incast runs per pass (48 in all, coprime to the
/// pairing stride 13). The split is uneven so that the median run sits
/// inside the eager group rather than in the gap between the groups.
const INCAST_EAGER: usize = 30;
const INCAST_RNDV: usize = 18;

const COLL_RANKS: u32 = 512;
/// Ranks per edge switch of the collectives fat tree (16 down, 8 up).
const COLL_FAT_TREE_DOWN: u32 = 16;
const INCAST_SENDERS: u32 = 16;

/// The three NIC configurations of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    Baseline,
    Alpu128,
    Alpu256,
}

impl Variant {
    pub const ALL: [Variant; 3] = [Variant::Baseline, Variant::Alpu128, Variant::Alpu256];

    fn nic(self) -> NicConfig {
        match self {
            Variant::Baseline => NicConfig::baseline(),
            Variant::Alpu128 => NicConfig::with_alpus(128),
            Variant::Alpu256 => NicConfig::with_alpus(256),
        }
    }
}

/// One closed-loop op: build a cluster, run it, read it out.
#[derive(Clone, Debug)]
pub enum Op {
    /// Fig. 5 ping-pong: both ranks pre-post `queue_len` receives and the
    /// probe matches at depth `floor(fraction * queue_len)`.
    Posted {
        variant: Variant,
        queue_len: usize,
        fraction: f64,
        size: u32,
    },
    /// Fig. 6: `queue_len` never-matched messages park on the receiver,
    /// whose timed receive posts then search past them.
    Unexpected {
        variant: Variant,
        queue_len: usize,
        size: u32,
    },
    /// 16 senders flood one late-posting receiver under flow control.
    Incast { msgs: u32, size: u32 },
    /// Every one of 512 ranks runs the same collective sequence.
    Collectives {
        fat_tree: bool,
        offload: bool,
        seq: Vec<(CollOp, u32, u32)>,
    },
}

const PING_TAG: u16 = 7;
const PONG_TAG: u16 = 8;
const FILLER_TAG: u16 = 10_000;
/// Fig. 6 timed iterations; the first two warm up and are discarded.
const UNEXPECTED_ITERS: u32 = 8;
const UNEXPECTED_WARMUP: u32 = 2;
/// Incast flow control: 4 credits per peer, 32 unexpected entries, 16 KiB
/// staging pool.
const INCAST_CREDITS: u32 = 4;
const INCAST_MAX_UNEXPECTED: u32 = 32;
const INCAST_POOL: u64 = 16 << 10;

/// Wall time of an op's stages, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    /// Script building, config building and `Cluster::new`.
    pub setup_s: f64,
    /// `Cluster::run_watched`.
    pub run_s: f64,
}

/// Exact counts read from the cluster after an op.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub posted_traversed: u64,
    pub unexpected_traversed: u64,
    pub posted_alpu_hits: u64,
    pub unexpected_alpu_hits: u64,
    pub insert_sessions: u64,
    pub retransmits: u64,
    pub admission_refused: u64,
    pub credit_stalls: u64,
    pub coll_offloaded: u64,
    pub host_completions: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.net_messages += o.net_messages;
        self.net_bytes += o.net_bytes;
        self.posted_traversed += o.posted_traversed;
        self.unexpected_traversed += o.unexpected_traversed;
        self.posted_alpu_hits += o.posted_alpu_hits;
        self.unexpected_alpu_hits += o.unexpected_alpu_hits;
        self.insert_sessions += o.insert_sessions;
        self.retransmits += o.retransmits;
        self.admission_refused += o.admission_refused;
        self.credit_stalls += o.credit_stalls;
        self.coll_offloaded += o.coll_offloaded;
        self.host_completions += o.host_completions;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.dram_accesses += o.dram_accesses;
        self.dram_row_hits += o.dram_row_hits;
    }
}

/// What one successful op produced.
#[derive(Debug)]
pub struct Outcome {
    /// The op's simulated latency (see [`Op::sim_latency`]).
    pub sim_latency_us: f64,
    /// FNV-1a over every simulated output of the op.
    pub digest: u64,
    pub counts: Counts,
    /// `Cluster::stats().to_json()`, for byte comparison across engines.
    pub stats_json: String,
    pub stages: Stages,
}

impl Op {
    /// Engine threads: the Fig. 5/6 sweeps run on the default (hub)
    /// engine, the rest on the sharded engine with one worker.
    fn default_parallelism(&self) -> usize {
        match self {
            Op::Posted { .. } | Op::Unexpected { .. } => 0,
            Op::Incast { .. } | Op::Collectives { .. } => 1,
        }
    }

    /// Virtual-time watchdog deadline.
    fn deadline(&self) -> Time {
        match self {
            Op::Posted { .. } | Op::Unexpected { .. } => Time::from_ms(100),
            Op::Incast { .. } => Time::from_ms(500),
            Op::Collectives { .. } => Time::from_ms(2000),
        }
    }

    fn config(&self, parallelism: usize) -> ClusterConfig {
        let builder = match self {
            Op::Posted { variant, .. } | Op::Unexpected { variant, .. } => {
                ClusterConfig::builder(variant.nic())
            }
            Op::Incast { .. } => ClusterConfig::builder(NicConfig::baseline().with_flow_control(
                INCAST_CREDITS,
                INCAST_MAX_UNEXPECTED,
                INCAST_POOL,
            )),
            Op::Collectives {
                fat_tree, offload, ..
            } => {
                let mut nic = NicConfig::baseline();
                nic.coll_offload = *offload;
                let topo = if *fat_tree {
                    Topology::FatTree {
                        down: COLL_FAT_TREE_DOWN,
                        up: 8,
                    }
                } else {
                    Topology::Hub
                };
                ClusterConfig::builder(nic).topology(topo)
            }
        };
        builder.parallelism(parallelism).build()
    }

    /// One program per rank, and the mark logs the latency is read from.
    fn programs(&self) -> (Vec<Box<dyn AppProgram>>, Vec<MarkLog>) {
        match self {
            Op::Posted {
                queue_len,
                fraction,
                size,
                ..
            } => posted_programs(*queue_len, *fraction, *size),
            Op::Unexpected {
                queue_len, size, ..
            } => unexpected_programs(*queue_len, *size),
            Op::Incast { msgs, size, .. } => incast_programs(*msgs, *size),
            Op::Collectives { seq, .. } => collectives_programs(seq),
        }
    }

    /// Entries each rank's posted and unexpected queues must hold once the
    /// op is over: the never-matched fillers of the Fig. 5/6 ops, nothing
    /// elsewhere.
    fn residue(&self, rank: u32) -> (usize, usize) {
        match self {
            Op::Posted { queue_len, .. } => (*queue_len, 0),
            Op::Unexpected { queue_len, .. } if rank == 1 => (0, *queue_len),
            _ => (0, 0),
        }
    }

    /// The simulated latency of the op: half the round trip (posted),
    /// mean post-to-completion (unexpected), the receiver's makespan
    /// (incast), or time per collective (collectives).
    fn sim_latency(&self, marks: &[MarkLog]) -> Result<Time, String> {
        let at =
            |log: &MarkLog, id: u32| log.borrow().iter().find(|(i, _)| *i == id).map(|&(_, t)| t);
        let span = |log: &MarkLog, a: u32, b: u32| match (at(log, a), at(log, b)) {
            (Some(s), Some(e)) if e >= s => Ok(e - s),
            got => Err(format!("marks {a}/{b} missing or out of order: {got:?}")),
        };
        match self {
            Op::Posted { .. } => Ok(span(&marks[0], 0, 1)? / 2),
            Op::Unexpected { .. } => {
                let mut total = Time::ZERO;
                for i in UNEXPECTED_WARMUP..UNEXPECTED_ITERS {
                    total += span(&marks[0], 2 * i, 2 * i + 1)?;
                }
                Ok(total / (UNEXPECTED_ITERS - UNEXPECTED_WARMUP) as u64)
            }
            Op::Incast { .. } => span(&marks[0], 0, 1),
            Op::Collectives { seq, .. } => {
                let first = marks.iter().map(|m| at(m, 0)).min().flatten();
                let last = marks.iter().map(|m| at(m, 1)).collect::<Option<Vec<_>>>();
                match (first, last.and_then(|l| l.into_iter().max())) {
                    (Some(s), Some(e)) if e >= s => Ok((e - s) / seq.len() as u64),
                    _ => Err("a rank is missing its start or end mark".to_string()),
                }
            }
        }
    }

    /// Check the finished cluster and read every simulated output.
    fn readout(&self, c: &Cluster, marks: &[MarkLog], events: u64) -> Result<Outcome, String> {
        let mut counts = Counts {
            events,
            ..Counts::default()
        };
        for rank in 0..c.size() {
            let nic = c.nic(rank);
            let fw = nic.firmware();
            // The shadow invariants hold only between ALPU operations; a
            // unit syncs lazily, so the run can end with an insert still
            // queued in its command FIFO.
            let ports = [&fw.posted_alpu, &fw.unexpected_alpu];
            if ports.into_iter().flatten().all(|p| p.alpu().idle()) {
                check_invariants(fw);
            }
            let left = (fw.posted_len(), fw.unexpected_len());
            if left != self.residue(rank) {
                return Err(format!(
                    "rank {rank}: (posted, unexpected) queues hold {left:?}, expected {:?}",
                    self.residue(rank)
                ));
            }
            let s = fw.stats();
            if let Op::Incast { .. } = self {
                if s.unexpected_highwater > INCAST_MAX_UNEXPECTED as u64
                    || s.eager_bytes_highwater > INCAST_POOL
                {
                    return Err(format!("rank {rank}: flow-control bound exceeded: {s:?}"));
                }
            }
            counts.posted_traversed += s.posted_entries_traversed;
            counts.unexpected_traversed += s.unexpected_entries_traversed;
            counts.posted_alpu_hits += s.posted_alpu_hits;
            counts.unexpected_alpu_hits += s.unexpected_alpu_hits;
            counts.insert_sessions += s.insert_sessions;
            counts.admission_refused += s.admission_refused;
            counts.credit_stalls += s.credit_stalls;
            counts.coll_offloaded += s.coll_offloaded;
            counts.host_completions += c.host(rank).completions() as u64;
            let mem = nic.core().mem();
            counts.l1_hits += mem.l1().hits();
            counts.l1_misses += mem.l1().misses();
            let dram = mem.dram();
            counts.dram_row_hits += dram.row_hits();
            counts.dram_accesses += dram.row_hits() + dram.row_misses() + dram.row_conflicts();
        }
        let latency = self.sim_latency(marks)?;
        let stats = c.stats();
        counts.net_messages = stats.get("net.messages");
        counts.net_bytes = stats.get("net.bytes");
        counts.retransmits = stats
            .iter()
            .filter(|(k, _)| k.ends_with(".link.retransmits"))
            .map(|(_, v)| v)
            .sum();
        let stats_json = stats.to_json();
        let mut digest = Fnv::new();
        digest.write(stats_json.as_bytes());
        digest.write_u64(latency.ps());
        digest.write_u64(c.now().ps());
        digest.write_u64(events);
        Ok(Outcome {
            sim_latency_us: latency.as_us_f64(),
            digest: digest.0,
            counts,
            stats_json,
            stages: Stages::default(),
        })
    }
}

/// Run one op as span `bench.op`, with a stage span around each call into
/// the program. `parallelism` overrides the op's engine threads. A panic
/// anywhere in the op is caught and returned as a failure. Returns the
/// op's wall seconds alongside its outcome.
pub fn run_op(
    op: &Op,
    parallelism: Option<usize>,
    t: &mut Tracer,
    id: u64,
) -> (Result<Outcome, String>, f64) {
    let depth = t.depth();
    let parallelism = parallelism.unwrap_or_else(|| op.default_parallelism());
    let caught = catch_unwind(AssertUnwindSafe(|| {
        t.span("bench.op", id, |t| stages(op, parallelism, t, id))
    }));
    match caught {
        Ok(r) => r,
        Err(panic) => {
            t.close_to(depth);
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            (Err(format!("panicked: {msg}")), 0.0)
        }
    }
}

fn stages(op: &Op, parallelism: usize, t: &mut Tracer, id: u64) -> Result<Outcome, String> {
    let ((programs, marks), script_s) = t.span("mpi.script_build", id, |_| op.programs());
    let (mut cluster, new_s) = t.span("mpi.cluster_new", id, |_| {
        Cluster::new(op.config(parallelism), programs)
    });
    let (ran, run_s) = t.span("mpi.cluster_run", id, |_| {
        cluster.run_watched(op.deadline())
    });
    let (read, _) = t.span("mpi.readout", id, |_| match ran {
        Ok(events) => op.readout(&cluster, &marks, events),
        Err(diagnosis) => Err(format!("stalled: {diagnosis:?}")),
    });
    t.span("mpi.cluster_drop", id, |_| drop(cluster));
    let mut out = read?;
    out.stages = Stages {
        setup_s: script_s + new_s,
        run_s,
    };
    Ok(out)
}

fn boxed(s: Script) -> Box<dyn AppProgram> {
    Box::new(s)
}

fn posted_programs(
    queue_len: usize,
    fraction: f64,
    size: u32,
) -> (Vec<Box<dyn AppProgram>>, Vec<MarkLog>) {
    let depth = (((queue_len as f64) * fraction).floor() as usize).min(queue_len);
    let marks = mark_log();
    // Both ranks hold the pre-posted queue: the ping traverses the
    // receiver's copy and the pong the sender's, so half the round trip
    // carries one full traversal.
    let post_queue = |b: &mut ScriptBuilder, peer: u16, match_tag: u16| -> usize {
        for i in 0..depth {
            b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
        }
        let matching = b.irecv(Some(peer), Some(match_tag), size);
        for i in depth..queue_len {
            b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
        }
        matching
    };
    let mut b0 = Script::builder();
    let pong = post_queue(&mut b0, 1, PONG_TAG);
    b0.barrier();
    b0.sleep(Time::from_us(400)); // let ALPU insert sessions drain
    b0.mark(0);
    b0.send(1, PING_TAG, size);
    b0.wait(pong);
    b0.mark(1);
    let p0 = b0.build(marks.clone());

    let mut b1 = Script::builder();
    let matching = post_queue(&mut b1, 0, PING_TAG);
    b1.barrier();
    b1.sleep(Time::from_us(400));
    b1.wait(matching);
    b1.send(0, PONG_TAG, size);
    let p1 = b1.build(mark_log());
    (vec![boxed(p0), boxed(p1)], vec![marks])
}

fn unexpected_programs(queue_len: usize, size: u32) -> (Vec<Box<dyn AppProgram>>, Vec<MarkLog>) {
    let marks = mark_log();
    // Rank 0 parks the fillers on rank 1, then ping-pongs.
    let mut b0 = Script::builder();
    let fillers: Vec<usize> = (0..queue_len)
        .map(|i| b0.isend(1, FILLER_TAG + (i % 30_000) as u16, size))
        .collect();
    b0.wait_all(fillers);
    // The barrier message trails the fillers on the same pair, so its
    // arrival implies every filler was processed (MPI ordering).
    b0.barrier();
    b0.sleep(Time::from_us(500)); // ALPU insert sessions drain
    for i in 0..UNEXPECTED_ITERS {
        b0.send(1, PING_TAG.wrapping_add((i as u16) << 5), size);
        b0.recv(Some(1), Some(PONG_TAG), 0);
    }
    let p0 = b0.build(mark_log());

    // Rank 1 times each receive post (which searches the unexpected
    // queue) through its completion.
    let mut b1 = Script::builder();
    b1.barrier();
    b1.sleep(Time::from_us(500));
    for i in 0..UNEXPECTED_ITERS {
        b1.mark(2 * i);
        b1.recv(Some(0), Some(PING_TAG.wrapping_add((i as u16) << 5)), size);
        b1.mark(2 * i + 1);
        b1.send(0, PONG_TAG, 0);
    }
    let p1 = b1.build(marks.clone());
    (vec![boxed(p0), boxed(p1)], vec![marks])
}

fn incast_programs(msgs: u32, size: u32) -> (Vec<Box<dyn AppProgram>>, Vec<MarkLog>) {
    let marks = mark_log();
    let mut b0 = Script::builder();
    b0.barrier();
    b0.mark(0);
    // Let the flood arrive (and pile up or be refused) before posting.
    b0.sleep(Time::from_us(50));
    let mut pending = Vec::new();
    for src in 1..=INCAST_SENDERS {
        for i in 0..msgs {
            pending.push(b0.irecv(Some(src as u16), Some(i as u16), size));
        }
    }
    b0.wait_all(pending);
    b0.mark(1);
    let mut programs = vec![boxed(b0.build(marks.clone()))];
    for _ in 1..=INCAST_SENDERS {
        let mut b = Script::builder();
        b.barrier();
        let slots: Vec<usize> = (0..msgs).map(|i| b.isend(0, i as u16, size)).collect();
        b.wait_all(slots);
        programs.push(boxed(b.build(mark_log())));
    }
    (programs, vec![marks])
}

fn collectives_programs(seq: &[(CollOp, u32, u32)]) -> (Vec<Box<dyn AppProgram>>, Vec<MarkLog>) {
    let mut marks = Vec::new();
    let programs = (0..COLL_RANKS)
        .map(|_| {
            let mark = mark_log();
            let mut b = Script::builder();
            b.mark(0);
            for &(op, root, len) in seq {
                b.coll(op, root, len, None);
            }
            b.mark(1);
            marks.push(mark.clone());
            boxed(b.build(mark))
        })
        .collect();
    (programs, marks)
}

/// The fixed points behind the paper-fidelity metrics and shape checks.
/// They do not depend on the seed.
pub mod anchors {
    use super::{Op, Variant};

    /// Fig. 5 anchors: zero-byte probe, full traversal.
    pub fn posted(variant: Variant, queue_len: usize) -> Op {
        Op::Posted {
            variant,
            queue_len,
            fraction: 1.0,
            size: 0,
        }
    }

    /// Fig. 6 crossover anchors: 64 B messages.
    pub fn unexpected(variant: Variant, queue_len: usize) -> Op {
        Op::Unexpected {
            variant,
            queue_len,
            size: 64,
        }
    }

    /// Fig. 6 crossover grid: depth 0..=200 in steps of 10.
    pub fn crossover_depths() -> impl Iterator<Item = usize> {
        (0..=200).step_by(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_seeded() {
        for w in Workload::ALL {
            let a = format!("{:?}", w.pass(1));
            assert_eq!(a, format!("{:?}", w.pass(1)));
            assert_ne!(a, format!("{:?}", w.pass(2)));
        }
    }

    #[test]
    fn strata_cover_the_range() {
        let mut rng = SimRng::new(3);
        let d = strata(&mut rng, 6, 0, 600);
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert!(d[0] <= 100 && d[5] >= 500 && d[5] <= 600);
    }

    #[test]
    fn pairings_are_permutations() {
        for (stride, n) in [(13, INCAST_EAGER + INCAST_RNDV), (13, 58), (7, 58)] {
            let mut seen: Vec<usize> = (0..n).map(|k| pair(k, stride, n)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }
}
