//! NIC configuration.

use crate::reliability::ReliabilityConfig;
use mpiq_cpusim::CoreConfig;
use mpiq_dessim::{FaultConfig, Time};

/// Configuration for one ALPU instance attached to the NIC.
#[derive(Clone, Copy, Debug)]
pub struct AlpuSetup {
    /// Total cells (128 or 256 in the paper's experiments).
    pub total_cells: usize,
    /// Cells per block.
    pub block_size: usize,
    /// Don't bother inserting into the ALPU until the software queue is at
    /// least this long (§IV-B: "the software must only use it when the
    /// queue is adequately long"). 0 = always use.
    pub engage_threshold: usize,
    /// While the NIC has other work pending, batch at least this many
    /// entries per insert session; an idle NIC flushes any tail.
    pub insert_batch_min: usize,
}

impl AlpuSetup {
    /// The paper's 128-entry configuration (block size 16).
    pub fn cells128() -> AlpuSetup {
        AlpuSetup {
            total_cells: 128,
            block_size: 16,
            engage_threshold: 0,
            insert_batch_min: 8,
        }
    }

    /// The paper's 256-entry configuration (block size 16).
    pub fn cells256() -> AlpuSetup {
        AlpuSetup {
            total_cells: 256,
            block_size: 16,
            engage_threshold: 0,
            insert_batch_min: 8,
        }
    }
}

/// Software matching strategy for the posted-receive queue (§II).
///
/// `HashBins` is the alternative the paper discusses and rejects: faster
/// lookup for exact receives, but every *post* pays hashing and
/// second-structure maintenance, wildcard receives fall back to a side
/// list every probe must walk, and ordering needs sequence stamps.
/// Mutually exclusive with the posted-receive ALPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwMatch {
    /// The linear list every published MPI implementation uses (§II).
    LinearList,
    /// Hash-binned exact receives + wildcard side list.
    HashBins {
        /// Number of hash buckets (power of two recommended).
        bins: usize,
    },
}

/// Full NIC configuration.
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    /// The embedded processor (Table III "NIC Processor" by default).
    pub core: CoreConfig,
    /// Posted-receive ALPU, if present.
    pub posted_alpu: Option<AlpuSetup>,
    /// Unexpected-message ALPU, if present.
    pub unexpected_alpu: Option<AlpuSetup>,
    /// ALPU clock in MHz. The paper projects the FPGA prototype to
    /// ~500 MHz as an ASIC — the same clock as the NIC core (§VI-A).
    pub alpu_mhz: u64,
    /// DMA engine bandwidth, bytes per nanosecond.
    pub dma_bytes_per_ns: u64,
    /// Fixed DMA setup cost (descriptor writes, engine kick).
    pub dma_setup: Time,
    /// Messages with payloads at or below this go eager; larger ones use
    /// rendezvous.
    pub eager_threshold: u32,
    /// Local bus transaction delay (§V-B: 20 ns).
    pub bus_latency: Time,
    /// Bytes of NIC memory per queue entry. 80 bytes matches the knee the
    /// paper observes: the traversal cost jumps once the queue footprint
    /// exceeds the 32 KB L1, at roughly 400 entries (§VI-B) — 400 × 80 B
    /// = 32 KB.
    pub entry_bytes: u64,
    /// Fixed host-visible completion delivery cost (completion record
    /// write + host pickup).
    pub completion_cost: Time,
    /// Software matching strategy for the posted-receive queue.
    pub sw_match: SwMatch,
    /// MPI processes sharing this NIC (footnote 1 of the paper: "the
    /// prototype design only supports ... a single process, but extending
    /// it to support a limited number of processes is straightforward").
    /// Implemented by folding the local process id into the high bits of
    /// the match word's context field; limited to 8.
    pub ranks_per_node: u32,
    /// Fault-injection plan shared by this NIC's ALPUs (bit flips,
    /// command-FIFO stalls). Network-side probabilities in here also
    /// decide whether the link layer is required. Inactive by default.
    pub faults: FaultConfig,
    /// Enable the go-back-N link reliability layer
    /// ([`crate::reliability`]). Off by default: with a lossless fabric
    /// the layer is pure overhead, and leaving it unconstructed keeps the
    /// fault machinery zero-cost.
    pub reliability: bool,
    /// Link-protocol tunables, including the peer-death detector
    /// thresholds: `keepalive_timeout` (how long after a peer goes
    /// silent its ranks are declared failed) and `retry_budget` (local
    /// retransmissions tolerated before a link is declared dead). Only
    /// consulted when `reliability` is on. Lenient detectors ride out
    /// long link flaps without false positives; aggressive ones detect
    /// real crashes faster.
    pub link: ReliabilityConfig,
    /// Maximum unexpected-queue entries this NIC will hold. Arrivals that
    /// would exceed the bound are *refused at the wire* (the link layer
    /// never accepts them, so go-back-N retransmission becomes the
    /// backpressure). `0` = unbounded (the historical behavior).
    pub max_unexpected: u32,
    /// Bytes of eager payload the NIC will stage for unmatched arrivals.
    /// When the pool is exhausted further eager arrivals are admitted
    /// *header-only*: the envelope still matches later, but the payload is
    /// gone and the completion reports `overflow` ([`crate::Completion`]).
    /// `0` = unbounded.
    pub eager_buffer_bytes: u64,
    /// Eager flow-control credits this NIC grants each peer. A sender
    /// spends one credit per nonzero-payload eager message and falls back
    /// to the rendezvous (RTS/CTS) path at zero credit, staging the burst
    /// on the *sender* until the receiver matches. Credits return
    /// piggybacked on link ACKs as the receiver consumes the messages.
    /// `0` = no credit flow control.
    pub eager_credits: u32,
    /// Accept [`crate::HostRequest::Collective`] offloads: the firmware
    /// runs barrier/bcast/allreduce step plans NIC-side, combining and
    /// forwarding without host round-trips. Off by default — the host
    /// then runs every collective through its own send/recv trees. Even
    /// when on, individual collectives are declined (and fall back to the
    /// host) per the rules on [`crate::HostRequest::Collective`].
    pub coll_offload: bool,
}

impl NicConfig {
    /// The baseline NIC: embedded processor only, no ALPUs — "similar in
    /// nature to what will be in the Red Storm system" (§VI-B).
    pub fn baseline() -> NicConfig {
        NicConfig {
            core: CoreConfig::nic_ppc440(),
            posted_alpu: None,
            unexpected_alpu: None,
            alpu_mhz: 500,
            dma_bytes_per_ns: 4,
            dma_setup: Time::from_ns(60),
            eager_threshold: 2048,
            bus_latency: Time::from_ns(20),
            entry_bytes: 80,
            completion_cost: Time::from_ns(50),
            sw_match: SwMatch::LinearList,
            ranks_per_node: 1,
            faults: FaultConfig::none(),
            reliability: false,
            link: ReliabilityConfig::default(),
            max_unexpected: 0,
            eager_buffer_bytes: 0,
            eager_credits: 0,
            coll_offload: false,
        }
    }

    /// True when any overload-protection bound is configured. Bounds
    /// require the link layer: wire refusal and credit return both ride
    /// on go-back-N sequencing and ACKs.
    pub fn overload_active(&self) -> bool {
        self.max_unexpected > 0 || self.eager_buffer_bytes > 0 || self.eager_credits > 0
    }

    /// Arm overload protection: bound the unexpected queue at
    /// `max_unexpected` entries and the eager staging pool at
    /// `eager_buffer_bytes`, and grant each peer `eager_credits` eager
    /// credits. Any nonzero bound forces the reliability layer on (wire
    /// refusal is expressed as a link-level gap; credits ride on ACKs).
    pub fn with_flow_control(
        mut self,
        eager_credits: u32,
        max_unexpected: u32,
        eager_buffer_bytes: u64,
    ) -> NicConfig {
        self.eager_credits = eager_credits;
        self.max_unexpected = max_unexpected;
        self.eager_buffer_bytes = eager_buffer_bytes;
        self.reliability = self.reliability || self.overload_active();
        self
    }

    /// Arm fault injection. Any nonzero network fault probability forces
    /// the reliability layer on — MPI semantics are unrecoverable on a
    /// lossy fabric without it.
    pub fn with_faults(mut self, faults: FaultConfig) -> NicConfig {
        self.faults = faults;
        self.reliability = self.reliability || faults.net_active();
        self
    }

    /// Baseline NIC with a next-line prefetcher on the embedded
    /// processor's L1 — a software-visible-hardware alternative in the
    /// §VII "traverse queues quickly with fewer hardware resources"
    /// direction (no ALPUs).
    pub fn with_prefetch() -> NicConfig {
        let mut cfg = NicConfig::baseline();
        cfg.core.mem.prefetch_next_line = true;
        cfg
    }

    /// Baseline NIC with hash-binned posted-receive matching (the §II
    /// alternative; no ALPUs).
    pub fn with_hash(bins: usize) -> NicConfig {
        NicConfig {
            sw_match: SwMatch::HashBins { bins },
            ..NicConfig::baseline()
        }
    }

    /// Tune the peer-death detector: `keepalive` is the silence after a
    /// peer's crash before its ranks are declared failed;
    /// `retry_budget` the local window retransmissions tolerated before
    /// a link is declared dead.
    pub fn with_failure_detector(mut self, keepalive: Time, retry_budget: u32) -> NicConfig {
        self.link.keepalive_timeout = keepalive;
        self.link.retry_budget = retry_budget;
        self
    }

    /// Baseline plus ALPUs of `cells` entries on both queues.
    pub fn with_alpus(cells: usize) -> NicConfig {
        let setup = match cells {
            128 => AlpuSetup::cells128(),
            256 => AlpuSetup::cells256(),
            _ => AlpuSetup {
                total_cells: cells,
                block_size: 16.min(cells),
                engage_threshold: 0,
                insert_batch_min: 8,
            },
        };
        NicConfig {
            posted_alpu: Some(setup),
            unexpected_alpu: Some(setup),
            ..NicConfig::baseline()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_alpus() {
        let c = NicConfig::baseline();
        assert!(c.posted_alpu.is_none());
        assert!(c.unexpected_alpu.is_none());
        assert_eq!(c.bus_latency, Time::from_ns(20));
    }

    #[test]
    fn with_alpus_sets_both() {
        let c = NicConfig::with_alpus(128);
        assert_eq!(c.posted_alpu.unwrap().total_cells, 128);
        assert_eq!(c.unexpected_alpu.unwrap().total_cells, 128);
        let c = NicConfig::with_alpus(256);
        assert_eq!(c.posted_alpu.unwrap().total_cells, 256);
    }

    #[test]
    fn network_faults_force_reliability_on() {
        let quiet = NicConfig::baseline();
        assert!(!quiet.reliability);
        assert!(!quiet.faults.is_active());
        let lossy = NicConfig::baseline().with_faults(FaultConfig {
            seed: 1,
            drop_p: 0.01,
            ..FaultConfig::none()
        });
        assert!(lossy.reliability);
        // ALPU-only faults don't need the link layer.
        let flippy = NicConfig::baseline().with_faults(FaultConfig {
            seed: 1,
            flip_p: 0.01,
            ..FaultConfig::none()
        });
        assert!(!flippy.reliability);
    }

    #[test]
    fn flow_control_forces_reliability_on() {
        let c = NicConfig::baseline();
        assert!(!c.overload_active());
        let c = NicConfig::baseline().with_flow_control(8, 64, 1 << 16);
        assert!(c.overload_active());
        assert!(c.reliability);
        assert_eq!(c.eager_credits, 8);
        assert_eq!(c.max_unexpected, 64);
        assert_eq!(c.eager_buffer_bytes, 1 << 16);
        // All-zero flow control is exactly "unconfigured".
        let z = NicConfig::baseline().with_flow_control(0, 0, 0);
        assert!(!z.overload_active());
        assert!(!z.reliability);
    }

    #[test]
    fn custom_cell_count_picks_sane_block() {
        let c = NicConfig::with_alpus(64);
        assert_eq!(c.posted_alpu.unwrap().block_size, 16);
        let c = NicConfig::with_alpus(8);
        assert_eq!(c.posted_alpu.unwrap().block_size, 8);
    }
}
