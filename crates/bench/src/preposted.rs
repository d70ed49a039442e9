//! The posted-receive queue benchmark (§V-A, first benchmark).
//!
//! Three degrees of freedom: the length of the pre-posted receive queue,
//! the portion of the queue traversed before the match, and the message
//! size. The receiver pre-posts `queue_len` receives of which the one at
//! traversal depth `floor(fraction * queue_len)` matches the sender's
//! probe message; latency is half the sender-measured round trip.

use crate::faultstats::FaultCounters;
use crate::NicVariant;
use mpiq_dessim::Time;
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};

/// One point of the Fig. 5 parameter space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrepostedPoint {
    /// Pre-posted queue length (entries ahead of / behind the match).
    pub queue_len: usize,
    /// Portion of the queue traversed before the match, in `[0, 1]`.
    pub fraction: f64,
    /// Probe message payload bytes.
    pub msg_size: u32,
}

/// Tag that only the probe message carries.
const PING_TAG: u16 = 7;
/// Tag of the reply.
const PONG_TAG: u16 = 8;
/// Non-matching filler receives use tags at and above this.
const FILLER_TAG: u16 = 10_000;

/// Measured results for one point.
#[derive(Clone, Copy, Debug)]
pub struct PrepostedResult {
    /// One-way latency (half round trip).
    pub latency: Time,
    /// Posted-queue entries the receiver's software search visited during
    /// the timed exchange.
    pub sw_traversed: u64,
    /// NIC L1 misses on the receiving NIC (whole run).
    pub rx_l1_misses: u64,
    /// Fault-injection and recovery totals (all zero on fault-free runs).
    pub faults: FaultCounters,
}

/// Run one point and return its measurements. Deterministic: equal inputs
/// give equal outputs.
pub fn preposted_latency(variant: NicVariant, p: PrepostedPoint) -> PrepostedResult {
    preposted_latency_cfg(variant.config(), p)
}

/// [`preposted_latency`] with an explicit NIC configuration (for
/// ablations that tweak individual knobs).
pub fn preposted_latency_cfg(nic: mpiq_nic::NicConfig, p: PrepostedPoint) -> PrepostedResult {
    let depth = ((p.queue_len as f64) * p.fraction).floor() as usize;
    let depth = depth.min(p.queue_len);
    let marks = mark_log();

    // The exchange is symmetric, like the original benchmark: *both*
    // ranks hold the pre-posted queue, the ping traverses the receiver's
    // copy and the pong traverses the sender's, so half the round trip
    // carries exactly one full traversal.
    let post_queue =
        |b: &mut mpiq_mpi::script::ScriptBuilder, peer: u16, match_tag: u16| -> usize {
            for i in 0..depth {
                b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
            }
            let matching = b.irecv(Some(peer), Some(match_tag), p.msg_size);
            for i in depth..p.queue_len {
                b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
            }
            matching
        };

    // Rank 0: sender side of the timed exchange.
    let mut b0 = Script::builder();
    let pong = post_queue(&mut b0, 1, PONG_TAG);
    b0.barrier();
    b0.sleep(Time::from_us(400)); // let ALPU insert sessions drain
    b0.mark(0);
    b0.send(1, PING_TAG, p.msg_size);
    b0.wait(pong);
    b0.mark(1);
    let p0 = b0.build(marks.clone());

    // Rank 1: receiver.
    let mut b1 = Script::builder();
    let matching = post_queue(&mut b1, 0, PING_TAG);
    b1.barrier();
    b1.sleep(Time::from_us(400));
    b1.wait(matching);
    b1.send(0, PONG_TAG, p.msg_size);
    let p1 = b1.build(mark_log());

    let mut cluster = Cluster::new(
        ClusterConfig::new(nic),
        vec![
            Box::new(p0) as Box<dyn AppProgram>,
            Box::new(p1) as Box<dyn AppProgram>,
        ],
    );
    cluster.run();

    let m = marks.borrow();
    assert_eq!(m.len(), 2, "sender must mark start and end");
    let rtt = m[1].1 - m[0].1;
    let fw = cluster.nic(1).firmware().stats();
    PrepostedResult {
        latency: rtt / 2,
        sw_traversed: fw.posted_entries_traversed,
        rx_l1_misses: cluster.nic(1).core().mem().l1().misses(),
        faults: FaultCounters::collect(&cluster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(v: NicVariant, q: usize, f: f64) -> Time {
        preposted_latency(
            v,
            PrepostedPoint {
                queue_len: q,
                fraction: f,
                msg_size: 0,
            },
        )
        .latency
    }

    #[test]
    fn baseline_grows_roughly_15ns_per_entry_in_cache() {
        let l0 = lat(NicVariant::Baseline, 0, 1.0);
        let l200 = lat(NicVariant::Baseline, 200, 1.0);
        let per_entry = (l200 - l0).ps() as f64 / 200.0 / 1000.0;
        assert!(
            (10.0..=25.0).contains(&per_entry),
            "in-cache per-entry cost {per_entry} ns (paper: ~15)"
        );
    }

    #[test]
    fn baseline_out_of_cache_entries_cost_more() {
        // Marginal cost between 400 and 500 entries (queue spills the
        // 32 KB L1) must exceed the in-cache slope substantially.
        let l400 = lat(NicVariant::Baseline, 420, 1.0);
        let l500 = lat(NicVariant::Baseline, 500, 1.0);
        let per_entry = (l500 - l400).ps() as f64 / 80.0 / 1000.0;
        assert!(
            per_entry > 35.0,
            "out-of-cache per-entry cost {per_entry} ns (paper: ~64)"
        );
    }

    #[test]
    fn alpu_flat_until_capacity_then_grows() {
        let l0 = lat(NicVariant::Alpu128, 0, 1.0);
        let l100 = lat(NicVariant::Alpu128, 100, 1.0);
        assert!(
            l100.saturating_sub(l0) < Time::from_ns(150),
            "ALPU-128 latency must be flat within capacity: {l0} -> {l100}"
        );
        let l300 = lat(NicVariant::Alpu128, 300, 1.0);
        assert!(
            l300 > l100 + Time::from_us(1),
            "beyond capacity the tail search shows: {l100} -> {l300}"
        );
        // And the 256-entry unit stays flat at 200.
        let l200_256 = lat(NicVariant::Alpu256, 200, 1.0);
        let l0_256 = lat(NicVariant::Alpu256, 0, 1.0);
        assert!(l200_256.saturating_sub(l0_256) < Time::from_ns(150));
    }

    #[test]
    fn fraction_controls_traversal_depth() {
        let full = preposted_latency(
            NicVariant::Baseline,
            PrepostedPoint {
                queue_len: 300,
                fraction: 1.0,
                msg_size: 0,
            },
        );
        let half = preposted_latency(
            NicVariant::Baseline,
            PrepostedPoint {
                queue_len: 300,
                fraction: 0.5,
                msg_size: 0,
            },
        );
        assert!(half.latency < full.latency);
        assert!(half.sw_traversed < full.sw_traversed);
    }

    #[test]
    fn deterministic() {
        let p = PrepostedPoint {
            queue_len: 50,
            fraction: 0.5,
            msg_size: 1024,
        };
        assert_eq!(
            preposted_latency(NicVariant::Alpu128, p).latency,
            preposted_latency(NicVariant::Alpu128, p).latency
        );
    }
}
