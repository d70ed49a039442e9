//! The unexpected-message queue benchmark (§V-A, second benchmark).
//!
//! Only two degrees of freedom: the unexpected queue length and the
//! message size. Unlike a classic latency test, the time to *post the
//! receive* is charged to the measured latency — that posting must search
//! the unexpected queue past all the fillers. The benchmark is
//! "conservative": posting overlaps with message flight (§VI-C), so the
//! ALPU's advantage only emerges once the software search outgrows the
//! flight-time window (the ≈70-entry crossover of Fig. 6).

use crate::faultstats::FaultCounters;
use crate::NicVariant;
use mpiq_dessim::watchdog::Diagnosis;
use mpiq_dessim::Time;
use mpiq_mpi::script::{mark_log, MarkLog};
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};

/// One point of the Fig. 6 parameter space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnexpectedPoint {
    /// Number of never-matched messages parked on the unexpected queue.
    pub queue_len: usize,
    /// Payload bytes of the fillers and the probe message.
    pub msg_size: u32,
}

const PING_TAG: u16 = 7;
const PONG_TAG: u16 = 8;
const FILLER_TAG: u16 = 10_000;
/// Timed iterations (the first two warm up and are discarded).
const ITERS: u32 = 8;
const WARMUP: u32 = 2;

/// Measurements for one point.
#[derive(Clone, Copy, Debug)]
pub struct UnexpectedResult {
    /// Mean receiver-side latency: post-receive through completion,
    /// including the unexpected-queue search.
    pub latency: Time,
    /// Unexpected-queue entries visited by software search (whole run).
    pub sw_traversed: u64,
    /// Fault-injection and recovery totals (all zero on fault-free runs).
    pub faults: FaultCounters,
}

/// Run one point, or return the watchdog's diagnosis if a rank never
/// finishes.
pub fn unexpected_latency(
    variant: NicVariant,
    p: UnexpectedPoint,
) -> Result<UnexpectedResult, Box<Diagnosis>> {
    unexpected_latency_cfg(variant.config(), p)
}

/// [`unexpected_latency`] with an explicit NIC configuration.
pub fn unexpected_latency_cfg(
    nic: mpiq_nic::NicConfig,
    p: UnexpectedPoint,
) -> Result<UnexpectedResult, Box<Diagnosis>> {
    let marks = mark_log();
    let mut cluster = Cluster::new(ClusterConfig::new(nic), unexpected_programs(p, &marks));
    cluster.run_watched(Time::MAX)?;

    let m = marks.borrow();
    assert_eq!(m.len(), (2 * ITERS) as usize);
    let mut total = Time::ZERO;
    for i in WARMUP..ITERS {
        let start = m[(2 * i) as usize].1;
        let end = m[(2 * i + 1) as usize].1;
        total += end - start;
    }
    let fw = cluster.nic(1).firmware().stats();
    Ok(UnexpectedResult {
        latency: total / (ITERS - WARMUP) as u64,
        sw_traversed: fw.unexpected_entries_traversed,
        faults: FaultCounters::collect(&cluster),
    })
}

/// The two ranks' scripts of one point; the receiver marks the start
/// (`2i`) and end (`2i + 1`) of each timed receive in `marks`.
pub(crate) fn unexpected_programs(p: UnexpectedPoint, marks: &MarkLog) -> Vec<Box<dyn AppProgram>> {
    // Rank 0: sender. Park the fillers on the receiver, settle, then
    // ping-pong: send ping i as soon as pong i-1 arrives.
    let mut b0 = Script::builder();
    let mut filler_slots = Vec::new();
    for i in 0..p.queue_len {
        filler_slots.push(b0.isend(1, FILLER_TAG + (i % 30_000) as u16, p.msg_size));
    }
    b0.wait_all(filler_slots);
    // The barrier message trails the fillers on the same (src, dst) pair,
    // so its arrival implies every filler was processed (MPI ordering).
    b0.barrier();
    b0.sleep(Time::from_us(500)); // ALPU insert sessions drain
    for i in 0..ITERS {
        b0.send(1, PING_TAG.wrapping_add((i as u16) << 5), p.msg_size);
        b0.recv(Some(1), Some(PONG_TAG), 0);
    }
    let p0 = b0.build(mark_log());

    // Rank 1: receiver. The timed loop: mark, post the receive (searches
    // the unexpected queue), wait, mark, reply.
    let mut b1 = Script::builder();
    b1.barrier();
    b1.sleep(Time::from_us(500));
    for i in 0..ITERS {
        b1.mark(2 * i);
        b1.recv(
            Some(0),
            Some(PING_TAG.wrapping_add((i as u16) << 5)),
            p.msg_size,
        );
        b1.mark(2 * i + 1);
        b1.send(0, PONG_TAG, 0);
    }
    let p1 = b1.build(marks.clone());
    vec![
        Box::new(p0) as Box<dyn AppProgram>,
        Box::new(p1) as Box<dyn AppProgram>,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(v: NicVariant, u: usize) -> Time {
        unexpected_latency(
            v,
            UnexpectedPoint {
                queue_len: u,
                msg_size: 64,
            },
        )
        .unwrap()
        .latency
    }

    #[test]
    fn short_queues_show_no_alpu_advantage() {
        // §VI-C: "with short unexpected message queues, the ALPU appears
        // to show a small loss" — within a microsecond-scale flight
        // window both configs measure about the same.
        let base = lat(NicVariant::Baseline, 10);
        let alpu = lat(NicVariant::Alpu256, 10);
        let diff = if alpu > base {
            alpu - base
        } else {
            base - alpu
        };
        assert!(
            diff < Time::from_us(1),
            "short-queue gap too large: baseline {base}, alpu {alpu}"
        );
    }

    #[test]
    fn long_queues_show_clear_alpu_advantage() {
        let base = lat(NicVariant::Baseline, 250);
        let alpu = lat(NicVariant::Alpu256, 250);
        assert!(
            alpu + Time::from_us(1) < base,
            "at 250 entries ALPU {alpu} must clearly beat baseline {base}"
        );
    }

    #[test]
    fn baseline_latency_grows_with_queue_length() {
        let l50 = lat(NicVariant::Baseline, 50);
        let l400 = lat(NicVariant::Baseline, 400);
        assert!(l400 > l50 + Time::from_us(2), "{l50} -> {l400}");
    }

    #[test]
    fn receiver_search_is_offloaded_with_alpu() {
        let base = unexpected_latency(
            NicVariant::Baseline,
            UnexpectedPoint {
                queue_len: 100,
                msg_size: 64,
            },
        )
        .unwrap();
        let alpu = unexpected_latency(
            NicVariant::Alpu128,
            UnexpectedPoint {
                queue_len: 100,
                msg_size: 64,
            },
        )
        .unwrap();
        assert!(
            alpu.sw_traversed * 5 < base.sw_traversed,
            "ALPU should offload the search: {} vs {}",
            alpu.sw_traversed,
            base.sw_traversed
        );
    }
}
