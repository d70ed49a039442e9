//! Message-rate (gap) measurement — the LogP/LogGP motivation of §I.
//!
//! "The second largest impact on application performance is gap
//! (effectively, the inverse of the message rate). [...] For networks
//! that use embedded processors to traverse these queues, time spent
//! traversing queues leads to an increase in gap."
//!
//! The sender streams a burst of back-to-back messages; every one of them
//! matches at the *back* of the receiver's pre-posted queue, so the
//! receiver's NIC pays a full traversal per message. Gap = burst drain
//! time at the receiver divided by the burst size.

use mpiq_dessim::Time;
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_nic::NicConfig;

/// One gap measurement point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapPoint {
    /// Never-matching receives pre-posted ahead of the burst receives.
    pub queue_len: usize,
    /// Messages in the burst.
    pub burst: usize,
    /// Payload bytes per message.
    pub msg_size: u32,
}

/// Result of one gap measurement.
#[derive(Clone, Copy, Debug)]
pub struct GapResult {
    /// Mean inter-message service time at the receiver.
    pub gap: Time,
    /// Total burst drain time.
    pub drain: Time,
}

/// Measure the gap for one configuration.
pub fn message_gap(nic: NicConfig, p: GapPoint) -> GapResult {
    let marks = mark_log();

    // Rank 0: fire the whole burst, overlapped.
    let mut b0 = Script::builder();
    b0.barrier();
    b0.sleep(Time::from_us(400));
    let slots: Vec<usize> = (0..p.burst)
        .map(|i| b0.isend(1, i as u16, p.msg_size))
        .collect();
    b0.wait_all(slots);
    let p0 = b0.build(mark_log());

    // Rank 1: fillers first, then the burst receives — so every burst
    // message traverses the full filler prefix on the baseline.
    let mut b1 = Script::builder();
    for i in 0..p.queue_len {
        b1.irecv(Some(0), Some(20_000 + (i % 20_000) as u16), 0);
    }
    let slots: Vec<usize> = (0..p.burst)
        .map(|i| b1.irecv(Some(0), Some(i as u16), p.msg_size))
        .collect();
    b1.barrier();
    b1.sleep(Time::from_us(400));
    b1.mark(0);
    b1.wait_all(slots);
    b1.mark(1);
    let p1 = b1.build(marks.clone());

    let mut cluster = Cluster::new(
        ClusterConfig::new(nic),
        vec![
            Box::new(p0) as Box<dyn AppProgram>,
            Box::new(p1) as Box<dyn AppProgram>,
        ],
    );
    cluster.run();
    let m = marks.borrow();
    let drain = m[1].1 - m[0].1;
    GapResult {
        gap: drain / p.burst as u64,
        drain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap(nic: NicConfig, q: usize) -> Time {
        message_gap(
            nic,
            GapPoint {
                queue_len: q,
                burst: 32,
                msg_size: 0,
            },
        )
        .gap
    }

    #[test]
    fn baseline_gap_grows_with_queue_depth() {
        let g0 = gap(NicConfig::baseline(), 0);
        let g300 = gap(NicConfig::baseline(), 300);
        // Each message pays ~300 entries of traversal: gap grows by
        // multiple microseconds.
        assert!(
            g300 > g0 + Time::from_us(3),
            "gap must grow with queue depth: {g0} -> {g300}"
        );
    }

    #[test]
    fn alpu_holds_gap_flat_within_capacity() {
        let g0 = gap(NicConfig::with_alpus(256), 0);
        let g200 = gap(NicConfig::with_alpus(256), 200);
        assert!(
            g200.saturating_sub(g0) < Time::from_ns(300),
            "ALPU gap should stay flat: {g0} -> {g200}"
        );
    }

    #[test]
    fn alpu_message_rate_advantage_at_depth() {
        let base = gap(NicConfig::baseline(), 300);
        let alpu = gap(NicConfig::with_alpus(256), 300);
        assert!(
            alpu * 2 < base,
            "ALPU should at least double the message rate: {alpu} vs {base}"
        );
    }
}
