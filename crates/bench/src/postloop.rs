//! Post-in-loop ping-pong: the workload where *matching strategy*
//! trade-offs show (§II's hash-table discussion and the §VI-B break-even
//! heuristic).
//!
//! Unlike the pre-posted benchmark, the receiver posts the matching
//! receive inside the timed loop — the way applications actually use MPI
//! ("applications ... typically have some number of iterations and post
//! receives in each iteration", §V-A). Every iteration therefore pays:
//! the posting cost (where hash insertion overhead bites), the
//! posted-queue search when the ping arrives (where the pre-posted depth
//! bites), and the wildcard side-walk (where hash matching degrades).

use mpiq_dessim::watchdog::Diagnosis;
use mpiq_dessim::Time;
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_nic::NicConfig;

/// One point of the post-in-loop parameter space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PostLoopPoint {
    /// Exact (fully specified) never-matching receives pre-posted ahead
    /// of the loop.
    pub exact_prepost: usize,
    /// `MPI_ANY_SOURCE` never-matching receives pre-posted ahead of the
    /// loop.
    pub wildcard_prepost: usize,
    /// Ping payload bytes.
    pub msg_size: u32,
}

const PING_TAG: u16 = 7;
const PONG_TAG: u16 = 8;
const ITERS: u32 = 8;
const WARMUP: u32 = 2;

/// Mean per-iteration round-trip time at the sender, or the watchdog's
/// diagnosis if a rank never finishes.
pub fn postloop_rtt(nic: NicConfig, p: PostLoopPoint) -> Result<Time, Box<Diagnosis>> {
    let marks = mark_log();

    // Rank 0: sender, measures full iterations.
    let mut b0 = Script::builder();
    b0.barrier();
    b0.sleep(Time::from_us(400));
    for i in 0..ITERS {
        b0.mark(2 * i);
        b0.send(1, PING_TAG.wrapping_add((i as u16) << 5), p.msg_size);
        b0.recv(Some(1), Some(PONG_TAG), 0);
        b0.mark(2 * i + 1);
    }
    let p0 = b0.build(marks.clone());

    // Rank 1: receiver with the polluted queue; posts in the loop.
    let mut b1 = Script::builder();
    for i in 0..p.exact_prepost {
        b1.irecv(Some(0), Some(20_000 + (i % 20_000) as u16), 0);
    }
    for i in 0..p.wildcard_prepost {
        b1.irecv(None, Some(40_000 + (i % 20_000) as u16), 0);
    }
    b1.barrier();
    b1.sleep(Time::from_us(400));
    for i in 0..ITERS {
        b1.recv(
            Some(0),
            Some(PING_TAG.wrapping_add((i as u16) << 5)),
            p.msg_size,
        );
        b1.send(0, PONG_TAG, 0);
    }
    let p1 = b1.build(mark_log());

    let mut cluster = Cluster::new(
        ClusterConfig::new(nic),
        vec![
            Box::new(p0) as Box<dyn AppProgram>,
            Box::new(p1) as Box<dyn AppProgram>,
        ],
    );
    cluster.run_watched(Time::MAX)?;
    let m = marks.borrow();
    let mut total = Time::ZERO;
    for i in WARMUP..ITERS {
        total += m[(2 * i + 1) as usize].1 - m[(2 * i) as usize].1;
    }
    Ok(total / (ITERS - WARMUP) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiq_nic::SwMatch;

    fn rtt(nic: NicConfig, exact: usize, wild: usize) -> Time {
        postloop_rtt(
            nic,
            PostLoopPoint {
                exact_prepost: exact,
                wildcard_prepost: wild,
                msg_size: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn hash_flattens_exact_depth() {
        // Deep exact-prepost queue: list pays per entry, hash does not.
        let list = rtt(NicConfig::baseline(), 300, 0);
        let hash = rtt(NicConfig::with_hash(64), 300, 0);
        assert!(
            hash + Time::from_us(2) < list,
            "hash {hash} should beat list {list} at depth 300"
        );
    }

    #[test]
    fn hash_pays_insertion_overhead_when_queue_is_short() {
        // §II: "this increase in insertion time ... is especially
        // noticeable in the zero-length ping-pong latency test".
        let list = rtt(NicConfig::baseline(), 0, 0);
        let hash = rtt(NicConfig::with_hash(64), 0, 0);
        assert!(
            hash > list,
            "hash {hash} must be slower than list {list} on empty queues"
        );
    }

    #[test]
    fn wildcards_erode_the_hash_advantage() {
        // With the depth in the wildcard list instead of exact entries,
        // hashing degenerates to a linear walk.
        let hash_exact = rtt(NicConfig::with_hash(64), 200, 0);
        let hash_wild = rtt(NicConfig::with_hash(64), 0, 200);
        assert!(
            hash_wild > hash_exact + Time::from_us(1),
            "wildcard pollution must hurt hash matching: {hash_exact} vs {hash_wild}"
        );
        // ...while the ALPU handles wildcards natively.
        let alpu_wild = rtt(NicConfig::with_alpus(256), 0, 200);
        assert!(alpu_wild + Time::from_us(1) < hash_wild);
    }

    #[test]
    fn alpu_beats_both_at_depth() {
        let list = rtt(NicConfig::baseline(), 300, 0);
        let alpu = rtt(NicConfig::with_alpus(256), 300, 0);
        assert!(alpu + Time::from_us(2) < list);
    }

    #[test]
    fn hash_and_list_agree_semantically() {
        // Same completions either way (the cluster deadlock assert plus
        // the fact both runs finish proves matching correctness here).
        let a = rtt(NicConfig::baseline(), 50, 10);
        let b = rtt(NicConfig::with_hash(16), 50, 10);
        assert!(a > Time::ZERO && b > Time::ZERO);
    }

    #[test]
    fn sw_match_selector_roundtrip() {
        assert_eq!(
            NicConfig::with_hash(64).sw_match,
            SwMatch::HashBins { bins: 64 }
        );
        assert_eq!(NicConfig::baseline().sw_match, SwMatch::LinearList);
    }
}
