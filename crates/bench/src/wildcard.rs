//! The §II wildcard-workaround study.
//!
//! "Re-coding applications to eliminate the use of source wildcards is
//! non-trivial. The semantic equivalent is to post a receive from every
//! possible source and then cancel those receives that are unused. This
//! strategy is an inefficient use of processing and memory resources."
//!
//! This harness makes that claim quantitative: a receiver absorbs one
//! message per iteration from an unknown source, either with a single
//! `MPI_ANY_SOURCE` receive or with the workaround (post one explicit
//! receive per possible source, `Waitany`, cancel the rest). On the ALPU
//! NIC the workaround is extra painful: cancelled hardware-resident
//! receives become tombstones (there is no DELETE command) and force
//! periodic RESET+rebuild purges.

use mpiq_dessim::watchdog::Diagnosis;
use mpiq_dessim::Time;
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_nic::NicConfig;

/// Receiver strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvStrategy {
    /// One `MPI_ANY_SOURCE` receive per iteration.
    AnySource,
    /// The §II workaround: explicit receives from every source, then
    /// cancels.
    PostAllCancel,
}

/// Results of one run.
#[derive(Clone, Copy, Debug)]
pub struct WildcardStudy {
    /// Receiver-side time for the whole loop.
    pub total: Time,
    /// Receives posted on the receiver NIC (proxy for processing cost).
    pub software_traversed: u64,
    /// Tombstones created (ALPU configs only).
    pub ghosted_cancels: u64,
    /// RESET+rebuild purges forced (ALPU configs only).
    pub purges: u64,
}

/// Run `iters` iterations with `senders` possible sources, or return
/// the watchdog's diagnosis if a rank never finishes.
pub fn wildcard_workaround(
    nic: NicConfig,
    strategy: RecvStrategy,
    senders: u32,
    iters: u32,
) -> Result<WildcardStudy, Box<Diagnosis>> {
    let marks = mark_log();
    let period = Time::from_us(4);

    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    // Rank 0: receiver.
    let mut b = Script::builder();
    b.barrier();
    b.mark(0);
    for i in 0..iters {
        match strategy {
            RecvStrategy::AnySource => {
                b.recv(None, Some(i as u16), 64);
            }
            RecvStrategy::PostAllCancel => {
                let slots: Vec<usize> = (1..=senders)
                    .map(|s| b.irecv(Some(s as u16), Some(i as u16), 64))
                    .collect();
                b.wait_any(slots.clone());
                for slot in slots {
                    b.cancel(slot);
                }
            }
        }
    }
    b.mark(1);
    programs.push(Box::new(b.build(marks.clone())));

    // Senders: round-robin ownership of iterations, self-paced.
    for s in 1..=senders {
        let mut b = Script::builder();
        b.barrier();
        for i in 0..iters {
            if i % senders == s - 1 {
                b.sleep(period);
                b.isend(0, i as u16, 64);
            } else {
                b.sleep(period);
            }
        }
        programs.push(Box::new(b.build(mark_log())));
    }

    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    cluster.run_watched(Time::MAX)?;
    let m = marks.borrow();
    let fw = cluster.nic(0).firmware().stats();
    Ok(WildcardStudy {
        total: m[1].1 - m[0].1,
        software_traversed: fw.posted_entries_traversed + fw.unexpected_entries_traversed,
        ghosted_cancels: fw.ghosted_cancels,
        purges: fw.alpu_purges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workaround_is_slower_than_any_source() {
        let any =
            wildcard_workaround(NicConfig::baseline(), RecvStrategy::AnySource, 6, 16).unwrap();
        let all =
            wildcard_workaround(NicConfig::baseline(), RecvStrategy::PostAllCancel, 6, 16).unwrap();
        assert!(
            all.software_traversed > any.software_traversed * 2,
            "the workaround must burn more processing: {} vs {}",
            any.software_traversed,
            all.software_traversed
        );
        assert!(all.total >= any.total);
    }

    #[test]
    fn workaround_poisons_the_alpu_with_tombstones() {
        let s = wildcard_workaround(
            NicConfig::with_alpus(128),
            RecvStrategy::PostAllCancel,
            6,
            40,
        )
        .unwrap();
        assert!(
            s.ghosted_cancels > 50,
            "cancelled hardware-resident receives must tombstone: {}",
            s.ghosted_cancels
        );
        assert!(
            s.purges >= 1,
            "tombstone buildup must force RESET+rebuild purges"
        );
    }

    #[test]
    fn any_source_on_alpu_stays_clean() {
        let s = wildcard_workaround(NicConfig::with_alpus(128), RecvStrategy::AnySource, 6, 40)
            .unwrap();
        assert_eq!(s.ghosted_cancels, 0);
        assert_eq!(s.purges, 0);
    }

    #[test]
    fn both_strategies_deliver_every_message() {
        // Completion of the cluster run (no deadlock panic) plus the
        // receiver reaching mark 1 is the delivery proof; check timing
        // sanity too.
        for strategy in [RecvStrategy::AnySource, RecvStrategy::PostAllCancel] {
            let s = wildcard_workaround(NicConfig::with_alpus(128), strategy, 4, 12).unwrap();
            assert!(s.total > Time::from_us(12), "{strategy:?}: {:?}", s.total);
        }
    }
}
