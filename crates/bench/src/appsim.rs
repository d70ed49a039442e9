//! Application queue-characterization study — the methodology of the
//! paper's motivating references [8, 9] ("applications tend to traverse a
//! significant number of entries in the two primary queues"; queues "can
//! grow to tens or hundreds of items").
//!
//! Four synthetic communication patterns modeled on the application
//! classes those studies measured drive the simulated cluster; the
//! harness reports each pattern's posted/unexpected queue depths
//! (maximum and time-weighted average) and total run time per NIC
//! configuration.

use mpiq_dessim::watchdog::Diagnosis;
use mpiq_dessim::Time;
use mpiq_mpi::script::{mark_log, ScriptBuilder};
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script, CTX_INTERNAL};
use mpiq_nic::{ctag, NicConfig};

/// The synthetic application patterns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppPattern {
    /// 2D nearest-neighbor stencil with `prepost_depth` iterations of
    /// halo receives posted up front (the CTH/ITS class of \[9\]).
    Stencil2D {
        /// Grid side (ranks = side²).
        side: u32,
        /// Exchange iterations.
        iters: u32,
        /// Iterations of receives pre-posted ahead of time.
        prepost_depth: u32,
    },
    /// Wavefront sweep (the Sweep3D class): data flows corner-to-corner;
    /// downstream ranks idle early, so their queues build.
    Wavefront {
        /// Grid side.
        side: u32,
        /// Number of full sweeps (alternating corners).
        sweeps: u32,
    },
    /// Master/worker with `MPI_ANY_SOURCE` receives on rank 0 (the
    /// unexpected-heavy class). The master computes for `compute_ns`
    /// between rounds, so worker results land before their receives are
    /// posted — the mechanism behind the unexpected-queue growth \[9\]
    /// reports.
    MasterWorker {
        /// Worker count (ranks = workers + 1).
        workers: u32,
        /// Result rounds per worker.
        rounds: u32,
        /// Master-side compute time between rounds, nanoseconds.
        compute_ns: u64,
    },
    /// Repeated all-to-all exchanges (the spectral/transpose class).
    Transpose {
        /// Ranks.
        ranks: u32,
        /// Exchange rounds.
        rounds: u32,
    },
}

impl AppPattern {
    /// Number of ranks this pattern needs.
    pub fn ranks(&self) -> u32 {
        match *self {
            AppPattern::Stencil2D { side, .. } => side * side,
            AppPattern::Wavefront { side, .. } => side * side,
            AppPattern::MasterWorker { workers, .. } => workers + 1,
            AppPattern::Transpose { ranks, .. } => ranks,
        }
    }

    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            AppPattern::Stencil2D { .. } => "stencil2d",
            AppPattern::Wavefront { .. } => "wavefront",
            AppPattern::MasterWorker { .. } => "master-worker",
            AppPattern::Transpose { .. } => "transpose",
        }
    }
}

/// Measured queue characteristics of one run.
#[derive(Clone, Copy, Debug)]
pub struct AppStudy {
    /// Deepest posted-receive queue seen on any NIC.
    pub max_posted: u64,
    /// Time-weighted average posted depth across NICs.
    pub avg_posted: f64,
    /// Deepest unexpected queue seen.
    pub max_unexpected: u64,
    /// Time-weighted average unexpected depth.
    pub avg_unexpected: f64,
    /// Total software entries traversed (all NICs).
    pub traversed: u64,
    /// End-to-end run time.
    pub runtime: Time,
}

const HALO: u32 = 1024;

fn grid_neighbors(rank: u32, side: u32) -> [u32; 4] {
    let (x, y) = (rank % side, rank / side);
    let wrap = |v: i64| ((v + side as i64) % side as i64) as u32;
    [
        wrap(x as i64 - 1) + y * side,
        wrap(x as i64 + 1) + y * side,
        x + wrap(y as i64 - 1) * side,
        x + wrap(y as i64 + 1) * side,
    ]
}

fn build_programs(pattern: AppPattern) -> Vec<Script> {
    match pattern {
        AppPattern::Stencil2D {
            side,
            iters,
            prepost_depth,
        } => (0..side * side)
            .map(|me| {
                let nb = grid_neighbors(me, side);
                let mut b = Script::builder();
                let mut recvs = vec![Vec::new(); iters as usize];
                // Pre-post `prepost_depth` iterations at a time.
                for it in 0..iters.min(prepost_depth) {
                    for (d, &src) in nb.iter().enumerate() {
                        recvs[it as usize].push(b.irecv(
                            Some(src as u16),
                            Some((it * 8 + d as u32) as u16),
                            HALO,
                        ));
                    }
                }
                b.barrier();
                let pair = [1usize, 0, 3, 2];
                for it in 0..iters {
                    // Top up the posting window.
                    let ahead = it + prepost_depth;
                    if ahead < iters {
                        for (d, &src) in nb.iter().enumerate() {
                            recvs[ahead as usize].push(b.irecv(
                                Some(src as u16),
                                Some((ahead * 8 + d as u32) as u16),
                                HALO,
                            ));
                        }
                    }
                    let mut sends = Vec::new();
                    for (d, &dst) in nb.iter().enumerate() {
                        sends.push(b.isend(dst, (it * 8 + pair[d] as u32) as u16, HALO));
                    }
                    b.wait_all(sends);
                    b.wait_all(recvs[it as usize].clone());
                }
                b.build(mark_log())
            })
            .collect(),
        AppPattern::Wavefront { side, sweeps } => (0..side * side)
            .map(|me| {
                let (x, y) = (me % side, me / side);
                let mut b = Script::builder();
                b.barrier();
                for s in 0..sweeps {
                    // Alternate sweep direction per round.
                    let (up_x, up_y, down_x, down_y) = if s % 2 == 0 {
                        (
                            x.checked_sub(1).map(|px| px + y * side),
                            y.checked_sub(1).map(|py| x + py * side),
                            (x + 1 < side).then(|| x + 1 + y * side),
                            (y + 1 < side).then(|| x + (y + 1) * side),
                        )
                    } else {
                        (
                            (x + 1 < side).then(|| x + 1 + y * side),
                            (y + 1 < side).then(|| x + (y + 1) * side),
                            x.checked_sub(1).map(|px| px + y * side),
                            y.checked_sub(1).map(|py| x + py * side),
                        )
                    };
                    let tag = (s * 4) as u16;
                    let mut waits = Vec::new();
                    if let Some(src) = up_x {
                        waits.push(b.irecv(Some(src as u16), Some(tag), HALO));
                    }
                    if let Some(src) = up_y {
                        waits.push(b.irecv(Some(src as u16), Some(tag + 1), HALO));
                    }
                    b.wait_all(waits);
                    if let Some(dst) = down_x {
                        b.isend(dst, tag, HALO);
                    }
                    if let Some(dst) = down_y {
                        b.isend(dst, tag + 1, HALO);
                    }
                }
                b.barrier();
                b.build(mark_log())
            })
            .collect(),
        AppPattern::MasterWorker {
            workers,
            rounds,
            compute_ns,
        } => {
            let mut programs = Vec::new();
            let mut master = Script::builder();
            master.barrier();
            // ANY_SOURCE receives, posted round by round, with compute
            // between rounds (which is when results pile up unexpected).
            for round in 0..rounds {
                if compute_ns > 0 {
                    master.sleep(Time::from_ns(compute_ns));
                }
                let slots: Vec<usize> = (0..workers)
                    .map(|_| master.irecv(None, Some(round as u16), 512))
                    .collect();
                master.wait_all(slots);
            }
            programs.push(master.build(mark_log()));
            for _w in 1..=workers {
                let mut b = Script::builder();
                b.barrier();
                let slots: Vec<usize> = (0..rounds)
                    .map(|round| b.isend(0, round as u16, 512))
                    .collect();
                b.wait_all(slots);
                programs.push(b.build(mark_log()));
            }
            programs
        }
        AppPattern::Transpose { ranks, rounds } => (0..ranks)
            .map(|me| {
                let mut b = Script::builder();
                b.barrier();
                for round in 0..rounds {
                    alltoall(&mut b, me, ranks, 2048, round as u16);
                }
                b.build(mark_log())
            })
            .collect(),
    }
}

/// Linear all-to-all: every rank sends to and receives from every other
/// rank, fully overlapped. The pattern that builds the deepest transient
/// queues — a natural ALPU stress.
fn alltoall(b: &mut ScriptBuilder, me: u32, n: u32, len: u32, instance: u16) {
    assert!(me < n);
    let mut slots = Vec::new();
    for peer in 0..n {
        if peer == me {
            continue;
        }
        // Tag by sender so receives are unambiguous.
        slots.push(b.irecv_ctx(
            Some(peer as u16),
            CTX_INTERNAL,
            Some(ctag(instance, 2 + peer as u16)),
            len,
        ));
        slots.push(b.isend_ctx(peer, CTX_INTERNAL, ctag(instance, 2 + me as u16), len));
    }
    b.wait_all(slots);
}

/// Run one pattern on one NIC configuration and collect the queue
/// study, or return the watchdog's diagnosis if a rank never finishes.
pub fn run_app(nic: NicConfig, pattern: AppPattern) -> Result<AppStudy, Box<Diagnosis>> {
    let programs = build_programs(pattern)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AppProgram>)
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    cluster.run_watched(Time::MAX)?;
    let ranks = pattern.ranks();
    let stats = cluster.stats();
    let mut max_posted = 0;
    let mut max_unexpected = 0;
    let mut posted_int = 0u64;
    let mut unexp_int = 0u64;
    let mut sampled_ns = 0u64;
    let mut traversed = 0u64;
    for node in 0..ranks.div_ceil(nic.ranks_per_node.max(1)) {
        let p = format!("nic{node}");
        max_posted = max_posted.max(stats.get(&format!("{p}.posted.len_max")));
        max_unexpected = max_unexpected.max(stats.get(&format!("{p}.unexpected.len_max")));
        posted_int += stats.get(&format!("{p}.posted.occ_integral"));
        unexp_int += stats.get(&format!("{p}.unexpected.occ_integral"));
        sampled_ns += stats.get(&format!("{p}.sampled_until_ns"));
        traversed += stats.get(&format!("{p}.posted.traversed"))
            + stats.get(&format!("{p}.unexpected.traversed"));
    }
    let denom = sampled_ns.max(1) as f64;
    Ok(AppStudy {
        max_posted,
        avg_posted: posted_int as f64 / denom,
        max_unexpected,
        avg_unexpected: unexp_int as f64 / denom,
        traversed,
        runtime: cluster.now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_prepost_depth_drives_posted_queue() {
        let shallow = run_app(
            NicConfig::baseline(),
            AppPattern::Stencil2D {
                side: 3,
                iters: 8,
                prepost_depth: 1,
            },
        )
        .unwrap();
        let deep = run_app(
            NicConfig::baseline(),
            AppPattern::Stencil2D {
                side: 3,
                iters: 8,
                prepost_depth: 8,
            },
        )
        .unwrap();
        assert!(
            deep.max_posted > shallow.max_posted + 10,
            "pre-posting depth must show in the queue: {} vs {}",
            shallow.max_posted,
            deep.max_posted
        );
    }

    #[test]
    fn master_worker_builds_unexpected_queue() {
        let s = run_app(
            NicConfig::baseline(),
            AppPattern::MasterWorker {
                workers: 6,
                rounds: 8,
                compute_ns: 5_000,
            },
        )
        .unwrap();
        assert!(
            s.max_unexpected >= 6,
            "late ANY_SOURCE postings must leave unexpected buildup: {}",
            s.max_unexpected
        );
    }

    #[test]
    fn wavefront_completes_both_directions() {
        let s = run_app(
            NicConfig::baseline(),
            AppPattern::Wavefront { side: 3, sweeps: 4 },
        )
        .unwrap();
        assert!(s.runtime > Time::ZERO);
    }

    /// The all-to-all overlaps every pair's send and receive, so it
    /// completes and leaves transient queue depth on every NIC
    /// configuration.
    #[test]
    fn transpose_completes_on_all_nic_configs() {
        let pat = AppPattern::Transpose {
            ranks: 6,
            rounds: 2,
        };
        for nic in [
            NicConfig::baseline(),
            NicConfig::with_alpus(128),
            NicConfig::with_hash(32),
        ] {
            let s = run_app(nic, pat).unwrap();
            assert!(s.runtime > Time::ZERO);
            assert!(s.max_posted + s.max_unexpected > 0, "all-to-all must queue");
        }
    }

    #[test]
    fn alpu_reduces_traversal_on_deep_stencil() {
        let pat = AppPattern::Stencil2D {
            side: 3,
            iters: 10,
            prepost_depth: 10,
        };
        let base = run_app(NicConfig::baseline(), pat).unwrap();
        let alpu = run_app(NicConfig::with_alpus(128), pat).unwrap();
        assert!(
            alpu.traversed * 2 < base.traversed,
            "ALPU must absorb most of the search: {} vs {}",
            alpu.traversed,
            base.traversed
        );
    }
}
