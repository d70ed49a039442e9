//! Halo exchange on a 2D process grid — the kind of workload whose
//! pre-posted receive queues motivated the ALPU (§I: applications
//! "traverse a significant number of entries" in the MPI queues).
//!
//! Each rank pre-posts receives for *all* iterations and all four torus
//! neighbors up front (a common MPI idiom), so the posted-receive queue
//! starts at `4 * iterations` entries and drains as the exchange runs.
//! Half the receives use `MPI_ANY_SOURCE` to exercise wildcard matching.
//!
//! ```text
//! cargo run --release --example halo_exchange
//! ```

use mpiq::dessim::Time;
use mpiq::mpi::script::mark_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::nic::NicConfig;

const SIDE: u32 = 4; // 4x4 torus
const ITERS: u32 = 24;
const HALO_BYTES: u32 = 1024;

fn neighbors(rank: u32) -> [u32; 4] {
    let (x, y) = (rank % SIDE, rank / SIDE);
    let wrap = |v: i64| ((v + SIDE as i64) % SIDE as i64) as u32;
    [
        wrap(x as i64 - 1) + y * SIDE, // west
        wrap(x as i64 + 1) + y * SIDE, // east
        x + wrap(y as i64 - 1) * SIDE, // north
        x + wrap(y as i64 + 1) * SIDE, // south
    ]
}

/// Tag encoding: iteration and direction (unique per message, so
/// ANY_SOURCE receives stay unambiguous).
fn tag(iter: u32, dir: usize) -> u16 {
    (iter * 8 + dir as u32) as u16
}

fn run(nic: NicConfig, reverse_posting: bool) -> Time {
    let marks = mark_log();
    let programs: Vec<Box<dyn AppProgram>> = (0..SIDE * SIDE)
        .map(|rank| {
            let nb = neighbors(rank);
            let mut b = Script::builder();
            // Pre-post everything: 4 receives per iteration. Every other
            // direction uses a source wildcard. MPI semantics don't care
            // about posting order (the tags are unique), but the baseline
            // NIC's traversal cost does: posting in reverse iteration
            // order puts the receives that match *first* at the *end* of
            // the queue.
            let mut recv_slots = vec![Vec::new(); ITERS as usize];
            let order: Vec<u32> = if reverse_posting {
                (0..ITERS).rev().collect()
            } else {
                (0..ITERS).collect()
            };
            for &it in &order {
                for (dir, &src) in nb.iter().enumerate() {
                    let src = if dir % 2 == 0 { Some(src as u16) } else { None };
                    recv_slots[it as usize].push(b.irecv(src, Some(tag(it, dir)), HALO_BYTES));
                }
            }
            b.barrier();
            b.sleep(Time::from_us(200));
            b.mark(0);
            for it in 0..ITERS {
                // Opposite-direction pairing: my west-send is my west
                // neighbor's east-receive.
                let pair = [1usize, 0, 3, 2];
                let mut send_slots = Vec::new();
                for (dir, &dst) in nb.iter().enumerate() {
                    send_slots.push(b.isend(dst, tag(it, pair[dir]), HALO_BYTES));
                }
                b.wait_all(send_slots);
                b.wait_all(recv_slots[it as usize].clone());
            }
            b.mark(1);
            Box::new(b.build(marks.clone())) as Box<dyn AppProgram>
        })
        .collect();

    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    cluster.run();
    // Slowest rank's exchange time.
    let m = marks.borrow();
    let start = m
        .iter()
        .filter(|(id, _)| *id == 0)
        .map(|&(_, t)| t)
        .min()
        .unwrap();
    let end = m
        .iter()
        .filter(|(id, _)| *id == 1)
        .map(|&(_, t)| t)
        .max()
        .unwrap();
    end - start
}

fn main() {
    println!("halo exchange on a {SIDE}x{SIDE} torus, {ITERS} iterations, {HALO_BYTES} B halos,");
    println!(
        "all {} receives pre-posted per rank (half with MPI_ANY_SOURCE):\n",
        4 * ITERS
    );
    println!(
        "{:>10} {:>22} {:>22}",
        "config", "posted in-order", "posted reversed"
    );
    for (label, nic) in [
        ("baseline", NicConfig::baseline()),
        ("ALPU-128", NicConfig::with_alpus(128)),
        ("ALPU-256", NicConfig::with_alpus(256)),
    ] {
        let fwd = run(nic, false);
        let rev = run(nic, true);
        println!(
            "{:>10} {:>19.2} us {:>19.2} us",
            label,
            fwd.as_us_f64(),
            rev.as_us_f64()
        );
    }
    println!("\nPosting order is semantically irrelevant in MPI, but on the baseline");
    println!("NIC it decides how deep every arriving halo must traverse; the ALPU");
    println!("matches in hardware and is insensitive to it.");
}
