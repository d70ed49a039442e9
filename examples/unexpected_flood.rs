//! Master/worker with an unexpected-message flood.
//!
//! Workers all report results to rank 0 before it has posted any
//! receives, so the master's unexpected queue fills with one message per
//! worker per round. The master then drains with `MPI_ANY_SOURCE`
//! receives — each posting must search the unexpected queue, which is
//! the access pattern Fig. 6 measures.
//!
//! ```text
//! cargo run --release --example unexpected_flood
//! ```

use mpiq::dessim::Time;
use mpiq::mpi::script::mark_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::nic::NicConfig;

const WORKERS: u32 = 8;
const ROUNDS: u32 = 24;
const RESULT_BYTES: u32 = 256;

fn run(nic: NicConfig) -> (Time, u64) {
    let marks = mark_log();
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();

    // Rank 0: master. Lets the flood land, then drains newest-tag-first
    // so every posting searches past the still-parked older messages.
    let mut master = Script::builder();
    master.barrier();
    master.sleep(Time::from_us(400)); // flood arrives & ALPU inserts settle
    master.mark(0);
    for round in (0..ROUNDS).rev() {
        for _ in 0..WORKERS {
            master.recv(None, Some(round as u16), RESULT_BYTES);
        }
    }
    master.mark(1);
    programs.push(Box::new(master.build(marks.clone())));

    // Workers: fire all results immediately, then stop.
    for _w in 1..=WORKERS {
        let mut b = Script::builder();
        let mut slots = Vec::new();
        for round in 0..ROUNDS {
            slots.push(b.isend(0, round as u16, RESULT_BYTES));
        }
        b.wait_all(slots);
        b.barrier();
        programs.push(Box::new(b.build(mark_log())));
    }

    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    cluster.run();
    let m = marks.borrow();
    let drain = m[1].1 - m[0].1;
    let traversed = cluster
        .nic(0)
        .firmware()
        .stats()
        .unexpected_entries_traversed;
    (drain, traversed)
}

fn main() {
    println!(
        "master/worker flood: {WORKERS} workers x {ROUNDS} rounds of {RESULT_BYTES} B results"
    );
    println!(
        "land unexpected on rank 0 (peak unexpected queue: {} entries), then drain:\n",
        WORKERS * ROUNDS
    );
    for (label, nic) in [
        ("baseline", NicConfig::baseline()),
        ("ALPU-128", NicConfig::with_alpus(128)),
        ("ALPU-256", NicConfig::with_alpus(256)),
    ] {
        let (t, traversed) = run(nic);
        println!(
            "  {label:>9}: drain time {:>8.2} us, software search visited {traversed} entries",
            t.as_us_f64()
        );
    }
    println!("\nThe unexpected-message ALPU answers the reverse lookup (receive");
    println!("probing stored headers) in hardware, so the master's postings stop");
    println!("paying for the queue walk.");
}
