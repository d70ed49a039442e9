//! Quickstart: build a two-node simulated cluster, run a ping-pong, and
//! compare the baseline NIC against an ALPU-accelerated one.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mpiq::dessim::Time;
use mpiq::mpi::script::mark_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::nic::NicConfig;

/// Ping-pong with `queue` non-matching receives pre-posted in front of
/// the real one on each side; returns one-way latency.
fn pingpong(nic: NicConfig, queue: usize) -> Time {
    let marks = mark_log();

    // Rank 0: the timed side.
    let mut b0 = Script::builder();
    for i in 0..queue {
        b0.irecv(Some(1), Some(1000 + i as u16), 0); // never match
    }
    let pong = b0.irecv(Some(1), Some(2), 0);
    b0.barrier();
    b0.sleep(Time::from_us(100)); // let ALPU insert sessions settle
    b0.mark(0);
    b0.send(1, 1, 0);
    b0.wait(pong);
    b0.mark(1);
    let p0 = b0.build(marks.clone());

    // Rank 1: echo.
    let mut b1 = Script::builder();
    for i in 0..queue {
        b1.irecv(Some(0), Some(1000 + i as u16), 0);
    }
    let ping = b1.irecv(Some(0), Some(1), 0);
    b1.barrier();
    b1.sleep(Time::from_us(100));
    b1.wait(ping);
    b1.send(0, 2, 0);
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
    (m[1].1 - m[0].1) / 2
}

fn main() {
    println!("zero-byte ping-pong, one-way latency (the receive matches");
    println!("only after the whole pre-posted queue is traversed):\n");
    println!(
        "{:>12} {:>14} {:>14} {:>14}",
        "queue len", "baseline", "ALPU-128", "ALPU-256"
    );
    for queue in [0, 8, 64, 128, 256, 400] {
        let base = pingpong(NicConfig::baseline(), queue);
        let a128 = pingpong(NicConfig::with_alpus(128), queue);
        let a256 = pingpong(NicConfig::with_alpus(256), queue);
        println!(
            "{:>12} {:>12.2}us {:>12.2}us {:>12.2}us",
            queue,
            base.as_us_f64(),
            a128.as_us_f64(),
            a256.as_us_f64()
        );
    }
    println!("\nThe associative list processing unit keeps latency flat until");
    println!("the queue outgrows its cell count, exactly like Fig. 5 of the paper.");
}
