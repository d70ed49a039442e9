//! Drive a tiny ALPU cycle model directly and trace what the hardware
//! does: the Fig. 3 state machine, the insert session protocol, priority
//! matching, delete-with-shift, and held-failure retry.
//!
//! ```text
//! cargo run --example alpu_inspector
//! ```

use mpiq::alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe, Response};

fn dump(alpu: &Alpu, label: &str) {
    print!("[cycle {:>4}] {label:<34} |", alpu.stats().cycles);
    let arr = alpu.array();
    // Highest index (oldest / highest priority) printed on the right,
    // matching Fig. 2's "inserted from the left, progress to the right".
    for i in 0..arr.capacity() {
        match arr.cell(i) {
            Some(e) => print!(" [tag {:>2}]", e.tag),
            None => print!(" [ ____ ]"),
        }
    }
    println!("  state={:?}", alpu.state());
}

fn drain(alpu: &mut Alpu) {
    while let Some(r) = alpu.pop_response() {
        match r {
            Response::StartAck { free } => {
                println!("             response: START ACK, {free} free cells")
            }
            Response::MatchSuccess { tag } => {
                println!("             response: MATCH SUCCESS, tag {tag}")
            }
            Response::MatchFailure => println!("             response: MATCH FAILURE"),
        }
    }
}

fn main() {
    // 8 cells in blocks of 4: two blocks, 6-cycle match pipeline.
    let mut alpu = Alpu::new(AlpuConfig::new(8, 4, AlpuKind::PostedReceive));
    println!(
        "ALPU: {} cells, block size {}, match pipeline {} cycles, inserts every {} cycles\n",
        8,
        4,
        alpu.config().timing().match_latency,
        alpu.config().timing().insert_interval
    );
    dump(&alpu, "reset");

    // Insert session: three receives, one with MPI_ANY_SOURCE.
    println!("\n-- insert session: START INSERT, 3 INSERTs, STOP INSERT");
    alpu.push_command(Command::StartInsert).unwrap();
    alpu.advance(2);
    drain(&mut alpu);
    for (i, entry) in [
        Entry::mpi_recv(1, Some(4), Some(10), 10),
        Entry::mpi_recv(1, None, Some(11), 11), // ANY_SOURCE
        Entry::mpi_recv(1, Some(4), Some(10), 12), // duplicate of tag 10
    ]
    .into_iter()
    .enumerate()
    {
        alpu.push_command(Command::Insert(entry)).unwrap();
        alpu.advance(2);
        dump(&alpu, &format!("after INSERT #{}", i + 1));
    }
    alpu.push_command(Command::StopInsert).unwrap();
    alpu.advance(8);
    dump(&alpu, "compacted after STOP INSERT");

    // Priority: two entries match {ctx 1, src 4, tag 10}; the OLDER one
    // (tag 10, furthest right) must win and be deleted with a shift.
    println!("\n-- probe {{ctx 1, src 4, tag 10}}: two candidates, oldest wins");
    alpu.push_header(Probe::exact(MatchWord::mpi(1, 4, 10)))
        .unwrap();
    alpu.advance(6);
    drain(&mut alpu);
    dump(&alpu, "after delete-with-shift");

    // Wildcard: entry tag 11 stores ANY_SOURCE, so src 99 matches it.
    println!("\n-- probe {{ctx 1, src 99, tag 11}}: hits the ANY_SOURCE cell");
    alpu.push_header(Probe::exact(MatchWord::mpi(1, 99, 11)))
        .unwrap();
    alpu.advance(6);
    drain(&mut alpu);
    dump(&alpu, "after wildcard match");

    // Held failure: a probe that matches nothing arrives during insert
    // mode; its failure is held until the matching insert lands.
    println!("\n-- held failure: probe arrives mid-session, insert satisfies it");
    alpu.push_command(Command::StartInsert).unwrap();
    alpu.advance(2);
    drain(&mut alpu);
    alpu.push_header(Probe::exact(MatchWord::mpi(1, 7, 77)))
        .unwrap();
    alpu.advance(20);
    println!("             (no response yet — failure held for retry, §III-C)");
    assert_eq!(alpu.responses_pending(), 0);
    alpu.push_command(Command::Insert(Entry::mpi_recv(1, Some(7), Some(77), 77)))
        .unwrap();
    alpu.advance(20);
    drain(&mut alpu);
    alpu.push_command(Command::StopInsert).unwrap();
    alpu.advance(4);
    dump(&alpu, "after retry matched the new insert");

    let s = alpu.stats();
    println!(
        "\ntotals: {} matches attempted, {} successes, {} failures, {} inserts, {} busy cycles",
        s.matches_attempted, s.match_successes, s.match_failures, s.inserts, s.busy_cycles
    );

    // Bonus: capture a waveform of one more match and write a VCD file
    // (viewable in GTKWave) when an output path is given.
    if let Some(path) = std::env::args().nth(1) {
        alpu.push_command(Command::StartInsert).unwrap();
        alpu.push_command(Command::Insert(Entry::mpi_recv(1, Some(4), Some(99), 5)))
            .unwrap();
        alpu.push_command(Command::StopInsert).unwrap();
        alpu.run_to_idle(10_000);
        while alpu.pop_response().is_some() {}
        let vcd = mpiq::alpu::vcd::capture(&mut alpu, 2, |a| {
            a.push_header(Probe::exact(MatchWord::mpi(1, 4, 99)))
                .unwrap();
        });
        std::fs::write(&path, vcd).expect("write vcd");
        println!("wrote waveform to {path} (open with GTKWave)");
    }
}
