//! Collectives bench: NIC-offloaded vs host-driven barrier/bcast/
//! allreduce on the hub crossbar and the switched fat-tree, 64 to 1024
//! ranks — the scaling curve behind EXPERIMENTS.md's offload section.
//!
//! ```text
//! cargo run --release -p mpiq-bench --bin collectives -- [--ranks 64,128]
//!     [--ops barrier,allreduce] [--topos hub,fattree] [--modes offload,host]
//!     [--len 64] [--iters 4]
//!     [--out BENCH_collectives.json] [--check BENCH_collectives.json]
//!     [--tolerance 10]
//! ```
//!
//! Every (ranks, op, topo, mode) cell runs the same script — `--iters`
//! back-to-back collectives per rank — and reports *simulated* metrics,
//! which are deterministic for a given code version:
//!
//! * `sim_ns_per_op` — wall time of the collective sequence in simulated
//!   nanoseconds (latest final mark minus earliest initial mark),
//!   divided by `--iters`;
//! * `host_completions` — total completions delivered to host CPUs. The
//!   offload engine's whole point is that this collapses from one per
//!   tree edge to one per collective per rank;
//! * `events`, `wall_ms` — engine cost of the cell (not gated).
//!
//! The flags assemble a [`RunSpec`] executed by [`mpiq_bench::exec`].
//! The headline
//! acceptance claim (offload must finish with fewer host completions
//! and no more simulated time than host-driven on the same fabric) is
//! enforced inside the executor; violations come back as result
//! failures and exit 1.
//!
//! `--check PATH` compares every current cell against the tracked
//! baseline's matching cell and fails (exit 1) when `sim_ns_per_op`
//! drifts more than `--tolerance` percent in *either* direction — these
//! are simulated numbers, so both regressions and silent model changes
//! are findings.

use mpiq_bench::report::{self, Band};
use mpiq_bench::spec::{BenchSpec, RunSpec};

fn main() {
    let (cli, spec) = RunSpec::parse(
        "collectives",
        "NIC-offloaded vs host-driven collectives across fabrics and scales",
    );
    let BenchSpec::Collectives {
        ranks,
        ops,
        topos,
        modes,
        iters,
        ..
    } = &spec.bench
    else {
        unreachable!()
    };
    eprintln!(
        "collectives: ranks {ranks:?}, ops {ops:?}, topos {topos:?}, modes {modes:?}, {iters} iters"
    );
    report::run(&cli, &spec, |result| {
        report::gate(
            &cli,
            &result.rows,
            &["ranks", "op", "topo", "mode"],
            &[("sim_ns_per_op", Band::Both)],
            10.0,
        )
    });
}
