//! The RunSpec contract: a spec is built from flags only, so every
//! specable bin's command line, with representative arguments or with
//! none, parses through `RunSpec::from_cli` into a spec of that bench.

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};

/// Every bench with representative non-default arguments, as a CLI
/// would receive them.
const CASES: &[(&str, &[&str])] = &[
    (
        "fig5",
        &[
            "--config",
            "alpu128",
            "--max-queue",
            "100",
            "--step",
            "10",
            "--fractions",
            "0.5,1.0",
            "--sizes",
            "0,1024",
            "--faults",
            "seed=7,drop=0.01",
        ],
    ),
    (
        "fig6",
        &[
            "--max-queue",
            "200",
            "--step",
            "40",
            "--sizes",
            "64",
            "--sweep-threads",
            "2",
        ],
    ),
    ("gap", &["128"]),
    ("breakeven", &["8", "--sweep-threads", "3"]),
    (
        "soak",
        &[
            "--seeds",
            "2",
            "--senders",
            "8",
            "--msgs",
            "4",
            "--size",
            "256",
            "--credits",
            "2",
            "--max-unexpected",
            "16",
            "--eager-buffer",
            "8192",
            "--deadline-ms",
            "250",
            "--faults",
            "seed=3,drop=0.01",
            "--mtbf-us",
            "100",
            "--mttr-us",
            "20",
            "--node-mttr-us",
            "40",
        ],
    ),
    (
        "scaling",
        &[
            "--senders",
            "16",
            "--msgs",
            "32",
            "--size",
            "512",
            "--scenarios",
            "incast,hetero",
        ],
    ),
    (
        "collectives",
        &[
            "--ranks",
            "16,32",
            "--ops",
            "barrier,bcast",
            "--topos",
            "fattree",
            "--modes",
            "offload,host",
            "--len",
            "128",
            "--iters",
            "2",
        ],
    ),
    ("appstudy", &[]),
    ("ablation_block", &[]),
    ("ablation_hash", &["--sweep-threads", "1"]),
    ("ablation_prefetch", &["--sweep-threads", "2"]),
    ("ablation_threshold", &["--sweep-threads", "1"]),
    ("ablation_wildcard", &[]),
];

fn spec_from_args(bench: &'static str, args: &[&str]) -> RunSpec {
    let cli = Cli::try_parse_from(
        bench,
        "test",
        flags(bench),
        args.iter().map(|s| s.to_string()),
    )
    .unwrap_or_else(|e| panic!("{bench}: args failed to parse: {e:?}"));
    RunSpec::from_cli(bench, &cli).unwrap_or_else(|e| panic!("{bench}: {e}"))
}

/// Every `from_cli` arm: each case, and each bench's defaults, parses
/// to a spec whose bench is the one named.
#[test]
fn every_bench_parses_from_its_command_line() {
    for &(bench, args) in CASES {
        assert_eq!(spec_from_args(bench, args).bench.name(), bench);
        assert_eq!(spec_from_args(bench, &[]).bench.name(), bench, "defaults");
    }
    let mut names: Vec<&str> = CASES.iter().map(|&(bench, _)| bench).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 13, "one case per specable bench");
}
