//! The RunSpec contract: every bin's flag table parses into a spec that
//! survives JSON (parse → serialize → parse identity), and serialization
//! is canonical (a second trip reproduces the bytes).

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
            "--seed",
            "7",
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
    ("ablation_threshold", &["--seed", "9"]),
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

#[test]
fn every_bench_round_trips_through_json() {
    for &(bench, args) in CASES {
        let spec = spec_from_args(bench, args);
        let json = spec.to_json();
        let back = RunSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("{bench}: serialized spec failed to parse: {e}\n{json}"));
        assert_eq!(spec, back, "{bench}: round trip changed the spec\n{json}");
        // Serialization is canonical: a second trip produces the same bytes.
        assert_eq!(
            json,
            back.to_json(),
            "{bench}: serialization is not canonical"
        );
    }
}

#[test]
fn every_bench_round_trips_with_defaults() {
    for &(bench, _) in CASES {
        let spec = spec_from_args(bench, &[]);
        let back = RunSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(
            spec, back,
            "{bench}: default spec round trip changed the spec"
        );
    }
}
