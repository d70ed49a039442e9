//! The typed execution contract: [`RunSpec`] in, [`RunResult`] out.
//!
//! * [`RunSpec`] — *what to simulate*: the bench kind plus its typed
//!   parameters, the seed, the fault spec, and the execution knobs.
//!   [`RunSpec::from_cli`] is its one parser: a spec is built from flags
//!   only, so a bin's command line is the one-line reproduction of its
//!   run.
//! * [`RunResult`] — *what came out*: one row per sweep point as typed
//!   `(column, value)` cells, from which the CSV and the `--out` record
//!   are both rendered, stderr summary notes, and acceptance failures.
//!
//! Presentation-only flags (`--plot`, `--out`, `--trace-out`,
//! `--metrics`, `--check`, `--tolerance`) are not part of the spec: they
//! shape what a bin does with the result, not what the simulation
//! computes. The soak curve modes are part of the spec: each selects a
//! [`SoakCurve`] sweep.
//!
//! `table4`, `table5`, and `jsonlint` are not specable: they run no
//! simulation (static FPGA tables and a file validator).

use crate::cli::{Cli, Flag, FAULTS, METRICS, OUT, SEED, SWEEP_THREADS, TRACE_OUT};
use crate::jsonlint::Json;
use crate::report::{json_f64, json_str};
use crate::NicVariant;
use crate::Scenario;
use mpiq_dessim::FaultConfig;

/// A complete, self-contained description of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Which bench, with its typed parameters.
    pub bench: BenchSpec,
    /// `--seed`; `None` = the bench's own default seed policy.
    pub seed: Option<u64>,
    /// `--faults SPEC`, as `Cli` parsed it.
    pub faults: Option<FaultConfig>,
    /// Sweep-point fan-out (`--sweep-threads`); output-invariant.
    pub sweep_threads: usize,
}

/// Typed parameters of each bench — one variant per specable bin.
#[derive(Clone, Debug, PartialEq)]
pub enum BenchSpec {
    /// Fig. 5: latency vs posted-queue depth and traversal fraction.
    Fig5 {
        configs: Vec<NicVariant>,
        max_queue: usize,
        step: usize,
        fractions: Vec<f64>,
        sizes: Vec<u32>,
    },
    /// Fig. 6: latency vs unexpected-queue depth (always all variants).
    Fig6 {
        max_queue: usize,
        step: usize,
        sizes: Vec<u32>,
    },
    /// Receiver-side gap vs posted-queue depth.
    Gap { burst: usize },
    /// §VI-B break-even fine sweep.
    Breakeven { max_queue: usize },
    /// Overload soak matrix (scenario × seed).
    Soak {
        scenarios: Vec<String>,
        seeds: u64,
        senders: u32,
        msgs: u32,
        size: u32,
        credits: u32,
        max_unexpected: u32,
        eager_buffer: u64,
        alpu: bool,
        deadline_ms: u64,
        mtbf_us: u64,
        mttr_us: u64,
        node_mttr_us: u64,
        check_determinism: bool,
        /// `--curve`, `--chaos-curve` or `--recovery-curve`: sweep one
        /// knob instead of the scenario × seed matrix.
        curve: Option<SoakCurve>,
    },
    /// Engine events/sec on the incast soak.
    Scaling {
        senders: u32,
        msgs: u32,
        size: u32,
        scenarios: Vec<String>,
    },
    /// NIC-offloaded vs host-driven collectives.
    Collectives {
        ranks: Vec<u32>,
        ops: Vec<String>,
        topos: Vec<String>,
        modes: Vec<String>,
        len: u32,
        iters: u32,
    },
    /// Application queue-characterization study (fixed patterns).
    Appstudy,
    /// ALPU block-size design space (static model, no cluster).
    AblationBlock,
    /// Linear list vs hash-binned matching vs ALPU.
    AblationHash,
    /// Next-line prefetch vs the ALPU at the cache cliff.
    AblationPrefetch,
    /// §VI-B engagement-threshold sweep.
    AblationThreshold,
    /// `MPI_ANY_SOURCE` vs post-all-and-cancel.
    AblationWildcard,
}

/// A soak curve: one row per value of the swept knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoakCurve {
    /// `--curve`: the incast fan-in.
    Incast,
    /// `--chaos-curve`: the chaos storm's link-flap MTBF.
    Chaos,
    /// `--recovery-curve`: the crashed node's MTTR.
    Recovery,
}

impl BenchSpec {
    /// The bench name: the bin that runs it.
    pub fn name(&self) -> &'static str {
        match self {
            BenchSpec::Fig5 { .. } => "fig5",
            BenchSpec::Fig6 { .. } => "fig6",
            BenchSpec::Gap { .. } => "gap",
            BenchSpec::Breakeven { .. } => "breakeven",
            BenchSpec::Soak { .. } => "soak",
            BenchSpec::Scaling { .. } => "scaling",
            BenchSpec::Collectives { .. } => "collectives",
            BenchSpec::Appstudy => "appstudy",
            BenchSpec::AblationBlock => "ablation_block",
            BenchSpec::AblationHash => "ablation_hash",
            BenchSpec::AblationPrefetch => "ablation_prefetch",
            BenchSpec::AblationThreshold => "ablation_threshold",
            BenchSpec::AblationWildcard => "ablation_wildcard",
        }
    }
}

impl RunSpec {
    /// Parse bench `name`'s process arguments into the command line and
    /// its spec; a spec error is a one-line message and exit 2.
    pub fn parse(name: &'static str, about: &'static str) -> (Cli, RunSpec) {
        let cli = Cli::parse(name, about, flags(name));
        let spec = RunSpec::from_cli(name, &cli).unwrap_or_else(|e| {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        });
        (cli, spec)
    }

    /// Build the spec from a parsed command line for bench `name`.
    ///
    /// Reads exactly the simulation-defining flags (plus positionals for
    /// `gap` / `breakeven`); presentation flags are left to the bin.
    pub fn from_cli(name: &str, cli: &Cli) -> Result<RunSpec, String> {
        let bench = match name {
            "fig5" => {
                let config = cli.get_str("config").unwrap_or("all").to_string();
                let configs: Vec<NicVariant> = match config.as_str() {
                    "all" => NicVariant::ALL.to_vec(),
                    s => vec![s.parse()?],
                };
                BenchSpec::Fig5 {
                    configs,
                    max_queue: cli.get("max-queue", 500),
                    step: cli.get("step", 25),
                    fractions: cli.get_list("fractions", vec![0.0, 0.25, 0.5, 0.75, 1.0]),
                    sizes: cli.get_list("sizes", vec![0, 1024, 8192]),
                }
            }
            "fig6" => BenchSpec::Fig6 {
                max_queue: cli.get("max-queue", 400),
                step: cli.get("step", 20),
                sizes: cli.get_list("sizes", vec![64, 1024]),
            },
            "gap" => BenchSpec::Gap {
                burst: match cli.positionals().first() {
                    Some(s) => s.parse().map_err(|e| format!("BURST {s:?}: {e}"))?,
                    None => 64,
                },
            },
            "breakeven" => BenchSpec::Breakeven {
                max_queue: match cli.positionals().first() {
                    Some(s) => s.parse().map_err(|e| format!("MAX_QUEUE {s:?}: {e}"))?,
                    None => 16,
                },
            },
            "soak" => {
                let scenarios: Vec<String> = match cli.get_str("scenario").unwrap_or("all") {
                    "all" => Scenario::ALL.iter().map(|s| s.name().to_string()).collect(),
                    v => {
                        Scenario::parse(v).ok_or_else(|| format!("unknown scenario `{v}`"))?;
                        vec![v.to_string()]
                    }
                };
                BenchSpec::Soak {
                    scenarios,
                    seeds: cli.get("seeds", 4),
                    senders: cli.get("senders", 16),
                    msgs: cli.get("msgs", 8),
                    size: cli.get("size", 512),
                    credits: cli.get("credits", 4),
                    max_unexpected: cli.get("max-unexpected", 32),
                    eager_buffer: cli.get("eager-buffer", 16u64 << 10),
                    alpu: cli.has("alpu"),
                    deadline_ms: cli.get("deadline-ms", 500),
                    mtbf_us: cli.get("mtbf-us", 150),
                    mttr_us: cli.get("mttr-us", 50),
                    node_mttr_us: cli.get("node-mttr-us", 0),
                    check_determinism: cli.has("check-determinism"),
                    curve: [
                        ("curve", SoakCurve::Incast),
                        ("chaos-curve", SoakCurve::Chaos),
                        ("recovery-curve", SoakCurve::Recovery),
                    ]
                    .into_iter()
                    .find(|&(flag, _)| cli.has(flag))
                    .map(|(_, curve)| curve),
                }
            }
            "scaling" => BenchSpec::Scaling {
                senders: cli.get("senders", 16),
                msgs: cli.get("msgs", 64),
                size: cli.get("size", 512),
                scenarios: cli.get_list(
                    "scenarios",
                    vec!["incast".to_string(), "hetero".to_string()],
                ),
            },
            "collectives" => BenchSpec::Collectives {
                ranks: cli.get_list("ranks", vec![64, 128]),
                ops: cli.get_list("ops", vec!["barrier".to_string(), "allreduce".to_string()]),
                topos: cli.get_list("topos", vec!["hub".to_string(), "fattree".to_string()]),
                modes: cli.get_list("modes", vec!["offload".to_string(), "host".to_string()]),
                len: cli.get("len", 64),
                iters: cli.get("iters", 4),
            },
            "appstudy" => BenchSpec::Appstudy,
            "ablation_block" => BenchSpec::AblationBlock,
            "ablation_hash" => BenchSpec::AblationHash,
            "ablation_prefetch" => BenchSpec::AblationPrefetch,
            "ablation_threshold" => BenchSpec::AblationThreshold,
            "ablation_wildcard" => BenchSpec::AblationWildcard,
            other => return Err(format!("`{other}` is not a specable bench")),
        };
        Ok(RunSpec {
            bench,
            seed: cli.common.seed,
            faults: cli.common.faults,
            sweep_threads: cli.common.sweep_threads,
        })
    }
}

/// The flag table for bench `name`: its own flags, then the common ones
/// it reads. The spec, the parser, and `--help` share this declaration.
pub fn flags(name: &str) -> &'static [Flag] {
    match name {
        "fig5" => &[
            Flag { name: "plot", value: None, help: "render an ascii projection of the curves" },
            Flag {
                name: "config",
                value: Some("NAME"),
                help: "all|baseline|alpu128|alpu256 (default all)",
            },
            Flag { name: "max-queue", value: Some("N"), help: "deepest posted queue (default 500)" },
            Flag { name: "step", value: Some("N"), help: "queue-length stride (default 25)" },
            Flag {
                name: "fractions",
                value: Some("LIST"),
                help: "traversal fractions (default 0,0.25,0.5,0.75,1.0)",
            },
            Flag { name: "sizes", value: Some("LIST"), help: "payload bytes (default 0,1024,8192)" },
            FAULTS,
            TRACE_OUT,
            METRICS,
            SWEEP_THREADS,
            OUT,
        ],
        "fig6" => &[
            Flag { name: "plot", value: None, help: "render an ascii projection of the curves" },
            Flag {
                name: "max-queue",
                value: Some("N"),
                help: "deepest unexpected queue (default 400)",
            },
            Flag { name: "step", value: Some("N"), help: "queue-length stride (default 20)" },
            Flag { name: "sizes", value: Some("LIST"), help: "payload bytes (default 64,1024)" },
            FAULTS,
            TRACE_OUT,
            METRICS,
            SWEEP_THREADS,
            OUT,
        ],
        "gap" | "breakeven" => &[SWEEP_THREADS, OUT],
        "appstudy" | "ablation_hash" | "ablation_prefetch" | "ablation_threshold"
        | "ablation_wildcard" => &[SWEEP_THREADS],
        "ablation_block" => &[],
        "soak" => &[
            Flag {
                name: "scenario",
                value: Some("NAME"),
                help: "incast|hot-receiver|credit-starve|chaos|all (default all)",
            },
            Flag { name: "seeds", value: Some("N"), help: "run seeds 1..=N (default 4)" },
            Flag { name: "senders", value: Some("N"), help: "fan-in (default 16)" },
            Flag { name: "msgs", value: Some("N"), help: "messages per sender (default 8)" },
            Flag { name: "size", value: Some("B"), help: "message payload bytes (default 512)" },
            Flag { name: "credits", value: Some("N"), help: "eager credits per peer (default 4)" },
            Flag {
                name: "max-unexpected",
                value: Some("N"),
                help: "unexpected-queue bound (default 32)",
            },
            Flag {
                name: "eager-buffer",
                value: Some("B"),
                help: "eager buffer bytes (default 16384)",
            },
            Flag { name: "alpu", value: None, help: "enable the ALPU NIC variant" },
            Flag { name: "deadline-ms", value: Some("T"), help: "watchdog deadline (default 500)" },
            Flag {
                name: "check-determinism",
                value: None,
                help: "re-run every point and demand bit-identical stats",
            },
            Flag {
                name: "curve",
                value: None,
                help: "sweep incast fan-in and plot the degradation curve",
            },
            Flag {
                name: "mtbf-us",
                value: Some("T"),
                help: "chaos: mean microseconds between link flaps (default 150)",
            },
            Flag {
                name: "mttr-us",
                value: Some("T"),
                help: "chaos: mean microseconds a flapped link stays down (default 50)",
            },
            Flag {
                name: "chaos-curve",
                value: None,
                help: "sweep the chaos MTBF and plot availability/goodput",
            },
            Flag {
                name: "recovery-curve",
                value: None,
                help: "sweep the crashed node's MTTR and plot availability and \
                       crash-to-recovered time",
            },
            Flag {
                name: "node-mttr-us",
                value: Some("T"),
                help: "chaos: restart the crashed node T microseconds after its \
                       crash and run the recovery handshake (0 = crash-stop forever, \
                       the default; must be >= 400 so the storm horizon is over)",
            },
            Flag {
                name: "check",
                value: Some("PATH"),
                help: "baseline JSON from a previous --out; fail when any run's \
                       recovery_ns/runtime_ns drifts past --tolerance",
            },
            Flag {
                name: "tolerance",
                value: Some("PCT"),
                help: "allowed drift in percent for --check (default 10)",
            },
            SEED,
            FAULTS,
            OUT,
        ],
        "scaling" => &[
            Flag {
                name: "senders",
                value: Some("N"),
                help: "incast fan-in; ranks = N + 1 (default 16)",
            },
            Flag { name: "msgs", value: Some("N"), help: "messages per sender (default 64)" },
            Flag { name: "size", value: Some("B"), help: "message payload bytes (default 512)" },
            Flag {
                name: "scenarios",
                value: Some("LIST"),
                help: "wire profiles to run: incast, hetero (default both)",
            },
            Flag {
                name: "check",
                value: Some("PATH"),
                help: "baseline BENCH_scaling.json; fail on events/sec regression",
            },
            Flag {
                name: "tolerance",
                value: Some("PCT"),
                help: "allowed events/sec drop vs the baseline, percent (default 25)",
            },
            SEED,
            OUT,
        ],
        "collectives" => &[
            Flag {
                name: "ranks",
                value: Some("LIST"),
                help: "rank counts to sweep (default 64,128)",
            },
            Flag {
                name: "ops",
                value: Some("LIST"),
                help: "collectives to run: barrier, bcast, allreduce (default barrier,allreduce)",
            },
            Flag {
                name: "topos",
                value: Some("LIST"),
                help: "fabrics to run: hub, fattree (default both)",
            },
            Flag {
                name: "modes",
                value: Some("LIST"),
                help: "collective engines: offload, host (default both)",
            },
            Flag {
                name: "len",
                value: Some("B"),
                help: "bcast/allreduce payload bytes (default 64)",
            },
            Flag {
                name: "iters",
                value: Some("N"),
                help: "collectives per rank per cell (default 4)",
            },
            Flag {
                name: "check",
                value: Some("PATH"),
                help: "baseline BENCH_collectives.json; fail when sim_ns_per_op drifts past --tolerance",
            },
            Flag {
                name: "tolerance",
                value: Some("PCT"),
                help: "allowed sim_ns_per_op drift vs the baseline, percent, both directions (default 10)",
            },
            OUT,
        ],
        other => panic!("no flag table for bench `{other}`"),
    }
}

// --- results ---------------------------------------------------------

/// One cell of a result row. A real carries the decimals of its CSV
/// cell (`None` prints it plainly, as `{}` does); its JSON value always
/// keeps full precision.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Text, such as a configuration or scenario name.
    Text(String),
    /// A count or other unsigned integer.
    Int(u64),
    /// A real and the decimals its CSV cell shows.
    Real(f64, Option<usize>),
}

impl Value {
    /// The CSV cell.
    pub fn csv(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Real(v, Some(decimals)) => format!("{v:.decimals$}"),
            Value::Real(v, None) => format!("{v}"),
        }
    }

    /// The JSON value as text (a non-finite real is `null`).
    pub fn json(&self) -> String {
        match self {
            Value::Text(s) => json_str(s),
            Value::Int(n) => n.to_string(),
            Value::Real(v, _) => json_f64(*v),
        }
    }

    /// The JSON value, as [`jsonlint::parse`](crate::jsonlint::parse)
    /// reads [`Value::json`].
    pub fn to_json(&self) -> Json {
        match self {
            Value::Text(s) => Json::Str(s.clone()),
            Value::Int(n) => Json::Num(*n as f64),
            Value::Real(v, _) if v.is_finite() => Json::Num(*v),
            Value::Real(..) => Json::Null,
        }
    }
}

/// One row of a result: its `(column, value)` cells in column order.
/// The CSV line, the JSON row and the gate's lookups all read them.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow(pub Vec<(&'static str, Value)>);

impl ResultRow {
    /// The value of column `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// A numeric column's finite value.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Int(n) => Some(*n as f64),
            Value::Real(v, _) => Some(*v).filter(|v| v.is_finite()),
            Value::Text(_) => None,
        }
    }

    /// A text column's value.
    pub fn text(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// Everything a bench run produces.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunResult {
    /// The bench that produced this.
    pub bench: String,
    /// One row per sweep point, every row with the same columns.
    pub rows: Vec<ResultRow>,
    /// Summary lines the bin relays to stderr.
    pub notes: Vec<String>,
    /// Acceptance-claim violations; a non-empty list makes the bin
    /// exit 1 (e.g. the collectives offload claim).
    pub failures: Vec<String>,
}

impl RunResult {
    /// The CSV the bin prints: a header naming the columns, then one
    /// line per row (empty when there are no rows).
    pub fn csv(&self) -> String {
        let Some(first) = self.rows.first() else {
            return String::new();
        };
        let names: Vec<&str> = first.0.iter().map(|(k, _)| *k).collect();
        let mut out = names.join(",") + "\n";
        for row in &self.rows {
            let cells: Vec<String> = row.0.iter().map(|(_, v)| v.csv()).collect();
            out += &(cells.join(",") + "\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A malformed sweep fan-out is a typed error naming the flag, never
    /// a silent default.
    #[test]
    fn malformed_thread_counts_are_typed_errors() {
        let parse = |args: &[&str]| {
            Cli::try_parse_from(
                "gap",
                "test",
                flags("gap"),
                args.iter().map(|s| s.to_string()),
            )
        };
        let ok = RunSpec::from_cli("gap", &parse(&["4"]).unwrap()).unwrap();
        assert_eq!(ok.sweep_threads, 0, "a missing count defaults to 0");
        for bad in ["two", "-1", "1.5"] {
            match parse(&["4", "--sweep-threads", bad]) {
                Err(crate::cli::Error::Bad(msg)) => {
                    assert!(msg.contains("threads"), "error must name the flag: {msg}")
                }
                other => panic!("--sweep-threads {bad}: expected Bad, got {other:?}"),
            }
        }
    }
}
