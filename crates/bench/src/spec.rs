//! The typed execution contract: [`RunSpec`] in, [`RunResult`] out.
//!
//! Historically every bench bin parsed its own flags straight into local
//! variables and the simulation sweep lived inline in `main`, so the only
//! way to run an experiment was to exec the bin. This module promotes the
//! string-flag surface (`cli::Common` + per-bin [`Flag`] tables) into a
//! typed, serializable pair:
//!
//! * [`RunSpec`] — *what to simulate*: the bench kind plus its typed
//!   parameters, the seed, the raw fault spec, and the execution knobs.
//!   Built from a parsed command line ([`RunSpec::from_cli`]) or from a
//!   JSON document ([`RunSpec::from_json`]); serializes canonically
//!   ([`RunSpec::to_json`]), so one JSON line reproduces a run.
//! * [`RunResult`] — *what came out*: the CSV header, one row per sweep
//!   point (verbatim CSV cells plus typed JSON fields), free-form text
//!   for the table-style harnesses, stderr summary notes, and acceptance
//!   failures.
//!
//! Everything is serialized with the crate's hand-rolled JSON helpers
//! (`report::json_str` / `jsonlint::parse`) — no serde, per the std-only
//! shim policy.
//!
//! Presentation-only flags (`--plot`, `--out`, `--trace-out`,
//! `--metrics`, `--check`, `--tolerance`, the soak curve modes) are not
//! part of the spec: they shape what a bin does with the result, not
//! what the simulation computes.
//!
//! `table4`, `table5`, and `jsonlint` are not specable: they run no
//! simulation (static FPGA tables and a file validator).

use crate::cli::{Cli, Flag};
use crate::jsonlint::{self, Json};
use crate::report::{json_f64, json_str};
use crate::NicVariant;
use crate::Scenario;

/// Every specable bench, in presentation order.
pub const BENCHES: &[&str] = &[
    "fig5",
    "fig6",
    "gap",
    "breakeven",
    "soak",
    "scaling",
    "collectives",
    "appstudy",
    "ablation_block",
    "ablation_hash",
    "ablation_prefetch",
    "ablation_threshold",
    "ablation_wildcard",
];

/// A complete, self-contained description of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Which bench, with its typed parameters.
    pub bench: BenchSpec,
    /// `--seed`; `None` = the bench's own default seed policy.
    pub seed: Option<u64>,
    /// `--faults SPEC`, carried verbatim (the spec string is the
    /// canonical form; `FaultConfig` has `FromStr` but no `Display`).
    pub faults: Option<String>,
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

impl BenchSpec {
    /// The bench name as spelled in [`BENCHES`] and in spec JSON.
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

    /// The bench's parameters as a canonical single-line JSON object.
    fn params_json(&self) -> String {
        fn list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
            let cells: Vec<String> = items.iter().map(f).collect();
            format!("[{}]", cells.join(","))
        }
        match self {
            BenchSpec::Fig5 {
                configs,
                max_queue,
                step,
                fractions,
                sizes,
            } => format!(
                "{{\"configs\":{},\"max_queue\":{max_queue},\"step\":{step},\
                 \"fractions\":{},\"sizes\":{}}}",
                list(configs, |v| json_str(v.label())),
                list(fractions, |f| json_f64(*f)),
                list(sizes, |s| s.to_string()),
            ),
            BenchSpec::Fig6 {
                max_queue,
                step,
                sizes,
            } => format!(
                "{{\"max_queue\":{max_queue},\"step\":{step},\"sizes\":{}}}",
                list(sizes, |s| s.to_string()),
            ),
            BenchSpec::Gap { burst } => format!("{{\"burst\":{burst}}}"),
            BenchSpec::Breakeven { max_queue } => format!("{{\"max_queue\":{max_queue}}}"),
            BenchSpec::Soak {
                scenarios,
                seeds,
                senders,
                msgs,
                size,
                credits,
                max_unexpected,
                eager_buffer,
                alpu,
                deadline_ms,
                mtbf_us,
                mttr_us,
                node_mttr_us,
                check_determinism,
            } => format!(
                "{{\"scenarios\":{},\"seeds\":{seeds},\"senders\":{senders},\
                 \"msgs\":{msgs},\"size\":{size},\"credits\":{credits},\
                 \"max_unexpected\":{max_unexpected},\"eager_buffer\":{eager_buffer},\
                 \"alpu\":{alpu},\"deadline_ms\":{deadline_ms},\"mtbf_us\":{mtbf_us},\
                 \"mttr_us\":{mttr_us},\"node_mttr_us\":{node_mttr_us},\
                 \"check_determinism\":{check_determinism}}}",
                list(scenarios, |s| json_str(s)),
            ),
            BenchSpec::Scaling {
                senders,
                msgs,
                size,
                scenarios,
            } => format!(
                "{{\"senders\":{senders},\"msgs\":{msgs},\"size\":{size},\
                 \"scenarios\":{}}}",
                list(scenarios, |s| json_str(s)),
            ),
            BenchSpec::Collectives {
                ranks,
                ops,
                topos,
                modes,
                len,
                iters,
            } => format!(
                "{{\"ranks\":{},\"ops\":{},\"topos\":{},\"modes\":{},\
                 \"len\":{len},\"iters\":{iters}}}",
                list(ranks, |r| r.to_string()),
                list(ops, |s| json_str(s)),
                list(topos, |s| json_str(s)),
                list(modes, |s| json_str(s)),
            ),
            BenchSpec::Appstudy
            | BenchSpec::AblationBlock
            | BenchSpec::AblationHash
            | BenchSpec::AblationPrefetch
            | BenchSpec::AblationThreshold
            | BenchSpec::AblationWildcard => "{}".to_string(),
        }
    }
}

impl RunSpec {
    /// Canonical single-line JSON. Fixed key order, no whitespace —
    /// parsing and re-serializing any spec reproduces the bytes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":{},\"params\":{},\"seed\":{},\"faults\":{},\
             \"sweep_threads\":{}}}",
            json_str(self.bench.name()),
            self.bench.params_json(),
            match self.seed {
                Some(s) => s.to_string(),
                None => "null".to_string(),
            },
            match &self.faults {
                Some(f) => json_str(f),
                None => "null".to_string(),
            },
            self.sweep_threads,
        )
    }

    /// Parse a spec out of its JSON text.
    pub fn from_json(text: &str) -> Result<RunSpec, String> {
        let doc = jsonlint::parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        RunSpec::from_json_value(&doc)
    }

    /// Parse a spec out of an already-parsed JSON document.
    pub fn from_json_value(doc: &Json) -> Result<RunSpec, String> {
        let bench_name = str_field(doc, "bench")?;
        let params = doc.get("params").ok_or("spec has no `params` object")?;
        let bench = parse_bench(&bench_name, params)?;
        let seed = match doc.get("seed") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("`seed` must be an unsigned integer")?),
        };
        let faults = match doc.get("faults") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("`faults` must be a string")?.to_string()),
        };
        Ok(RunSpec {
            bench,
            seed,
            faults,
            sweep_threads: opt_count_field(doc, "sweep_threads")?,
        })
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
            faults: cli.common_raw("faults").map(str::to_string),
            sweep_threads: cli.common.sweep_threads,
        })
    }
}

/// The bin-specific flag table for bench `name` — moved here from the
/// bins so the spec, the parser, and `--help` share one declaration.
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
        ],
        "gap" | "breakeven" | "appstudy" | "ablation_block" | "ablation_hash"
        | "ablation_prefetch" | "ablation_threshold" | "ablation_wildcard" => &[],
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
        ],
        other => panic!("no flag table for bench `{other}`"),
    }
}

fn parse_bench(name: &str, params: &Json) -> Result<BenchSpec, String> {
    Ok(match name {
        "fig5" => BenchSpec::Fig5 {
            configs: str_list(params, "configs")?
                .iter()
                .map(|s| s.parse())
                .collect::<Result<Vec<NicVariant>, String>>()?,
            max_queue: usize_field(params, "max_queue")?,
            step: usize_field(params, "step")?,
            fractions: f64_list(params, "fractions")?,
            sizes: u32_list(params, "sizes")?,
        },
        "fig6" => BenchSpec::Fig6 {
            max_queue: usize_field(params, "max_queue")?,
            step: usize_field(params, "step")?,
            sizes: u32_list(params, "sizes")?,
        },
        "gap" => BenchSpec::Gap {
            burst: usize_field(params, "burst")?,
        },
        "breakeven" => BenchSpec::Breakeven {
            max_queue: usize_field(params, "max_queue")?,
        },
        "soak" => {
            let scenarios = str_list(params, "scenarios")?;
            for s in &scenarios {
                Scenario::parse(s).ok_or_else(|| format!("unknown scenario `{s}`"))?;
            }
            BenchSpec::Soak {
                scenarios,
                seeds: u64_field(params, "seeds")?,
                senders: u32_field(params, "senders")?,
                msgs: u32_field(params, "msgs")?,
                size: u32_field(params, "size")?,
                credits: u32_field(params, "credits")?,
                max_unexpected: u32_field(params, "max_unexpected")?,
                eager_buffer: u64_field(params, "eager_buffer")?,
                alpu: bool_field(params, "alpu")?,
                deadline_ms: u64_field(params, "deadline_ms")?,
                mtbf_us: u64_field(params, "mtbf_us")?,
                mttr_us: u64_field(params, "mttr_us")?,
                node_mttr_us: u64_field(params, "node_mttr_us")?,
                check_determinism: bool_field(params, "check_determinism")?,
            }
        }
        "scaling" => BenchSpec::Scaling {
            senders: u32_field(params, "senders")?,
            msgs: u32_field(params, "msgs")?,
            size: u32_field(params, "size")?,
            scenarios: str_list(params, "scenarios")?,
        },
        "collectives" => BenchSpec::Collectives {
            ranks: u32_list(params, "ranks")?,
            ops: str_list(params, "ops")?,
            topos: str_list(params, "topos")?,
            modes: str_list(params, "modes")?,
            len: u32_field(params, "len")?,
            iters: u32_field(params, "iters")?,
        },
        "appstudy" => BenchSpec::Appstudy,
        "ablation_block" => BenchSpec::AblationBlock,
        "ablation_hash" => BenchSpec::AblationHash,
        "ablation_prefetch" => BenchSpec::AblationPrefetch,
        "ablation_threshold" => BenchSpec::AblationThreshold,
        "ablation_wildcard" => BenchSpec::AblationWildcard,
        other => return Err(format!("unknown bench `{other}`")),
    })
}

// --- small typed accessors over the jsonlint DOM ---------------------

fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("`{key}` must be a boolean")),
    }
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` must be an unsigned integer"))
}

fn usize_field(doc: &Json, key: &str) -> Result<usize, String> {
    u64_field(doc, key).map(|v| v as usize)
}

/// A sweep fan-out field: absent (or null) means the default 0, but a
/// malformed value is a typed error — a client typo must be rejected,
/// never silently coerced.
fn opt_count_field(doc: &Json, key: &str) -> Result<usize, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(0),
        Some(_) => usize_field(doc, key),
    }
}

fn u32_field(doc: &Json, key: &str) -> Result<u32, String> {
    let v = u64_field(doc, key)?;
    u32::try_from(v).map_err(|_| format!("`{key}` does not fit in 32 bits"))
}

fn arr_field<'j>(doc: &'j Json, key: &str) -> Result<&'j [Json], String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` must be an array"))
}

fn str_list(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_field(doc, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` must hold strings"))
        })
        .collect()
}

fn f64_list(doc: &Json, key: &str) -> Result<Vec<f64>, String> {
    arr_field(doc, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("`{key}` must hold numbers"))
        })
        .collect()
}

fn u32_list(doc: &Json, key: &str) -> Result<Vec<u32>, String> {
    arr_field(doc, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("`{key}` must hold unsigned 32-bit integers"))
        })
        .collect()
}

// --- results ---------------------------------------------------------

/// One sweep-point row of a result: the verbatim CSV cells the bin
/// prints, plus the typed fields as `(key, rendered JSON fragment)`
/// pairs in output order (the same shape as `report::JsonRow`).
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// Comma-joined CSV cells, exactly as printed to stdout.
    pub csv: String,
    /// Typed fields; values are already-rendered JSON fragments.
    pub fields: Vec<(String, String)>,
}

impl ResultRow {
    /// A field as a number (parses the stored fragment).
    pub fn num(&self, key: &str) -> Option<f64> {
        self.field_json(key).and_then(|j| j.as_f64())
    }

    /// A field as a string (parses the stored fragment).
    pub fn text(&self, key: &str) -> Option<String> {
        self.field_json(key)
            .and_then(|j| j.as_str().map(str::to_string))
    }

    fn field_json(&self, key: &str) -> Option<Json> {
        let frag = self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)?;
        jsonlint::parse(frag).ok()
    }
}

/// Everything a bench run produces.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunResult {
    /// The bench that produced this.
    pub bench: String,
    /// The CSV header line (empty for table-style benches).
    pub header: String,
    /// One row per sweep point.
    pub rows: Vec<ResultRow>,
    /// Free-form stdout for the table-style harnesses (appstudy, the
    /// ablations); printed verbatim.
    pub text: String,
    /// Summary lines the bin relays to stderr.
    pub notes: Vec<String>,
    /// Acceptance-claim violations; a non-empty list makes the bin
    /// exit 1 (e.g. the collectives offload claim).
    pub failures: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_is_canonical_and_valid() {
        let spec = RunSpec {
            bench: BenchSpec::Fig5 {
                configs: vec![NicVariant::Alpu128],
                max_queue: 100,
                step: 50,
                fractions: vec![0.0, 1.0],
                sizes: vec![0],
            },
            seed: Some(7),
            faults: Some("seed=1,drop=0.01".to_string()),
            sweep_threads: 4,
        };
        let text = spec.to_json();
        jsonlint::validate(&text).expect("spec JSON must be valid");
        let back = RunSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "serialization must be canonical");
    }

    #[test]
    fn malformed_thread_counts_are_typed_errors() {
        let ok = RunSpec::from_json("{\"bench\":\"gap\",\"params\":{\"burst\":4}}").unwrap();
        assert_eq!(ok.sweep_threads, 0, "a missing count defaults to 0");
        for bad in [
            "{\"bench\":\"gap\",\"params\":{\"burst\":4},\"sweep_threads\":\"two\"}",
            "{\"bench\":\"gap\",\"params\":{\"burst\":4},\"sweep_threads\":-1}",
            "{\"bench\":\"gap\",\"params\":{\"burst\":4},\"sweep_threads\":1.5}",
        ] {
            let err = RunSpec::from_json(bad).unwrap_err();
            assert!(err.contains("threads"), "error must name the flag: {err}");
        }
    }
}
