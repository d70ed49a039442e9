//! The one executor behind every bench bin: consume a [`RunSpec`],
//! produce a [`RunResult`].
//!
//! Each arm of [`execute`] is the verbatim port of the corresponding
//! bin's sweep loop — same point expansion order, same CSV cell
//! formatting, same summary lines — so a bin printing the returned rows
//! is byte-identical to the pre-refactor harness (CI's observability job
//! byte-compares fig5 stdout to hold this). The bins keep only
//! presentation: plots, traces and tracked-baseline gates.
//!
//! Conditions the old bins handled with `panic!`/`exit(1)` (a stalled
//! soak, a broken determinism compare, bad enum values, parameters the
//! simulator cannot run) surface as `Err`, so a bad spec is a typed
//! error whether it came from flags or from JSON.

use crate::gap::{message_gap, GapPoint};
use crate::report::{cells, json_f64, json_str};
use crate::spec::{BenchSpec, ResultRow, RunResult, RunSpec};
use crate::wildcard::{wildcard_workaround, RecvStrategy, WildcardStudy};
use crate::{
    postloop_rtt, preposted_latency_cfg, run_parallel, run_soak, unexpected_latency_cfg,
    FaultCounters, NicVariant, PostLoopPoint, PrepostedPoint, Scenario, SoakConfig,
    UnexpectedPoint,
};
use mpiq_dessim::{FaultConfig, Time};
use mpiq_net::{Topology, WireProfile};
use std::time::Instant;

/// Run the spec in-process.
pub fn execute(spec: &RunSpec) -> Result<RunResult, String> {
    let faults: Option<FaultConfig> = match &spec.faults {
        Some(text) => Some(text.parse().map_err(|e| format!("--faults {text}: {e}"))?),
        None => None,
    };
    let mut result = RunResult {
        bench: spec.bench.name().to_string(),
        ..RunResult::default()
    };
    match &spec.bench {
        BenchSpec::Fig5 {
            configs,
            max_queue,
            step,
            fractions,
            sizes,
        } => fig5(
            spec,
            configs,
            *max_queue,
            *step,
            fractions,
            sizes,
            faults,
            &mut result,
        )?,
        BenchSpec::Fig6 {
            max_queue,
            step,
            sizes,
        } => fig6(spec, *max_queue, *step, sizes, faults, &mut result)?,
        BenchSpec::Gap { burst } => gap(spec, *burst, &mut result)?,
        BenchSpec::Breakeven { max_queue } => breakeven(spec, *max_queue, &mut result),
        BenchSpec::Soak { .. } => soak(spec, faults, &mut result)?,
        BenchSpec::Scaling {
            senders,
            msgs,
            size,
            scenarios,
        } => scaling(spec, *senders, *msgs, *size, scenarios, &mut result)?,
        BenchSpec::Collectives {
            ranks,
            ops,
            topos,
            modes,
            len,
            iters,
        } => collectives(spec, ranks, ops, topos, modes, *len, *iters, &mut result)?,
        BenchSpec::Appstudy => appstudy(spec, &mut result),
        BenchSpec::AblationBlock => ablation_block(&mut result),
        BenchSpec::AblationHash => ablation_hash(spec, &mut result),
        BenchSpec::AblationPrefetch => ablation_prefetch(spec, &mut result),
        BenchSpec::AblationThreshold => ablation_threshold(spec, &mut result),
        BenchSpec::AblationWildcard => ablation_wildcard(spec, &mut result),
    }
    Ok(result)
}

#[allow(clippy::too_many_arguments)]
fn fig5(
    spec: &RunSpec,
    variants: &[NicVariant],
    max_queue: usize,
    step: usize,
    fractions: &[f64],
    sizes: &[u32],
    faults: Option<FaultConfig>,
    result: &mut RunResult,
) -> Result<(), String> {
    if step == 0 {
        return Err("--step must be >= 1".to_string());
    }
    if sizes.is_empty() {
        return Err("--sizes must list at least one payload size".to_string());
    }
    if fractions.is_empty() {
        return Err("--fractions must list at least one traversal fraction".to_string());
    }
    struct Row {
        config: String,
        queue_len: usize,
        fraction: f64,
        msg_size: u32,
        latency_us: f64,
        sw_traversed: u64,
        rx_l1_misses: u64,
        faults: Option<FaultCounters>,
    }
    let mut points = Vec::new();
    for &v in variants {
        for &size in sizes {
            for &f in fractions {
                for q in (0..=max_queue).step_by(step) {
                    points.push((
                        v,
                        PrepostedPoint {
                            queue_len: q,
                            fraction: f,
                            msg_size: size,
                        },
                    ));
                }
            }
        }
    }
    let rows: Vec<Row> = run_parallel(points, spec.sweep_threads, |&(v, p)| {
        let mut cfg = v.config();
        if let Some(f) = faults {
            cfg = cfg.with_faults(f);
        }
        let r = preposted_latency_cfg(cfg, p);
        Row {
            config: v.label().to_string(),
            queue_len: p.queue_len,
            fraction: p.fraction,
            msg_size: p.msg_size,
            latency_us: r.latency.as_us_f64(),
            sw_traversed: r.sw_traversed,
            rx_l1_misses: r.rx_l1_misses,
            faults: faults.map(|_| r.faults),
        }
    });

    let mut header =
        "config,queue_len,fraction,msg_size,latency_us,sw_traversed,rx_l1_misses".to_string();
    if faults.is_some() {
        header = format!("{header},{}", FaultCounters::CSV_HEADER);
    }
    result.header = header;
    for r in &rows {
        let base = format!(
            "{},{},{},{},{:.4},{},{}",
            r.config,
            r.queue_len,
            r.fraction,
            r.msg_size,
            r.latency_us,
            r.sw_traversed,
            r.rx_l1_misses
        );
        let csv = match &r.faults {
            Some(fc) => format!("{base},{}", fc.csv()),
            None => base,
        };
        let mut fields: Vec<(String, String)> = vec![
            ("config".to_string(), json_str(&r.config)),
            ("queue_len".to_string(), r.queue_len.to_string()),
            ("fraction".to_string(), json_f64(r.fraction)),
            ("msg_size".to_string(), r.msg_size.to_string()),
            ("latency_us".to_string(), json_f64(r.latency_us)),
            ("sw_traversed".to_string(), r.sw_traversed.to_string()),
            ("rx_l1_misses".to_string(), r.rx_l1_misses.to_string()),
        ];
        if let Some(fc) = &r.faults {
            fields.extend(
                fc.json_fields()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v)),
            );
        }
        result.rows.push(ResultRow { csv, fields });
    }

    // Headline summary (paper §VI-B shape checks).
    for &v in variants {
        let at = |q: usize| {
            rows.iter()
                .find(|r| {
                    r.config == v.label()
                        && r.queue_len == q
                        && r.fraction == 1.0
                        && r.msg_size == sizes[0]
                })
                .map(|r| r.latency_us)
        };
        if let (Some(l0), Some(lmax)) = (at(0), at(max_queue)) {
            result.notes.push(format!(
                "fig5[{}]: latency {:.2}us @len 0 -> {:.2}us @len {} (full traversal)",
                v.label(),
                l0,
                lmax,
                max_queue
            ));
        }
    }
    Ok(())
}

fn fig6(
    spec: &RunSpec,
    max_queue: usize,
    step: usize,
    sizes: &[u32],
    faults: Option<FaultConfig>,
    result: &mut RunResult,
) -> Result<(), String> {
    if step == 0 {
        return Err("--step must be >= 1".to_string());
    }
    if sizes.is_empty() {
        return Err("--sizes must list at least one payload size".to_string());
    }
    struct Row {
        config: String,
        queue_len: usize,
        msg_size: u32,
        latency_us: f64,
        sw_traversed: u64,
        faults: Option<FaultCounters>,
    }
    let mut points = Vec::new();
    for v in NicVariant::ALL {
        for &size in sizes {
            for q in (0..=max_queue).step_by(step) {
                points.push((
                    v,
                    UnexpectedPoint {
                        queue_len: q,
                        msg_size: size,
                    },
                ));
            }
        }
    }
    let rows: Vec<Row> = run_parallel(points, spec.sweep_threads, |&(v, p)| {
        let mut cfg = v.config();
        if let Some(f) = faults {
            cfg = cfg.with_faults(f);
        }
        let r = unexpected_latency_cfg(cfg, p);
        Row {
            config: v.label().to_string(),
            queue_len: p.queue_len,
            msg_size: p.msg_size,
            latency_us: r.latency.as_us_f64(),
            sw_traversed: r.sw_traversed,
            faults: faults.map(|_| r.faults),
        }
    });

    let mut header = "config,queue_len,msg_size,latency_us,sw_traversed".to_string();
    if faults.is_some() {
        header = format!("{header},{}", FaultCounters::CSV_HEADER);
    }
    result.header = header;
    for r in &rows {
        let base = format!(
            "{},{},{},{:.4},{}",
            r.config, r.queue_len, r.msg_size, r.latency_us, r.sw_traversed
        );
        let csv = match &r.faults {
            Some(fc) => format!("{base},{}", fc.csv()),
            None => base,
        };
        let mut fields: Vec<(String, String)> = vec![
            ("config".to_string(), json_str(&r.config)),
            ("queue_len".to_string(), r.queue_len.to_string()),
            ("msg_size".to_string(), r.msg_size.to_string()),
            ("latency_us".to_string(), json_f64(r.latency_us)),
            ("sw_traversed".to_string(), r.sw_traversed.to_string()),
        ];
        if let Some(fc) = &r.faults {
            fields.extend(
                fc.json_fields()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v)),
            );
        }
        result.rows.push(ResultRow { csv, fields });
    }

    // Crossover summary: first queue length where the ALPU clearly wins.
    for alpu in [NicVariant::Alpu128, NicVariant::Alpu256] {
        let size = sizes[0];
        let crossover = (0..=max_queue).step_by(step).find(|&q| {
            let base = rows
                .iter()
                .find(|r| r.config == "baseline" && r.queue_len == q && r.msg_size == size);
            let a = rows
                .iter()
                .find(|r| r.config == alpu.label() && r.queue_len == q && r.msg_size == size);
            matches!((base, a), (Some(b), Some(a)) if a.latency_us + 0.2 < b.latency_us)
        });
        result.notes.push(format!(
            "fig6[{}]: clear advantage starts at queue length {:?} (paper: ~70)",
            alpu.label(),
            crossover
        ));
    }
    Ok(())
}

fn gap(spec: &RunSpec, burst: usize, result: &mut RunResult) -> Result<(), String> {
    if burst == 0 {
        return Err("BURST must be >= 1".to_string());
    }
    let depths = [0usize, 50, 100, 200, 300, 400];
    let work: Vec<(NicVariant, usize)> = depths
        .iter()
        .flat_map(|&q| NicVariant::ALL.map(|v| (v, q)))
        .collect();
    let results = run_parallel(work.clone(), spec.sweep_threads, |&(v, q)| {
        message_gap(
            v.config(),
            GapPoint {
                queue_len: q,
                burst,
                msg_size: 0,
            },
        )
    });

    result.header = "queue_len,baseline_gap_ns,alpu128_gap_ns,alpu256_gap_ns,\
                     baseline_rate_msgs_per_s,alpu256_rate_msgs_per_s"
        .to_string();
    for &q in &depths {
        let get = |v: NicVariant| {
            work.iter()
                .zip(&results)
                .find(|((wv, wq), _)| *wv == v && *wq == q)
                .map(|(_, r)| r.gap)
                .expect("present")
        };
        let b = get(NicVariant::Baseline);
        let a128 = get(NicVariant::Alpu128);
        let a256 = get(NicVariant::Alpu256);
        let rate = |g: Time| 1e9 / g.as_ns_f64();
        result.rows.push(ResultRow {
            csv: format!(
                "{q},{:.1},{:.1},{:.1},{:.0},{:.0}",
                b.as_ns_f64(),
                a128.as_ns_f64(),
                a256.as_ns_f64(),
                rate(b),
                rate(a256)
            ),
            fields: vec![
                ("queue_len".to_string(), q.to_string()),
                ("baseline_gap_ns".to_string(), json_f64(b.as_ns_f64())),
                ("alpu128_gap_ns".to_string(), json_f64(a128.as_ns_f64())),
                ("alpu256_gap_ns".to_string(), json_f64(a256.as_ns_f64())),
                ("baseline_rate_msgs_per_s".to_string(), json_f64(rate(b))),
                ("alpu256_rate_msgs_per_s".to_string(), json_f64(rate(a256))),
            ],
        });
    }
    result.notes.push(
        "gap: time spent traversing queues raises gap / lowers message rate (§I); \
         the ALPU removes the queue-depth dependence within its capacity"
            .to_string(),
    );
    Ok(())
}

fn breakeven(spec: &RunSpec, max: usize, result: &mut RunResult) {
    let points: Vec<(NicVariant, usize)> = (0..=max)
        .flat_map(|q| {
            [
                (NicVariant::Baseline, q),
                (NicVariant::Alpu128, q),
                (NicVariant::Alpu256, q),
            ]
        })
        .collect();
    let latencies = run_parallel(points.clone(), spec.sweep_threads, |&(v, q)| {
        preposted_latency_cfg(
            v.config(),
            PrepostedPoint {
                queue_len: q,
                fraction: 1.0,
                msg_size: 0,
            },
        )
        .latency
    });

    result.header = "queue_len,baseline_us,alpu128_us,alpu256_us,alpu128_delta_ns".to_string();
    let mut breakeven = None;
    for q in 0..=max {
        let get = |v: NicVariant| {
            points
                .iter()
                .zip(&latencies)
                .find(|((pv, pq), _)| *pv == v && *pq == q)
                .map(|(_, &t)| t)
                .expect("present")
        };
        let b = get(NicVariant::Baseline);
        let a128 = get(NicVariant::Alpu128);
        let a256 = get(NicVariant::Alpu256);
        let delta_ns = a128.as_ns_f64() - b.as_ns_f64();
        result.rows.push(ResultRow {
            csv: format!(
                "{q},{:.4},{:.4},{:.4},{:.1}",
                b.as_us_f64(),
                a128.as_us_f64(),
                a256.as_us_f64(),
                delta_ns
            ),
            fields: vec![
                ("queue_len".to_string(), q.to_string()),
                ("baseline_us".to_string(), json_f64(b.as_us_f64())),
                ("alpu128_us".to_string(), json_f64(a128.as_us_f64())),
                ("alpu256_us".to_string(), json_f64(a256.as_us_f64())),
                ("alpu128_delta_ns".to_string(), json_f64(delta_ns)),
            ],
        });
        if breakeven.is_none() && delta_ns <= 0.0 {
            breakeven = Some(q);
        }
    }
    result.notes.push(format!(
        "breakeven: ALPU-128 pays for itself at queue length {:?} (paper: ~5); \
         zero-length penalty {:.0} ns (paper: ~80)",
        breakeven,
        latencies[1].as_ns_f64() - latencies[0].as_ns_f64()
    ));
}

fn soak(spec: &RunSpec, faults: Option<FaultConfig>, result: &mut RunResult) -> Result<(), String> {
    let BenchSpec::Soak {
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
    } = &spec.bench
    else {
        unreachable!()
    };
    crate::soak::check_senders(*senders)?;
    let scenarios: Vec<Scenario> = scenarios
        .iter()
        .map(|s| Scenario::parse(s).ok_or_else(|| format!("unknown scenario `{s}`")))
        .collect::<Result<_, String>>()?;
    let seed_list: Vec<u64> = match spec.seed {
        Some(s) => vec![s],
        None => (1..=*seeds).collect(),
    };
    result.header = "scenario,seed,senders,msgs,runtime_ns,events,delivered,\
                     unexpected_hw,eager_bytes_hw,admission_refused,credit_stalls,\
                     truncated_admits,retransmits,grants_issued,ranks_crashed,\
                     peers_failed,ops_rank_failed,links_dead,nodes_restarted,\
                     peers_revived,epoch_fences,recovery_ns"
        .to_string();
    for &scenario in &scenarios {
        for &seed in &seed_list {
            let mut cfg = SoakConfig::new(scenario, seed);
            cfg.senders = *senders;
            cfg.msgs = *msgs;
            cfg.msg_size = *size;
            cfg.eager_credits = *credits;
            cfg.max_unexpected = *max_unexpected;
            cfg.eager_buffer_bytes = *eager_buffer;
            cfg.alpu = *alpu;
            cfg.faults = faults;
            cfg.deadline = Time::from_ms(*deadline_ms);
            cfg.mtbf = Time::from_us(*mtbf_us);
            cfg.mttr = Time::from_us(*mttr_us);
            if *node_mttr_us > 0 && scenario == Scenario::Chaos {
                cfg.node_mttr = Some(Time::from_us(*node_mttr_us));
            }
            let out = run_soak(&cfg)
                .map_err(|diag| format!("soak STALLED: {} seed {seed}\n{diag}", scenario.name()))?;
            if *check_determinism {
                let again =
                    run_soak(&cfg).map_err(|d| format!("determinism re-run stalled: {d}"))?;
                if out.stats_json != again.stats_json {
                    return Err(format!(
                        "{} seed {seed}: same-seed runs diverged",
                        scenario.name()
                    ));
                }
            }
            let csv = format!(
                "{},{},{}",
                scenario.name(),
                seed,
                cells(&[
                    cfg.senders as u64,
                    cfg.msgs as u64,
                    out.runtime.ns(),
                    out.events,
                    out.delivered,
                    out.unexpected_highwater,
                    out.eager_bytes_highwater,
                    out.admission_refused,
                    out.credit_stalls,
                    out.truncated_admits,
                    out.retransmits,
                    out.grants_issued,
                    out.ranks_crashed,
                    out.peers_failed,
                    out.ops_rank_failed,
                    out.links_dead,
                    out.nodes_restarted,
                    out.peers_revived,
                    out.epoch_fences,
                    out.recovery_ns,
                ])
            );
            let fields: Vec<(String, String)> = vec![
                ("scenario".to_string(), json_str(scenario.name())),
                ("seed".to_string(), seed.to_string()),
                ("senders".to_string(), cfg.senders.to_string()),
                ("msgs".to_string(), cfg.msgs.to_string()),
                ("runtime_ns".to_string(), out.runtime.ns().to_string()),
                ("events".to_string(), out.events.to_string()),
                ("delivered".to_string(), out.delivered.to_string()),
                (
                    "unexpected_hw".to_string(),
                    out.unexpected_highwater.to_string(),
                ),
                (
                    "eager_bytes_hw".to_string(),
                    out.eager_bytes_highwater.to_string(),
                ),
                (
                    "admission_refused".to_string(),
                    out.admission_refused.to_string(),
                ),
                ("credit_stalls".to_string(), out.credit_stalls.to_string()),
                (
                    "truncated_admits".to_string(),
                    out.truncated_admits.to_string(),
                ),
                ("retransmits".to_string(), out.retransmits.to_string()),
                ("grants_issued".to_string(), out.grants_issued.to_string()),
                ("ranks_crashed".to_string(), out.ranks_crashed.to_string()),
                ("peers_failed".to_string(), out.peers_failed.to_string()),
                (
                    "ops_rank_failed".to_string(),
                    out.ops_rank_failed.to_string(),
                ),
                ("links_dead".to_string(), out.links_dead.to_string()),
                (
                    "nodes_restarted".to_string(),
                    out.nodes_restarted.to_string(),
                ),
                ("peers_revived".to_string(), out.peers_revived.to_string()),
                ("epoch_fences".to_string(), out.epoch_fences.to_string()),
                ("recovery_ns".to_string(), out.recovery_ns.to_string()),
            ];
            result.rows.push(ResultRow { csv, fields });
        }
    }
    result.notes.push(format!(
        "soak: {} run(s) complete; all queues drained, all bounds held{}",
        result.rows.len(),
        if *check_determinism {
            ", determinism checked"
        } else {
            ""
        }
    ));
    Ok(())
}

/// Timed runs of each scaling scenario. A row reports their median wall
/// time, so one slow or fast run on a shared host does not set the row
/// (the event count is the same in every run).
const SCALING_RUNS: usize = 5;

/// The scaling incast's watchdog deadline: the soak's 500 ms up to 64
/// messages per sender, then growing with `msgs²`, as the incast's
/// simulated runtime does (8.2 ms at 64 messages, 213 ms at 256, 926 ms
/// at 512 and 3.8 s at 1024: the receiver's backlog, and with it the
/// go-back-N retransmits per message, grows with `msgs`).
fn scaling_deadline(msgs: u32) -> Time {
    let m = u64::from(msgs.max(64));
    Time::from_ps(Time::from_ms(500).ps().saturating_mul(m * m / (64 * 64)))
}

/// The soak configuration for one scaling scenario name.
fn scaling_cfg(
    scenario: &str,
    senders: u32,
    msgs: u32,
    size: u32,
    seed: u64,
) -> Result<SoakConfig, String> {
    let mut cfg = SoakConfig::new(Scenario::Incast, seed);
    cfg.senders = senders;
    cfg.msgs = msgs;
    cfg.msg_size = size;
    cfg.deadline = scaling_deadline(msgs);
    match scenario {
        "incast" => {}
        "hetero" => {
            cfg.net.wire_latency = Time::from_us(1);
            cfg.net.profile = WireProfile::ShortPair {
                a: 1,
                b: 2,
                short: Time::from_ns(10),
            };
        }
        other => {
            return Err(format!(
                "unknown scenario `{other}` (expected incast or hetero)"
            ))
        }
    }
    Ok(cfg)
}

fn scaling(
    spec: &RunSpec,
    senders: u32,
    msgs: u32,
    size: u32,
    scenarios: &[String],
    result: &mut RunResult,
) -> Result<(), String> {
    if senders + 1 < 16 {
        return Err(format!(
            "scaling needs at least 16 ranks (got {senders} senders)"
        ));
    }
    let seed = spec.seed.unwrap_or(1);
    result.header = "scenario,wall_ms,events,events_per_sec".to_string();
    for scenario in scenarios {
        let cfg = scaling_cfg(scenario, senders, msgs, size, seed)?;
        let mut walls = Vec::with_capacity(SCALING_RUNS);
        let mut events = 0;
        for _ in 0..SCALING_RUNS {
            let start = Instant::now();
            let out = run_soak(&cfg).map_err(|d| format!("scaling run stalled:\n{d}"))?;
            walls.push(start.elapsed().as_secs_f64() * 1e3);
            events = out.events;
        }
        walls.sort_by(f64::total_cmp);
        let wall_ms = walls[SCALING_RUNS / 2];
        let events_per_sec = events as f64 / (wall_ms / 1e3);
        result.rows.push(ResultRow {
            csv: format!("{scenario},{wall_ms:.1},{events},{events_per_sec:.0}"),
            fields: vec![
                ("scenario".to_string(), json_str(scenario)),
                ("wall_ms".to_string(), json_f64(wall_ms)),
                ("events".to_string(), events.to_string()),
                ("events_per_sec".to_string(), json_f64(events_per_sec)),
            ],
        });
    }
    Ok(())
}

fn collectives_parse_op(name: &str) -> Result<(&'static str, mpiq_nic::CollOp, u32), String> {
    use mpiq_nic::CollOp;
    Ok(match name {
        "barrier" => ("barrier", CollOp::Barrier, 0),
        "bcast" => ("bcast", CollOp::Bcast, 1),
        "allreduce" => ("allreduce", CollOp::Allreduce, 0),
        other => {
            return Err(format!(
                "unknown op `{other}` (expected barrier, bcast, or allreduce)"
            ))
        }
    })
}

/// The fat tree used at each scale: 8-port edge switches up to 64
/// ranks, 16-port beyond, always half the radix up.
fn fat_tree(ranks: u32) -> Topology {
    let down = if ranks <= 64 { 8 } else { 16 };
    Topology::FatTree { down, up: down / 2 }
}

/// One collectives cell: every rank runs `iters` back-to-back
/// collectives between a pair of marks.
#[allow(clippy::too_many_arguments)]
fn collectives_cell(
    ranks: u32,
    op: mpiq_nic::CollOp,
    root: u32,
    len: u32,
    iters: u32,
    topo: Topology,
    offload: bool,
    seed: u64,
) -> Result<(f64, u64, u64, f64), String> {
    use mpiq_mpi::script::{mark_log, MarkLog};
    use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
    use mpiq_nic::NicConfig;
    let mut marks: Vec<MarkLog> = Vec::new();
    let programs: Vec<Box<dyn AppProgram>> = (0..ranks)
        .map(|_| {
            let mark = mark_log();
            let mut b = Script::builder();
            b.mark(0);
            for _ in 0..iters {
                b.coll(op, root, len, None);
            }
            b.mark(1);
            marks.push(mark.clone());
            Box::new(b.build(mark)) as Box<dyn AppProgram>
        })
        .collect();
    let mut nic = NicConfig::baseline();
    nic.coll_offload = offload;
    let cfg = ClusterConfig::builder(nic)
        .seed(seed)
        .topology(topo)
        .build();
    let start = Instant::now();
    let mut c = Cluster::new(cfg, programs);
    let events = c
        .run_watched(Time::from_ms(2000))
        .map_err(|d| format!("collectives cell stalled:\n{d}"))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let t0 = marks
        .iter()
        .filter_map(|m| m.borrow().iter().find(|(id, _)| *id == 0).map(|&(_, t)| t))
        .min()
        .expect("every rank recorded its start mark");
    let t1 = marks
        .iter()
        .filter_map(|m| m.borrow().iter().find(|(id, _)| *id == 1).map(|&(_, t)| t))
        .max()
        .expect("every rank recorded its end mark");
    let sim_ns_per_op = (t1 - t0).as_ns_f64() / iters as f64;
    let host_completions: u64 = (0..ranks).map(|r| c.host(r).completions() as u64).sum();
    Ok((sim_ns_per_op, host_completions, events, wall_ms))
}

#[allow(clippy::too_many_arguments)]
fn collectives(
    spec: &RunSpec,
    ranks_list: &[u32],
    ops: &[String],
    topos: &[String],
    modes: &[String],
    len: u32,
    iters: u32,
    result: &mut RunResult,
) -> Result<(), String> {
    if iters < 1 {
        return Err("--iters must be >= 1".to_string());
    }
    if ranks_list.contains(&0) {
        return Err("--ranks entries must be >= 1".to_string());
    }
    let seed = spec.seed.unwrap_or(1);
    struct Row {
        ranks: u32,
        op: &'static str,
        topo: &'static str,
        mode: &'static str,
        sim_ns_per_op: f64,
        host_completions: u64,
        events: u64,
        wall_ms: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    result.header = "ranks,op,topo,mode,sim_ns_per_op,host_completions,events,wall_ms".to_string();
    for &ranks in ranks_list {
        for op_name in ops {
            let (op_label, op, root) = collectives_parse_op(op_name)?;
            for topo_name in topos {
                let topo_label: &'static str = match topo_name.as_str() {
                    "hub" => "hub",
                    "fattree" => "fattree",
                    other => {
                        return Err(format!("unknown topo `{other}` (expected hub or fattree)"))
                    }
                };
                let topo = match topo_label {
                    "hub" => Topology::Hub,
                    _ => fat_tree(ranks),
                };
                for mode in modes {
                    let (mode_label, offload): (&'static str, bool) = match mode.as_str() {
                        "offload" => ("offload", true),
                        "host" => ("host", false),
                        other => {
                            return Err(format!(
                                "unknown mode `{other}` (expected offload or host)"
                            ))
                        }
                    };
                    let (sim_ns_per_op, host_completions, events, wall_ms) =
                        collectives_cell(ranks, op, root, len, iters, topo, offload, seed)?;
                    rows.push(Row {
                        ranks,
                        op: op_label,
                        topo: topo_label,
                        mode: mode_label,
                        sim_ns_per_op,
                        host_completions,
                        events,
                        wall_ms,
                    });
                }
            }
        }
    }
    for r in &rows {
        result.rows.push(ResultRow {
            csv: format!(
                "{},{},{},{},{:.0},{},{},{:.1}",
                r.ranks,
                r.op,
                r.topo,
                r.mode,
                r.sim_ns_per_op,
                r.host_completions,
                r.events,
                r.wall_ms
            ),
            fields: vec![
                ("ranks".to_string(), r.ranks.to_string()),
                ("op".to_string(), json_str(r.op)),
                ("topo".to_string(), json_str(r.topo)),
                ("mode".to_string(), json_str(r.mode)),
                ("sim_ns_per_op".to_string(), json_f64(r.sim_ns_per_op)),
                (
                    "host_completions".to_string(),
                    r.host_completions.to_string(),
                ),
                ("events".to_string(), r.events.to_string()),
                ("wall_ms".to_string(), json_f64(r.wall_ms)),
            ],
        });
    }

    // The acceptance claim, enforced on every pair that ran both modes:
    // on the same fabric, offload must deliver fewer host completions
    // and no more simulated time than the host-driven tree.
    for off in rows.iter().filter(|r| r.mode == "offload") {
        let Some(host) = rows.iter().find(|r| {
            r.mode == "host" && r.ranks == off.ranks && r.op == off.op && r.topo == off.topo
        }) else {
            continue;
        };
        result.notes.push(format!(
            "collectives: {} ranks {} {}: offload {:.0} ns/op / {} completions vs \
             host {:.0} ns/op / {} completions ({:.2}x latency, {:.1}x completions)",
            off.ranks,
            off.op,
            off.topo,
            off.sim_ns_per_op,
            off.host_completions,
            host.sim_ns_per_op,
            host.host_completions,
            host.sim_ns_per_op / off.sim_ns_per_op,
            host.host_completions as f64 / off.host_completions as f64,
        ));
        if off.host_completions >= host.host_completions {
            result.failures.push(format!(
                "{} ranks {} {}: offload host_completions {} >= host {}",
                off.ranks, off.op, off.topo, off.host_completions, host.host_completions
            ));
        }
        if off.sim_ns_per_op > host.sim_ns_per_op {
            result.failures.push(format!(
                "{} ranks {} {}: offload sim_ns_per_op {:.0} > host {:.0}",
                off.ranks, off.op, off.topo, off.sim_ns_per_op, host.sim_ns_per_op
            ));
        }
    }
    Ok(())
}

fn appstudy(spec: &RunSpec, result: &mut RunResult) {
    use crate::appsim::{run_app, AppPattern};
    use std::fmt::Write as _;
    let patterns = [
        AppPattern::Stencil2D {
            side: 4,
            iters: 16,
            prepost_depth: 16,
        },
        AppPattern::Wavefront { side: 4, sweeps: 8 },
        AppPattern::MasterWorker {
            workers: 12,
            rounds: 16,
            compute_ns: 4_000,
        },
        AppPattern::Transpose {
            ranks: 8,
            rounds: 6,
        },
    ];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:>14} {:>9} | {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "pattern",
        "config",
        "max_posted",
        "avg_posted",
        "max_unexp",
        "avg_unexp",
        "traversed",
        "runtime_us"
    );
    let work: Vec<(usize, NicVariant)> = (0..patterns.len())
        .flat_map(|p| NicVariant::ALL.map(|v| (p, v)))
        .collect();
    let results = run_parallel(work.clone(), spec.sweep_threads, |&(p, v)| {
        run_app(v.config(), patterns[p])
    });
    for (i, &(p, v)) in work.iter().enumerate() {
        let s = &results[i];
        let _ = writeln!(
            text,
            "{:>14} {:>9} | {:>10} {:>10.1} {:>12} {:>12.1} {:>12} {:>12.1}",
            patterns[p].name(),
            v.label(),
            s.max_posted,
            s.avg_posted,
            s.max_unexpected,
            s.avg_unexpected,
            s.traversed,
            s.runtime.as_us_f64()
        );
    }
    result.text = text;
    result.notes.push(
        "\nappstudy: queue depths reach tens-to-hundreds of entries exactly as \
         the motivating studies [8,9] report; the ALPU configurations absorb \
         the traversal work."
            .to_string(),
    );
}

fn ablation_block(result: &mut RunResult) {
    use mpiq_alpu::PipelineTiming;
    use mpiq_fpga::{estimate, Variant};
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:>6} {:>6} | {:>7} {:>7} {:>7} | {:>7} {:>5} | {:>12} {:>12}",
        "cells", "block", "LUTs", "FFs", "slices", "MHz", "lat", "FPGA ns/match", "ASIC ns/match"
    );
    let _ = writeln!(text, "{}", "-".repeat(92));
    let cells_list = [64usize, 128, 256, 512];
    let blocks = [4usize, 8, 16, 32, 64];
    for cells in cells_list {
        for block in blocks {
            if block > cells {
                continue;
            }
            let e = estimate(Variant::PostedReceive, cells, block);
            let t = PipelineTiming::for_geometry(cells, block);
            let fpga_ns = t.match_latency as f64 * 1000.0 / e.mhz;
            let asic_ns = t.match_latency as f64 * 1000.0 / e.asic_mhz();
            let _ = writeln!(
                text,
                "{:>6} {:>6} | {:>7} {:>7} {:>7} | {:>7.1} {:>5} | {:>12.1} {:>12.1}",
                cells, block, e.luts, e.ffs, e.slices, e.mhz, t.match_latency, fpga_ns, asic_ns
            );
        }
        let _ = writeln!(text);
    }
    result.text = text;
    result.notes.push(
        "ablation_block: block 16 balances the trade — 6-cycle pipelines at the \
         full ~112 MHz FPGA clock for mid-size arrays, without block-32's \
         slow intra-block tree or block-8's register overhead."
            .to_string(),
    );
}

fn ablation_hash(spec: &RunSpec, result: &mut RunResult) {
    use mpiq_nic::NicConfig;
    use std::fmt::Write as _;
    let configs: Vec<(&str, NicConfig)> = vec![
        ("list", NicConfig::baseline()),
        ("hash16", NicConfig::with_hash(16)),
        ("hash64", NicConfig::with_hash(64)),
        ("hash256", NicConfig::with_hash(256)),
        ("alpu256", NicConfig::with_alpus(256)),
    ];
    let depths = [0usize, 25, 50, 100, 200, 300, 400];
    let sweep = |point: &(dyn Fn(usize) -> PostLoopPoint + Sync)| -> String {
        let mut text = String::new();
        let _ = write!(text, "{:>8}", "depth");
        for (label, _) in &configs {
            let _ = write!(text, "{label:>10}");
        }
        let _ = writeln!(text);
        let work: Vec<(usize, usize)> = depths
            .iter()
            .enumerate()
            .flat_map(|(qi, _)| (0..configs.len()).map(move |ci| (qi, ci)))
            .collect();
        let results = run_parallel(work.clone(), spec.sweep_threads, |&(qi, ci)| {
            postloop_rtt(configs[ci].1, point(depths[qi])).as_us_f64()
        });
        for (qi, &q) in depths.iter().enumerate() {
            let _ = write!(text, "{q:>8}");
            for ci in 0..configs.len() {
                let idx = work.iter().position(|&w| w == (qi, ci)).expect("present");
                let _ = write!(text, "{:>10.3}", results[idx]);
            }
            let _ = writeln!(text);
        }
        text
    };
    let mut text = String::new();
    text.push_str("# exact-depth sweep (wildcards = 0), per-iteration RTT in us\n");
    text.push_str(&sweep(&|q| PostLoopPoint {
        exact_prepost: q,
        wildcard_prepost: 0,
        msg_size: 0,
    }));
    text.push_str("\n# wildcard-depth sweep (exact = 0), per-iteration RTT in us\n");
    text.push_str(&sweep(&|q| PostLoopPoint {
        exact_prepost: 0,
        wildcard_prepost: q,
        msg_size: 0,
    }));
    result.text = text;
    result.notes.push(
        "\nablation_hash: hashing wins on deep exact queues, loses the \
         zero-depth row to its insertion cost, and degenerates under \
         wildcard pollution; the ALPU dominates all three regimes."
            .to_string(),
    );
}

fn ablation_prefetch(spec: &RunSpec, result: &mut RunResult) {
    use mpiq_nic::NicConfig;
    use std::fmt::Write as _;
    let configs: Vec<(&str, NicConfig)> = vec![
        ("baseline", NicConfig::baseline()),
        ("prefetch", NicConfig::with_prefetch()),
        ("alpu256", NicConfig::with_alpus(256)),
    ];
    let queues = [0usize, 100, 200, 300, 400, 450, 500];
    let mut text = String::new();
    let _ = write!(text, "{:>8}", "queue");
    for (label, _) in &configs {
        let _ = write!(text, "{label:>12}");
    }
    let _ = writeln!(text, "   (one-way latency, us; fraction = 1.0, 0 B)");
    let work: Vec<(usize, usize)> = queues
        .iter()
        .enumerate()
        .flat_map(|(qi, _)| (0..configs.len()).map(move |ci| (qi, ci)))
        .collect();
    let results = run_parallel(work.clone(), spec.sweep_threads, |&(qi, ci)| {
        preposted_latency_cfg(
            configs[ci].1,
            PrepostedPoint {
                queue_len: queues[qi],
                fraction: 1.0,
                msg_size: 0,
            },
        )
        .latency
        .as_us_f64()
    });
    for (qi, &q) in queues.iter().enumerate() {
        let _ = write!(text, "{q:>8}");
        for ci in 0..configs.len() {
            let idx = work.iter().position(|&w| w == (qi, ci)).expect("present");
            let _ = write!(text, "{:>12.3}", results[idx]);
        }
        let _ = writeln!(text);
    }
    result.text = text;

    // Marginal cost in the out-of-cache band.
    let get = |label: &str, q: usize| {
        let ci = configs
            .iter()
            .position(|(l, _)| *l == label)
            .expect("label");
        let qi = queues.iter().position(|&x| x == q).expect("queue");
        results[work.iter().position(|&w| w == (qi, ci)).expect("present")]
    };
    for label in ["baseline", "prefetch"] {
        let slope = (get(label, 500) - get(label, 450)) / 50.0 * 1000.0;
        result.notes.push(format!(
            "ablation_prefetch: {label} out-of-cache marginal cost {slope:.0} ns/entry"
        ));
    }
    result.notes.push(
        "ablation_prefetch: prefetching shaves cold-start costs but loses at \
         the cache cliff (bank contention + pollution) and never touches the \
         issue-bound walk; only the ALPU flattens the curve."
            .to_string(),
    );
}

fn ablation_threshold(spec: &RunSpec, result: &mut RunResult) {
    use mpiq_nic::{AlpuSetup, NicConfig};
    use std::fmt::Write as _;
    fn with_threshold(cells: usize, threshold: usize) -> NicConfig {
        let mut cfg = NicConfig::with_alpus(cells);
        let setup = AlpuSetup {
            engage_threshold: threshold,
            ..cfg.posted_alpu.expect("alpus configured")
        };
        cfg.posted_alpu = Some(setup);
        cfg.unexpected_alpu = Some(setup);
        cfg
    }
    let thresholds = [0usize, 5, 10];
    let queues: Vec<usize> = (0..=16).chain([32, 64, 128].iter().copied()).collect();
    let mut configs: Vec<(String, NicConfig)> =
        vec![("baseline".to_string(), NicConfig::baseline())];
    for &t in &thresholds {
        configs.push((format!("alpu128(thr={t})"), with_threshold(128, t)));
    }
    let mut text = String::new();
    let _ = write!(text, "{:>8}", "queue");
    for (label, _) in &configs {
        let _ = write!(text, "{label:>16}");
    }
    let _ = writeln!(text);
    let work: Vec<(usize, usize)> = queues
        .iter()
        .enumerate()
        .flat_map(|(qi, _)| (0..configs.len()).map(move |ci| (qi, ci)))
        .collect();
    let results = run_parallel(work.clone(), spec.sweep_threads, |&(qi, ci)| {
        preposted_latency_cfg(
            configs[ci].1,
            PrepostedPoint {
                queue_len: queues[qi],
                fraction: 1.0,
                msg_size: 0,
            },
        )
        .latency
        .as_us_f64()
    });
    for (qi, &q) in queues.iter().enumerate() {
        let _ = write!(text, "{q:>8}");
        for ci in 0..configs.len() {
            let idx = work.iter().position(|&w| w == (qi, ci)).expect("present");
            let _ = write!(text, "{:>16.3}", results[idx]);
        }
        let _ = writeln!(text);
    }
    result.text = text;

    // Summary: penalty at queue 0 per threshold.
    let base0 = results[work.iter().position(|&w| w == (0, 0)).unwrap()];
    for (ci, (label, _)) in configs.iter().enumerate().skip(1) {
        let v0 = results[work.iter().position(|&w| w == (0, ci)).unwrap()];
        result.notes.push(format!(
            "ablation_threshold: {label} zero-length penalty {:.0} ns",
            (v0 - base0) * 1000.0
        ));
    }
}

fn ablation_wildcard(spec: &RunSpec, result: &mut RunResult) {
    use std::fmt::Write as _;
    let iters = 48u32;
    let sender_counts = [2u32, 4, 8, 12];
    let work: Vec<(NicVariant, RecvStrategy, u32)> = sender_counts
        .iter()
        .flat_map(|&s| {
            [NicVariant::Baseline, NicVariant::Alpu128]
                .into_iter()
                .flat_map(move |v| {
                    [RecvStrategy::AnySource, RecvStrategy::PostAllCancel]
                        .into_iter()
                        .map(move |st| (v, st, s))
                })
        })
        .collect();
    let results: Vec<WildcardStudy> =
        run_parallel(work.clone(), spec.sweep_threads, |&(v, st, s)| {
            wildcard_workaround(v.config(), st, s, iters)
        });
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:>8} {:>9} {:>15} | {:>10} {:>11} {:>9} {:>7}",
        "senders", "config", "strategy", "total_us", "traversed", "ghosts", "purges"
    );
    for (i, &(v, st, s)) in work.iter().enumerate() {
        let r = &results[i];
        let _ = writeln!(
            text,
            "{:>8} {:>9} {:>15} | {:>10.1} {:>11} {:>9} {:>7}",
            s,
            v.label(),
            match st {
                RecvStrategy::AnySource => "any_source",
                RecvStrategy::PostAllCancel => "post_all+cancel",
            },
            r.total.as_us_f64(),
            r.software_traversed,
            r.ghosted_cancels,
            r.purges
        );
    }
    result.text = text;
    result.notes.push(
        "\nablation_wildcard: the workaround multiplies receiver-side work by \
         the source count and — on ALPU hardware with no DELETE command — \
         fills the unit with tombstones, forcing RESET+rebuild purges. \
         MPI_ANY_SOURCE costs none of that (§II)."
            .to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Cli;
    use crate::spec::flags;

    /// The executor's fig5 rows must match the library sweep
    /// byte-for-byte — the executor is the bin now, and CI compares
    /// bin stdout against pre-refactor goldens.
    #[test]
    fn fig5_rows_match_direct_harness_calls() {
        let spec = RunSpec {
            bench: BenchSpec::Fig5 {
                configs: vec![NicVariant::Baseline, NicVariant::Alpu128],
                max_queue: 50,
                step: 25,
                fractions: vec![1.0],
                sizes: vec![0],
            },
            seed: None,
            faults: None,
            sweep_threads: 1,
        };
        let result = execute(&spec).unwrap();
        assert_eq!(
            result.header,
            "config,queue_len,fraction,msg_size,latency_us,sw_traversed,rx_l1_misses"
        );
        assert_eq!(result.rows.len(), 6);
        let direct = preposted_latency_cfg(
            NicVariant::Baseline.config(),
            PrepostedPoint {
                queue_len: 0,
                fraction: 1.0,
                msg_size: 0,
            },
        );
        assert_eq!(
            result.rows[0].csv,
            format!(
                "baseline,0,1,0,{:.4},{},{}",
                direct.latency.as_us_f64(),
                direct.sw_traversed,
                direct.rx_l1_misses
            )
        );
        // Typed access matches the formatted cell.
        assert_eq!(result.rows[0].text("config").as_deref(), Some("baseline"));
        assert_eq!(
            result.rows[0].num("latency_us"),
            Some(direct.latency.as_us_f64())
        );
    }

    /// Specs the simulator cannot run — empty sweep lists, a zero
    /// burst, a zero-rank cluster, a soak with fewer than two senders —
    /// are typed errors naming the parameter, not panics on a sweep
    /// worker or deep in cluster setup.
    #[test]
    fn degenerate_specs_are_errors_not_panics() {
        let fig5 = |fractions: Vec<f64>, sizes: Vec<u32>| RunSpec {
            bench: BenchSpec::Fig5 {
                configs: vec![NicVariant::Baseline],
                max_queue: 25,
                step: 25,
                fractions,
                sizes,
            },
            seed: None,
            faults: None,
            sweep_threads: 1,
        };
        let err = execute(&fig5(vec![1.0], vec![])).unwrap_err();
        assert!(err.contains("sizes"), "{err}");
        let err = execute(&fig5(vec![], vec![0])).unwrap_err();
        assert!(err.contains("fractions"), "{err}");
        let fig6 = RunSpec {
            bench: BenchSpec::Fig6 {
                max_queue: 20,
                step: 20,
                sizes: vec![],
            },
            seed: None,
            faults: None,
            sweep_threads: 1,
        };
        let err = execute(&fig6).unwrap_err();
        assert!(err.contains("sizes"), "{err}");

        let from_args = |bench: &'static str, args: &[&str]| {
            let args = args.iter().map(|a| a.to_string());
            let cli = Cli::try_parse_from(bench, "test", flags(bench), args).unwrap();
            RunSpec::from_cli(bench, &cli).unwrap()
        };
        for (bench, args, names) in [
            ("gap", &["0"][..], "BURST"),
            ("collectives", &["--ranks", "0"][..], "--ranks"),
            ("soak", &["--senders", "0"][..], "--senders"),
            ("soak", &["--senders", "1"][..], "--senders"),
        ] {
            let err = execute(&from_args(bench, args)).unwrap_err();
            assert!(err.contains(names), "{bench} {args:?}: {err}");
        }
    }

    /// The scaling deadline is the soak's at the default 64 messages, so
    /// the tracked event counts cannot move, and grows with `msgs²` past
    /// it: 1024 messages, whose incast runs 3.8 s simulated, get 128 s.
    #[test]
    fn scaling_deadline_grows_with_msgs() {
        let soak = SoakConfig::new(Scenario::Incast, 1).deadline;
        let cfg = |msgs| scaling_cfg("hetero", 16, msgs, 512, 1).unwrap();
        assert_eq!(cfg(8).deadline, soak);
        assert_eq!(cfg(64).deadline, soak);
        assert_eq!(cfg(256).deadline, soak * 16);
        assert_eq!(cfg(1024).deadline, soak * 256);
        assert!(scaling_deadline(u32::MAX) > scaling_deadline(1024));
    }

    /// A malformed fault spec is a typed error, not a panic.
    #[test]
    fn bad_fault_spec_is_an_error() {
        let spec = RunSpec {
            bench: BenchSpec::Gap { burst: 4 },
            seed: None,
            faults: Some("not-a-fault-spec".to_string()),
            sweep_threads: 1,
        };
        let err = execute(&spec).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }
}
