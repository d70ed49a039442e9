//! The one executor behind every bench bin: consume a [`RunSpec`],
//! produce a [`RunResult`].
//!
//! Each arm of [`execute`] runs one bench's sweep and returns its rows
//! as typed cells: each column is named, valued and given its CSV
//! precision once, where the row is built. The bins keep only
//! presentation: plots, traces and tracked-baseline gates.
//!
//! Conditions the old bins handled with `panic!`/`exit(1)` (a stalled
//! soak, a broken determinism compare, bad enum values, parameters the
//! simulator cannot run) surface as `Err`, so a bad spec is a typed
//! error, never a panic.

use crate::gap::{message_gap, GapPoint};
use crate::spec::Value::{Int, Real, Text};
use crate::spec::{BenchSpec, ResultRow, RunResult, RunSpec, SoakCurve};
use crate::wildcard::{wildcard_workaround, RecvStrategy};
use crate::{
    postloop_rtt, preposted_latency_cfg, run_parallel, run_soak, unexpected_latency_cfg,
    NicVariant, PostLoopPoint, PrepostedPoint, Scenario, SoakConfig, SoakOutcome, UnexpectedPoint,
};
use mpiq_dessim::watchdog::Diagnosis;
use mpiq_dessim::Time;
use mpiq_net::{Topology, WireProfile};
use mpiq_nic::NicConfig;
use std::fmt::Debug;
use std::time::Instant;

/// Run the spec in-process.
pub fn execute(spec: &RunSpec) -> Result<RunResult, String> {
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
            &mut result,
        )?,
        BenchSpec::Fig6 {
            max_queue,
            step,
            sizes,
        } => fig6(spec, *max_queue, *step, sizes, &mut result)?,
        BenchSpec::Gap { burst } => gap(spec, *burst, &mut result)?,
        BenchSpec::Breakeven { max_queue } => breakeven(spec, *max_queue, &mut result)?,
        BenchSpec::Soak { .. } => soak(spec, &mut result)?,
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
        } => collectives(ranks, ops, topos, modes, *len, *iters, &mut result)?,
        BenchSpec::Appstudy => appstudy(spec, &mut result)?,
        BenchSpec::AblationBlock => ablation_block(&mut result),
        BenchSpec::AblationHash => ablation_hash(spec, &mut result)?,
        BenchSpec::AblationPrefetch => ablation_prefetch(spec, &mut result)?,
        BenchSpec::AblationThreshold => ablation_threshold(spec, &mut result)?,
        BenchSpec::AblationWildcard => ablation_wildcard(spec, &mut result)?,
    }
    Ok(result)
}

/// A point whose run stalled, as one line: the point, then the
/// headline of the watchdog's diagnosis.
fn stalled(point: impl Debug) -> impl FnOnce(Box<Diagnosis>) -> String {
    move |d| format!("{point:?} stalled: {}", d.headline())
}

fn fig5(
    spec: &RunSpec,
    variants: &[NicVariant],
    max_queue: usize,
    step: usize,
    fractions: &[f64],
    sizes: &[u32],
    result: &mut RunResult,
) -> Result<(), String> {
    let faults = spec.faults;
    if step == 0 {
        return Err("--step must be >= 1".to_string());
    }
    if sizes.is_empty() {
        return Err("--sizes must list at least one payload size".to_string());
    }
    if fractions.is_empty() {
        return Err("--fractions must list at least one traversal fraction".to_string());
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
    result.rows = run_parallel(points, spec.sweep_threads, |&(v, p)| {
        let mut cfg = v.config();
        if let Some(f) = faults {
            cfg = cfg.with_faults(f);
        }
        let r = preposted_latency_cfg(cfg, p).map_err(stalled((v, p)))?;
        let mut row = ResultRow(vec![
            ("config", Text(v.label().to_string())),
            ("queue_len", Int(p.queue_len as u64)),
            ("fraction", Real(p.fraction, None)),
            ("msg_size", Int(p.msg_size.into())),
            ("latency_us", Real(r.latency.as_us_f64(), Some(4))),
            ("sw_traversed", Int(r.sw_traversed)),
            ("rx_l1_misses", Int(r.rx_l1_misses)),
        ]);
        if faults.is_some() {
            row.0.extend(r.faults.cells());
        }
        Ok(row)
    })
    .into_iter()
    .collect::<Result<_, String>>()?;

    // Headline summary (paper §VI-B shape checks).
    for &v in variants {
        let at = |q: usize| {
            let row = result.rows.iter().find(|r| {
                r.text("config") == Some(v.label())
                    && r.num("queue_len") == Some(q as f64)
                    && r.num("fraction") == Some(1.0)
                    && r.num("msg_size") == Some(sizes[0].into())
            });
            row?.num("latency_us")
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
    result: &mut RunResult,
) -> Result<(), String> {
    let faults = spec.faults;
    if step == 0 {
        return Err("--step must be >= 1".to_string());
    }
    if sizes.is_empty() {
        return Err("--sizes must list at least one payload size".to_string());
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
    result.rows = run_parallel(points, spec.sweep_threads, |&(v, p)| {
        let mut cfg = v.config();
        if let Some(f) = faults {
            cfg = cfg.with_faults(f);
        }
        let r = unexpected_latency_cfg(cfg, p).map_err(stalled((v, p)))?;
        let mut row = ResultRow(vec![
            ("config", Text(v.label().to_string())),
            ("queue_len", Int(p.queue_len as u64)),
            ("msg_size", Int(p.msg_size.into())),
            ("latency_us", Real(r.latency.as_us_f64(), Some(4))),
            ("sw_traversed", Int(r.sw_traversed)),
        ]);
        if faults.is_some() {
            row.0.extend(r.faults.cells());
        }
        Ok(row)
    })
    .into_iter()
    .collect::<Result<_, String>>()?;

    // Crossover summary: first queue length where the ALPU clearly wins.
    for alpu in [NicVariant::Alpu128, NicVariant::Alpu256] {
        let size = sizes[0];
        let latency = |config: &str, q: usize| {
            let row = result.rows.iter().find(|r| {
                r.text("config") == Some(config)
                    && r.num("queue_len") == Some(q as f64)
                    && r.num("msg_size") == Some(size.into())
            });
            row?.num("latency_us")
        };
        let crossover = (0..=max_queue).step_by(step).find(|&q| {
            let pair = latency("baseline", q).zip(latency(alpu.label(), q));
            pair.is_some_and(|(b, a)| a + 0.2 < b)
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
    let depths = vec![0usize, 50, 100, 200, 300, 400];
    result.rows = run_parallel(depths, spec.sweep_threads, |&q| {
        let [b, a128, a256] = NicVariant::ALL.map(|v| {
            let point = GapPoint {
                queue_len: q,
                burst,
                msg_size: 0,
            };
            message_gap(v.config(), point).map_err(stalled((v, point)))
        });
        let [b, a128, a256] = [b?.gap, a128?.gap, a256?.gap];
        let rate = |g: Time| 1e9 / g.as_ns_f64();
        Ok(ResultRow(vec![
            ("queue_len", Int(q as u64)),
            ("baseline_gap_ns", Real(b.as_ns_f64(), Some(1))),
            ("alpu128_gap_ns", Real(a128.as_ns_f64(), Some(1))),
            ("alpu256_gap_ns", Real(a256.as_ns_f64(), Some(1))),
            ("baseline_rate_msgs_per_s", Real(rate(b), Some(0))),
            ("alpu256_rate_msgs_per_s", Real(rate(a256), Some(0))),
        ]))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    result.notes.push(
        "gap: time spent traversing queues raises gap / lowers message rate (§I); \
         the ALPU removes the queue-depth dependence within its capacity"
            .to_string(),
    );
    Ok(())
}

fn breakeven(spec: &RunSpec, max: usize, result: &mut RunResult) -> Result<(), String> {
    result.rows = run_parallel((0..=max).collect(), spec.sweep_threads, |&q| {
        let [b, a128, a256] = NicVariant::ALL.map(|v| {
            let point = PrepostedPoint {
                queue_len: q,
                fraction: 1.0,
                msg_size: 0,
            };
            preposted_latency_cfg(v.config(), point).map_err(stalled((v, point)))
        });
        let [b, a128, a256] = [b?.latency, a128?.latency, a256?.latency];
        Ok(ResultRow(vec![
            ("queue_len", Int(q as u64)),
            ("baseline_us", Real(b.as_us_f64(), Some(4))),
            ("alpu128_us", Real(a128.as_us_f64(), Some(4))),
            ("alpu256_us", Real(a256.as_us_f64(), Some(4))),
            (
                "alpu128_delta_ns",
                Real(a128.as_ns_f64() - b.as_ns_f64(), Some(1)),
            ),
        ]))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    let delta = |row: &ResultRow| row.num("alpu128_delta_ns").expect("swept point");
    // Row `q` is queue length `q`.
    let breakeven = result.rows.iter().position(|row| delta(row) <= 0.0);
    result.notes.push(format!(
        "breakeven: ALPU-128 pays for itself at queue length {:?} (paper: ~5); \
         zero-length penalty {:.0} ns (paper: ~80)",
        breakeven,
        delta(&result.rows[0])
    ));
    Ok(())
}

fn soak(spec: &RunSpec, result: &mut RunResult) -> Result<(), String> {
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
        curve,
    } = &spec.bench
    else {
        unreachable!()
    };
    crate::soak::check_senders(*senders)?;
    // Every mode shapes its runs from the same flags; a curve then sets
    // the knob it sweeps.
    let config = |scenario, seed| {
        let mut cfg = SoakConfig::new(scenario, seed);
        cfg.senders = *senders;
        cfg.msgs = *msgs;
        cfg.msg_size = *size;
        cfg.eager_credits = *credits;
        cfg.max_unexpected = *max_unexpected;
        cfg.eager_buffer_bytes = *eager_buffer;
        cfg.alpu = *alpu;
        cfg.faults = spec.faults;
        cfg.deadline = Time::from_ms(*deadline_ms);
        cfg.mtbf = Time::from_us(*mtbf_us);
        cfg.mttr = Time::from_us(*mttr_us);
        if *node_mttr_us > 0 && scenario == Scenario::Chaos {
            cfg.node_mttr = Some(Time::from_us(*node_mttr_us));
        }
        cfg
    };
    let run = |cfg: &SoakConfig| {
        let what = format!("{} seed {}", cfg.scenario.name(), cfg.seed);
        let out = run_soak(cfg).map_err(|diag| format!("STALLED: {what}\n{diag}"))?;
        if *check_determinism {
            let again = run_soak(cfg).map_err(|d| format!("determinism re-run stalled: {d}"))?;
            if out.stats_json != again.stats_json {
                return Err(format!("{what}: same-seed runs diverged"));
            }
        }
        Ok(out)
    };
    if let Some(curve) = curve {
        result.rows = soak_curve(*curve, config, run)?;
        return Ok(());
    }
    let scenarios: Vec<Scenario> = scenarios
        .iter()
        .map(|s| Scenario::parse(s).ok_or_else(|| format!("unknown scenario `{s}`")))
        .collect::<Result<_, String>>()?;
    let seed_list: Vec<u64> = match spec.seed {
        Some(s) => vec![s],
        None => (1..=*seeds).collect(),
    };
    for &scenario in &scenarios {
        for &seed in &seed_list {
            let cfg = config(scenario, seed);
            let out = run(&cfg)?;
            result.rows.push(ResultRow(vec![
                ("scenario", Text(scenario.name().to_string())),
                ("seed", Int(seed)),
                ("senders", Int(cfg.senders.into())),
                ("msgs", Int(cfg.msgs.into())),
                ("runtime_ns", Int(out.runtime.ns())),
                ("events", Int(out.events)),
                ("delivered", Int(out.delivered)),
                ("unexpected_hw", Int(out.unexpected_highwater)),
                ("eager_bytes_hw", Int(out.eager_bytes_highwater)),
                ("admission_refused", Int(out.admission_refused)),
                ("credit_stalls", Int(out.credit_stalls)),
                ("truncated_admits", Int(out.truncated_admits)),
                ("retransmits", Int(out.retransmits)),
                ("grants_issued", Int(out.grants_issued)),
                ("ranks_crashed", Int(out.ranks_crashed)),
                ("peers_failed", Int(out.peers_failed)),
                ("ops_rank_failed", Int(out.ops_rank_failed)),
                ("links_dead", Int(out.links_dead)),
                ("nodes_restarted", Int(out.nodes_restarted)),
                ("peers_revived", Int(out.peers_revived)),
                ("epoch_fences", Int(out.epoch_fences)),
                ("recovery_ns", Int(out.recovery_ns)),
            ]));
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

/// A soak curve: one row per value of the swept knob. The chaos and
/// recovery points each average four seeded storms, because one storm
/// realisation is noise: a single flap landing on or off a round's
/// critical path swings the runtime.
fn soak_curve(
    curve: SoakCurve,
    config: impl Fn(Scenario, u64) -> SoakConfig,
    run: impl Fn(&SoakConfig) -> Result<SoakOutcome, String>,
) -> Result<Vec<ResultRow>, String> {
    const SEEDS: [u64; 4] = [1, 2, 3, 5];
    let mut rows = Vec::new();
    match curve {
        // Backpressure absorbs the load: runtime grows with the fan-in
        // while the unexpected high-water stays pinned at the bound.
        SoakCurve::Incast => {
            for senders in [2u32, 4, 8, 16, 32, 64] {
                let cfg = SoakConfig {
                    senders,
                    ..config(Scenario::Incast, 1)
                };
                let out = run(&cfg).map_err(|e| format!("{senders} senders: {e}"))?;
                rows.push(ResultRow(vec![
                    ("senders", Int(senders.into())),
                    ("runtime_us", Real(out.runtime.as_ns_f64() / 1e3, Some(1))),
                    ("admission_refused", Int(out.admission_refused)),
                    ("unexpected_hw", Int(out.unexpected_highwater)),
                    ("retransmits", Int(out.retransmits)),
                ]));
            }
        }
        // Stormier fabrics (smaller MTBF) cost retransmits and, once
        // outages outlast the retry budget, typed failures. Availability
        // is the fraction of planned operations that completed without a
        // `RankFailed`; goodput is successful operations per simulated
        // millisecond.
        SoakCurve::Chaos => {
            for mtbf_us in [25u64, 50, 100, 200, 400, 800] {
                let (mut availability, mut goodput) = (0.0, 0.0);
                let (mut failed, mut dead, mut retransmits) = (0, 0, 0);
                for seed in SEEDS {
                    let base = config(Scenario::Chaos, seed);
                    let cfg = SoakConfig {
                        // Dense rounds (small inter-round gaps), so outage
                        // windows overlap live traffic; 8 sparse rounds
                        // mostly miss the storm.
                        msgs: base.msgs.max(48),
                        mtbf: Time::from_us(mtbf_us),
                        ..base
                    };
                    let out = run(&cfg).map_err(|e| format!("mtbf {mtbf_us} us: {e}"))?;
                    let planned = cfg.planned_ops();
                    availability += out.availability(planned);
                    let ok_ops = planned.saturating_sub(out.ops_rank_failed) as f64;
                    goodput += ok_ops / (out.runtime.as_ns_f64() / 1e6);
                    failed += out.ops_rank_failed;
                    dead += out.links_dead;
                    retransmits += out.retransmits;
                }
                let n = SEEDS.len() as f64;
                rows.push(ResultRow(vec![
                    ("mtbf_us", Int(mtbf_us)),
                    ("availability", Real(availability / n, Some(4))),
                    ("goodput_ops_per_ms", Real(goodput / n, Some(2))),
                    ("ops_rank_failed", Int(failed)),
                    ("links_dead", Int(dead)),
                    ("retransmits", Int(retransmits)),
                ]));
            }
        }
        // With restarts armed, how long the crashed node stays down sets
        // both the operations that fail typed while it is gone and the
        // crash-to-recovered span, reported as the p50 and max across
        // the seeds.
        SoakCurve::Recovery => {
            for mttr_us in [400u64, 600, 800, 1200, 1600, 2400] {
                let mut availability = 0.0;
                let (mut failed, mut fences) = (0, 0);
                let mut spans_us = Vec::new();
                for seed in SEEDS {
                    let cfg = SoakConfig {
                        node_mttr: Some(Time::from_us(mttr_us)),
                        ..config(Scenario::Chaos, seed)
                    };
                    let out = run(&cfg).map_err(|e| format!("node mttr {mttr_us} us: {e}"))?;
                    availability += out.availability(cfg.planned_ops());
                    spans_us.push(out.recovery_ns as f64 / 1e3);
                    failed += out.ops_rank_failed;
                    fences += out.epoch_fences;
                }
                spans_us.sort_by(f64::total_cmp);
                rows.push(ResultRow(vec![
                    ("node_mttr_us", Int(mttr_us)),
                    (
                        "availability",
                        Real(availability / SEEDS.len() as f64, Some(4)),
                    ),
                    ("recovery_us_p50", Real(spans_us[SEEDS.len() / 2], Some(1))),
                    ("recovery_us_max", Real(spans_us[SEEDS.len() - 1], Some(1))),
                    ("ops_rank_failed", Int(failed)),
                    ("epoch_fences", Int(fences)),
                ]));
            }
        }
    }
    Ok(rows)
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
        "alpu" => cfg.alpu = true,
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
                "unknown scenario `{other}` (expected incast, alpu or hetero)"
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
        result.rows.push(ResultRow(vec![
            ("scenario", Text(scenario.clone())),
            ("wall_ms", Real(wall_ms, Some(1))),
            ("events", Int(events)),
            ("events_per_sec", Real(events_per_sec, Some(0))),
        ]));
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
fn collectives_cell(
    ranks: u32,
    op: mpiq_nic::CollOp,
    root: u32,
    len: u32,
    iters: u32,
    topo: Topology,
    offload: bool,
) -> Result<(f64, u64, u64, f64), String> {
    use mpiq_mpi::script::{mark_log, MarkLog};
    use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
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
    let cfg = ClusterConfig::builder(nic).topology(topo).build();
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

fn collectives(
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
                        collectives_cell(ranks, op, root, len, iters, topo, offload)?;
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
        result.rows.push(ResultRow(vec![
            ("ranks", Int(r.ranks.into())),
            ("op", Text(r.op.to_string())),
            ("topo", Text(r.topo.to_string())),
            ("mode", Text(r.mode.to_string())),
            ("sim_ns_per_op", Real(r.sim_ns_per_op, Some(0))),
            ("host_completions", Int(r.host_completions)),
            ("events", Int(r.events)),
            ("wall_ms", Real(r.wall_ms, Some(1))),
        ]));
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

fn appstudy(spec: &RunSpec, result: &mut RunResult) -> Result<(), String> {
    use crate::appsim::{run_app, AppPattern};
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
    let work: Vec<(AppPattern, NicVariant)> = patterns
        .iter()
        .flat_map(|&p| NicVariant::ALL.map(|v| (p, v)))
        .collect();
    result.rows = run_parallel(work, spec.sweep_threads, |&(p, v)| {
        let s = run_app(v.config(), p).map_err(stalled((p, v)))?;
        Ok(ResultRow(vec![
            ("pattern", Text(p.name().to_string())),
            ("config", Text(v.label().to_string())),
            ("max_posted", Int(s.max_posted)),
            ("avg_posted", Real(s.avg_posted, Some(1))),
            ("max_unexp", Int(s.max_unexpected)),
            ("avg_unexp", Real(s.avg_unexpected, Some(1))),
            ("traversed", Int(s.traversed)),
            ("runtime_us", Real(s.runtime.as_us_f64(), Some(1))),
        ]))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    result.notes.push(
        "\nappstudy: queue depths reach tens-to-hundreds of entries exactly as \
         the motivating studies [8,9] report; the ALPU configurations absorb \
         the traversal work."
            .to_string(),
    );
    Ok(())
}

fn ablation_block(result: &mut RunResult) {
    use mpiq_alpu::PipelineTiming;
    use mpiq_fpga::{estimate, Variant};
    for cells in [64usize, 128, 256, 512] {
        for block in [4usize, 8, 16, 32, 64].into_iter().filter(|&b| b <= cells) {
            let e = estimate(Variant::PostedReceive, cells, block);
            let lat = PipelineTiming::for_geometry(cells, block).match_latency;
            result.rows.push(ResultRow(vec![
                ("cells", Int(cells as u64)),
                ("block", Int(block as u64)),
                ("luts", Int(e.luts)),
                ("ffs", Int(e.ffs)),
                ("slices", Int(e.slices)),
                ("mhz", Real(e.mhz, Some(1))),
                ("match_cycles", Int(lat)),
                (
                    "fpga_ns_per_match",
                    Real(lat as f64 * 1000.0 / e.mhz, Some(1)),
                ),
                (
                    "asic_ns_per_match",
                    Real(lat as f64 * 1000.0 / e.asic_mhz(), Some(1)),
                ),
            ]));
        }
    }
    result.notes.push(
        "ablation_block: block 16 balances the trade — 6-cycle pipelines at the \
         full ~112 MHz FPGA clock for mid-size arrays, without block-32's \
         slow intra-block tree or block-8's register overhead."
            .to_string(),
    );
}

/// Rows `(queue, config, latency_us)` of a fully traversed, zero-byte
/// pre-posted sweep of every `queues` depth on every `configs` NIC.
fn latency_sweep(
    spec: &RunSpec,
    queues: &[usize],
    configs: &[(String, NicConfig)],
) -> Result<Vec<ResultRow>, String> {
    let work: Vec<(usize, &(String, NicConfig))> = queues
        .iter()
        .flat_map(|&q| configs.iter().map(move |c| (q, c)))
        .collect();
    run_parallel(work, spec.sweep_threads, |&(queue_len, (label, nic))| {
        let point = PrepostedPoint {
            queue_len,
            fraction: 1.0,
            msg_size: 0,
        };
        let r = preposted_latency_cfg(*nic, point).map_err(stalled((label, point)))?;
        Ok(ResultRow(vec![
            ("queue", Int(queue_len as u64)),
            ("config", Text(label.clone())),
            ("latency_us", Real(r.latency.as_us_f64(), Some(3))),
        ]))
    })
    .into_iter()
    .collect()
}

/// The latency of `config` at `queue` in [`latency_sweep`] rows.
fn latency_at(rows: &[ResultRow], config: &str, queue: usize) -> f64 {
    let row = rows
        .iter()
        .find(|r| r.text("config") == Some(config) && r.num("queue") == Some(queue as f64));
    row.and_then(|r| r.num("latency_us")).expect("swept point")
}

fn ablation_hash(spec: &RunSpec, result: &mut RunResult) -> Result<(), String> {
    let configs = [
        ("list", NicConfig::baseline()),
        ("hash16", NicConfig::with_hash(16)),
        ("hash64", NicConfig::with_hash(64)),
        ("hash256", NicConfig::with_hash(256)),
        ("alpu256", NicConfig::with_alpus(256)),
    ];
    // Per-iteration RTT with `depth` exact receives pre-posted, then with
    // `depth` wildcard receives pre-posted.
    let work: Vec<(&str, usize, &(&str, NicConfig))> = ["exact", "wildcard"]
        .into_iter()
        .flat_map(|sweep| [0usize, 25, 50, 100, 200, 300, 400].map(|q| (sweep, q)))
        .flat_map(|(sweep, q)| configs.iter().map(move |c| (sweep, q, c)))
        .collect();
    result.rows = run_parallel(work, spec.sweep_threads, |&(sweep, q, &(label, nic))| {
        let (exact, wildcard) = if sweep == "exact" { (q, 0) } else { (0, q) };
        let point = PostLoopPoint {
            exact_prepost: exact,
            wildcard_prepost: wildcard,
            msg_size: 0,
        };
        let rtt = postloop_rtt(nic, point).map_err(stalled((label, point)))?;
        Ok(ResultRow(vec![
            ("sweep", Text(sweep.to_string())),
            ("depth", Int(q as u64)),
            ("config", Text(label.to_string())),
            ("rtt_us", Real(rtt.as_us_f64(), Some(3))),
        ]))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    result.notes.push(
        "\nablation_hash: hashing wins on deep exact queues, loses the \
         zero-depth row to its insertion cost, and degenerates under \
         wildcard pollution; the ALPU dominates all three regimes."
            .to_string(),
    );
    Ok(())
}

fn ablation_prefetch(spec: &RunSpec, result: &mut RunResult) -> Result<(), String> {
    let configs = [
        ("baseline".to_string(), NicConfig::baseline()),
        ("prefetch".to_string(), NicConfig::with_prefetch()),
        ("alpu256".to_string(), NicConfig::with_alpus(256)),
    ];
    result.rows = latency_sweep(spec, &[0, 100, 200, 300, 400, 450, 500], &configs)?;
    // Marginal cost in the out-of-cache band.
    for label in ["baseline", "prefetch"] {
        let at = |q| latency_at(&result.rows, label, q);
        let slope = (at(500) - at(450)) / 50.0 * 1000.0;
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
    Ok(())
}

fn ablation_threshold(spec: &RunSpec, result: &mut RunResult) -> Result<(), String> {
    let mut configs = vec![("baseline".to_string(), NicConfig::baseline())];
    for threshold in [0usize, 5, 10] {
        let mut cfg = NicConfig::with_alpus(128);
        for alpu in [&mut cfg.posted_alpu, &mut cfg.unexpected_alpu] {
            alpu.as_mut().expect("alpus configured").engage_threshold = threshold;
        }
        configs.push((format!("alpu128(thr={threshold})"), cfg));
    }
    let queues: Vec<usize> = (0..=16).chain([32, 64, 128]).collect();
    result.rows = latency_sweep(spec, &queues, &configs)?;
    // Summary: penalty at queue 0 per threshold.
    let base0 = latency_at(&result.rows, "baseline", 0);
    for (label, _) in &configs[1..] {
        let penalty = (latency_at(&result.rows, label, 0) - base0) * 1000.0;
        result.notes.push(format!(
            "ablation_threshold: {label} zero-length penalty {penalty:.0} ns"
        ));
    }
    Ok(())
}

fn ablation_wildcard(spec: &RunSpec, result: &mut RunResult) -> Result<(), String> {
    let work: Vec<(u32, NicVariant, RecvStrategy)> = [2u32, 4, 8, 12]
        .into_iter()
        .flat_map(|s| [NicVariant::Baseline, NicVariant::Alpu128].map(|v| (s, v)))
        .flat_map(|(s, v)| {
            [RecvStrategy::AnySource, RecvStrategy::PostAllCancel].map(|st| (s, v, st))
        })
        .collect();
    result.rows = run_parallel(work, spec.sweep_threads, |&(senders, v, strategy)| {
        let r = wildcard_workaround(v.config(), strategy, senders, 48)
            .map_err(stalled((senders, v, strategy)))?;
        let strategy = match strategy {
            RecvStrategy::AnySource => "any_source",
            RecvStrategy::PostAllCancel => "post_all+cancel",
        };
        Ok(ResultRow(vec![
            ("senders", Int(senders.into())),
            ("config", Text(v.label().to_string())),
            ("strategy", Text(strategy.to_string())),
            ("total_us", Real(r.total.as_us_f64(), Some(1))),
            ("traversed", Int(r.software_traversed)),
            ("ghosts", Int(r.ghosted_cancels)),
            ("purges", Int(r.purges)),
        ]))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    result.notes.push(
        "\nablation_wildcard: the workaround multiplies receiver-side work by \
         the source count and — on ALPU hardware with no DELETE command — \
         fills the unit with tombstones, forcing RESET+rebuild purges. \
         MPI_ANY_SOURCE costs none of that (§II)."
            .to_string(),
    );
    Ok(())
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
        let csv = result.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
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
        )
        .unwrap();
        assert_eq!(
            lines[1],
            format!(
                "baseline,0,1,0,{:.4},{},{}",
                direct.latency.as_us_f64(),
                direct.sw_traversed,
                direct.rx_l1_misses
            )
        );
        // Typed access matches the formatted cell.
        assert_eq!(result.rows[0].text("config"), Some("baseline"));
        assert_eq!(
            result.rows[0].num("latency_us"),
            Some(direct.latency.as_us_f64())
        );
    }

    /// Specs the simulator cannot run — empty sweep lists, a zero
    /// burst, a zero-rank cluster, a soak with fewer than two senders —
    /// are typed errors naming the parameter, not panics on a sweep
    /// worker or deep in cluster setup. A stalled curve point is an
    /// error too.
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
            ("soak", &["--curve", "--deadline-ms", "0"][..], "STALLED"),
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

    /// The `alpu` scenario is the incast with ALPUs; the others have none.
    #[test]
    fn only_the_alpu_scaling_scenario_attaches_alpus() {
        let alpu = |scenario| scaling_cfg(scenario, 16, 64, 512, 1).unwrap().alpu;
        assert!(alpu("alpu"));
        assert!(!alpu("incast") && !alpu("hetero"));
        assert!(scaling_cfg("fattree", 16, 64, 512, 1).is_err());
    }
}
