//! End-to-end delivery oracle under deterministic fault injection.
//!
//! Every test here runs the same mixed workload — eager, rendezvous and
//! wildcard traffic over four ranks — through a lossy fabric and/or
//! faulty ALPUs, and checks the properties the reliability layer and the
//! ALPU quarantine machinery are supposed to guarantee:
//!
//! * **exactly-once, MPI-ordered delivery**: every rank's script runs to
//!   completion ([`Cluster::run`] panics on deadlock or a missing
//!   completion), every queue drains, and the shadow-list invariants
//!   hold on every NIC;
//! * **determinism**: the same fault seed reproduces a bit-identical
//!   statistics dump and final simulated time;
//! * **zero cost when disabled**: an inactive [`FaultConfig`] leaves the
//!   simulation byte-identical to one that never heard of faults;
//! * **graceful degradation**: forced ALPU corruption mid-run produces
//!   quarantine → software fallback → re-engagement, visibly counted,
//!   with the run still completing correctly.

use mpiq::dessim::{FaultConfig, FaultSchedule, Time};
use mpiq::mpi::script::mark_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::nic::firmware::check_invariants;
use mpiq::nic::NicConfig;

fn boxed(s: Script) -> Box<dyn AppProgram> {
    Box::new(s)
}

const RANKS: u32 = 4;
/// Eager messages per peer per phase.
const EAGER_PER_PEER: usize = 6;

/// A four-rank workload mixing the protocol paths: eager messages
/// (≤ 2048 B), one rendezvous transfer per peer (8192 B), wildcard
/// receives (`MPI_ANY_SOURCE`), and a second phase after a settle gap so
/// quarantined ALPUs get traffic after their cooldown expires.
fn mixed_workload() -> Vec<Box<dyn AppProgram>> {
    let mut programs = Vec::new();
    for me in 0..RANKS {
        let mut b = Script::builder();
        for phase in 0..2u16 {
            let mut pending = Vec::new();
            // Post receives first: specific-source eager recvs, one
            // rendezvous recv per peer, and a batch of wildcard recvs.
            for src in (0..RANKS).filter(|&s| s != me) {
                for i in 0..EAGER_PER_PEER as u16 {
                    let tag = 1000 * (phase + 1) + 10 * src as u16 + i;
                    pending.push(b.irecv(Some(src as u16), Some(tag), 512));
                }
                pending.push(b.irecv(Some(src as u16), Some(99 + phase), 8192));
            }
            for _ in 0..RANKS - 1 {
                // Wildcard: any source, fixed tag — exercises the paths
                // an ALPU cannot shortcut and a hash-bin scheme walks a
                // side list for.
                pending.push(b.irecv(None, Some(7 + phase), 256));
            }
            // Now the sends mirroring those receives.
            for dst in (0..RANKS).filter(|&d| d != me) {
                for i in 0..EAGER_PER_PEER as u16 {
                    let tag = 1000 * (phase + 1) + 10 * me as u16 + i;
                    pending.push(b.isend(dst, tag, 512));
                }
                pending.push(b.isend(dst, 99 + phase, 8192));
            }
            // One wildcard-feeder send per peer (each rank receives
            // RANKS-1 wildcards and sends one to each other rank).
            for dst in (0..RANKS).filter(|&d| d != me) {
                pending.push(b.isend(dst, 7 + phase, 256));
            }
            b.wait_all(pending);
            b.barrier();
            // Settle: lets retransmit timers fire, ALPU insert sessions
            // drain, and quarantine cooldowns expire before phase 2.
            b.sleep(Time::from_us(50));
        }
        b.mark(me);
        programs.push(boxed(b.build(mark_log())));
    }
    programs
}

/// Build, run, and oracle-check one cluster; returns it for inspection.
fn run_checked(nic: NicConfig, faults: Option<FaultConfig>) -> Cluster {
    let mut builder = ClusterConfig::builder(nic);
    if let Some(f) = faults {
        builder = builder.faults(f);
    }
    let mut c = Cluster::new(builder.build(), mixed_workload());
    c.run(); // panics on deadlock / missing completion
    for rank in 0..RANKS {
        let fw = c.nic(rank).firmware();
        check_invariants(fw);
        assert_eq!(
            fw.posted_len(),
            0,
            "rank {rank}: posted receives left unmatched"
        );
        assert_eq!(
            fw.unexpected_len(),
            0,
            "rank {rank}: unexpected messages never consumed \
             (duplicate delivery or lost completion)"
        );
    }
    c
}

/// The fault schedule the acceptance criteria name: 1% drop plus
/// duplication and corruption, and a whiff of ALPU trouble.
fn lossy(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop_p: 0.01,
        dup_p: 0.005,
        corrupt_p: 0.005,
        flip_p: 0.001,
        stall_p: 0.001,
        ..FaultConfig::none()
    }
}

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 0xDEADBEEF];

#[test]
fn delivery_oracle_baseline_under_faults() {
    let mut injected = 0;
    for seed in SEEDS {
        let c = run_checked(NicConfig::baseline(), Some(lossy(seed)));
        injected += c.stats().sum_prefix("net.faults.");
    }
    // The schedule must actually bite across the seed set, or this
    // oracle is vacuously green.
    assert!(injected > 0, "fault plan injected nothing across 8 seeds");
}

#[test]
fn delivery_oracle_alpu128_under_faults() {
    let mut injected = 0;
    for seed in SEEDS {
        let c = run_checked(NicConfig::with_alpus(128), Some(lossy(seed)));
        injected += c.stats().sum_prefix("net.faults.");
    }
    assert!(injected > 0, "fault plan injected nothing across 8 seeds");
}

#[test]
fn delivery_oracle_alpu256_under_faults() {
    let mut injected = 0;
    for seed in SEEDS {
        let c = run_checked(NicConfig::with_alpus(256), Some(lossy(seed)));
        injected += c.stats().sum_prefix("net.faults.");
    }
    assert!(injected > 0, "fault plan injected nothing across 8 seeds");
}

/// Same seed twice ⇒ byte-identical statistics JSON and final time.
#[test]
fn same_seed_is_bit_identical() {
    for nic in [NicConfig::baseline(), NicConfig::with_alpus(128)] {
        let a = run_checked(nic, Some(lossy(42)));
        let b = run_checked(nic, Some(lossy(42)));
        assert_eq!(a.now(), b.now(), "final simulated time diverged");
        assert_eq!(
            a.stats().to_json(),
            b.stats().to_json(),
            "statistics diverged between identical-seed runs"
        );
    }
}

/// Different seeds must produce *different* fault schedules (otherwise
/// the seed isn't feeding the plan at all). Compare injected-fault
/// totals across the seed set: at least two must differ.
#[test]
fn different_seeds_give_different_schedules() {
    let totals: Vec<u64> = SEEDS
        .iter()
        .map(|&s| {
            run_checked(NicConfig::baseline(), Some(lossy(s)))
                .stats()
                .sum_prefix("net.faults.")
        })
        .collect();
    assert!(
        totals.iter().any(|&t| t != totals[0]),
        "all 8 seeds produced identical fault totals: {totals:?}"
    );
}

/// `FaultConfig::none()` must be indistinguishable from never touching
/// the fault API: no link layer, no RNG draws, identical stats dump.
#[test]
fn inactive_faults_are_zero_cost() {
    for nic in [NicConfig::baseline(), NicConfig::with_alpus(128)] {
        let plain = run_checked(nic, None);
        let armed = run_checked(nic, Some(FaultConfig::none()));
        assert_eq!(plain.now(), armed.now());
        assert_eq!(
            plain.stats().to_json(),
            armed.stats().to_json(),
            "an inactive fault config perturbed the simulation"
        );
        // And no reliability-layer traffic exists to account for.
        assert_eq!(armed.stats().sum_prefix("nic0.link."), 0);
    }
}

/// Component-level fault schedule (flap storm + node crash + ALPU
/// death): the statistics dump and final time must be byte-identical on
/// a second run. All fault decisions are pure functions of
/// `(schedule, time)` evaluated locally per component, so no fault
/// information ever travels as an event — that is the property this
/// pins.
#[test]
fn scheduled_faults_repeat_byte_for_byte() {
    // Pinned-source-only workload (no wildcards, no barriers): every
    // operation doomed by the crash fails typed, so survivors always
    // finish and the run quiesces.
    fn chaos_workload() -> Vec<Box<dyn AppProgram>> {
        let mut programs = Vec::new();
        for me in 0..RANKS {
            let mut b = Script::builder();
            for phase in 0..3u16 {
                let mut pending = Vec::new();
                for peer in (0..RANKS).filter(|&p| p != me) {
                    for i in 0..4u16 {
                        let tag = 1000 * (phase + 1) + 10 * peer as u16 + i;
                        pending.push(b.irecv(Some(peer as u16), Some(tag), 512));
                        let tag = 1000 * (phase + 1) + 10 * me as u16 + i;
                        pending.push(b.isend(peer, tag, 512));
                    }
                    pending.push(b.irecv(Some(peer as u16), Some(99 + phase), 8192));
                    pending.push(b.isend(peer, 99 + phase, 8192));
                }
                b.wait_all(pending);
                b.sleep(Time::from_us(120));
            }
            b.mark(me);
            programs.push(boxed(b.build(mark_log())));
        }
        programs
    }
    fn chaos_schedule() -> FaultSchedule {
        let mut sched = FaultSchedule::generate(
            9,
            RANKS,
            Time::from_us(150),
            Time::from_us(50),
            Time::from_ms(2),
        );
        for ev in "crash@300us:node=3;alpu@80us:nic=1"
            .parse::<FaultSchedule>()
            .expect("spec grammar")
            .events()
        {
            sched.push(ev.0, ev.1.clone());
        }
        sched
    }
    let run = || {
        let cfg = ClusterConfig::builder(NicConfig::with_alpus(128))
            .fault_schedule(chaos_schedule())
            .build();
        let mut c = Cluster::new(cfg, chaos_workload());
        c.run_watched(Time::from_ms(100))
            .unwrap_or_else(|d| panic!("stalled: {d}"));
        (c.now(), c.stats().to_json())
    };
    let (t1, json1) = run();
    assert!(
        json1.contains("fault."),
        "the chaos schedule never produced a component fault"
    );
    let (t, json) = run();
    assert_eq!(t1, t, "final time diverged between runs");
    assert_eq!(json1, json, "statistics diverged between runs");
}

/// Forced ALPU corruption mid-benchmark: quarantine, software fallback,
/// and re-engagement all happen, are all counted, and the run still
/// completes with exactly-once delivery.
#[test]
fn forced_corruption_degrades_gracefully() {
    let faults = FaultConfig {
        seed: 7,
        flip_p: 0.10,
        stall_p: 0.10,
        ..FaultConfig::none()
    };
    let c = run_checked(NicConfig::with_alpus(128), Some(faults));
    let (mut resets, mut fallbacks, mut reengaged) = (0, 0, 0);
    for rank in 0..RANKS {
        let fw = c.nic(rank).firmware().stats();
        resets += fw.alpu_resets;
        fallbacks += fw.alpu_fallbacks;
        reengaged += fw.alpu_reengagements;
    }
    assert!(
        resets > 0,
        "no ALPU was ever quarantined at 10% fault rates"
    );
    assert!(fallbacks > 0, "quarantine never forced a software match");
    assert!(
        reengaged > 0,
        "no quarantined ALPU re-engaged after cooldown"
    );
}
