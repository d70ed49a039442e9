//! The executor for [`Simulation`]: carries shards through conservative
//! lookahead windows.
//!
//! `run_windows` plans a window bound per shard from the per-edge
//! safe-time table (see [`crate::window`]), executes every shard's
//! in-window events, swaps cross-shard trays at a barrier, and repeats.
//! A one-shard simulation has no cross-shard edges, so its first window
//! spans the whole horizon. With one worker every shard runs on the
//! calling thread; with more, shards are striped across a scoped worker
//! pool (`scoped_pool`). Because the window schedule, per-shard event
//! order, and barrier exchange order are all independent of which OS
//! thread carries a shard, any worker count produces bit-identical
//! results.
//!
//! Shards live inside `Mutex` cells during a run. The locks are never
//! contended (each shard is touched by exactly one worker inside a
//! window, and only the driver touches them between windows); they exist
//! to give safe `&mut` access from the worker that owns the stripe. The
//! per-shard window bounds are broadcast through a table of relaxed
//! atomics written only by the driver between barriers.
//!
//! Caveat: a panic inside a component handler on a worker thread leaves
//! other workers parked at the window barrier; lookahead violations are
//! therefore asserted on the driver thread (at the barrier tray swap) so
//! they surface as ordinary panics at any worker count.

use crate::scheduler::Simulation;
use crate::shard::{exchange_trays, Shard};
use crate::time::Time;
use crate::window::SafeTimeTable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Execute every event of `sim` with `time <= horizon`. Shards are
/// striped over `threads` workers, the driver included; the count is
/// clamped to the shard count (extra threads would own empty stripes),
/// and `threads <= 1` runs every shard inline on the calling thread
/// without spawning any.
pub(crate) fn run_windows(sim: &mut Simulation, horizon: Time, threads: usize) {
    let nshards = sim.shards.len();
    let mut planner = SafeTimeTable::new(nshards, sim.topo.edges());
    let stride = threads.min(nshards).max(1);
    let extra = stride - 1;
    let cells: Vec<Mutex<Shard>> = sim.shards.drain(..).map(Mutex::new).collect();
    let topo = &sim.topo;
    // Per-shard window bounds for the round in flight. Written by the
    // driver strictly before the start barrier, read by workers strictly
    // after it; the barrier orders the accesses, so Relaxed suffices.
    let ends: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();

    // One stripe of shards per worker: worker `w` owns shards
    // `w, w+stride, w+2*stride, ...`. The assignment is fixed for the
    // whole run, so a shard's events always execute on the same worker.
    let run_stripe = |w: usize| {
        for j in (w..cells.len()).step_by(stride) {
            let end = Time(ends[j].load(Ordering::Relaxed));
            cells[j]
                .lock()
                .expect("a worker panicked while running this shard")
                .run_window(topo, end);
        }
    };

    scoped_pool::run(
        extra,
        |w, _round| run_stripe(w),
        |pool| {
            let mut round = 0u64;
            let mut nexts = vec![0u64; nshards];
            loop {
                // Between windows only the driver is awake; these locks
                // are uncontended bookkeeping.
                for (slot, g) in nexts.iter_mut().zip(lock_all(&cells).iter()) {
                    *slot = g.next_time().map_or(u64::MAX, |t| t.0);
                }
                let min_next = nexts.iter().copied().min().unwrap_or(u64::MAX);
                // Done when nothing at or below the horizon remains. The
                // window bound is exclusive and capped below the pool's
                // shutdown sentinel (u64::MAX), so no window can run an
                // event at u64::MAX - 1 or above (over 500 years of
                // simulated time): such events are unreachable, and the
                // run ends instead of planning a window without progress.
                if min_next >= u64::MAX - 1 || min_next > horizon.0 {
                    break;
                }
                let cap = horizon.0.saturating_add(1).min(u64::MAX - 1);
                for (slot, &bound) in ends.iter().zip(planner.bounds(&nexts)) {
                    slot.store(bound.min(cap), Ordering::Relaxed);
                }
                // All workers (and the driver, via the closure) execute
                // their stripes for [shard.floor, ends[shard]), then
                // meet back at the pool's completion barrier. The plan
                // value is only a round tag (kept off the shutdown
                // sentinel); the real bounds travel through `ends`.
                pool.step(round, || run_stripe(0));
                round = (round + 1) % (u64::MAX - 1);
                let mut guards = lock_all(&cells);
                let mut refs: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
                exchange_trays(&mut refs);
            }
        },
    );

    sim.shards = cells
        .into_iter()
        .map(|m| m.into_inner().expect("worker panic already propagated"))
        .collect();
}

fn lock_all(cells: &[Mutex<Shard>]) -> Vec<MutexGuard<'_, Shard>> {
    cells
        .iter()
        .map(|c| c.lock().expect("a worker panicked while running this shard"))
        .collect()
}
