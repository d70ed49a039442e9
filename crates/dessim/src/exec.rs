//! The executor for [`Simulation`]: carries shards through conservative
//! lookahead windows on the calling thread.
//!
//! `run_windows` plans a window bound per shard from the per-edge
//! safe-time table (see [`crate::window`]), executes every shard's
//! in-window events in shard index order, swaps cross-shard trays, and
//! repeats. A one-shard simulation has no cross-shard edges, so its first
//! window spans the whole horizon.

use crate::scheduler::Simulation;
use crate::shard::exchange_trays;
use crate::time::Time;
use crate::window::SafeTimeTable;

/// Execute every event of `sim` with `time <= horizon`.
pub(crate) fn run_windows(sim: &mut Simulation, horizon: Time) {
    let mut planner = SafeTimeTable::new(sim.shards.len(), sim.topo.edges());
    let mut nexts = vec![u64::MAX; sim.shards.len()];
    loop {
        for (slot, shard) in nexts.iter_mut().zip(&sim.shards) {
            *slot = shard.next_time().map_or(u64::MAX, |t| t.0);
        }
        let min_next = nexts.iter().copied().min().unwrap_or(u64::MAX);
        // Done when nothing at or below the horizon remains. The window
        // bound is exclusive and capped below u64::MAX - 1, so no window
        // can run an event at u64::MAX - 1 or above (over 500 years of
        // simulated time): such events are unreachable, and the run ends
        // instead of planning a window without progress.
        if min_next >= u64::MAX - 1 || min_next > horizon.0 {
            break;
        }
        let cap = horizon.0.saturating_add(1).min(u64::MAX - 1);
        for (shard, &bound) in sim.shards.iter_mut().zip(planner.bounds(&nexts)) {
            shard.run_window(&sim.topo, Time(bound.min(cap)));
        }
        exchange_trays(&mut sim.shards);
    }
}
