//! Window planning for the executor: the per-edge safe-time table
//! behind adaptive lookahead.
//!
//! A global window — every shard advancing in lock-step to
//! `global_min_event + min_cross_link_latency` — lets one short link
//! anywhere in the topology throttle the whole cluster to that link's
//! cadence. `SafeTimeTable` instead computes a per-shard bound at
//! every barrier from the *incident* edges only, in the spirit of
//! null-message (Chandy–Misra–Bryant) conservative PDES but without the
//! message traffic: the executor already sees every shard's earliest
//! pending event at the barrier, so the table is just one relaxation
//! pass over the shard graph. A shard with no incoming edges (a
//! one-shard simulation, or a disconnected island) has an unbounded
//! window; the executor caps it at the run's horizon.
//!
//! # The bound
//!
//! Let `next(q)` be shard `q`'s earliest pending event (heap or
//! undrained mailbox; `u64::MAX` when idle) and `lat(q, d)` the minimum
//! registered link latency from shard `q` to shard `d`. Define the
//! *safe time* of `q` as the earliest instant any causal influence can
//! originate at `q`:
//!
//! ```text
//! safe(q) = min( next(q),  min over incoming edges p->q of safe(p) + lat(p, q) )
//! ```
//!
//! and shard `d`'s window bound as the earliest instant a *new* event
//! can arrive at `d` from outside:
//!
//! ```text
//! bound(d) = min over incoming edges q->d of safe(q) + lat(q, d)
//! ```
//!
//! Every shard may freely execute events strictly below its own
//! `bound` — any event a peer `q` executes this round sits at
//! `u >= safe(q)`, so anything it emits toward `d` arrives at
//! `u + lat(q, d) >= bound(d)`. Shards joined only by long links stop
//! synchronizing at the shortest link's cadence; a 10 ns edge between
//! two shards costs only that pair, not the cluster.
//!
//! Because all edge latencies are positive (enforced at `connect`), the
//! recurrence is exactly a shortest-path problem with sources at every
//! shard's `next(q)`: one Dijkstra pass settles `safe` and `bound` for
//! all shards in `O(E log V)` with `V` = shards. The scratch buffers are
//! owned by the table and reused across rounds, so steady-state planning
//! allocates nothing.
//!
//! # Progress and monotonicity
//!
//! The globally earliest shard `m` has `bound(m) >= next(m) + min
//! incident latency > next(m)`, so at least one event executes every
//! round — no livelock. And because every event remaining after a round
//! is at or past its shard's previous bound, bounds never move backward:
//! each shard's window floor is monotone, which is what lets the barrier
//! keep asserting `arrival >= floor` per destination shard.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The demand-driven safe-time table: adjacency of the shard graph plus
/// reusable Dijkstra scratch state. Built once per run, consulted once
/// per barrier.
pub(crate) struct SafeTimeTable {
    nshards: usize,
    /// `out[q]` = `(d, lat_ps)` for every cross-shard pair `q -> d`,
    /// with `lat_ps` the minimum registered latency for the pair.
    out: Vec<Vec<(u32, u64)>>,
    // Scratch, reused every round.
    safe: Vec<u64>,
    bound: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SafeTimeTable {
    /// Build from the per-pair minimum cross-shard latencies collected
    /// by `connect` (keys are `(src_shard, dst_shard)`).
    pub(crate) fn new(
        nshards: usize,
        edges: impl IntoIterator<Item = ((u32, u32), Time)>,
    ) -> SafeTimeTable {
        let mut out = vec![Vec::new(); nshards];
        for ((src, dst), lat) in edges {
            debug_assert!(lat > Time::ZERO, "cross-shard edges must have positive latency");
            out[src as usize].push((dst, lat.0));
        }
        SafeTimeTable {
            nshards,
            out,
            safe: Vec::with_capacity(nshards),
            bound: Vec::with_capacity(nshards),
            heap: BinaryHeap::with_capacity(nshards),
        }
    }

    /// One relaxation pass: given every shard's earliest pending event
    /// (`u64::MAX` when idle), return `bound(d)` for every shard —
    /// the earliest time a new cross-shard event can reach `d`
    /// (`u64::MAX` when nothing can, e.g. no incoming edges). The
    /// returned slice lives in the table's scratch buffer and is valid
    /// until the next call.
    pub(crate) fn bounds(&mut self, next: &[u64]) -> &[u64] {
        debug_assert_eq!(next.len(), self.nshards);
        self.safe.clear();
        self.safe.extend_from_slice(next);
        self.bound.clear();
        self.bound.resize(self.nshards, u64::MAX);
        self.heap.clear();
        for (q, &t) in next.iter().enumerate() {
            if t != u64::MAX {
                self.heap.push(Reverse((t, q as u32)));
            }
        }
        // Dijkstra over positive edge weights: the first pop of a shard
        // carries its settled safe time; later (stale) pops are skipped.
        while let Some(Reverse((t, q))) = self.heap.pop() {
            if t > self.safe[q as usize] {
                continue;
            }
            for &(d, lat) in &self.out[q as usize] {
                let via = t.saturating_add(lat);
                let d = d as usize;
                if via < self.bound[d] {
                    self.bound[d] = via;
                    if via < self.safe[d] {
                        self.safe[d] = via;
                        self.heap.push(Reverse((via, d as u32)));
                    }
                }
            }
        }
        &self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Time {
        Time::from_ns(n)
    }

    #[test]
    fn bounds_follow_incident_edges_not_the_global_min() {
        // 0 --10ns--> 1, 1 --10ns--> 0 (a short pair), and
        // 0 --1us--> 2, 2 --1us--> 0 (a long spur).
        let mut table = SafeTimeTable::new(
            3,
            [
                ((0u32, 1u32), ns(10)),
                ((1, 0), ns(10)),
                ((0, 2), ns(1000)),
                ((2, 0), ns(1000)),
            ],
        );
        let next = [ns(0).0, ns(5).0, ns(100).0];
        let b = table.bounds(&next);
        // Shard 0 hears from 1 (5+10) before 2 (100+1000).
        assert_eq!(b[0], ns(15).0);
        // Shard 1 only hears from 0, over the short edge.
        assert_eq!(b[1], ns(10).0);
        // Shard 2 is insulated by the long edge: it may run a full
        // microsecond past shard 0's earliest event.
        assert_eq!(b[2], ns(1000).0);
    }

    #[test]
    fn safe_times_propagate_along_paths() {
        // A chain 0 -> 1 -> 2; shard 2 idle, shard 1 idle: influence
        // still reaches 2 through 1 via the path sum.
        let mut table =
            SafeTimeTable::new(3, [((0u32, 1u32), ns(100)), ((1, 2), ns(100))]);
        let next = [ns(0).0, u64::MAX, u64::MAX];
        let b = table.bounds(&next);
        assert_eq!(b[1], ns(100).0);
        assert_eq!(b[2], ns(200).0); // via safe(1) = 100
        assert_eq!(b[0], u64::MAX); // nothing points at shard 0
    }

    #[test]
    fn idle_cluster_has_infinite_bounds() {
        let mut table = SafeTimeTable::new(2, [((0u32, 1u32), ns(10)), ((1, 0), ns(10))]);
        let b = table.bounds(&[u64::MAX, u64::MAX]);
        assert_eq!(b, &[u64::MAX, u64::MAX]);
    }

    #[test]
    fn parallel_links_already_collapsed_to_min_still_relax() {
        // The earliest shard's own bound exceeds its next event by at
        // least the minimum incident latency: progress every round.
        let mut table = SafeTimeTable::new(2, [((0u32, 1u32), ns(7)), ((1, 0), ns(3))]);
        let next = [ns(50).0, ns(50).0];
        let b = table.bounds(&next);
        assert!(b[0] > next[0] && b[1] > next[1]);
        assert_eq!(b[0], ns(53).0);
        assert_eq!(b[1], ns(57).0);
    }
}
