//! The one shard behind [`Simulation`](crate::Simulation): the event
//! heap that holds every pending event, and the key that orders it.
//!
//! A simulation has exactly one shard, so every component shares one
//! binary heap. Events are ordered by the key `(time, seq)`:
//!
//! * `time` is the delivery time;
//! * `seq` is a global emission counter. Every event gets the next
//!   value when it enters the heap — through
//!   [`Simulation::post`](crate::Simulation::post), or when the handler
//!   that emitted it returns (its emissions are committed in the order
//!   the handler made them).
//!
//! So events at equal times run in the order they were emitted, across
//! every component in the simulation. That key fixes the whole schedule
//! from the inputs alone: no allocation order, hash iteration or thread
//! timing enters it.

use crate::component::ComponentId;
use crate::event::{Event, InPort, Payload};
use crate::time::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One pending event, ordered by its `(time, seq)` key.
struct Scheduled {
    time: Time,
    seq: u64,
    dst: ComponentId,
    port: InPort,
    payload: Payload,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The event heap of a simulation, with its emission counter.
#[derive(Default)]
pub(crate) struct Shard {
    heap: BinaryHeap<Reverse<Scheduled>>,
    /// The next emission's tie-break number.
    seq: u64,
}

impl Shard {
    /// Queue an event under the next emission number.
    #[inline]
    pub(crate) fn push(&mut self, time: Time, dst: ComponentId, port: InPort, payload: Payload) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            seq,
            dst,
            port,
            payload,
        }));
    }

    /// Remove the event with the smallest key if its time is at most
    /// `horizon`.
    #[inline]
    pub(crate) fn pop_until(&mut self, horizon: Time) -> Option<Event> {
        if self.heap.peek()?.0.time > horizon {
            return None;
        }
        let Reverse(ev) = self.heap.pop().expect("peeked above");
        Some(Event {
            time: ev.time,
            dst: ev.dst,
            port: ev.port,
            payload: ev.payload,
        })
    }

    /// Is no event pending?
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::component::{Component, ComponentId, Ctx};
    use crate::event::{Event, InPort, OutPort, Payload};
    use crate::time::Time;
    use crate::Simulation;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Deliveries as `(time, tag, counter)`, shared by every forwarder.
    type RingLog = Rc<RefCell<Vec<(Time, u32, u64)>>>;

    /// Forwards a decrementing counter over its one output port.
    struct Fwd {
        log: RingLog,
        tag: u32,
    }
    impl Component for Fwd {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let n = *ev.payload.downcast::<u64>().unwrap();
            self.log.borrow_mut().push((ctx.now(), self.tag, n));
            ctx.stats().incr(&format!("fwd{}.events", self.tag));
            if n > 0 {
                ctx.emit(OutPort(0), Payload::new(n - 1));
            }
        }
    }

    /// A ring of `n` forwarders, forwarder `i` feeding `i + 1` over the
    /// link `latency(i)`.
    fn build_ring_with(n: usize, latency: impl Fn(usize) -> Time) -> (Simulation, RingLog) {
        let log = RingLog::default();
        let mut sim = Simulation::new(7);
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| {
                let log = log.clone();
                let tag = i as u32;
                sim.add_component(&format!("fwd{i}"), Fwd { log, tag })
            })
            .collect();
        for i in 0..n {
            sim.connect(ids[i], OutPort(0), ids[(i + 1) % n], InPort(0), latency(i));
        }
        (sim, log)
    }

    /// A ring of `n` forwarders, each forwarding to the next with
    /// `latency`.
    fn build_ring(n: usize, latency: Time) -> (Simulation, RingLog) {
        build_ring_with(n, |_| latency)
    }

    fn sorted(log: &RingLog) -> Vec<(Time, u32, u64)> {
        let mut events = log.borrow().clone();
        events.sort();
        events
    }

    #[test]
    fn same_ring_run_twice_gives_identical_results() {
        let run = || {
            let (mut sim, log) = build_ring(5, Time::from_ns(30));
            for s in 0..5u32 {
                sim.post(
                    ComponentId(s),
                    InPort(0),
                    Payload::new(20u64 + s as u64),
                    Time::from_ns(s as u64),
                );
            }
            sim.run();
            let events = log.borrow().clone();
            (sim.stats().to_json(), sim.events_processed(), events)
        };
        let (base, again) = (run(), run());
        assert_eq!(again.0, base.0, "stats diverged between runs");
        assert_eq!(again.1, base.1, "event count diverged between runs");
        assert_eq!(again.2, base.2, "delivered events diverged between runs");
        assert_eq!(base.1, (20..25).map(|n| n + 1).sum::<u64>());
    }

    #[test]
    fn single_shard_runs_whole_horizon_in_one_window() {
        // The one shard runs every event up to the horizon in one call.
        let (mut sim, _log) = build_ring(1, Time::from_ns(5));
        sim.post(ComponentId(0), InPort(0), Payload::new(3u64), Time::ZERO);
        assert_eq!(sim.run(), 4);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.now(), Time::from_ns(15));
        assert!(sim.is_idle());
    }

    #[test]
    fn run_until_respects_horizon_and_resumes() {
        let (mut sim, _log) = build_ring(2, Time::from_ns(10));
        sim.post(ComponentId(0), InPort(0), Payload::new(10u64), Time::ZERO);
        let first = sim.run_until(Time::from_ns(45));
        // Events at t = 0,10,20,30,40.
        assert_eq!(first, 5);
        assert_eq!(sim.now(), Time::from_ns(40));
        let rest = sim.run();
        assert_eq!(first + rest, 11);
    }

    #[test]
    fn heterogeneous_ring_is_repeatable_and_matches_one_shard_layout() {
        // One 10 ns edge in a ring of 1 us edges, with two interleaved
        // chains. A second run must deliver the same events, and both
        // must match the closed form of the one-shard schedule.
        let run = || {
            let latency = |i: usize| {
                if i == 0 {
                    Time::from_ns(10)
                } else {
                    Time::from_us(1)
                }
            };
            let (mut sim, log) = build_ring_with(4, latency);
            sim.post(ComponentId(0), InPort(0), Payload::new(16u64), Time::ZERO);
            sim.post(
                ComponentId(2),
                InPort(0),
                Payload::new(9u64),
                Time::from_ns(4),
            );
            sim.run();
            (
                sorted(&log),
                sim.events_processed(),
                sim.stats().to_json(),
                sim.now(),
            )
        };
        let base = run();
        assert_eq!(run(), base, "diverged between runs");
        // Closed form: a ring lap is 10 ns + 3 us. The 16-hop chain is
        // four laps from t=0; the 9-hop chain from node 2 at t=4 ns
        // finishes earlier (two laps plus one 1 us hop, at 7024 ns).
        assert_eq!(base.1, 17 + 10);
        assert_eq!(base.3, Time::from_ns(4 * 3010));
        let last_short = base
            .0
            .iter()
            .filter(|&&(_, _, n)| n == 0)
            .map(|&(t, _, _)| t);
        assert_eq!(
            last_short.collect::<Vec<_>>(),
            [Time::from_ns(7024), Time::from_ns(4 * 3010)]
        );
    }

    #[test]
    fn stats_merge_in_shard_order_and_sum() {
        // Every forwarder bumps its own counter in the shard's one
        // registry; the per-component counts sum to the events run.
        let (mut sim, _log) = build_ring(3, Time::from_ns(10));
        sim.post(ComponentId(0), InPort(0), Payload::new(6u64), Time::ZERO);
        sim.run();
        let stats = sim.stats();
        let counts: Vec<u64> = (0..3)
            .map(|t| stats.get(&format!("fwd{t}.events")))
            .collect();
        assert_eq!(counts, [3, 2, 2]);
        assert_eq!(counts.iter().sum::<u64>(), sim.events_processed());
    }
}
