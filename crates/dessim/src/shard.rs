//! The one shard behind [`Simulation`](crate::Simulation): the set of
//! pending events, and the key that orders it.
//!
//! A simulation has exactly one shard, so every component shares one
//! pending set. Events are ordered by the key `(time, seq)`:
//!
//! * `time` is the delivery time;
//! * `seq` is a global emission counter. Every event gets the next
//!   value when it is queued — through
//!   [`Simulation::post`](crate::Simulation::post), or when the handler
//!   that emitted it returns (its emissions are committed in the order
//!   the handler made them).
//!
//! So events at equal times run in the order they were emitted, across
//! every component in the simulation. That key fixes the whole schedule
//! from the inputs alone: no allocation order, hash iteration or thread
//! timing enters it.
//!
//! # Runs
//!
//! Pending events are kept in *runs*: lists already in key order. A
//! push whose time is no earlier than the previous push's joins that
//! push's run (its `seq` is larger, so the run stays sorted); any other
//! push starts a run. So a run is a block of consecutive pushes. A host
//! that dispatches a step's requests at increasing times fills one run,
//! as does a chain of handlers each emitting a little later than the
//! last.
//!
//! A binary heap holds one entry per run, keyed by the run's first
//! event. Each run is sorted, so the smallest entry is the smallest
//! pending key: delivery order is exactly that of one heap over every
//! event, but the heap sifts over runs, not over every pre-dispatched
//! request. Delivering a run's first event re-keys its entry in place
//! with the run's next event, or removes the entry when the run is done.
//!
//! Every pending event sits in one slab of list nodes shared by all
//! runs, and a delivered event's node is reused by the next push, so
//! the set's memory follows the number of pending events.

use crate::component::ComponentId;
use crate::event::{Event, InPort, Payload};
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// A run's heap entry: the key of its first event, and that event's
/// node in [`Shard::nodes`]. `seq` is unique, so `node` never decides
/// an order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    time: Time,
    seq: u64,
    node: u32,
}

/// A slab slot: a pending event and the next node of its run, or, with
/// an empty payload, a free slot and the next free one. A run is a block
/// of consecutive pushes, so an event's `seq` is one more than that of
/// the event before it in its run, and is not stored.
struct Node {
    time: Time,
    dst: ComponentId,
    port: InPort,
    payload: Payload,
    next: Option<u32>,
}

/// The pending events of a simulation, with its emission counter.
#[derive(Default)]
pub(crate) struct Shard {
    /// One entry per run.
    heap: BinaryHeap<Reverse<Head>>,
    /// Every pending event; each run is a list through `next`.
    nodes: Vec<Node>,
    /// The first free node, the others listed through `next`.
    free: Option<u32>,
    /// The last node of the run the previous push went to and that
    /// push's time, while that node is pending.
    last: Option<(u32, Time)>,
    /// The next emission's tie-break number.
    seq: u64,
}

impl Shard {
    /// Queue an event under the next emission number.
    #[inline]
    pub(crate) fn push(&mut self, time: Time, dst: ComponentId, port: InPort, payload: Payload) {
        let seq = self.seq;
        self.seq += 1;
        let node = match self.free {
            Some(node) => {
                let slot = &mut self.nodes[node as usize];
                self.free = slot.next;
                *slot = Node {
                    time,
                    dst,
                    port,
                    payload,
                    next: None,
                };
                node
            }
            None => {
                self.nodes.push(Node {
                    time,
                    dst,
                    port,
                    payload,
                    next: None,
                });
                u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        match self.last {
            // `seq` grows with every push, so a time no earlier than
            // the run's tail keeps the run in key order.
            Some((tail, at)) if time >= at => self.nodes[tail as usize].next = Some(node),
            _ => self.heap.push(Reverse(Head { time, seq, node })),
        }
        self.last = Some((node, time));
    }

    /// Remove the event with the smallest key if its time is at most
    /// `horizon`. A first event past the horizon leaves the heap
    /// untouched.
    #[inline]
    pub(crate) fn pop_until(&mut self, horizon: Time) -> Option<Event> {
        let mut top = self.heap.peek_mut()?;
        if top.0.time > horizon {
            return None;
        }
        let Head { time, seq, node } = top.0;
        let slot = &mut self.nodes[node as usize];
        let payload = std::mem::replace(&mut slot.payload, Payload::empty());
        let ev = Event {
            time,
            dst: slot.dst,
            port: slot.port,
            payload,
        };
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = Some(node);
        match next {
            // Re-key the run in place; the heap sifts it down on drop.
            Some(next) => {
                top.0 = Head {
                    time: self.nodes[next as usize].time,
                    seq: seq + 1,
                    node: next,
                };
            }
            None => {
                PeekMut::pop(top);
                if self.last.is_some_and(|(tail, _)| tail == node) {
                    self.last = None;
                }
            }
        }
        Some(ev)
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
    use crate::{Simulation, Stats};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Deliveries as `(time, tag, counter)`, shared by every forwarder.
    type RingLog = Rc<RefCell<Vec<(Time, u32, u64)>>>;

    /// Forwards a decrementing counter over its one output port, and
    /// publishes how many events it handled as `fwd{tag}.events`.
    struct Fwd {
        log: RingLog,
        tag: u32,
        events: u64,
    }
    impl Component for Fwd {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let n = *ev.payload.downcast::<u64>().unwrap();
            self.log.borrow_mut().push((ctx.now(), self.tag, n));
            self.events += 1;
            if n > 0 {
                ctx.emit(OutPort(0), Payload::new(n - 1));
            }
        }
        fn publish(&self, stats: &mut Stats) {
            stats.add(&format!("fwd{}.events", self.tag), self.events);
        }
    }

    /// A ring of `n` forwarders, forwarder `i` feeding `i + 1` over the
    /// link `latency(i)`.
    fn build_ring_with(n: usize, latency: impl Fn(usize) -> Time) -> (Simulation, RingLog) {
        let log = RingLog::default();
        let mut sim = Simulation::new(7);
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| {
                let fwd = Fwd {
                    log: log.clone(),
                    tag: i as u32,
                    events: 0,
                };
                sim.add_component(&format!("fwd{i}"), fwd)
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
        // Every forwarder publishes its own counter into the one
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

#[cfg(test)]
mod oracle {
    //! `Shard` against a reference model: every pending event in one
    //! list, delivered smallest `(time, push order)` first.

    use crate::component::ComponentId;
    use crate::event::{InPort, Payload};
    use crate::shard::Shard;
    use crate::time::Time;
    use proptest::prelude::*;

    /// One step of a pending-set script. Push times are offsets
    /// from the time of the last delivered event, as a handler's
    /// emissions are.
    #[derive(Clone, Debug)]
    enum Op {
        /// `n` pushes at one time.
        Burst { at: u64, n: usize },
        /// `n` pushes at `at`, `at + step`, …, like a host
        /// dispatching the requests of one step.
        Batch { at: u64, step: u64, n: usize },
        /// One push `back` ps before the last push, but not before
        /// the last delivery.
        Early { back: u64 },
        /// Deliver up to `n` events due by `ahead` ps after the
        /// last delivery.
        Pop { ahead: u64, n: usize },
        /// A horizon 1 ps below the next event, which must deliver
        /// nothing, then a push `back` ps before that event (a
        /// watchdog deadline, then more posts).
        Stall { back: u64 },
        /// Deliver every pending event.
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..40, 1usize..12).prop_map(|(at, n)| Op::Burst { at, n }),
            3 => (0u64..40, 0u64..6, 1usize..60)
                .prop_map(|(at, step, n)| Op::Batch { at, step, n }),
            2 => (1u64..30).prop_map(|back| Op::Early { back }),
            4 => (0u64..60, 1usize..40).prop_map(|(ahead, n)| Op::Pop { ahead, n }),
            1 => (1u64..30).prop_map(|back| Op::Stall { back }),
            1 => Just(Op::Drain),
        ]
    }

    /// The shard under test and its model, fed the same pushes.
    #[derive(Default)]
    struct Pair {
        shard: Shard,
        /// Pending `(time, push number)`, unordered.
        model: Vec<(Time, u64)>,
        pushes: u64,
        /// Time of the last delivered event.
        now: Time,
        /// Time of the last push.
        tail: Time,
    }

    impl Pair {
        fn push(&mut self, time: Time) {
            let id = self.pushes;
            self.pushes += 1;
            self.tail = time;
            let dst = ComponentId((id % 7) as u32);
            self.shard
                .push(time, dst, InPort((id % 3) as u16), Payload::new(id));
            self.model.push((time, id));
        }

        /// One `pop_until(horizon)` on both sides; did it deliver?
        fn pop(&mut self, horizon: Time) -> Result<bool, TestCaseError> {
            let want = self
                .model
                .iter()
                .enumerate()
                .min_by_key(|&(_, &key)| key)
                .filter(|&(_, &(time, _))| time <= horizon)
                .map(|(i, _)| i);
            let got = self.shard.pop_until(horizon);
            match (want, got) {
                (None, None) => Ok(false),
                (Some(i), Some(ev)) => {
                    let (time, id) = self.model.swap_remove(i);
                    prop_assert_eq!(ev.time, time);
                    prop_assert_eq!(ev.dst, ComponentId((id % 7) as u32));
                    prop_assert_eq!(ev.port, InPort((id % 3) as u16));
                    prop_assert_eq!(*ev.payload.downcast::<u64>().unwrap(), id);
                    self.now = time;
                    Ok(true)
                }
                (want, got) => {
                    let want = want.map(|i| self.model[i]);
                    let got = got.map(|ev| (ev.time, *ev.payload.downcast::<u64>().unwrap()));
                    Err(TestCaseError::fail(format!(
                        "pop_until({horizon:?}): model {want:?}, shard {got:?}"
                    )))
                }
            }
        }

        fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
            match *op {
                Op::Burst { at, n } => {
                    let time = self.now + Time::from_ps(at);
                    for _ in 0..n {
                        self.push(time);
                    }
                }
                Op::Batch { at, step, n } => {
                    for i in 0..n as u64 {
                        self.push(self.now + Time::from_ps(at + step * i));
                    }
                }
                Op::Early { back } => {
                    let time = self.tail.saturating_sub(Time::from_ps(back));
                    self.push(time.max(self.now));
                }
                Op::Pop { ahead, n } => {
                    let horizon = self.now + Time::from_ps(ahead);
                    for _ in 0..n {
                        if !self.pop(horizon)? {
                            break;
                        }
                    }
                }
                Op::Stall { back } => {
                    let Some(&(next, _)) = self.model.iter().min() else {
                        return Ok(());
                    };
                    if next > self.now {
                        prop_assert!(!self.pop(next - Time::PS)?);
                    }
                    let time = next.saturating_sub(Time::from_ps(back));
                    self.push(time.max(self.now));
                }
                Op::Drain => while self.pop(Time::MAX)? {},
            }
            prop_assert_eq!(self.shard.is_empty(), self.model.is_empty());
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every script delivers the model's events in the model's
        /// order, and ends with both sides empty.
        #[test]
        fn shard_matches_sorted_model(ops in prop::collection::vec(op(), 1..60)) {
            let mut pair = Pair::default();
            for op in &ops {
                pair.apply(op)?;
            }
            pair.apply(&Op::Drain)?;
            prop_assert!(pair.shard.is_empty());
        }
    }
}
