//! A switch in a planned topology: output-queued trunk ports with finite
//! link bandwidth, plus node downlink ports.
//!
//! Timing model, hop for hop the same discipline as the
//! [`crate::port::FabricPort`]s:
//!
//! * **Trunk hop** — the frame occupies the chosen output port's
//!   serialization window (`max(now, busy) + ser`, with `ser` rounded up
//!   to the next picosecond by `NetConfig::serialize` — no silent
//!   truncation on the multi-hop path), then rides the trunk wire (the
//!   `connect` latency). Contending frames queue FIFO behind the window,
//!   which is the output-queueing/link-contention model.
//! * **Node delivery** — handed straight down the node port; the
//!   destination [`FabricPort`]'s receiver-side busy window charges the
//!   downlink serialization, so it is *not* charged here (that would
//!   double-count the last hop).
//!
//! Scheduled link faults stay at the *source* port: `FabricPort::inject`
//! refuses a frame whose (src, dst) edge the fault schedule has down, so
//! a downed edge blackholes the pair end-to-end no matter how many
//! switches sit between them — the same semantics as the all-to-all
//! wiring, kept out of the per-hop hot loop.
//!
//! [`FabricPort`]: crate::port::FabricPort

use crate::fabric::NetConfig;
use crate::message::Message;
use crate::topo::{RouteStep, TopoPlan};
use mpiq_dessim::prelude::*;
use mpiq_dessim::Stats;
use std::sync::Arc;

/// The single input port: uplinked node frames and trunk arrivals alike.
pub const PORT_SW_IN: InPort = InPort(0);

/// One switch of a [`TopoPlan`].
///
/// Wiring contract (the cluster builder owns this):
/// * every attached node's `FabricPort` uplink -> [`PORT_SW_IN`], at wire
///   latency;
/// * [`Switch::trunk_port`]`(i)` -> neighbor `i`'s [`PORT_SW_IN`], at
///   wire latency (both directions of a trunk are separate links);
/// * [`Switch::node_port`]`(j)` -> attached node `j`'s `PORT_FP_WIRE`,
///   at wire latency.
pub struct Switch {
    id: usize,
    plan: Arc<TopoPlan>,
    cfg: NetConfig,
    /// Per-trunk-port output serialization window.
    trunk_busy: Vec<Time>,
    /// Trunk hops taken, published as `net.switch.hops` (summed over
    /// switches).
    hops: u64,
}

impl Switch {
    /// Switch `id` of `plan`.
    pub fn new(id: usize, plan: Arc<TopoPlan>, cfg: NetConfig) -> Switch {
        let trunks = plan.neighbors[id].len();
        Switch {
            id,
            plan,
            cfg,
            trunk_busy: vec![Time::ZERO; trunks],
            hops: 0,
        }
    }

    /// Output port for trunk `i` (index into `plan.neighbors[id]`).
    pub fn trunk_port(plan: &TopoPlan, id: usize, i: usize) -> OutPort {
        assert!(i < plan.neighbors[id].len());
        OutPort(i as u16)
    }

    /// Output port for attached node `j` (index into `plan.attached[id]`).
    pub fn node_port(plan: &TopoPlan, id: usize, j: usize) -> OutPort {
        assert!(j < plan.attached[id].len());
        OutPort((plan.neighbors[id].len() + j) as u16)
    }
}

impl Component for Switch {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        assert_eq!(ev.port, PORT_SW_IN, "switch has a single input port");
        let msg = *ev.payload.downcast::<Message>().unwrap_or_else(|p| {
            panic!(
                "switch accepts Message payloads only; got {p:?} at t={}",
                ev.time
            )
        });
        let dst = msg.header.dst_node;
        match self.plan.routes[self.id][dst as usize] {
            RouteStep::Deliver => {
                let j = self.plan.attached[self.id]
                    .binary_search(&dst)
                    .unwrap_or_else(|_| {
                        panic!(
                            "switch {} asked to deliver to unattached node {dst}",
                            self.id
                        )
                    });
                ctx.emit(Switch::node_port(&self.plan, self.id, j), Payload::new(msg));
            }
            RouteStep::Forward(p) => {
                let ser = self.cfg.serialize(msg.wire_bytes());
                let start = ctx.now().max(self.trunk_busy[p]);
                self.trunk_busy[p] = start + ser;
                self.hops += 1;
                ctx.emit_after(
                    Switch::trunk_port(&self.plan, self.id, p),
                    Payload::new(msg),
                    (start + ser) - ctx.now(),
                );
            }
        }
    }

    fn publish(&self, stats: &mut Stats) {
        stats.add("net.switch.hops", self.hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgHeader, MsgKind, NodeId};
    use crate::topo::Topology;
    use mpiq_dessim::Simulation;
    use std::sync::Mutex;

    fn msg(src: NodeId, dst: NodeId, len: u32, seq: u64) -> Message {
        Message::new(MsgHeader {
            src_node: src,
            dst_node: dst,
            dst_rank: dst,
            context: 0,
            src_rank: src as u16,
            tag: 0,
            payload_len: len,
            kind: MsgKind::Eager,
            seq,
        })
    }

    type Log = Arc<Mutex<Vec<(Time, u64)>>>;
    struct Sink {
        got: Log,
    }
    impl Component for Sink {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let m = ev.payload.downcast::<Message>().unwrap();
            self.got.lock().unwrap().push((ctx.now(), m.header.seq));
        }
    }

    /// A leaf-spine pair with sinks in place of node ports, to pin hop
    /// timing in isolation.
    fn leaf_spine(cfg: NetConfig) -> (Simulation, ComponentId, Log) {
        // 8 nodes, 4 per leaf, 1 spine: leaf0 (sw0), leaf1 (sw1), spine (sw2).
        let plan = Arc::new(Topology::FatTree { down: 4, up: 1 }.plan(8).unwrap());
        let mut sim = Simulation::new(7);
        let sw: Vec<ComponentId> = (0..plan.switches())
            .map(|s| sim.add_component(&format!("sw{s}"), Switch::new(s, plan.clone(), cfg)))
            .collect();
        for (a, ns) in plan.neighbors.iter().enumerate() {
            for (i, &b) in ns.iter().enumerate() {
                sim.connect(
                    sw[a],
                    Switch::trunk_port(&plan, a, i),
                    sw[b],
                    PORT_SW_IN,
                    cfg.wire_latency,
                );
            }
        }
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        // Node 4 lives on leaf 1, local index 0.
        let sink = sim.add_component("sink4", Sink { got: log.clone() });
        sim.connect(
            sw[1],
            Switch::node_port(&plan, 1, 0),
            sink,
            InPort(0),
            cfg.wire_latency,
        );
        (sim, sw[0], log)
    }

    /// Leaf -> spine -> leaf: each trunk hop charges wire latency plus
    /// serialization; the final node hop charges only the wire (the
    /// destination port serializes).
    #[test]
    fn two_trunk_hops_charge_two_serializations() {
        let cfg = NetConfig::default(); // 200 ns wire, 2 B/ns
        let (mut sim, leaf0, log) = leaf_spine(cfg);
        sim.post(leaf0, PORT_SW_IN, Payload::new(msg(0, 4, 0, 1)), Time::ZERO);
        sim.run();
        // ser(32 B) = 16 ns. leaf0: 16 + 200; spine: 16 + 200; node wire:
        // 200. Total 632 ns.
        assert_eq!(log.lock().unwrap()[0], (Time::from_ns(632), 1));
        assert_eq!(sim.stats().get("net.switch.hops"), 2);
    }

    /// Switch-hop serialization rounds partial bytes *up*, exactly like
    /// the fabric ports — the multi-hop path must not reintroduce silent
    /// truncation.
    #[test]
    fn trunk_serialization_rounds_up_not_down() {
        // 7 B/ns does not divide 32 header bytes: 32000/7 = 4571.43 ps,
        // charged as 4572 ps per trunk hop.
        let cfg = NetConfig {
            wire_latency: Time::from_ns(200),
            bytes_per_ns: 7,
            ..NetConfig::default()
        };
        let (mut sim, leaf0, log) = leaf_spine(cfg);
        sim.post(leaf0, PORT_SW_IN, Payload::new(msg(0, 4, 0, 1)), Time::ZERO);
        sim.run();
        let t = log.lock().unwrap()[0].0;
        assert_eq!(t, Time::from_ns(600) + Time::from_ps(2 * 4572));
    }

    /// Two frames contending for the same trunk port queue FIFO behind
    /// its serialization window — output queueing under finite bandwidth.
    #[test]
    fn trunk_contention_serializes_fifo() {
        let cfg = NetConfig::default();
        let (mut sim, leaf0, log) = leaf_spine(cfg);
        sim.post(
            leaf0,
            PORT_SW_IN,
            Payload::new(msg(0, 4, 1000, 1)),
            Time::ZERO,
        );
        sim.post(
            leaf0,
            PORT_SW_IN,
            Payload::new(msg(1, 4, 1000, 2)),
            Time::ZERO,
        );
        sim.run();
        let got = log.lock().unwrap();
        assert_eq!(got[0].1, 1);
        assert_eq!(got[1].1, 2);
        // 1032 B serialize for 516 ns; the second frame leaves the leaf
        // uplink 516 ns behind the first and stays behind it at the spine.
        assert_eq!(got[1].0 - got[0].0, Time::from_ns(516));
    }
}
