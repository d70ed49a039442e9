//! The fabric: one [`FabricPort`] per node.
//!
//! Timing is receiver-side. The source port forwards at `t`, the frame
//! crosses the wire (`t + wire`), and the *destination* port serializes
//! on its ingress link: `deliver = max(t + wire, busy) + ser`, with the
//! link busy until `deliver`. Bandwidth contention, FIFO ordering per
//! destination, and per-(src, dst) order all follow from that one busy
//! window. Two sources tying at the same destination in the same
//! picosecond are ordered by emission (the engine's `(time, seq)` key).
//!
//! Faults roll at the *source* port from a per-node deterministic
//! stream, so a node's fault verdicts never depend on other nodes'
//! traffic.

use crate::fabric::NetConfig;
use crate::message::{Message, NodeId};
use mpiq_dessim::fault::{FaultConfig, FaultPlan, FaultSchedule};
use mpiq_dessim::prelude::*;
use mpiq_dessim::trace::{ComponentFaultKind, TraceEvent};
use mpiq_dessim::{Metrics, Stats};
use std::collections::BTreeMap;
use std::sync::Arc;
/// Input port where the node's own NIC injects outbound messages.
pub const PORT_FP_INJECT: InPort = InPort(0);

/// Input port where frames arrive from peer ports over the wire.
pub const PORT_FP_WIRE: InPort = InPort(1);

/// Fault-plan site id for node `n`'s fabric port (the offset keeps the
/// per-node streams clear of the NIC firmware's lane sites).
fn port_fault_site(node: NodeId) -> u64 {
    0x4000_0000 + node as u64
}

/// One node's attachment to the distributed fabric.
///
/// Wiring contract (the cluster builder owns this):
/// * NIC `PORT_NET_TX` -> this port's [`PORT_FP_INJECT`], zero latency.
/// * On the crossbar, [`connect_crossbar`] hands every port the table of
///   peer-port ids once all ports exist. A frame for node `d` is sent
///   straight to peer `d`'s [`PORT_FP_WIRE`] at
///   [`NetConfig::latency_between`] — including `d == node` (self-sends
///   take a wire trip). The direct send commits at the same
///   `(time, seq)` a wired link of that latency would, and registers no
///   per-pair link.
/// * Arrivals are handed to the local NIC by direct send to the
///   component id and input port given at construction, so `mpiq-net`
///   needs no dependency on the NIC crate.
///
/// In **uplink mode** ([`FabricPort::with_uplink`], used by the switched
/// topologies) every frame leaves on the single
/// [`uplink_port`](FabricPort::uplink_port), which the builder wires to
/// the node's edge switch; routing to the destination happens in the
/// switch graph. Source-side fault semantics (the scheduled (src, dst)
/// edge check and the wire-fault rolls) are unchanged, so a downed edge
/// blackholes the pair end-to-end regardless of the path between them.
pub struct FabricPort {
    cfg: NetConfig,
    nodes: u32,
    node: NodeId,
    /// Emit everything on the single uplink port instead of sending to
    /// the destination's port.
    uplink: bool,
    /// Crossbar only: the port id of every node, indexed by node; set by
    /// [`connect_crossbar`].
    peers: Option<Arc<[ComponentId]>>,
    /// Frames and wire bytes this port put on the wire, published as
    /// `net.messages` and `net.bytes` (summed over ports).
    messages: u64,
    bytes: u64,
    /// The local NIC and its receive port, for delivery after
    /// serialization.
    nic: ComponentId,
    nic_rx: InPort,
    /// This node's ingress link occupancy (receiver-side serialization).
    busy_until: Time,
    faults: Option<FaultPlan>,
    /// Component-level fault timeline; `None` keeps the scheduled path
    /// out of the hot loop entirely. Checked at the *source* port (like
    /// the message-level fault rolls), so the verdict is a function of
    /// local state only.
    schedule: Option<Arc<FaultSchedule>>,
    /// Last observed up/down state per undirected edge (transition
    /// telemetry; see [`scheduled_edge_refuses`]).
    edge_seen_down: BTreeMap<(u32, u32), bool>,
    /// Fault outcomes at this port, published summed over ports.
    counts: FaultCounts,
}

/// What faults did to one port's frames.
#[derive(Default)]
struct FaultCounts {
    /// Wire-fault verdicts: `net.faults.{dropped,corrupted,duplicated}`.
    dropped: u64,
    corrupted: u64,
    duplicated: u64,
    /// Frames refused on a scheduled-down edge: `net.sched.edge_drops`.
    edge_drops: u64,
    /// Up/down changes observed on scheduled edges: the
    /// `fault.flap_transitions` metric.
    flap_transitions: u64,
}

impl FabricPort {
    /// A fault-free port for `node` in a fabric of `nodes`.
    pub fn new(
        cfg: NetConfig,
        nodes: u32,
        node: NodeId,
        nic: ComponentId,
        nic_rx: InPort,
    ) -> FabricPort {
        FabricPort::with_faults(cfg, nodes, node, nic, nic_rx, FaultConfig::none())
    }

    /// A port with a (possibly empty) fault campaign; verdicts come from
    /// a stream private to `node`.
    pub fn with_faults(
        cfg: NetConfig,
        nodes: u32,
        node: NodeId,
        nic: ComponentId,
        nic_rx: InPort,
        faults: FaultConfig,
    ) -> FabricPort {
        FabricPort {
            cfg,
            nodes,
            node,
            uplink: false,
            peers: None,
            messages: 0,
            bytes: 0,
            nic,
            nic_rx,
            busy_until: Time::ZERO,
            faults: faults
                .net_active()
                .then(|| FaultPlan::new(faults, port_fault_site(node))),
            schedule: None,
            edge_seen_down: BTreeMap::new(),
            counts: FaultCounts::default(),
        }
    }

    /// Arm a component-level fault timeline: edges the schedule marks
    /// down refuse (silently drop) every frame until they heal.
    pub fn with_schedule(mut self, schedule: Option<Arc<FaultSchedule>>) -> FabricPort {
        self.schedule = schedule.filter(|s| !s.is_empty());
        self
    }

    /// Switch to uplink mode: every surviving frame leaves on
    /// [`uplink_port`](FabricPort::uplink_port) toward the edge switch.
    pub fn with_uplink(mut self) -> FabricPort {
        self.uplink = true;
        self
    }

    /// The single out port used in uplink mode.
    pub fn uplink_port() -> OutPort {
        OutPort(0)
    }

    /// Source side: roll faults and put surviving copies on the wire.
    fn inject(&mut self, mut msg: Message, ctx: &mut Ctx<'_>) {
        let dst = msg.header.dst_node;
        assert!(
            dst < self.nodes,
            "message to unknown node {dst} (fabric has {} nodes): \
             {:?} seq={} from node {} at t={}",
            self.nodes,
            msg.header.kind,
            msg.header.seq,
            msg.header.src_node,
            ctx.now()
        );
        // Component-level faults outrank message-level ones: a frame on a
        // downed edge never reaches the wire-fault lottery at all.
        if let Some(sched) = self.schedule.clone() {
            if scheduled_edge_refuses(
                &sched,
                &mut self.edge_seen_down,
                &mut self.counts,
                msg.header.src_node,
                dst,
                ctx,
            ) {
                return;
            }
        }
        let mut duplicate = false;
        if let Some(plan) = &mut self.faults {
            let verdict = plan.roll_wire();
            if verdict.drop {
                self.counts.dropped += 1;
                return;
            }
            if verdict.corrupt {
                self.counts.corrupted += 1;
                msg.link.crc_ok = false;
            }
            duplicate = verdict.duplicate;
        }
        if duplicate {
            // Each copy occupies its own serialization window at the
            // receiver, back to back, like a retransmitted frame would.
            self.counts.duplicated += 1;
            self.put_on_wire(msg, ctx);
        }
        self.put_on_wire(msg, ctx);
    }

    fn put_on_wire(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        self.messages += 1;
        self.bytes += msg.wire_bytes();
        if self.uplink {
            ctx.emit(Self::uplink_port(), Payload::new(msg));
            return;
        }
        let dst = msg.header.dst_node;
        let peers = self.peers.as_ref().unwrap_or_else(|| {
            panic!(
                "crossbar port of node {} sent before connect_crossbar",
                self.node
            )
        });
        let latency = self.cfg.latency_between(self.node, dst);
        ctx.send_to(
            peers[dst as usize],
            PORT_FP_WIRE,
            Payload::new(msg),
            latency,
        );
    }

    /// Receiver side: occupy the ingress link, then hand the frame to
    /// the local NIC.
    fn receive(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let ser = self.cfg.serialize(msg.wire_bytes());
        let start = ctx.now().max(self.busy_until);
        self.busy_until = start + ser;
        let delay = (start + ser) - ctx.now();
        ctx.send_to(self.nic, self.nic_rx, Payload::new(msg), delay);
    }
}

/// Scheduled-edge check at a source port: look up the edge's state at
/// `now`, count/trace the transition if it differs from the last
/// *observed* state (edge-triggered on traffic — the trace is a no-op
/// unless the harness enabled it), count a refusal, and say whether the
/// frame must be refused. Pure function of `(schedule, edge, now)` plus
/// locally observed traffic, so it is deterministic.
fn scheduled_edge_refuses(
    schedule: &Arc<FaultSchedule>,
    edge_seen_down: &mut BTreeMap<(u32, u32), bool>,
    counts: &mut FaultCounts,
    src: u32,
    dst: u32,
    ctx: &mut Ctx<'_>,
) -> bool {
    let down = schedule.edge_down(src, dst, ctx.now());
    let key = (src.min(dst), src.max(dst));
    let seen = edge_seen_down.entry(key).or_insert(false);
    if *seen != down {
        *seen = down;
        counts.flap_transitions += 1;
        ctx.trace(TraceEvent::ComponentFault {
            kind: if down {
                ComponentFaultKind::LinkDown
            } else {
                ComponentFaultKind::LinkUp
            },
            node: key.0,
            peer: key.1,
        });
    }
    if down {
        counts.edge_drops += 1;
    }
    down
}

impl Component for FabricPort {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let msg = *ev.payload.downcast::<Message>().unwrap_or_else(|p| {
            panic!(
                "fabric port accepts Message payloads only; got {p:?} on port {:?} at t={}",
                ev.port, ev.time
            )
        });
        match ev.port {
            PORT_FP_INJECT => self.inject(msg, ctx),
            PORT_FP_WIRE => self.receive(msg, ctx),
            other => panic!("fabric port has no input port {other:?}"),
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn publish(&self, stats: &mut Stats) {
        let c = &self.counts;
        for (key, n) in [
            ("net.messages", self.messages),
            ("net.bytes", self.bytes),
            ("net.faults.dropped", c.dropped),
            ("net.faults.corrupted", c.corrupted),
            ("net.faults.duplicated", c.duplicated),
            ("net.sched.edge_drops", c.edge_drops),
        ] {
            stats.add(key, n);
        }
    }

    fn publish_metrics(&self, metrics: &mut Metrics) {
        metrics.add("fault.flap_transitions", self.counts.flap_transitions);
    }
}

/// Join crossbar ports: hand each one the table of every node's port id,
/// which it sends through (see [`FabricPort`]). `ports[n]` must be node
/// `n`'s [`FabricPort`], built without [`FabricPort::with_uplink`]. One
/// shared table, so joining `n` ports costs O(n), not O(n²).
pub fn connect_crossbar(sim: &mut Simulation, ports: &[ComponentId]) {
    let table: Arc<[ComponentId]> = ports.into();
    for &p in ports {
        let port = sim
            .component_mut::<FabricPort>(p)
            .expect("connect_crossbar: not a FabricPort");
        assert!(!port.uplink, "connect_crossbar: port is in uplink mode");
        port.peers = Some(table.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgHeader, MsgKind};
    use std::sync::{Arc, Mutex};

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

    type DeliveryLog = Arc<Mutex<Vec<(Time, u64, bool)>>>;

    struct Sink {
        got: DeliveryLog,
    }
    impl Component for Sink {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let m = ev.payload.downcast::<Message>().unwrap();
            self.got
                .lock()
                .unwrap()
                .push((ctx.now(), m.header.seq, m.link.crc_ok));
        }
    }

    /// One sink ("the NIC") and one port per node.
    fn build_with(
        cfg: NetConfig,
        nodes: u32,
        faults: FaultConfig,
    ) -> (Simulation, Vec<ComponentId>, Vec<DeliveryLog>) {
        let mut sim = Simulation::new(7);
        let mut logs = Vec::new();
        let mut ports = Vec::new();
        for n in 0..nodes {
            let log: DeliveryLog = Arc::new(Mutex::new(Vec::new()));
            let sink = sim.add_component(&format!("sink{n}"), Sink { got: log.clone() });
            let port = FabricPort::with_faults(cfg, nodes, n, sink, InPort(0), faults);
            ports.push(sim.add_component(&format!("net{n}"), port));
            logs.push(log);
        }
        connect_crossbar(&mut sim, &ports);
        (sim, ports, logs)
    }

    fn build(nodes: u32, faults: FaultConfig) -> (Simulation, Vec<ComponentId>, Vec<DeliveryLog>) {
        build_with(NetConfig::default(), nodes, faults)
    }

    fn send(sim: &mut Simulation, ports: &[ComponentId], m: Message, at: Time) {
        let src = m.header.src_node as usize;
        sim.post(ports[src], PORT_FP_INJECT, Payload::new(m), at);
    }

    #[test]
    fn delivery_time_is_wire_plus_serialization() {
        let (mut sim, ports, logs) = build(2, FaultConfig::none());
        send(&mut sim, &ports, msg(0, 1, 0, 1), Time::ZERO);
        sim.run();
        let (t, seq, crc) = logs[1].lock().unwrap()[0];
        assert_eq!(seq, 1);
        assert!(crc);
        // 200 ns wire + 32 header bytes at 2 B/ns = 16 ns.
        assert_eq!(t, Time::from_ns(200 + 16));
    }

    #[test]
    fn bandwidth_scales_with_length() {
        let (mut sim, ports, logs) = build(2, FaultConfig::none());
        send(&mut sim, &ports, msg(0, 1, 4096, 1), Time::ZERO);
        sim.run();
        assert_eq!(
            logs[1].lock().unwrap()[0].0,
            Time::from_ns(200 + (4096 + 32) / 2)
        );
    }

    #[test]
    fn serialization_rounds_up_end_to_end() {
        // 32000/7 ps = 4571.43 of serialization, charged as 4572 ps.
        let cfg = NetConfig {
            bytes_per_ns: 7,
            ..NetConfig::default()
        };
        let (mut sim, ports, logs) = build_with(cfg, 2, FaultConfig::none());
        send(&mut sim, &ports, msg(0, 1, 0, 0), Time::ZERO);
        sim.run();
        assert_eq!(
            logs[1].lock().unwrap()[0].0,
            Time::from_ns(200) + Time::from_ps(4572)
        );
    }

    #[test]
    fn receiver_link_serializes_and_preserves_order() {
        let (mut sim, ports, logs) = build(2, FaultConfig::none());
        for seq in 0..4 {
            send(&mut sim, &ports, msg(0, 1, 1000, seq), Time::ZERO);
        }
        sim.run();
        let got = logs[1].lock().unwrap();
        let seqs: Vec<u64> = got.iter().map(|&(_, s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "per-(src,dst) order violated");
        // 1032 wire bytes serialize for 516 ns behind the 200 ns wire.
        assert_eq!(got[0].0, Time::from_ns(716));
        assert_eq!(got[1].0, Time::from_ns(716 + 516));
    }

    #[test]
    fn sources_share_the_destination_ingress_link_in_arrival_order() {
        let (mut sim, ports, logs) = build(3, FaultConfig::none());
        send(&mut sim, &ports, msg(1, 2, 1000, 10), Time::ZERO);
        send(&mut sim, &ports, msg(0, 2, 1000, 20), Time::from_ns(1));
        sim.run();
        let got = logs[2].lock().unwrap();
        assert_eq!((got[0].1, got[1].1), (10, 20), "arrival order violated");
        // The second frame queues behind the first on node 2's link.
        assert_eq!(got[0].0, Time::from_ns(716));
        assert_eq!(got[1].0, Time::from_ns(716 + 516));
    }

    #[test]
    fn different_destinations_do_not_contend() {
        let (mut sim, ports, logs) = build(3, FaultConfig::none());
        send(&mut sim, &ports, msg(0, 1, 1000, 0), Time::ZERO);
        send(&mut sim, &ports, msg(0, 2, 1000, 1), Time::ZERO);
        sim.run();
        assert_eq!(logs[1].lock().unwrap()[0].0, Time::from_ns(716));
        assert_eq!(logs[2].lock().unwrap()[0].0, Time::from_ns(716));
    }

    #[test]
    fn self_send_takes_the_wire() {
        let (mut sim, ports, logs) = build(2, FaultConfig::none());
        send(&mut sim, &ports, msg(0, 0, 0, 5), Time::ZERO);
        sim.run();
        assert_eq!(logs[0].lock().unwrap()[0].0, Time::from_ns(216));
    }

    #[test]
    fn same_run_twice_gives_identical_deliveries_and_stats() {
        let faults: FaultConfig = "seed=3,drop=0.1,corrupt=0.05".parse().unwrap();
        let run = || {
            let (mut sim, ports, logs) = build(4, faults);
            let mut seq = 0;
            for src in 0..4u32 {
                for dst in 0..4u32 {
                    for k in 0..8u64 {
                        send(
                            &mut sim,
                            &ports,
                            msg(src, dst, 256, seq),
                            Time::from_ns(k * 100),
                        );
                        seq += 1;
                    }
                }
            }
            sim.run();
            let mut deliveries: Vec<(u32, Time, u64, bool)> = Vec::new();
            for (n, log) in logs.iter().enumerate() {
                for &(t, s, c) in log.lock().unwrap().iter() {
                    deliveries.push((n as u32, t, s, c));
                }
            }
            deliveries.sort();
            (deliveries, sim.stats().to_json())
        };
        assert_eq!(run(), run(), "fabric diverged between runs");
    }

    #[test]
    fn short_pair_profile_shortens_exactly_that_wire() {
        use crate::fabric::WireProfile;
        let cfg = NetConfig {
            wire_latency: Time::from_us(1),
            profile: WireProfile::ShortPair {
                a: 0,
                b: 1,
                short: Time::from_ns(10),
            },
            ..NetConfig::default()
        };
        let (mut sim, ports, logs) = build_with(cfg, 3, FaultConfig::none());
        // The short pair's wire is the tightest latency a crossbar port
        // sends at.
        assert_eq!(cfg.latency_between(0, 1), Time::from_ns(10));
        send(&mut sim, &ports, msg(0, 1, 0, 1), Time::ZERO);
        send(&mut sim, &ports, msg(0, 2, 0, 2), Time::ZERO);
        sim.run();
        // 0 -> 1 rides the 10 ns wire; 0 -> 2 the 1 us wire; both then
        // serialize 32 header bytes at 2 B/ns = 16 ns on arrival.
        assert_eq!(logs[1].lock().unwrap()[0].0, Time::from_ns(10 + 16));
        assert_eq!(logs[2].lock().unwrap()[0].0, Time::from_ns(1000 + 16));
    }

    /// Every (src, dst) frame of a 4-node crossbar, self-sends included,
    /// arrives at its pair's wire latency plus serialization: the direct
    /// send path uses exactly the latency a per-pair link carried.
    #[test]
    fn crossbar_frames_ride_their_pairs_latency() {
        use crate::fabric::WireProfile;
        let cfg = NetConfig {
            wire_latency: Time::from_ns(700),
            profile: WireProfile::ShortPair {
                a: 1,
                b: 3,
                short: Time::from_ns(10),
            },
            ..NetConfig::default()
        };
        for src in 0..4 {
            for dst in 0..4 {
                let (mut sim, ports, logs) = build_with(cfg, 4, FaultConfig::none());
                let at = Time::from_ns(5);
                send(&mut sim, &ports, msg(src, dst, 100, 1), at);
                sim.run();
                let ser = cfg.serialize(msg(src, dst, 100, 1).wire_bytes());
                let got = logs[dst as usize].lock().unwrap().clone();
                assert_eq!(
                    got,
                    vec![(at + cfg.latency_between(src, dst) + ser, 1, true)],
                    "{src} -> {dst}"
                );
                let stats = sim.stats();
                assert_eq!(stats.get("net.messages"), 1);
                assert_eq!(stats.get("net.bytes"), 132);
            }
        }
    }

    #[test]
    fn idle_ports_publish_no_keys() {
        let (mut sim, _, _) = build(3, FaultConfig::none());
        sim.run();
        assert_eq!(sim.stats().to_json(), "{}");
    }

    #[test]
    fn drops_are_counted_and_deterministic() {
        let faults: FaultConfig = "seed=3,drop=0.2".parse().unwrap();
        let run = || {
            let (mut sim, ports, logs) = build(2, faults);
            for seq in 0..200 {
                send(
                    &mut sim,
                    &ports,
                    msg(0, 1, 64, seq),
                    Time::from_ns(seq * 1000),
                );
            }
            sim.run();
            let delivered: Vec<u64> = logs[1].lock().unwrap().iter().map(|&(_, s, _)| s).collect();
            (delivered, sim.stats().get("net.faults.dropped"))
        };
        let (d1, dropped1) = run();
        let (d2, dropped2) = run();
        assert_eq!(d1, d2, "same seed must drop the same messages");
        assert_eq!(dropped1, dropped2);
        assert!(dropped1 > 10 && dropped1 < 80, "dropped {dropped1} of 200");
        assert_eq!(d1.len() as u64 + dropped1, 200);
    }

    #[test]
    fn duplicates_deliver_twice_in_order() {
        let faults: FaultConfig = "seed=3,dup=1.0".parse().unwrap();
        let (mut sim, ports, logs) = build(2, faults);
        send(&mut sim, &ports, msg(0, 1, 0, 9), Time::ZERO);
        sim.run();
        let got = logs[1].lock().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].1, got[1].1), (9, 9));
        // The second copy queues behind the first on the ingress link.
        assert_eq!(got[1].0 - got[0].0, Time::from_ns(16));
        assert_eq!(sim.stats().get("net.faults.duplicated"), 1);
    }

    #[test]
    fn corruption_clears_crc_flag() {
        let faults: FaultConfig = "seed=3,corrupt=1.0".parse().unwrap();
        let (mut sim, ports, logs) = build(2, faults);
        send(&mut sim, &ports, msg(0, 1, 0, 1), Time::ZERO);
        sim.run();
        let got = logs[1].lock().unwrap();
        assert_eq!(got.len(), 1);
        assert!(!got[0].2, "frame should arrive with failed CRC");
        assert_eq!(sim.stats().get("net.faults.corrupted"), 1);
    }

    #[test]
    fn empty_fault_config_changes_nothing() {
        let (mut sim, ports, logs) = build(2, FaultConfig::none());
        send(&mut sim, &ports, msg(0, 1, 0, 1), Time::ZERO);
        sim.run();
        assert_eq!(logs[1].lock().unwrap()[0].0, Time::from_ns(216));
        let stats = sim.stats();
        for key in [
            "net.faults.dropped",
            "net.faults.duplicated",
            "net.faults.corrupted",
        ] {
            assert_eq!(stats.get(key), 0, "{key}");
        }
    }
}
