//! Two-node NIC integration tests: a pair of NICs on a fabric (each NIC
//! behind its own `FabricPort`), driven by scripted
//! host components. Exercises eager and rendezvous protocols,
//! matching semantics, ordering, and baseline-vs-ALPU equivalence.

use mpiq_dessim::prelude::*;
use mpiq_net::{connect_crossbar, FabricPort, NetConfig, PORT_FP_INJECT};
use mpiq_nic::{
    Completion, HostRequest, Nic, NicConfig, ReqId, PORT_HOST_COMP, PORT_HOST_REQ, PORT_NET_RX,
    PORT_NET_TX,
};
use std::sync::Arc;
use std::sync::Mutex;

/// A host that fires a script of requests at fixed times and records
/// completions.
struct ScriptHost {
    nic: ComponentId,
    script: Vec<(Time, HostRequest)>,
    log: CompletionLog,
}

impl Component for ScriptHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (at, req) in self.script.drain(..) {
            // Request reaches the NIC one bus transaction after issue.
            ctx.send_to(
                self.nic,
                PORT_HOST_REQ,
                Payload::new(req),
                at + Time::from_ns(20),
            );
        }
    }
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let comp = *ev.payload.downcast::<Completion>().unwrap();
        self.log.lock().unwrap().push((ctx.now(), comp));
    }
}

type CompletionLog = Arc<Mutex<Vec<(Time, Completion)>>>;

struct World {
    sim: Simulation,
    nics: Vec<ComponentId>,
    logs: Vec<CompletionLog>,
}

fn build(cfg: NicConfig, scripts: Vec<Vec<(Time, HostRequest)>>) -> World {
    let n = scripts.len() as u32;
    let net = NetConfig::default();
    let mut sim = Simulation::new(1);
    let mut nics = Vec::new();
    let mut ports = Vec::new();
    let mut logs = Vec::new();
    for (node, script) in scripts.into_iter().enumerate() {
        let nic = sim.add_component(&format!("nic{node}"), Nic::new(node as u32, cfg));
        let port = FabricPort::new(net, n, node as u32, nic, PORT_NET_RX);
        let port = sim.add_component(&format!("net{node}"), port);
        sim.connect(nic, PORT_NET_TX, port, PORT_FP_INJECT, Time::ZERO);
        let log = Arc::new(Mutex::new(Vec::new()));
        let host = sim.add_component(
            &format!("host{node}"),
            ScriptHost {
                nic,
                script,
                log: log.clone(),
            },
        );
        sim.connect(nic, PORT_HOST_COMP, host, InPort(0), Time::from_ns(20));
        nics.push(nic);
        ports.push(port);
        logs.push(log);
    }
    connect_crossbar(&mut sim, &ports);
    World { sim, nics, logs }
}

fn rid(rank: u32, seq: u64) -> ReqId {
    ReqId { rank, seq }
}

fn send(rank: u32, seq: u64, dst: u32, tag: u16, len: u32) -> HostRequest {
    HostRequest::PostSend {
        req: rid(rank, seq),
        dst,
        context: 1,
        tag,
        len,
    }
}

fn recv(rank: u32, seq: u64, src: Option<u16>, tag: Option<u16>, len: u32) -> HostRequest {
    HostRequest::PostRecv {
        req: rid(rank, seq),
        src,
        context: 1,
        tag,
        len,
    }
}

#[test]
fn eager_zero_length_pingpong_half() {
    // Node 1 pre-posts; node 0 sends at t=1us.
    let w = build(
        NicConfig::baseline(),
        vec![
            vec![(Time::from_us(1), send(0, 0, 1, 7, 0))],
            vec![(Time::ZERO, recv(1, 0, Some(0), Some(7), 0))],
        ],
    );
    let mut w = w;
    w.sim.run();
    let log1 = w.logs[1].lock().unwrap();
    assert_eq!(log1.len(), 1, "receiver must complete exactly once");
    let (t, comp) = log1[0];
    assert_eq!(comp.req, rid(1, 0));
    assert_eq!(comp.source, 0);
    assert_eq!(comp.tag, 7);
    assert_eq!(comp.len, 0);
    let latency = t - Time::from_us(1);
    assert!(
        latency > Time::from_ns(200) && latency < Time::from_us(2),
        "one-way latency {latency} out of sane range"
    );
    // Sender's local completion too.
    assert_eq!(w.logs[0].lock().unwrap().len(), 1);
}

#[test]
fn unexpected_eager_completes_on_late_recv() {
    let w = build(
        NicConfig::baseline(),
        vec![
            vec![(Time::ZERO, send(0, 0, 1, 3, 256))],
            vec![(Time::from_us(5), recv(1, 0, Some(0), Some(3), 256))],
        ],
    );
    let mut w = w;
    w.sim.run();
    let log1 = w.logs[1].lock().unwrap();
    assert_eq!(log1.len(), 1);
    assert_eq!(log1[0].1.len, 256);
    assert!(log1[0].0 > Time::from_us(5));
}

#[test]
fn rendezvous_transfers_large_payload() {
    let len = 64 * 1024; // far above the 2 KB eager threshold
    let w = build(
        NicConfig::baseline(),
        vec![
            vec![(Time::from_us(1), send(0, 0, 1, 9, len))],
            vec![(Time::ZERO, recv(1, 0, Some(0), Some(9), len))],
        ],
    );
    let mut w = w;
    w.sim.run();
    let log1 = w.logs[1].lock().unwrap();
    assert_eq!(log1.len(), 1);
    assert_eq!(log1[0].1.len, len);
    // 64 KB at 2 B/ns on the wire alone is 32 us.
    assert!(
        log1[0].0 > Time::from_us(30),
        "rndv too fast: {}",
        log1[0].0
    );
    // Sender completes after shipping the data.
    let log0 = w.logs[0].lock().unwrap();
    assert_eq!(log0.len(), 1);
}

#[test]
fn rendezvous_unexpected_side() {
    // Request arrives before the receive is posted.
    let len = 16 * 1024;
    let w = build(
        NicConfig::baseline(),
        vec![
            vec![(Time::ZERO, send(0, 0, 1, 9, len))],
            vec![(Time::from_us(10), recv(1, 0, Some(0), Some(9), len))],
        ],
    );
    let mut w = w;
    w.sim.run();
    assert_eq!(w.logs[1].lock().unwrap().len(), 1);
    assert_eq!(w.logs[1].lock().unwrap()[0].1.len, len);
}

#[test]
fn wildcard_source_and_tag_match() {
    let w = build(
        NicConfig::baseline(),
        vec![
            vec![(Time::from_us(1), send(0, 0, 2, 42, 0))],
            vec![(Time::from_us(1), send(1, 0, 2, 43, 0))],
            vec![
                (Time::ZERO, recv(2, 0, None, Some(42), 0)),
                (Time::ZERO, recv(2, 1, None, None, 0)),
            ],
        ],
    );
    let mut w = w;
    w.sim.run();
    let log = w.logs[2].lock().unwrap();
    assert_eq!(log.len(), 2);
    // The ANY/ANY receive was posted second, so the tag-42 message goes to
    // req 0 and the other to req 1.
    let by_req: std::collections::HashMap<u64, u16> =
        log.iter().map(|&(_, c)| (c.req.seq, c.tag)).collect();
    assert_eq!(by_req[&0], 42);
    assert_eq!(by_req[&1], 43);
}

#[test]
fn same_pair_messages_complete_in_order() {
    // MPI ordering: two identical sends must match two identical receives
    // in post order.
    let w = build(
        NicConfig::baseline(),
        vec![
            vec![
                (Time::from_us(1), send(0, 0, 1, 5, 64)),
                (Time::from_us(1), send(0, 1, 1, 5, 64)),
            ],
            vec![
                (Time::ZERO, recv(1, 0, Some(0), Some(5), 64)),
                (Time::ZERO, recv(1, 1, Some(0), Some(5), 64)),
            ],
        ],
    );
    let mut w = w;
    w.sim.run();
    let log = w.logs[1].lock().unwrap();
    assert_eq!(log.len(), 2);
    assert!(log[0].0 <= log[1].0);
    assert_eq!(log[0].1.req.seq, 0, "first recv matches first send");
    assert_eq!(log[1].1.req.seq, 1);
}

/// Run the same mixed workload on two configs; application-visible results
/// must be identical (only timing may differ).
fn run_workload(cfg: NicConfig) -> Vec<Vec<Completion>> {
    let mut scripts: Vec<Vec<(Time, HostRequest)>> = vec![vec![], vec![]];
    // Node 1 posts a pile of receives, some wildcards; node 0 sends a mix
    // of matching and non-matching messages; node 1 then posts late
    // receives to drain the unexpected queue.
    for i in 0..20u64 {
        scripts[1].push((
            Time::from_ns(100 * i),
            recv(1, i, Some(0), Some(1000 + i as u16), 64),
        ));
    }
    scripts[1].push((Time::from_us(3), recv(1, 20, None, Some(7), 0)));
    for i in 0..20u64 {
        scripts[0].push((
            Time::from_us(10) + Time::from_ns(500 * i),
            send(0, i, 1, 1000 + i as u16, 64),
        ));
    }
    scripts[0].push((Time::from_us(25), send(0, 20, 1, 7, 0)));
    // Unexpected traffic, drained later.
    for i in 0..10u64 {
        scripts[0].push((
            Time::from_us(30) + Time::from_ns(500 * i),
            send(0, 21 + i, 1, 2000 + i as u16, 128),
        ));
    }
    for i in 0..10u64 {
        scripts[1].push((
            Time::from_us(60) + Time::from_ns(300 * i),
            recv(1, 21 + i, Some(0), Some(2000 + i as u16), 128),
        ));
    }
    let mut w = build(cfg, scripts);
    w.sim.run();
    // Quiesce check: ALPU shadow invariants hold at the end.
    for &nic in &w.nics {
        let nic_ref: &Nic = w.sim.component(nic).expect("downcast Nic");
        mpiq_nic::firmware::check_invariants(nic_ref.firmware());
    }
    w.logs
        .iter()
        .map(|l| {
            let mut v: Vec<Completion> = l.lock().unwrap().iter().map(|&(_, c)| c).collect();
            v.sort_by_key(|c| c.req);
            v
        })
        .collect()
}

#[test]
fn alpu_and_baseline_agree_on_results() {
    let base = run_workload(NicConfig::baseline());
    let alpu128 = run_workload(NicConfig::with_alpus(128));
    let alpu256 = run_workload(NicConfig::with_alpus(256));
    assert_eq!(base, alpu128);
    assert_eq!(base, alpu256);
    // Everything completed.
    assert_eq!(base[0].len(), 31);
    assert_eq!(base[1].len(), 31);
}

/// The headline effect: with a long posted queue, the baseline NIC's
/// latency grows with traversal depth while the ALPU NIC stays flat.
fn deep_queue_latency(cfg: NicConfig, depth: u64) -> Time {
    let mut scripts: Vec<Vec<(Time, HostRequest)>> = vec![vec![], vec![]];
    // Node 1 posts `depth` non-matching receives then the matching one.
    for i in 0..depth {
        scripts[1].push((Time::ZERO, recv(1, i, Some(0), Some(100), 0)));
    }
    scripts[1].push((Time::ZERO, recv(1, depth, Some(0), Some(7), 0)));
    // Sender waits long enough for all posting (and ALPU inserts) to
    // settle, then sends the probe message.
    let t0 = Time::from_ms(2);
    scripts[0].push((t0, send(0, 0, 1, 7, 0)));
    let mut w = build(cfg, scripts);
    w.sim.run();
    let log = w.logs[1].lock().unwrap();
    let done = log
        .iter()
        .find(|(_, c)| c.req.seq == depth)
        .expect("probe recv completed")
        .0;
    done - t0
}

#[test]
fn baseline_latency_grows_with_queue_depth() {
    let short = deep_queue_latency(NicConfig::baseline(), 4);
    let long = deep_queue_latency(NicConfig::baseline(), 300);
    let delta = long - short;
    let per_entry = delta.ps() as f64 / 296.0 / 1000.0;
    assert!(
        (10.0..=80.0).contains(&per_entry),
        "baseline per-entry cost {per_entry} ns"
    );
}

#[test]
fn alpu_latency_flat_within_capacity() {
    let short = deep_queue_latency(NicConfig::with_alpus(128), 4);
    let deep = deep_queue_latency(NicConfig::with_alpus(128), 100);
    let delta = deep.saturating_sub(short);
    assert!(
        delta < Time::from_ns(200),
        "ALPU latency should be flat within capacity; grew by {delta}"
    );
}

#[test]
fn alpu_beats_baseline_on_deep_queues() {
    let base = deep_queue_latency(NicConfig::baseline(), 300);
    let alpu = deep_queue_latency(NicConfig::with_alpus(256), 300);
    assert!(
        alpu + Time::from_us(2) < base,
        "ALPU {alpu} should clearly beat baseline {base} at depth 300"
    );
}

#[test]
fn alpu_overhead_at_zero_depth_is_small() {
    let base = deep_queue_latency(NicConfig::baseline(), 0);
    let alpu = deep_queue_latency(NicConfig::with_alpus(128), 0);
    let overhead = alpu.saturating_sub(base);
    assert!(
        overhead < Time::from_ns(200),
        "zero-depth ALPU overhead {overhead} too large"
    );
    assert!(
        overhead > Time::ZERO,
        "ALPU interaction should cost something at zero depth"
    );
}
