//! Cluster assembly: hosts + NICs + fabric, ready to run.
//!
//! Every cluster runs on one [`Simulation`]: one event queue for every
//! host, NIC, fabric port and switch, ordered by `(time, seq)` (see
//! [`mpiq_dessim::scheduler`]). Components are registered in a fixed
//! order — switches, then per node its NIC, port and hosts — so the
//! same configuration always yields the same component ids and the same
//! schedule. On the default crossbar ([`Topology::Hub`]) each port
//! sends straight to its peers' ports; a switched topology routes
//! through [`Switch`] components (see [`Cluster::with_recovery`]).

use crate::app::{AppProgram, PORT_COMPLETION};
use crate::host::Host;
use mpiq_dessim::prelude::*;
use mpiq_dessim::watchdog::{Diagnosis, StallKind};
use mpiq_dessim::{FaultConfig, FaultSchedule, Metrics, Stats};
use mpiq_net::{FabricPort, NetConfig, Switch, Topology, PORT_FP_INJECT, PORT_FP_WIRE, PORT_SW_IN};
use mpiq_nic::{host_comp_port, Nic, NicConfig, PORT_NET_RX, PORT_NET_TX};
use std::sync::Arc;

/// Everything needed to build a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// NIC configuration (same on every node).
    pub nic: NicConfig,
    /// Network parameters.
    pub net: NetConfig,
    /// Host CPU cost per dispatched request.
    pub host_dispatch: Time,
    /// Trace-ring capacity; 0 (the default) leaves tracing disabled so
    /// instrumented code paths stay no-ops.
    pub trace_capacity: usize,
    /// Enable the latency-histogram / counter registry.
    pub metrics: bool,
    /// Component-level fault timeline (node crashes, link flaps,
    /// partitions, ALPU deaths), shared by every component that consults
    /// it. `None` (the default) keeps every fault-domain code path a
    /// single flag check. Set via
    /// [`ClusterConfigBuilder::fault_schedule`].
    pub fault_schedule: Option<Arc<FaultSchedule>>,
    /// Fabric shape. [`Topology::Hub`] (the default) is the paper's
    /// single crossbar. A switched topology (the fat tree) routes
    /// through switch components.
    pub topology: Topology,
}

impl ClusterConfig {
    /// Defaults around a given NIC configuration.
    pub fn new(nic: NicConfig) -> ClusterConfig {
        ClusterConfig {
            nic,
            net: NetConfig::default(),
            host_dispatch: Time::from_ns(40),
            trace_capacity: 0,
            metrics: false,
            fault_schedule: None,
            topology: Topology::Hub,
        }
    }

    /// Start a typed builder around a NIC configuration — the one place
    /// to dial faults, observability, and topology. Flow control is a
    /// NIC setting ([`NicConfig::with_flow_control`]).
    pub fn builder(nic: NicConfig) -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::new(nic),
        }
    }
}

/// Builder for [`ClusterConfig`]. Every method is optional; `build`
/// returns the config with whatever was dialed in.
///
/// ```
/// # use mpiq_mpi::cluster::ClusterConfig;
/// # use mpiq_nic::NicConfig;
/// let nic = NicConfig::baseline().with_flow_control(4, 32, 16 << 10);
/// let cfg = ClusterConfig::builder(nic).observability(4096).build();
/// assert_eq!(cfg.nic.max_unexpected, 32);
/// assert!(cfg.nic.reliability);
/// assert!(cfg.metrics);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Network parameters (wire latency, bandwidth).
    pub fn net(mut self, net: NetConfig) -> Self {
        self.cfg.net = net;
        self
    }

    /// Host CPU cost per dispatched request.
    pub fn host_dispatch(mut self, cost: Time) -> Self {
        self.cfg.host_dispatch = cost;
        self
    }

    /// Arm deterministic fault injection (fabric drops/duplicates/
    /// corruption, ALPU bit flips and stalls). Network-side faults force
    /// the link reliability layer on.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.nic = self.cfg.nic.with_faults(faults);
        self
    }

    /// Turn on structured tracing (a ring of the last `capacity`
    /// records) and the metrics registry.
    pub fn observability(mut self, trace_capacity: usize) -> Self {
        self.cfg.trace_capacity = trace_capacity;
        self.cfg.metrics = true;
        self
    }

    /// Accepted and ignored: every cluster runs on the calling thread.
    /// This no-op exists only because the frozen `benchmark/` crate
    /// still calls it (`benchmark/src/workload.rs`); nothing else may.
    pub fn parallelism(self, _threads: usize) -> Self {
        self
    }

    /// Select the fabric shape. The default [`Topology::Hub`] keeps the
    /// paper's crossbar; a switched topology routes every frame through
    /// [`Switch`] components (per-hop serialization, output queueing,
    /// link contention).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Tune the NIC failure detector: how long a peer may stay silent
    /// before keepalive probing starts (`keepalive`), and how many
    /// unanswered retransmits declare it dead (`retry_budget`). The
    /// defaults are aggressive so tests converge quickly; deployments
    /// facing long-but-survivable link outages want a *lenient* detector
    /// (longer keepalive, bigger budget) so a slow-but-alive peer is not
    /// falsely declared dead — see `tests/recovery.rs`.
    pub fn failure_detector(mut self, keepalive: Time, retry_budget: u32) -> Self {
        self.cfg.nic = self.cfg.nic.with_failure_detector(keepalive, retry_budget);
        self
    }

    /// Arm the component-level fault timeline: scheduled node crashes,
    /// link flaps, network partitions, and ALPU deaths. An empty
    /// schedule is the same as never calling this. A non-empty schedule
    /// forces the link reliability layer on — flapping links drop frames,
    /// and peer-death detection rides the keepalive machinery.
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        if !schedule.is_empty() {
            self.cfg.nic.reliability = true;
            self.cfg.fault_schedule = Some(Arc::new(schedule));
        }
        self
    }

    /// Finish.
    pub fn build(self) -> ClusterConfig {
        self.cfg
    }
}

/// Why a cluster could not be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// Rank `rank`'s program (or its recovery program) runs in worlds of
    /// at most `max` ranks — fault-tolerant agreement carries one mask
    /// bit per rank — but the cluster has `ranks`.
    WorldTooWide {
        /// The rank whose program is bounded.
        rank: u32,
        /// The cluster's rank count.
        ranks: u32,
        /// The program's bound ([`AppProgram::max_world`]).
        max: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ClusterError::WorldTooWide { rank, ranks, max } => write!(
                f,
                "rank {rank}'s program runs in at most {max} ranks \
                 (agreement carries one mask bit per rank), but the cluster has {ranks}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A built cluster: run it, then inspect NICs and statistics.
pub struct Cluster {
    sim: Simulation,
    nics: Vec<ComponentId>,
    hosts: Vec<ComponentId>,
    /// Node count (not rank count) — the fault schedule and partition
    /// diagnosis are node-granular.
    nodes: u32,
    /// The armed fault timeline, if any; consulted by the watchdog to
    /// tell partition-induced quiescence from a leak deadlock.
    schedule: Option<Arc<FaultSchedule>>,
}

impl Cluster {
    /// Build a cluster with one program per rank. When the NIC config
    /// sets `ranks_per_node > 1`, consecutive ranks share a node's NIC
    /// (block distribution), exercising the paper's footnote-1
    /// multi-process extension.
    ///
    /// Panics where [`Cluster::try_new`] returns an error.
    pub fn new(cfg: ClusterConfig, programs: Vec<Box<dyn AppProgram>>) -> Cluster {
        Cluster::try_new(cfg, programs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Cluster::new`], returning a typed error for a program that
    /// cannot run in this world (see [`AppProgram::max_world`]).
    pub fn try_new(
        cfg: ClusterConfig,
        programs: Vec<Box<dyn AppProgram>>,
    ) -> Result<Cluster, ClusterError> {
        let recovery = programs.iter().map(|_| None).collect();
        Cluster::try_with_recovery(cfg, programs, recovery)
    }

    /// Like [`Cluster::new`], but with a recovery program staged per
    /// rank (`None` = nothing to run after a restart). When the fault
    /// schedule restarts a rank's node, its host boots the staged
    /// program from scratch — pre-crash program state is gone, matching
    /// the crash-stop model. Ranks whose nodes never restart never
    /// consume their entry.
    ///
    /// On the crossbar, [`mpiq_net::connect_crossbar`] hands every port
    /// one shared table of peer-port ids, and a port sends each frame
    /// straight to its destination's port at the per-pair latency from
    /// `cfg.net`: no per-pair link is registered, so setup is O(nodes).
    /// A switched topology routes through [`Switch`] components planned
    /// by [`Topology::plan`]. Ports run in uplink mode, so wiring is
    /// O(nodes + trunks):
    ///
    /// * node uplink → edge switch [`PORT_SW_IN`], at wire latency;
    /// * trunk `i` of each switch → neighbor's [`PORT_SW_IN`], at wire
    ///   latency (each direction its own link);
    /// * switch node port → node's [`PORT_FP_WIRE`], at wire latency
    ///   (the receiving port charges downlink serialization).
    ///
    /// Scheduled (src, dst) link faults are checked at the *source*
    /// port, blackholing the pair end-to-end no matter how many switches
    /// sit between.
    ///
    /// Panics where [`Cluster::try_with_recovery`] returns an error.
    pub fn with_recovery(
        cfg: ClusterConfig,
        programs: Vec<Box<dyn AppProgram>>,
        recovery: Vec<Option<Box<dyn AppProgram>>>,
    ) -> Cluster {
        Cluster::try_with_recovery(cfg, programs, recovery).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Cluster::with_recovery`], returning a typed error for a program
    /// (or recovery program) that cannot run in this world (see
    /// [`AppProgram::max_world`]).
    pub fn try_with_recovery(
        cfg: ClusterConfig,
        programs: Vec<Box<dyn AppProgram>>,
        recovery: Vec<Option<Box<dyn AppProgram>>>,
    ) -> Result<Cluster, ClusterError> {
        let n = programs.len() as u32;
        assert!(n > 0, "cluster needs at least one rank");
        assert_eq!(
            programs.len(),
            recovery.len(),
            "one recovery slot (possibly None) per rank"
        );
        for (rank, (program, staged)) in programs.iter().zip(&recovery).enumerate() {
            let staged = staged.as_ref().and_then(|p| p.max_world());
            if let Some(max) = program.max_world().into_iter().chain(staged).min() {
                if n > max {
                    let rank = rank as u32;
                    return Err(ClusterError::WorldTooWide {
                        rank,
                        ranks: n,
                        max,
                    });
                }
            }
        }
        let k = cfg.nic.ranks_per_node.max(1);
        let nodes = n.div_ceil(k);
        let plan = cfg.topology.plan(nodes).map(Arc::new);
        let mut sim = Simulation::new(0);
        if cfg.trace_capacity > 0 {
            sim.enable_tracing(cfg.trace_capacity);
        }
        if cfg.metrics {
            sim.enable_metrics();
        }
        let mut sw = Vec::new();
        if let Some(plan) = &plan {
            for s in 0..plan.switches() {
                let switch = Switch::new(s, plan.clone(), cfg.net);
                sw.push(sim.add_component(&format!("sw{s}"), switch));
            }
        }
        let mut programs = programs.into_iter().zip(recovery);
        let mut nics = Vec::new();
        let mut hosts = Vec::new();
        let mut ports = Vec::new();
        for node in 0..nodes {
            let edge = plan.as_ref().map(|p| p.attach[node as usize]);
            let nic = sim.add_component(
                &format!("nic{node}"),
                Nic::new(node, cfg.nic).with_schedule(cfg.fault_schedule.clone()),
            );
            let port =
                FabricPort::with_faults(cfg.net, nodes, node, nic, PORT_NET_RX, cfg.nic.faults)
                    .with_schedule(cfg.fault_schedule.clone());
            let port = if edge.is_some() {
                port.with_uplink()
            } else {
                port
            };
            let port = sim.add_component(&format!("net{node}"), port);
            sim.connect(nic, PORT_NET_TX, port, PORT_FP_INJECT, Time::ZERO);
            if let Some(edge) = edge {
                sim.connect(
                    port,
                    FabricPort::uplink_port(),
                    sw[edge],
                    PORT_SW_IN,
                    cfg.net.wire_latency,
                );
            }
            ports.push(port);
            for local in 0..k {
                let rank = node * k + local;
                if rank >= n {
                    break;
                }
                let (program, recovery) = programs.next().expect("one program per rank");
                let host = Cluster::faulted_host(&cfg, rank, n, nic, program, recovery, node);
                let host = sim.add_component(&format!("host{rank}"), host);
                // Completion path: one bus transaction back to this
                // process's host, on its per-process port. (Requests
                // travel to the NIC's `PORT_HOST_REQ` by direct send.)
                sim.connect(
                    nic,
                    host_comp_port(rank % k),
                    host,
                    PORT_COMPLETION,
                    cfg.nic.bus_latency,
                );
                nics.push(nic);
                hosts.push(host);
            }
        }
        match &plan {
            None => mpiq_net::connect_crossbar(&mut sim, &ports),
            Some(plan) => {
                for (a, ns) in plan.neighbors.iter().enumerate() {
                    for (i, &b) in ns.iter().enumerate() {
                        sim.connect(
                            sw[a],
                            Switch::trunk_port(plan, a, i),
                            sw[b],
                            PORT_SW_IN,
                            cfg.net.wire_latency,
                        );
                    }
                }
                for (s, att) in plan.attached.iter().enumerate() {
                    for (j, &v) in att.iter().enumerate() {
                        sim.connect(
                            sw[s],
                            Switch::node_port(plan, s, j),
                            ports[v as usize],
                            PORT_FP_WIRE,
                            cfg.net.wire_latency,
                        );
                    }
                }
            }
        }
        Ok(Cluster {
            sim,
            nics,
            hosts,
            nodes,
            schedule: cfg.fault_schedule,
        })
    }

    /// Build one rank's host with its fault timeline applied: every
    /// scheduled crash of its node, plus restarts (booting the staged
    /// recovery program at the first one).
    fn faulted_host(
        cfg: &ClusterConfig,
        rank: u32,
        n: u32,
        nic: ComponentId,
        program: Box<dyn AppProgram>,
        recovery: Option<Box<dyn AppProgram>>,
        node: u32,
    ) -> Host {
        let mut host = Host::new(
            rank,
            n,
            nic,
            cfg.host_dispatch,
            cfg.nic.bus_latency,
            program,
        );
        if let Some(s) = cfg.fault_schedule.as_ref() {
            for t in s.crash_times(node) {
                host = host.with_crash_at(t);
            }
            let restarts = s.restart_times(node);
            if !restarts.is_empty() {
                host = host.with_restarts(restarts, recovery);
            }
        }
        host
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.nics.len() as u32
    }

    /// Run to completion; returns the number of events processed. Ranks
    /// the fault schedule crash-stops are exempt from the finish check —
    /// a crashed rank *can't* finish, and that is not a deadlock.
    pub fn run(&mut self) -> u64 {
        let n = self.sim.run();
        // Sanity: every surviving program should have finished (deadlock
        // detector).
        for rank in 0..self.size() {
            let host = self.host(rank);
            assert!(
                host.done() || host.crashed(),
                "rank {rank} did not finish: deadlock or missing completion \
                 (events processed: {n}, time: {})",
                self.now()
            );
        }
        n
    }

    /// Have all programs called `finish` (or crash-stopped — a crashed
    /// rank never finishes and is not waited on)?
    pub fn all_done(&self) -> bool {
        (0..self.size()).all(|rank| {
            let host = self.host(rank);
            host.done() || host.crashed()
        })
    }

    /// Run under a watchdog: like [`Cluster::run`], but a stall produces
    /// a typed [`Diagnosis`] instead of a hang or a bare assertion.
    ///
    /// Two stall modes are distinguished:
    ///
    /// * The simulation *quiesces* (event heap drains) before every rank
    ///   finishes — a true deadlock: some progress obligation (a credit
    ///   grant, a clear-to-send, a frame past its retry budget) is gone
    ///   for good. → [`StallKind::QuiescentDeadlock`].
    /// * Virtual time reaches `deadline` with events still pending — the
    ///   run is alive but not converging. → [`StallKind::DeadlineExceeded`].
    ///
    /// The diagnosis carries every component's self-reported health:
    /// queue depths, parked sends, outstanding rendezvous, in-flight
    /// retransmit windows, dead peers, unfinished ranks.
    pub fn run_watched(&mut self, deadline: Time) -> Result<u64, Box<Diagnosis>> {
        let n = self.sim.run_until(deadline);
        if self.all_done() {
            return Ok(n);
        }
        // A stall while the schedule holds the fabric in more than one
        // connected group is a partition symptom, not a leak: name the
        // groups so the operator knows which side each rank is on.
        let now = self.now();
        let partition = self.schedule.as_ref().and_then(|s| {
            let groups = s.groups_at(self.nodes, now);
            (groups.len() > 1).then_some(groups)
        });
        let kind = match partition {
            Some(groups) => StallKind::Partitioned { groups },
            None if self.sim.is_idle() => StallKind::QuiescentDeadlock,
            None => StallKind::DeadlineExceeded,
        };
        Err(Box::new(self.sim.diagnose(kind)))
    }

    /// Inspect a rank's host, after (or between) runs — e.g.
    /// [`Host::completions`], the host-round-trip count NIC collective
    /// offload exists to shrink.
    pub fn host(&self, rank: u32) -> &Host {
        self.sim
            .component(self.hosts[rank as usize])
            .expect("host downcast")
    }

    /// Inspect the NIC serving a rank, after (or between) runs.
    pub fn nic(&self, rank: u32) -> &Nic {
        self.sim
            .component(self.nics[rank as usize])
            .expect("nic downcast")
    }

    /// Final simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The cluster's statistics. Owned: the engine assembles it on
    /// demand.
    pub fn stats(&self) -> Stats {
        self.sim.stats()
    }

    /// The metrics registry. Owned: the engine assembles it on demand.
    pub fn metrics(&self) -> Metrics {
        self.sim.metrics()
    }

    /// Chrome-trace JSON for the whole run, in canonical record order.
    pub fn chrome_trace(&self) -> String {
        mpiq_dessim::chrome_trace(&self.sim)
    }

    /// Trace records currently retained.
    pub fn trace_record_count(&self) -> usize {
        self.sim.trace_record_count()
    }

    /// Trace records evicted by ring capacity.
    pub fn trace_dropped(&self) -> u64 {
        self.sim.trace_dropped()
    }
}
