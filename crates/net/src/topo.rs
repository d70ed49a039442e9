//! Switched-fabric topology planning: which switch each node attaches
//! to, the switch-to-switch trunk graph, and a deterministic route table.
//!
//! A [`TopoPlan`] is pure graph data — no components, no latencies. The
//! cluster builder turns it into [`crate::switch::Switch`] components and
//! wires: node uplinks, trunks, and node downlinks all at
//! [`crate::NetConfig::wire_latency`]. Keeping the plan side-effect-free
//! makes the routing properties (reachability, hop bounds, determinism)
//! testable without building a simulation.

use crate::message::NodeId;

/// Fabric shape, selected on `ClusterConfig::builder()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Topology {
    /// The paper's single crossbar: every node's `FabricPort` wired
    /// directly to every other's.
    #[default]
    Hub,
    /// Two-level fat tree: `down` nodes per leaf switch, `up` spine
    /// switches, every leaf wired to every spine. Deterministic D-mod-k
    /// routing: traffic to node `d` climbs to spine `d % up`.
    FatTree {
        /// Nodes attached per leaf switch.
        down: u32,
        /// Number of spine switches (and uplinks per leaf).
        up: u32,
    },
    /// Dragonfly: `groups` groups of `routers` routers each, full mesh
    /// inside a group, one global link between each pair of groups.
    /// Deterministic minimal routing (at most local-global-local).
    Dragonfly {
        /// Number of groups.
        groups: u32,
        /// Routers per group.
        routers: u32,
    },
    /// 2-D torus, `x` by `y` switches with wraparound links and
    /// dimension-order (x then y) shortest-path routing; wrap ties break
    /// toward the positive direction.
    Torus {
        /// Ring size in the first dimension.
        x: u32,
        /// Ring size in the second dimension.
        y: u32,
    },
}

/// One routing decision at one switch for one destination node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteStep {
    /// The destination node hangs off this switch: hand the frame down
    /// its node port.
    Deliver,
    /// Forward out the trunk to `neighbors[i]`.
    Forward(usize),
}

/// A planned switched fabric: attachment, trunks, routes.
#[derive(Clone, Debug)]
pub struct TopoPlan {
    /// Number of attached nodes.
    pub nodes: u32,
    /// `attach[v]` is the switch node `v` hangs off.
    pub attach: Vec<usize>,
    /// `attached[s]` is the sorted list of nodes hanging off switch `s`.
    pub attached: Vec<Vec<NodeId>>,
    /// `neighbors[s]` is the sorted list of switches trunk-linked to `s`
    /// (each undirected trunk appears in both endpoint lists).
    pub neighbors: Vec<Vec<usize>>,
    /// `routes[s][d]` is switch `s`'s decision for frames to node `d`.
    pub routes: Vec<Vec<RouteStep>>,
}

impl Topology {
    /// Build the plan for `nodes` attached nodes. `None` for [`Hub`],
    /// which has no switches.
    ///
    /// [`Hub`]: Topology::Hub
    pub fn plan(self, nodes: u32) -> Option<TopoPlan> {
        assert!(nodes > 0, "topology needs at least one node");
        match self {
            Topology::Hub => None,
            Topology::FatTree { down, up } => Some(plan_fat_tree(nodes, down, up)),
            Topology::Dragonfly { groups, routers } => Some(plan_dragonfly(nodes, groups, routers)),
            Topology::Torus { x, y } => Some(plan_torus(nodes, x, y)),
        }
    }
}

/// Shared attachment: pack nodes onto `switches` switches in blocks of
/// `per_sw`.
fn attach_blocks(nodes: u32, switches: usize, per_sw: u32) -> (Vec<usize>, Vec<Vec<NodeId>>) {
    let attach: Vec<usize> = (0..nodes).map(|v| (v / per_sw) as usize).collect();
    let mut attached = vec![Vec::new(); switches];
    for (v, &s) in attach.iter().enumerate() {
        attached[s].push(v as NodeId);
    }
    (attach, attached)
}

fn plan_fat_tree(nodes: u32, down: u32, up: u32) -> TopoPlan {
    assert!(down > 0 && up > 0, "fat tree needs down > 0 and up > 0");
    let leaves = nodes.div_ceil(down) as usize;
    let switches = leaves + up as usize;
    let (attach, mut attached) = attach_blocks(nodes, leaves, down);
    attached.resize(switches, Vec::new());
    let mut neighbors = vec![Vec::new(); switches];
    for (s, nbrs) in neighbors.iter_mut().enumerate() {
        if s < leaves {
            *nbrs = (leaves..switches).collect();
        } else {
            nbrs.extend(0..leaves);
        }
    }
    let mut routes = vec![Vec::with_capacity(nodes as usize); switches];
    for d in 0..nodes {
        let d_leaf = attach[d as usize];
        // D-mod-k spine selection: all leaves agree on the spine for a
        // destination, which keeps per-(src,dst) paths unique.
        let spine_idx = (d % up) as usize;
        for (s, r) in routes.iter_mut().enumerate() {
            r.push(if s < leaves {
                if s == d_leaf {
                    RouteStep::Deliver
                } else {
                    RouteStep::Forward(spine_idx)
                }
            } else {
                // Spines list leaves 0..leaves in order.
                RouteStep::Forward(d_leaf)
            });
        }
    }
    TopoPlan {
        nodes,
        attach,
        attached,
        neighbors,
        routes,
    }
}

fn plan_dragonfly(nodes: u32, groups: u32, routers: u32) -> TopoPlan {
    let (g, a) = (groups as usize, routers as usize);
    assert!(g > 0 && a > 0, "dragonfly needs groups > 0 and routers > 0");
    let switches = g * a;
    let per_sw = nodes.div_ceil(switches as u32).max(1);
    let (attach, attached) = attach_blocks(nodes, switches, per_sw);
    // Global link between group `i`'s router `j % a` and group `j`'s
    // router `i % a`, for every group pair — a consistent pairing both
    // endpoints can compute locally.
    let mut neighbors: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); switches];
    for grp in 0..g {
        for r in 0..a {
            let me = grp * a + r;
            for other in 0..a {
                if other != r {
                    neighbors[me].insert(grp * a + other);
                }
            }
            for peer_grp in 0..g {
                if peer_grp != grp && peer_grp % a == r {
                    neighbors[me].insert(peer_grp * a + grp % a);
                }
            }
        }
    }
    let neighbors: Vec<Vec<usize>> = neighbors
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect();
    let idx_of = |me: usize, target: usize| -> usize {
        neighbors[me]
            .binary_search(&target)
            .unwrap_or_else(|_| panic!("switch {me} has no trunk to {target}"))
    };
    let mut routes = vec![Vec::with_capacity(nodes as usize); switches];
    for d in 0..nodes {
        let d_sw = attach[d as usize];
        let (dg, _) = (d_sw / a, d_sw % a);
        for grp in 0..g {
            for r in 0..a {
                let me = grp * a + r;
                routes[me].push(if me == d_sw {
                    RouteStep::Deliver
                } else if grp == dg {
                    // Intra-group: full mesh, one hop.
                    RouteStep::Forward(idx_of(me, d_sw))
                } else if r == dg % a {
                    // I am the gateway toward the destination group: take
                    // the global link to its paired router over there.
                    RouteStep::Forward(idx_of(me, dg * a + grp % a))
                } else {
                    // Hop to my group's gateway for the destination group.
                    RouteStep::Forward(idx_of(me, grp * a + dg % a))
                });
            }
        }
    }
    TopoPlan {
        nodes,
        attach,
        attached,
        neighbors,
        routes,
    }
}

fn plan_torus(nodes: u32, x: u32, y: u32) -> TopoPlan {
    let (x, y) = (x as usize, y as usize);
    assert!(x > 0 && y > 0, "torus needs x > 0 and y > 0");
    let switches = x * y;
    let per_sw = nodes.div_ceil(switches as u32).max(1);
    let (attach, attached) = attach_blocks(nodes, switches, per_sw);
    let id = |i: usize, j: usize| j * x + i;
    let mut neighbors: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); switches];
    for j in 0..y {
        for i in 0..x {
            let me = id(i, j);
            if x > 1 {
                neighbors[me].insert(id((i + 1) % x, j));
                neighbors[me].insert(id((i + x - 1) % x, j));
            }
            if y > 1 {
                neighbors[me].insert(id(i, (j + 1) % y));
                neighbors[me].insert(id(i, (j + y - 1) % y));
            }
        }
    }
    let neighbors: Vec<Vec<usize>> = neighbors
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect();
    let idx_of = |me: usize, target: usize| -> usize {
        neighbors[me]
            .binary_search(&target)
            .unwrap_or_else(|_| panic!("switch {me} has no trunk to {target}"))
    };
    // One ring step toward `to` along the shortest direction; forward
    // wins ties so both directions of a pair take mirrored paths.
    let ring_step = |from: usize, to: usize, len: usize| -> usize {
        let fwd = (to + len - from) % len;
        let bwd = (from + len - to) % len;
        if fwd <= bwd {
            (from + 1) % len
        } else {
            (from + len - 1) % len
        }
    };
    let mut routes = vec![Vec::with_capacity(nodes as usize); switches];
    for d in 0..nodes {
        let d_sw = attach[d as usize];
        let (di, dj) = (d_sw % x, d_sw / x);
        for j in 0..y {
            for i in 0..x {
                let me = id(i, j);
                routes[me].push(if me == d_sw {
                    RouteStep::Deliver
                } else if i != di {
                    RouteStep::Forward(idx_of(me, id(ring_step(i, di, x), j)))
                } else {
                    RouteStep::Forward(idx_of(me, id(i, ring_step(j, dj, y))))
                });
            }
        }
    }
    TopoPlan {
        nodes,
        attach,
        attached,
        neighbors,
        routes,
    }
}

impl TopoPlan {
    /// Number of switches.
    pub fn switches(&self) -> usize {
        self.attached.len()
    }

    /// Walk the route for (`src`, `dst`) and return the switch path,
    /// ending at the switch that delivers. Panics on a routing loop
    /// (more hops than switches).
    pub fn trace_route(&self, src: NodeId, dst: NodeId) -> Vec<usize> {
        let mut at = self.attach[src as usize];
        let mut path = vec![at];
        loop {
            match self.routes[at][dst as usize] {
                RouteStep::Deliver => return path,
                RouteStep::Forward(p) => {
                    at = self.neighbors[at][p];
                    path.push(at);
                    assert!(
                        path.len() <= self.switches(),
                        "routing loop from {src} to {dst}: {path:?}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_plans(nodes: u32) -> Vec<(&'static str, TopoPlan)> {
        vec![
            (
                "fat-tree",
                Topology::FatTree { down: 4, up: 2 }.plan(nodes).unwrap(),
            ),
            (
                "dragonfly",
                Topology::Dragonfly {
                    groups: 3,
                    routers: 2,
                }
                .plan(nodes)
                .unwrap(),
            ),
            ("torus", Topology::Torus { x: 3, y: 2 }.plan(nodes).unwrap()),
        ]
    }

    /// Every pair routes to the destination's switch, within a
    /// topology-appropriate hop bound, and the route ends with Deliver at
    /// the switch the destination attaches to.
    #[test]
    fn routes_reach_every_destination() {
        for nodes in [1u32, 5, 13, 24] {
            for (name, plan) in all_plans(nodes) {
                let bound = match name {
                    "fat-tree" => 3,
                    "dragonfly" => 4,
                    _ => plan.switches(),
                };
                for s in 0..nodes {
                    for d in 0..nodes {
                        let path = plan.trace_route(s, d);
                        assert_eq!(
                            *path.last().unwrap(),
                            plan.attach[d as usize],
                            "{name}: {s}->{d} ends at wrong switch"
                        );
                        assert!(
                            path.len() <= bound,
                            "{name}: {s}->{d} takes {} hops",
                            path.len()
                        );
                    }
                }
            }
        }
    }

    /// Trunks are symmetric: `b` in `neighbors[a]` iff `a` in
    /// `neighbors[b]` — every Forward has a wire back the other way.
    #[test]
    fn trunks_are_symmetric() {
        for (name, plan) in all_plans(16) {
            for (a, ns) in plan.neighbors.iter().enumerate() {
                for &b in ns {
                    assert!(
                        plan.neighbors[b].contains(&a),
                        "{name}: trunk {a}->{b} has no reverse"
                    );
                }
            }
        }
    }

    /// Same-pair routes are fixed (deterministic routing): the path is a
    /// pure function of (src, dst), so per-pair FIFO order survives the
    /// switch graph.
    #[test]
    fn routing_is_deterministic() {
        for (_, plan) in all_plans(12) {
            for s in 0..12 {
                for d in 0..12 {
                    assert_eq!(plan.trace_route(s, d), plan.trace_route(s, d));
                }
            }
        }
    }

    /// The hub has no plan; every switched topology covers all nodes.
    #[test]
    fn attachment_covers_all_nodes() {
        assert!(Topology::Hub.plan(8).is_none());
        for (name, plan) in all_plans(17) {
            assert_eq!(plan.attach.len(), 17, "{name}");
            let total: usize = plan.attached.iter().map(Vec::len).sum();
            assert_eq!(total, 17, "{name}: nodes lost in attachment");
            for (v, &s) in plan.attach.iter().enumerate() {
                assert!(plan.attached[s].contains(&(v as u32)), "{name}");
            }
        }
    }

    /// Fat-tree D-mod-k: all leaves pick the same spine for one
    /// destination, so any (src, dst) pair has exactly one path.
    #[test]
    fn fat_tree_spine_choice_is_destination_keyed() {
        let plan = Topology::FatTree { down: 4, up: 2 }.plan(16).unwrap();
        for d in 0..16u32 {
            let spines: std::collections::HashSet<usize> = (0..16u32)
                .filter(|&s| plan.attach[s as usize] != plan.attach[d as usize])
                .map(|s| plan.trace_route(s, d)[1])
                .collect();
            assert_eq!(spines.len(), 1, "destination {d} uses multiple spines");
        }
    }
}
