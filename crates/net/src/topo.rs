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
        }
    }
}

/// Pack nodes onto `switches` switches in blocks of `per_sw`.
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

    fn fat_tree(nodes: u32) -> TopoPlan {
        Topology::FatTree { down: 4, up: 2 }.plan(nodes).unwrap()
    }

    /// Every pair routes to the destination's switch in at most three
    /// switches (leaf, spine, leaf), and the route ends with Deliver at
    /// the switch the destination attaches to.
    #[test]
    fn routes_reach_every_destination() {
        for nodes in [1u32, 5, 13, 24] {
            let plan = fat_tree(nodes);
            for s in 0..nodes {
                for d in 0..nodes {
                    let path = plan.trace_route(s, d);
                    assert_eq!(
                        *path.last().unwrap(),
                        plan.attach[d as usize],
                        "{s}->{d} ends at wrong switch"
                    );
                    assert!(path.len() <= 3, "{s}->{d} takes {} hops", path.len());
                }
            }
        }
    }

    /// Trunks are symmetric: `b` in `neighbors[a]` iff `a` in
    /// `neighbors[b]` — every Forward has a wire back the other way.
    #[test]
    fn trunks_are_symmetric() {
        let plan = fat_tree(16);
        for (a, ns) in plan.neighbors.iter().enumerate() {
            for &b in ns {
                assert!(
                    plan.neighbors[b].contains(&a),
                    "trunk {a}->{b} has no reverse"
                );
            }
        }
    }

    /// Same-pair routes are fixed (deterministic routing): the path is a
    /// pure function of (src, dst), so per-pair FIFO order survives the
    /// switch graph.
    #[test]
    fn routing_is_deterministic() {
        let plan = fat_tree(12);
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(plan.trace_route(s, d), plan.trace_route(s, d));
            }
        }
    }

    /// The hub has no plan; the fat tree attaches every node.
    #[test]
    fn attachment_covers_all_nodes() {
        assert!(Topology::Hub.plan(8).is_none());
        let plan = fat_tree(17);
        assert_eq!(plan.attach.len(), 17);
        let total: usize = plan.attached.iter().map(Vec::len).sum();
        assert_eq!(total, 17, "nodes lost in attachment");
        for (v, &s) in plan.attach.iter().enumerate() {
            assert!(plan.attached[s].contains(&(v as u32)));
        }
    }

    /// Fat-tree D-mod-k: all leaves pick the same spine for one
    /// destination, so any (src, dst) pair has exactly one path.
    #[test]
    fn fat_tree_spine_choice_is_destination_keyed() {
        let plan = fat_tree(16);
        for d in 0..16u32 {
            let spines: std::collections::HashSet<usize> = (0..16u32)
                .filter(|&s| plan.attach[s as usize] != plan.attach[d as usize])
                .map(|s| plan.trace_route(s, d)[1])
                .collect();
            assert_eq!(spines.len(), 1, "destination {d} uses multiple spines");
        }
    }
}
