//! `mpiq-net` — the network model.
//!
//! The paper's simulation environment uses "a simple network" with a
//! 200 ns wire latency (Table III). This crate provides that: message
//! envelopes and their wire sizes ([`message`]), the network parameters
//! ([`fabric`]), and a full crossbar of per-node ports ([`port`]) that
//! delivers messages after wire latency plus bandwidth-limited
//! serialization, preserving per-(source, destination) ordering — the
//! property MPI's ordering semantics are built on.
//!
//! Beyond the paper's crossbar, the crate also models switched fabrics:
//! [`topo`] plans fat-tree, dragonfly, and 2-D-torus switch graphs with
//! deterministic routing, and [`switch`] is the output-queued switch
//! component the cluster builder instantiates from a plan. Per-node
//! attachment in both crossbar and switched modes goes through
//! [`port`]'s `FabricPort`.

pub mod fabric;
pub mod message;
pub mod port;
pub mod switch;
pub mod topo;

pub use fabric::{NetConfig, WireProfile};
pub use message::{LinkState, Message, MsgHeader, MsgKind, NodeId};
pub use port::{connect_crossbar, FabricPort, PORT_FP_INJECT, PORT_FP_WIRE};
pub use switch::{Switch, PORT_SW_IN};
pub use topo::{RouteStep, TopoPlan, Topology};
