//! `mpiq-nic` — the network interface model.
//!
//! This crate models the NIC of Fig. 1: Rx/Tx paths with DMA engines, an
//! embedded processor (a [`mpiq_cpusim::Core`] with the Table III "NIC
//! Processor" parameters) running the MPI firmware loop of §V-C, a local
//! bus with a 20 ns transaction delay, and — in the enhanced
//! configuration — two [`Alpu`](mpiq_alpu::Alpu)s fed by hardware header
//! copies: one accelerating the posted-receive queue and one the
//! unexpected-message queue.
//!
//! The firmware ([`firmware`]) owns the five queues of §V-C
//! (`postedRecvQ`, `activeRecvQ`, `unexpectedQ`, `unexpectedActiveQ`,
//! `sendQ`), implements eager and rendezvous protocols, and — when ALPUs
//! are present — the shadow-list management of §IV: a software copy of
//! each queue, a pointer separating the ALPU-resident prefix from the
//! not-yet-inserted tail, batched insert sessions, and response pairing.
//!
//! Timing: the firmware executes *functionally* in Rust while charging
//! each step's work, at the counts named in [`firmware::cost`], to a
//! [`mpiq_cpusim::Run`] on the embedded core, which turns it into elapsed
//! time; the DES component ([`nic::Nic`]) serializes work items on the
//! processor and lets DMA engines and the ALPUs run concurrently.

pub mod coll;
pub mod config;
pub mod dma;
pub mod firmware;
pub mod hashmatch;
pub mod host_iface;
pub mod nic;
pub mod queues;
pub mod reliability;

pub use coll::{ctag, CollOp, CollStep, Dir};
pub use config::{AlpuSetup, NicConfig, SwMatch};
pub use firmware::FwStats;
pub use host_iface::{Completion, HostRequest, ReqId};
pub use nic::{
    host_comp_port, Nic, PORT_HOST_COMP, PORT_HOST_REQ, PORT_NET_RX, PORT_NET_TX, PORT_RETX,
};
pub use reliability::{LinkStats, Reliability, ReliabilityConfig};
