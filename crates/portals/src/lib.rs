//! `mpiq-portals` — Portals-style protocol building blocks.
//!
//! The paper's future work (§VII) is "how to offload significant portions
//! of the Portals interface to enable support of MPI, run-time software,
//! and I/O"; its hardware stores "a full width mask as is needed by the
//! Portals interface" (§III-A). This crate implements the Portals 3.0
//! building blocks the Red Storm NIC exposes — portal table, match
//! entries with match/ignore bits, memory descriptors with managed
//! offsets, event queues, and `put`/`get` operations — as a functional
//! library, and demonstrates that the ALPU's matching semantics serve a
//! Portals match list exactly (see the `alpu_backed` test suite).
//!
//! Scope notes (documented substitutions):
//!
//! * Match bits are the ALPU prototype's 42-bit width rather than
//!   Portals' 64 — the unit is parameterizable in width and the paper's
//!   prototype chose 42 as "adequate" (§VI-A); reusing it keeps the two
//!   crates' match semantics literally identical.
//! * Transport is in-process: a [`Network`] moves operations between
//!   [`Ni`]s synchronously. Timing lives in the `mpiq-nic` simulation;
//!   this crate is about *semantics*.

pub mod events;
pub mod md;
pub mod me;
pub mod ni;

pub use events::{Event, EventKind, EventQueue};
pub use md::{Md, MdHandle, MdOptions};
pub use me::{InsertPos, MatchEntry, MeHandle, MeOptions};
pub use ni::{Network, Ni, PortalIndex, ProcessId};
