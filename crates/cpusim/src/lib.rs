//! `mpiq-cpusim` — a parameterized superscalar processor *timing* model.
//!
//! The paper ran its NIC firmware and host code as compiled PowerPC
//! binaries on SimpleScalar's `sim-outorder`. We substitute a streaming
//! timing model: firmware in this repository executes *functionally* as
//! ordinary Rust, and charges the work a real core would have done to a
//! [`Run`] opened with [`Core::begin`] — integer ops, dependent loads,
//! stores, device/bus transactions — op by op, as it goes. A [`Core`] —
//! parameterized with exactly the Table III processor parameters — feeds
//! each op straight into its scoreboard, using a
//! [`MemSystem`](mpiq_memsim::MemSystem) for load/store latencies, and
//! [`Run::end`] returns when the run finished. [`Core::run`] replays a
//! prebuilt [`Uop`] trace through the same cursor.
//!
//! The model captures the two effects the evaluation depends on:
//!
//! * **Issue-limited traversal**: short queue walks are bounded by integer
//!   issue bandwidth (≈15 ns/entry on the dual-issue 500 MHz NIC core).
//! * **Memory-limited traversal**: once the queue spills the L1, the
//!   pointer chase serializes on the 30–32-cycle memory latency
//!   (≈64 ns/entry), with out-of-order execution hiding the integer work
//!   underneath.

pub mod config;
pub mod core;
pub mod trace;

pub use crate::core::{Core, Run, RunStats};
pub use config::CoreConfig;
pub use trace::{TraceBuilder, Uop};
