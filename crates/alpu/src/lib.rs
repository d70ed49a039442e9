//! `mpiq-alpu` — the Associative List Processing Unit.
//!
//! This crate is the paper's primary contribution: a TCAM-like associative
//! matching array extended with *list management* — ordered first-match
//! priority, single-cycle delete-with-shift, and continuous hole
//! compaction — so it can serve as a hardware accelerator for the two MPI
//! matching queues (posted receives and unexpected messages).
//!
//! The hardware hierarchy of §III is modeled level by level:
//!
//! * [`cell`] — one matching cell: stored match bits, mask bits (posted
//!   variant) or probe-supplied mask (unexpected variant), valid bit, tag.
//! * [`block`] — a power-of-two block of cells: registered request, binary
//!   priority-mux tree, match-location encoding; and the chained array's
//!   hole compaction, where a transfer needs only an empty destination
//!   cell (the "space available" rule), computed in closed form.
//! * [`engine`] — the full ALPU: chained blocks, inter-block
//!   prioritization, the controlling state machine of Fig. 3
//!   (Match / Read Command / Insert), command+result+header FIFOs, and
//!   held-for-retry semantics of failed matches during insert mode.
//! * [`timing`] — the pipeline model: 6- or 7-cycle match latency
//!   (depending on the depth of the inter-block priority tree, matching
//!   Tables IV/V), one insert per 2 cycles, no execution overlap.
//!
//! [`golden`] provides a plain ordered-list reference matcher with the
//! exact same observable semantics; the cycle model is differentially
//! tested against it (see the crate's proptest suite).
//!
//! # Quick example
//!
//! ```
//! use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe, Response};
//!
//! let mut alpu = Alpu::new(AlpuConfig::new(128, 16, AlpuKind::PostedReceive));
//! // Enter insert mode, add one posted receive matching any source.
//! alpu.push_command(Command::StartInsert).unwrap();
//! alpu.advance(16);
//! assert!(matches!(alpu.pop_response(), Some(Response::StartAck { free: 128 })));
//! let recv = Entry::mpi_recv(7, None, Some(42), 0xBEEF);
//! alpu.push_command(Command::Insert(recv)).unwrap();
//! alpu.push_command(Command::StopInsert).unwrap();
//! alpu.advance(32);
//! // An incoming header probes the unit.
//! alpu.push_header(Probe::exact(MatchWord::mpi(7, 3, 42)));
//! alpu.advance(16);
//! assert!(matches!(alpu.pop_response(), Some(Response::MatchSuccess { tag: 0xBEEF })));
//! ```

pub mod block;
pub mod cell;
pub mod engine;
pub mod golden;
pub mod match_types;
pub mod timing;
pub mod vcd;

pub use block::CellArray;
pub use cell::Cell;
pub use engine::{Alpu, AlpuConfig, AlpuKind, Command, PushError, Response, State};
pub use golden::GoldenList;
pub use match_types::{Entry, MaskWord, MatchWord, Probe, Tag, MATCH_WIDTH};
pub use timing::PipelineTiming;
pub use vcd::VcdRecorder;
