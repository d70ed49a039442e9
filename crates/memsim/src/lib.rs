//! `mpiq-memsim` — timing models for the memory hierarchy.
//!
//! The paper's system simulation "modeled the memory hierarchy to include
//! contention for open rows on the DRAM chips" (§V-B). This crate provides
//! that hierarchy as *timing-only* models: caches track tags and
//! replacement state, DRAM tracks per-bank open rows and busy windows, and
//! each access returns a latency. Functional data stays in ordinary Rust
//! data structures owned by the higher layers — the simulation only needs
//! to know *how long* memory operations take, not to store bytes twice.
//!
//! Layering:
//!
//! - [`cache::Cache`] — one set-associative, write-back/write-allocate,
//!   true-LRU cache level, O(1) per access.
//! - [`dram::Dram`] — banked DRAM with open-row state and contention.
//! - [`hierarchy::MemSystem`] — composes L1 (+ optional L2) + DRAM into
//!   the two memory systems of Table III (host CPU and NIC processor).

pub mod cache;
pub mod dram;
pub mod hierarchy;

pub use cache::{Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{Access, MemSystem, MemSystemConfig};
