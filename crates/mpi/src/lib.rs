//! `mpiq-mpi` — the MPI layer over the simulated cluster.
//!
//! The paper's prototype MPI (§V-C, Fig. 4) implements a subset of
//! MPI-1.2 where "almost all processing occurs on the NIC" — the host
//! "is only required to dispatch message requests to the NIC and wait for
//! request completion". This crate is that host side plus the glue that
//! builds whole simulated clusters:
//!
//! * [`types`] — ranks, contexts, statuses, datatypes.
//! * [`app`] — the application programming model: an [`AppProgram`] is a
//!   polled state machine driven by completions, issuing non-blocking
//!   operations through the [`Mpi`] handle (the `MPI_Isend`/`MPI_Irecv`/
//!   `MPI_Test` layer).
//! * [`script`] — a sequential script interpreter on top of `app`, giving
//!   benchmarks blocking-feeling `Send`/`Recv`/`Wait`/`Waitall`/`Barrier`
//!   (the Fig. 4 functions marked "built from other MPI functions").
//! * [`host`] — the host CPU as a DES component.
//! * [`cluster`] — wires hosts, NICs, and the fabric into a runnable
//!   simulation.

pub mod app;
pub mod cluster;
pub mod collectives;
pub mod host;
pub mod script;
pub mod types;

pub use app::{AppProgram, Mpi, Request};
pub use cluster::{Cluster, ClusterConfig, ClusterConfigBuilder, ClusterError, FlowControl};
pub use host::Host;
pub use script::{MarkLog, Op, Script, SharedLog, StatusLog};
pub use types::{Datatype, MpiError, MpiStatus, ANY_SOURCE, ANY_TAG, CTX_INTERNAL, CTX_WORLD};
