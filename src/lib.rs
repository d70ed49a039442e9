//! `mpiq` — facade crate for the MPI queue-processing acceleration study.
//!
//! Re-exports every subsystem crate under one roof so examples,
//! integration tests, and downstream users can depend on a single package.
//!
//! See the workspace `README.md` for an overview and `DESIGN.md` for the
//! system inventory and per-experiment index.

pub use mpiq_alpu as alpu;
pub use mpiq_cpusim as cpusim;
pub use mpiq_dessim as dessim;
pub use mpiq_fpga as fpga;
pub use mpiq_memsim as memsim;
pub use mpiq_mpi as mpi;
pub use mpiq_net as net;
pub use mpiq_nic as nic;
