//! The application programming model.
//!
//! An [`AppProgram`] is a state machine the host component polls: once at
//! startup and once per completion event. It issues non-blocking
//! operations through the [`Mpi`] handle and inspects completions with
//! [`Mpi::test`]. Blocking-style programs are built on top in
//! [`crate::script`].

use crate::types::MpiStatus;
use mpiq_dessim::{ComponentId, Ctx, InPort, Payload, Time};
use mpiq_nic::{HostRequest, ReqId, PORT_HOST_REQ};
use std::collections::HashMap;

/// A non-blocking request handle (`MPI_Request`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Request(pub(crate) ReqId);

/// An application running on one rank, inside a [`Host`](crate::Host)
/// component.
pub trait AppProgram: 'static {
    /// Advance as far as possible. Called once at start and again after
    /// every completion delivered to this rank. Call [`Mpi::finish`] when
    /// the program is done.
    fn step(&mut self, mpi: &mut Mpi<'_, '_>);

    /// The widest world this program can run in, if it is bounded.
    /// [`Cluster::try_new`](crate::Cluster::try_new) rejects a wider
    /// cluster with a typed error instead of failing mid-run. Default:
    /// unbounded.
    fn max_world(&self) -> Option<u32> {
        None
    }
}

/// Host-side MPI state shared between the component and the API handle.
pub(crate) struct HostState {
    pub rank: u32,
    pub size: u32,
    pub nic: ComponentId,
    pub next_seq: u64,
    pub completed: HashMap<ReqId, MpiStatus>,
    pub done: bool,
    /// Cost of dispatching one request from the host CPU.
    pub dispatch_cost: Time,
    /// Host→NIC request delivery latency (one local-bus transaction).
    pub bus_latency: Time,
    /// Requests issued during the current `step` call (serializes their
    /// dispatch).
    pub issued_this_step: u64,
}

/// The MPI API handle passed to programs (`MPI_Comm_rank`,
/// `MPI_Comm_size`, `MPI_Isend`, `MPI_Irecv`, `MPI_Test` layer).
pub struct Mpi<'a, 'b> {
    pub(crate) st: &'a mut HostState,
    pub(crate) ctx: &'a mut Ctx<'b>,
}

impl Mpi<'_, '_> {
    /// This process's rank (`MPI_Comm_rank` on `MPI_COMM_WORLD`).
    pub fn rank(&self) -> u32 {
        self.st.rank
    }

    /// World size (`MPI_Comm_size`).
    pub fn size(&self) -> u32 {
        self.st.size
    }

    /// Current simulated time (`MPI_Wtime`).
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Non-blocking send on an explicit context (used by collectives).
    pub fn isend_ctx(&mut self, dst: u32, context: u16, tag: u16, len: u32) -> Request {
        let req = self.alloc_req();
        self.dispatch(HostRequest::PostSend {
            req: req.0,
            dst,
            context,
            tag,
            len,
        });
        req
    }

    /// Non-blocking receive on an explicit context.
    pub fn irecv_ctx(
        &mut self,
        src: Option<u16>,
        context: u16,
        tag: Option<u16>,
        len: u32,
    ) -> Request {
        let req = self.alloc_req();
        self.dispatch(HostRequest::PostRecv {
            req: req.0,
            src,
            context,
            tag,
            len,
        });
        req
    }

    /// `MPI_Isend` on `MPI_COMM_WORLD`.
    pub fn isend(&mut self, dst: u32, tag: u16, len: u32) -> Request {
        self.isend_ctx(dst, crate::types::CTX_WORLD, tag, len)
    }

    /// `MPI_Irecv` on `MPI_COMM_WORLD`. `src`/`tag` of `None` are
    /// `MPI_ANY_SOURCE`/`MPI_ANY_TAG`.
    pub fn irecv(&mut self, src: Option<u16>, tag: Option<u16>, len: u32) -> Request {
        self.irecv_ctx(src, crate::types::CTX_WORLD, tag, len)
    }

    /// Offer a whole collective to the NIC (`MPI_Ibarrier` /
    /// `MPI_Ibcast` / `MPI_Iallreduce` with NIC offload). The NIC either
    /// runs the shared step plan itself and answers with one completion
    /// at the end, or declines immediately (`cancelled == true` status)
    /// — the caller must then replay the identical plan host-side (see
    /// [`crate::script`]'s `Op::Coll` fallback).
    pub fn icoll(&mut self, op: mpiq_nic::CollOp, root: u32, len: u32, instance: u16) -> Request {
        let req = self.alloc_req();
        self.dispatch(HostRequest::Collective {
            req: req.0,
            op,
            root,
            len,
            instance,
            n: self.st.size,
        });
        req
    }

    /// `MPI_Iprobe`: asynchronously ask whether a matching message is
    /// waiting on the unexpected queue. The returned request completes
    /// with `cancelled == false` and the message's envelope if one is
    /// waiting, or `cancelled == true` if not (`flag == false`).
    pub fn iprobe(&mut self, src: Option<u16>, tag: Option<u16>) -> Request {
        let req = self.alloc_req();
        self.dispatch(HostRequest::Probe {
            req: req.0,
            src,
            context: crate::types::CTX_WORLD,
            tag,
        });
        req
    }

    /// `MPI_Cancel` on a receive request. If it is still posted it will
    /// complete with `cancelled = true`; if it already matched, the
    /// normal completion stands.
    pub fn cancel(&mut self, req: Request) {
        self.dispatch(HostRequest::CancelRecv { target: req.0 });
    }

    /// `MPI_Test`: has the request completed?
    pub fn test(&self, req: Request) -> bool {
        self.st.completed.contains_key(&req.0)
    }

    /// Status of a completed request (`None` while in flight).
    pub fn status(&self, req: Request) -> Option<MpiStatus> {
        self.st.completed.get(&req.0).copied()
    }

    /// Mark the program finished (`MPI_Finalize`). The host stops
    /// stepping it.
    pub fn finish(&mut self) {
        self.st.done = true;
    }

    /// Ask to be stepped again after `delay` even if nothing completes
    /// (the timer behind `Op::Sleep`).
    pub fn wake_after(&mut self, delay: Time) {
        self.ctx
            .wake_me(PORT_TIMER, mpiq_dessim::Payload::empty(), delay);
    }

    fn alloc_req(&mut self) -> Request {
        let id = ReqId {
            rank: self.st.rank,
            seq: self.st.next_seq,
        };
        self.st.next_seq += 1;
        Request(id)
    }

    fn dispatch(&mut self, req: HostRequest) {
        // Serialize dispatches issued within one step: the host CPU writes
        // request records one after another.
        let delay = self.st.bus_latency + self.st.dispatch_cost * self.st.issued_this_step;
        self.st.issued_this_step += 1;
        self.ctx
            .send_to(self.st.nic, PORT_HOST_REQ, Payload::new(req), delay);
    }
}

/// Port on which the host receives completions from its NIC.
pub const PORT_COMPLETION: InPort = InPort(0);

/// Port on which the host receives its own timer wake-ups.
pub const PORT_TIMER: InPort = InPort(1);
