//! Collective operations built from point-to-point — the same way the
//! paper's prototype builds `MPI_Barrier` (Fig. 4's "built from other MPI
//! functions"). An extension beyond the paper's subset, using the
//! textbook algorithms contemporary MPI implementations used.
//!
//! All collective traffic runs on [`CTX_INTERNAL`] with tags in the upper
//! half of the tag space, drawn from the partitioned
//! [`mpiq_nic::coll::ctag`] space: each instance slot owns a disjoint
//! block of message indices, so two collectives in flight can never
//! produce the same tag (the old `instance * 97 + k` hash collided as
//! soon as a message index reached 97 — i.e. at ≥ 98 ranks). Each
//! collective call takes an `instance` number that must be unique per
//! call site per pair of communicating collectives in flight (scripts
//! are sequential, so an incrementing counter per rank suffices).
//!
//! The tree-shaped collectives (`bcast`, `reduce`, `allreduce`) emit the
//! shared step plans from [`mpiq_nic::coll`] — the same plans the NIC
//! firmware's offload engine executes — so a host-driven rank and an
//! offloaded rank produce identical wire patterns and can interoperate
//! within one collective.
//!
//! Data *contents* are not modeled (payloads are synthetic); what these
//! produce is the exact message pattern — counts, sizes, dependencies —
//! which is what the NIC-level evaluation cares about.
//!
//! **Under component faults** (a scheduled `FaultSchedule` crash or a
//! link declared dead), collectives never deadlock: every operation in
//! the tree that names a failed rank completes with
//! `MpiStatus::error = Some(MpiError::RankFailed{..})` — the ULFM
//! `MPI_ERR_PROC_FAILED` contract — so the wait unblocks and the script
//! continues. Survivor-to-survivor edges complete normally; the caller
//! inspects statuses to learn the collective was cut. There is no
//! built-in communicator-shrinking (`MPIX_Comm_shrink`) — the typed
//! error is the recovery surface.

use crate::script::ScriptBuilder;
use crate::types::CTX_INTERNAL;
use mpiq_nic::coll::{bcast_steps, ctag, reduce_steps, steps, CollOp, CollStep, Dir};

/// Emit one shared-plan step as blocking script ops.
fn emit(b: &mut ScriptBuilder, step: CollStep) {
    let s = match step.dir {
        Dir::Send => b.isend_ctx(step.peer, CTX_INTERNAL, step.tag, step.len),
        Dir::Recv => b.irecv_ctx(
            Some(step.peer as u16),
            CTX_INTERNAL,
            Some(step.tag),
            step.len,
        ),
    };
    b.wait(s);
}

/// Binomial-tree broadcast from `root` (the MPICH algorithm).
///
/// Emits the ops for rank `me` of `n`; every rank must call with the same
/// `root`, `len`, and `instance`. Parent and child targets are computed
/// in relative rank space and de-rotated through `root` explicitly, so
/// the tree shape is root-invariant (pinned by the shape-oracle tests in
/// `mpiq_nic::coll`).
pub fn bcast(b: &mut ScriptBuilder, me: u32, n: u32, root: u32, len: u32, instance: u16) {
    for step in bcast_steps(me, n, root, len, instance) {
        emit(b, step);
    }
}

/// Binomial-tree reduction to `root` (message pattern of MPICH's reduce;
/// the combining computation itself is not modeled).
pub fn reduce(b: &mut ScriptBuilder, me: u32, n: u32, root: u32, len: u32, instance: u16) {
    for step in reduce_steps(me, n, root, len, instance) {
        emit(b, step);
    }
}

/// All-reduce as reduce-to-0 followed by broadcast-from-0. A single
/// instance covers both phases (they use distinct message indices), so
/// callers no longer burn two instance slots per allreduce.
pub fn allreduce(b: &mut ScriptBuilder, me: u32, n: u32, len: u32, instance: u16) {
    for step in steps(CollOp::Allreduce, me, n, 0, len, instance) {
        emit(b, step);
    }
}

/// Tree barrier: a zero-payload allreduce (up-tree to 0, down-tree from
/// 0). This is the host-driven twin of the firmware's offloaded barrier —
/// identical wire pattern — and the baseline the scaling bench compares
/// against. (The `Script::barrier()` primitive uses dissemination instead;
/// this one exists so offloaded and host-driven runs differ only in *who*
/// executes the steps.)
pub fn tree_barrier(b: &mut ScriptBuilder, me: u32, n: u32, instance: u16) {
    for step in steps(CollOp::Barrier, me, n, 0, 0, instance) {
        emit(b, step);
    }
}

/// Linear gather to `root`: every non-root sends one message; the root
/// receives `n-1`, distinguished by per-source tags.
pub fn gather(b: &mut ScriptBuilder, me: u32, n: u32, root: u32, len: u32, instance: u16) {
    assert!(me < n && root < n);
    if me == root {
        let slots: Vec<usize> = (0..n)
            .filter(|&r| r != root)
            .map(|r| {
                b.irecv_ctx(
                    Some(r as u16),
                    CTX_INTERNAL,
                    Some(ctag(instance, 2 + r as u16)),
                    len,
                )
            })
            .collect();
        b.wait_all(slots);
    } else {
        let s = b.isend_ctx(root, CTX_INTERNAL, ctag(instance, 2 + me as u16), len);
        b.wait(s);
    }
}

/// Linear scatter from `root`: the root sends one message per rank.
pub fn scatter(b: &mut ScriptBuilder, me: u32, n: u32, root: u32, len: u32, instance: u16) {
    assert!(me < n && root < n);
    if me == root {
        let slots: Vec<usize> = (0..n)
            .filter(|&r| r != root)
            .map(|r| b.isend_ctx(r, CTX_INTERNAL, ctag(instance, 2 + r as u16), len))
            .collect();
        b.wait_all(slots);
    } else {
        let s = b.irecv_ctx(
            Some(root as u16),
            CTX_INTERNAL,
            Some(ctag(instance, 2 + me as u16)),
            len,
        );
        b.wait(s);
    }
}

/// Linear all-to-all: every rank sends to and receives from every other
/// rank, fully overlapped. The pattern that builds the deepest transient
/// queues — a natural ALPU stress.
pub fn alltoall(b: &mut ScriptBuilder, me: u32, n: u32, len: u32, instance: u16) {
    assert!(me < n);
    let mut slots = Vec::new();
    for peer in 0..n {
        if peer == me {
            continue;
        }
        // Tag by sender so receives are unambiguous.
        slots.push(b.irecv_ctx(
            Some(peer as u16),
            CTX_INTERNAL,
            Some(ctag(instance, 2 + peer as u16)),
            len,
        ));
        slots.push(b.isend_ctx(peer, CTX_INTERNAL, ctag(instance, 2 + me as u16), len));
    }
    b.wait_all(slots);
}

#[cfg(test)]
mod tests {
    /// `mpiq_nic::coll` duplicates the internal-context constant because
    /// it cannot depend on this crate; pin the two together.
    #[test]
    fn coll_ctx_matches_ctx_internal() {
        assert_eq!(mpiq_nic::coll::COLL_CTX, crate::types::CTX_INTERNAL);
    }
}
