//! A sequential script interpreter: blocking-feeling MPI programs on top
//! of the polled [`AppProgram`] model.
//!
//! `MPI_Send`, `MPI_Recv`, `MPI_Wait`, `MPI_Waitall` and `MPI_Barrier` are
//! "built from other MPI functions" in the paper's prototype (Fig. 4);
//! here they are built from `Isend`/`Irecv`/`Test` exactly the same way:
//! a [`Script`] is a list of [`Op`]s executed in order, suspending on
//! waits until the completion that unblocks them arrives.
//!
//! `Mark` ops record timestamps into a shared [`MarkLog`] — the
//! measurement hooks the benchmark harnesses read after a run.

use crate::app::{AppProgram, Mpi, Request};
use crate::types::{MpiError, MpiStatus, CTX_INTERNAL};
use mpiq_dessim::Time;
use mpiq_nic::coll::{CollOp, Dir, PlanRun};
use std::cell::{Ref, RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;

/// A log shared between a script (owned by a host component) and the
/// harness that reads it after the run. The simulation runs on the
/// harness's thread, so a plain `Rc<RefCell<..>>` suffices.
#[derive(Debug, Default)]
pub struct SharedLog<T>(Rc<RefCell<Vec<T>>>);

impl<T> SharedLog<T> {
    /// Create an empty log.
    pub fn new() -> SharedLog<T> {
        SharedLog(Rc::new(RefCell::new(Vec::new())))
    }

    /// Read access to the entries.
    pub fn borrow(&self) -> Ref<'_, Vec<T>> {
        self.0.borrow()
    }

    /// Write access to the entries.
    pub fn borrow_mut(&self) -> RefMut<'_, Vec<T>> {
        self.0.borrow_mut()
    }
}

impl<T> Clone for SharedLog<T> {
    fn clone(&self) -> SharedLog<T> {
        SharedLog(Rc::clone(&self.0))
    }
}

/// Timestamp log shared between a script and its harness.
pub type MarkLog = SharedLog<(u32, Time)>;

/// Create an empty mark log.
pub fn mark_log() -> MarkLog {
    SharedLog::new()
}

/// Status log shared between a script and its harness: `(id, status)`
/// records appended by [`Op::Status`].
pub type StatusLog = SharedLog<(u32, MpiStatus)>;

/// Create an empty status log.
pub fn status_log() -> StatusLog {
    SharedLog::new()
}

/// One script operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// `MPI_Isend` into a slot.
    Isend {
        /// Destination rank.
        dst: u32,
        /// Communicator context (user traffic: [`crate::types::CTX_WORLD`]).
        ctx: u16,
        /// Tag.
        tag: u16,
        /// Payload bytes.
        len: u32,
        /// Slot to store the request handle.
        slot: usize,
    },
    /// `MPI_Irecv` into a slot.
    Irecv {
        /// Source rank or `MPI_ANY_SOURCE`.
        src: Option<u16>,
        /// Communicator context.
        ctx: u16,
        /// Tag or `MPI_ANY_TAG`.
        tag: Option<u16>,
        /// Buffer bytes.
        len: u32,
        /// Slot to store the request handle.
        slot: usize,
    },
    /// `MPI_Wait` on a slot.
    Wait {
        /// Slot to wait on.
        slot: usize,
    },
    /// `MPI_Waitany`: proceed once *any* of the slots completes.
    WaitAny {
        /// Slots to race.
        slots: Vec<usize>,
    },
    /// `MPI_Cancel` on a slot's request (receives only).
    Cancel {
        /// Slot whose request to cancel.
        slot: usize,
    },
    /// `MPI_Iprobe` into a slot (wait it, then read its status: a
    /// `cancelled` status means `flag == false`).
    Iprobe {
        /// Source filter.
        src: Option<u16>,
        /// Tag filter.
        tag: Option<u16>,
        /// Slot for the answer.
        slot: usize,
    },
    /// `MPI_Waitall` on several slots.
    WaitAll {
        /// Slots to wait on.
        slots: Vec<usize>,
    },
    /// `MPI_Barrier` on `MPI_COMM_WORLD` (dissemination algorithm over
    /// the internal context).
    Barrier,
    /// Record `(id, now)` into the mark log.
    Mark {
        /// Mark identifier.
        id: u32,
    },
    /// Pause the script for a fixed simulated duration (settle phases in
    /// benchmarks — e.g. letting ALPU insert sessions drain).
    Sleep {
        /// How long to sleep.
        dur: Time,
    },
    /// Record the `MPI_Status` of a completed request into the status
    /// log as `(id, status)`. The slot must already be complete (place
    /// after its `Wait`).
    Status {
        /// Slot whose status to record.
        slot: usize,
        /// Identifier written alongside.
        id: u32,
    },
    /// A blocking collective, offered to the NIC first
    /// ([`Mpi::icoll`]). If the NIC declines (`cancelled` status), the
    /// script replays the *identical* shared step plan
    /// ([`mpiq_nic::coll::steps`]) through ordinary sends and receives —
    /// so offloading and fallback ranks produce the same wire pattern
    /// and interoperate within one collective.
    ///
    /// **Under component faults** (a scheduled `FaultSchedule` crash or
    /// a link declared dead), a collective never deadlocks: every step
    /// that names a failed rank is skipped, and the collective ends with
    /// `MpiStatus::error = Some(MpiError::RankFailed{..})` naming the
    /// first failed rank met — the ULFM `MPI_ERR_PROC_FAILED` contract —
    /// so the script continues. Survivor-to-survivor steps complete
    /// normally. [`Op::Agree`] and [`Op::Shrink`] are the recovery
    /// surface.
    Coll {
        /// Which collective.
        op: CollOp,
        /// Root rank (bcast; ignored for barrier/allreduce).
        root: u32,
        /// Payload bytes per message.
        len: u32,
        /// Record the final status into the status log under this id.
        sid: Option<u32>,
    },
    /// Fault-tolerant agreement on the failed-rank set (ULFM
    /// `MPI_Comm_agree` shape): three all-exchange [`CollOp::Agree`]
    /// sweeps, each offered to the NIC first with the shared-plan host
    /// fallback on decline. The sweep count is fixed — not
    /// run-until-stable — so every survivor performs the same wire
    /// pattern and no rank stops a sweep early while a partner still
    /// waits on it. Each sweep is seeded with the mask accumulated so
    /// far; with all-to-all exchange every survivor hears about a rank
    /// that died in sweep `j` by the end of sweep `j + 1`, so the sweeps
    /// converge for failures up to the penultimate sweep. The agreed
    /// mask persists in the script (input to [`Op::Shrink`]) and is
    /// recorded as the status `len` under `sid`.
    Agree {
        /// Record the agreed mask (status `len`) under this id.
        sid: Option<u32>,
    },
    /// Rebuild a dense rank mapping over the survivors of the last
    /// [`Op::Agree`] (ULFM `MPI_Comm_shrink` shape): survivors are the
    /// world ranks whose bit is clear in the agreed mask, in ascending
    /// world-rank order, and this rank's shrunk rank is its index in
    /// that list. Purely local — consistency comes from agreement, so no
    /// further communication is needed. Records a status under `sid`
    /// with `source` = shrunk rank and `len` = survivor count.
    Shrink {
        /// Record the shrunk mapping under this id.
        sid: Option<u32>,
    },
    /// A collective over the *shrunk* communicator: the shared step plan
    /// generated in shrunk rank space, with every peer translated back
    /// to its world rank through the survivor list, replayed host-side.
    /// (The NIC offload engine derives peers from `rank == node`, which
    /// no longer holds after a shrink, so these always run on the host.)
    /// `root` is a shrunk-space rank. A rank excluded by the shrink —
    /// its own bit set in the agreed mask — completes immediately with a
    /// `cancelled` status.
    ShrunkColl {
        /// Which collective.
        op: CollOp,
        /// Root rank in shrunk space (bcast; ignored otherwise).
        root: u32,
        /// Payload bytes per message.
        len: u32,
        /// Record the final status into the status log under this id.
        sid: Option<u32>,
    },
    /// `MPI_Send` with retry-and-backoff: on a typed `RankFailed`, sleep
    /// the (doubling) backoff and reissue, up to `tries` attempts total.
    /// A peer that restarts within the retry budget turns a
    /// would-be-fatal send into a delayed success.
    RetrySend {
        /// Destination rank.
        dst: u32,
        /// Tag.
        tag: u16,
        /// Payload bytes.
        len: u32,
        /// Total attempts (≥ 1).
        tries: u32,
        /// Initial backoff before the second attempt; doubles per retry.
        backoff: Time,
        /// Record the final status under this id.
        sid: Option<u32>,
    },
    /// `MPI_Recv` with retry-and-backoff; see [`Op::RetrySend`].
    RetryRecv {
        /// Source rank.
        src: u16,
        /// Tag.
        tag: u16,
        /// Buffer bytes.
        len: u32,
        /// Total attempts (≥ 1).
        tries: u32,
        /// Initial backoff before the second attempt; doubles per retry.
        backoff: Time,
        /// Record the final status under this id.
        sid: Option<u32>,
    },
}

/// All-exchange sweeps of one [`Op::Agree`]: at least 2, for masks to
/// propagate between survivors that never directly heard the same
/// failure.
const AGREE_SWEEPS: u32 = 3;

#[derive(Debug)]
struct BarrierRound {
    send: Request,
    recv: Request,
}

/// In-flight state of one [`Op::Coll`].
#[derive(Debug)]
enum CollRun {
    /// Offered to the NIC; waiting on its single end-of-plan completion.
    Offload {
        /// The offload request.
        req: Request,
        /// Instance slot, reused verbatim by the fallback plan.
        instance: u16,
    },
    /// NIC declined: the host replays the shared plan, one blocking send
    /// or receive at a time (exactly what the dependency-ordered plan
    /// requires), through the same [`PlanRun`] the firmware drives.
    Host {
        run: PlanRun,
        pending: Option<Request>,
    },
}

/// In-flight state of one [`Op::RetrySend`]/[`Op::RetryRecv`].
#[derive(Debug)]
struct RetryRun {
    /// The outstanding attempt, `None` while backing off before reissue.
    pending: Option<Request>,
    /// Attempts left after the outstanding one.
    tries_left: u32,
    /// Backoff before the next reissue (doubles each retry).
    backoff: Time,
}

/// The interpreter state for one rank's script.
pub struct Script {
    /// The program, fixed once built; shared so a step can hold the
    /// current op while the interpreter state changes.
    ops: Rc<[Op]>,
    pc: usize,
    /// Slots of the current [`Op::WaitAll`] already seen complete.
    /// Completion is monotone within one program (a restart installs a
    /// fresh script), so a re-poll resumes at the first incomplete slot.
    wait_from: usize,
    slots: HashMap<usize, Request>,
    barrier_instance: u16,
    barrier_round: u32,
    barrier_pending: Option<BarrierRound>,
    /// Instance-slot counter for [`Op::Coll`] (wraps within the tag
    /// partition; scripts run collectives sequentially, so slots can't
    /// collide in flight).
    coll_instance: u16,
    coll: Option<CollRun>,
    /// Completed sweeps of the current [`Op::Agree`].
    agree_sweep: u32,
    /// The failed-rank mask accumulated across agree sweeps. Monotonic
    /// across the script's lifetime (a rank, once agreed dead, stays
    /// dead), read by [`Op::Shrink`].
    agree_mask: u16,
    /// Survivor list (world ranks, ascending) set by [`Op::Shrink`].
    shrunk: Option<Vec<u32>>,
    /// In-flight retry verb state.
    retry: Option<RetryRun>,
    sleep_until: Option<Time>,
    marks: MarkLog,
    statuses: StatusLog,
}

impl Script {
    /// Build from explicit ops.
    pub fn new(ops: Vec<Op>, marks: MarkLog) -> Script {
        Script {
            ops: ops.into(),
            pc: 0,
            wait_from: 0,
            slots: HashMap::new(),
            barrier_instance: 0,
            barrier_round: 0,
            barrier_pending: None,
            coll_instance: 0,
            coll: None,
            agree_sweep: 0,
            agree_mask: 0,
            shrunk: None,
            retry: None,
            sleep_until: None,
            marks,
            statuses: SharedLog::new(),
        }
    }

    /// Attach a status log for [`Op::Status`] records.
    pub fn with_status_log(mut self, log: StatusLog) -> Script {
        self.statuses = log;
        self
    }

    /// Start the collective and barrier instance counters at a given
    /// base instead of 0. Recovery programs staged for a restarted node
    /// use this to align their instance slots (and therefore tags) with
    /// the survivors' scripts, which have already consumed some slots —
    /// without alignment a post-rejoin collective would cross-match
    /// against a different instance's tags and deadlock.
    pub fn with_instance_base(mut self, coll: u16, barrier: u16) -> Script {
        self.coll_instance = coll;
        self.barrier_instance = barrier;
        self
    }

    /// Fluent builder.
    pub fn builder() -> ScriptBuilder {
        ScriptBuilder::default()
    }

    /// Dissemination barrier: returns `true` when this rank has finished
    /// the barrier.
    fn poll_barrier(&mut self, mpi: &mut Mpi<'_, '_>) -> bool {
        let n = mpi.size();
        if n <= 1 {
            self.barrier_instance = self.barrier_instance.wrapping_add(1);
            return true;
        }
        let rounds = (n as f64).log2().ceil() as u32;
        loop {
            if self.barrier_round >= rounds {
                self.barrier_round = 0;
                self.barrier_instance = self.barrier_instance.wrapping_add(1);
                return true;
            }
            if self.barrier_pending.is_none() {
                let dist = 1u32 << self.barrier_round;
                let me = mpi.rank();
                let to = (me + dist) % n;
                let from = (me + n - dist) % n;
                // Tag encodes (instance, round) so concurrent barriers
                // cannot cross-match.
                let tag = self
                    .barrier_instance
                    .wrapping_mul(32)
                    .wrapping_add(self.barrier_round as u16)
                    & 0x7FFF;
                let send = mpi.isend_ctx(to, CTX_INTERNAL, tag, 0);
                let recv = mpi.irecv_ctx(Some(from as u16), CTX_INTERNAL, Some(tag), 0);
                self.barrier_pending = Some(BarrierRound { send, recv });
            }
            let pend = self.barrier_pending.as_ref().expect("just set");
            if mpi.test(pend.send) && mpi.test(pend.recv) {
                self.barrier_pending = None;
                self.barrier_round += 1;
            } else {
                return false;
            }
        }
    }

    /// Drive one [`Op::Coll`] (or one agree sweep, or one
    /// [`Op::ShrunkColl`]): offer-to-NIC, then (on decline) the
    /// host-side replay of the identical plan. Shrunk collectives skip
    /// the offer and go straight to a peer-translated host plan. Returns
    /// the final synthetic status when the collective is done, `None`
    /// while it is still in flight. In agree mode (`op` is
    /// [`CollOp::Agree`]) `len` seeds the failed-rank mask and
    /// the returned status's `len` carries the accumulated mask.
    fn poll_coll(
        &mut self,
        mpi: &mut Mpi<'_, '_>,
        op: CollOp,
        root: u32,
        len: u32,
        shrunk: bool,
    ) -> Option<MpiStatus> {
        loop {
            match self.coll.take() {
                None => {
                    let instance = self.coll_instance % mpiq_nic::coll::INSTANCES;
                    self.coll_instance = self.coll_instance.wrapping_add(1);
                    if shrunk {
                        let survivors = self.shrunk.as_deref().expect("ShrunkColl before Shrink");
                        let Some(me) = survivors.iter().position(|&r| r == mpi.rank()) else {
                            // This rank was shrunk out: nothing to do.
                            return Some(MpiStatus {
                                source: mpi.rank() as u16,
                                tag: 0,
                                len: 0,
                                cancelled: true,
                                overflow: false,
                                error: None,
                            });
                        };
                        let n = survivors.len() as u32;
                        let run =
                            PlanRun::new(op, me as u32, n, root, len, instance, Some(survivors));
                        self.coll = Some(CollRun::Host { run, pending: None });
                    } else {
                        let req = mpi.icoll(op, root, len, instance);
                        self.coll = Some(CollRun::Offload { req, instance });
                    }
                }
                Some(CollRun::Offload { req, instance }) => {
                    let Some(st) = mpi.status(req) else {
                        self.coll = Some(CollRun::Offload { req, instance });
                        return None;
                    };
                    if !st.cancelled {
                        return Some(st);
                    }
                    // Declined: replay the identical shared plan.
                    let (me, n) = (mpi.rank(), mpi.size());
                    let run = PlanRun::new(op, me, n, root, len, instance, None);
                    self.coll = Some(CollRun::Host { run, pending: None });
                }
                Some(CollRun::Host {
                    mut run,
                    mut pending,
                }) => loop {
                    if let Some(r) = pending {
                        let Some(st) = mpi.status(r) else {
                            self.coll = Some(CollRun::Host { run, pending });
                            return None;
                        };
                        match st.error {
                            Some(MpiError::RankFailed { rank }) => run.fail(rank),
                            _ => run.done(st.len),
                        }
                    }
                    let Some(step) = run.step() else {
                        // Plan done: one synthetic status, shaped exactly
                        // like the NIC's end-of-plan completion.
                        let (failed, len) = run.outcome().expect("no step left");
                        return Some(MpiStatus {
                            source: failed.unwrap_or(mpi.rank() as u16),
                            tag: 0,
                            len,
                            cancelled: false,
                            overflow: false,
                            error: failed.map(|rank| MpiError::RankFailed { rank }),
                        });
                    };
                    pending = Some(match step.dir {
                        Dir::Send => mpi.isend_ctx(step.peer, CTX_INTERNAL, step.tag, step.len),
                        Dir::Recv => {
                            let from = Some(step.peer as u16);
                            mpi.irecv_ctx(from, CTX_INTERNAL, Some(step.tag), step.len)
                        }
                    });
                },
            }
        }
    }

    /// Drive one retry verb. Returns `true` when the op (with all its
    /// retries) has concluded and the script may advance.
    #[allow(clippy::too_many_arguments)]
    fn poll_retry(
        &mut self,
        mpi: &mut Mpi<'_, '_>,
        send: bool,
        peer: u32,
        tag: u16,
        len: u32,
        tries: u32,
        backoff: Time,
        sid: Option<u32>,
    ) -> bool {
        loop {
            // Between attempts: hold until the backoff elapses.
            if let Some(until) = self.sleep_until {
                if mpi.now() < until {
                    return false;
                }
                self.sleep_until = None;
            }
            let issue = |mpi: &mut Mpi<'_, '_>| {
                if send {
                    mpi.isend(peer, tag, len)
                } else {
                    mpi.irecv(Some(peer as u16), Some(tag), len)
                }
            };
            match self.retry.take() {
                None => {
                    self.retry = Some(RetryRun {
                        pending: Some(issue(mpi)),
                        tries_left: tries.saturating_sub(1),
                        backoff,
                    });
                }
                Some(mut run) => match run.pending {
                    None => {
                        // Backoff elapsed: reissue.
                        run.pending = Some(issue(mpi));
                        self.retry = Some(run);
                    }
                    Some(r) => {
                        let Some(st) = mpi.status(r) else {
                            self.retry = Some(run);
                            return false;
                        };
                        if st.rank_failed() && run.tries_left > 0 {
                            run.tries_left -= 1;
                            run.pending = None;
                            self.sleep_until = Some(mpi.now() + run.backoff);
                            mpi.wake_after(run.backoff);
                            run.backoff = Time(run.backoff.0 * 2);
                            self.retry = Some(run);
                            return false;
                        }
                        if let Some(id) = sid {
                            self.statuses.borrow_mut().push((id, st));
                        }
                        self.retry = None;
                        return true;
                    }
                },
            }
        }
    }
}

impl AppProgram for Script {
    /// Bounded by [`mpiq_nic::coll::AGREE_MAX_RANKS`] when the script
    /// runs an [`Op::Agree`].
    fn max_world(&self) -> Option<u32> {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::Agree { .. }))
            .then_some(mpiq_nic::coll::AGREE_MAX_RANKS)
    }

    fn step(&mut self, mpi: &mut Mpi<'_, '_>) {
        let ops = Rc::clone(&self.ops);
        while self.pc < ops.len() {
            match ops[self.pc] {
                Op::Isend {
                    dst,
                    ctx,
                    tag,
                    len,
                    slot,
                } => {
                    let r = mpi.isend_ctx(dst, ctx, tag, len);
                    self.slots.insert(slot, r);
                    self.pc += 1;
                }
                Op::Irecv {
                    src,
                    ctx,
                    tag,
                    len,
                    slot,
                } => {
                    let r = mpi.irecv_ctx(src, ctx, tag, len);
                    self.slots.insert(slot, r);
                    self.pc += 1;
                }
                Op::Wait { slot } => {
                    let r = self.slots[&slot];
                    if mpi.test(r) {
                        self.pc += 1;
                    } else {
                        return;
                    }
                }
                Op::WaitAny { ref slots } => {
                    if slots.iter().any(|s| mpi.test(self.slots[s])) {
                        self.pc += 1;
                    } else {
                        return;
                    }
                }
                Op::Cancel { slot } => {
                    let r = self.slots[&slot];
                    mpi.cancel(r);
                    self.pc += 1;
                }
                Op::Iprobe { src, tag, slot } => {
                    let r = mpi.iprobe(src, tag);
                    self.slots.insert(slot, r);
                    self.pc += 1;
                }
                Op::WaitAll { ref slots } => {
                    while let Some(s) = slots.get(self.wait_from) {
                        if !mpi.test(self.slots[s]) {
                            return;
                        }
                        self.wait_from += 1;
                    }
                    self.wait_from = 0;
                    self.pc += 1;
                }
                Op::Barrier => {
                    if self.poll_barrier(mpi) {
                        self.pc += 1;
                    } else {
                        return;
                    }
                }
                Op::Coll { op, root, len, sid } => {
                    match self.poll_coll(mpi, op, root, len, false) {
                        Some(st) => {
                            if let Some(id) = sid {
                                self.statuses.borrow_mut().push((id, st));
                            }
                            self.pc += 1;
                        }
                        None => return,
                    }
                }
                Op::Agree { sid } => {
                    let mut done = false;
                    while !done {
                        let seed = self.agree_mask as u32;
                        match self.poll_coll(mpi, CollOp::Agree, 0, seed, false) {
                            Some(st) => {
                                self.agree_mask |= st.len as u16;
                                self.agree_sweep += 1;
                                if self.agree_sweep >= AGREE_SWEEPS {
                                    self.agree_sweep = 0;
                                    if let Some(id) = sid {
                                        self.statuses.borrow_mut().push((
                                            id,
                                            MpiStatus {
                                                source: mpi.rank() as u16,
                                                tag: 0,
                                                len: self.agree_mask as u32,
                                                cancelled: false,
                                                overflow: false,
                                                error: None,
                                            },
                                        ));
                                    }
                                    self.pc += 1;
                                    done = true;
                                }
                            }
                            None => return,
                        }
                    }
                }
                Op::Shrink { sid } => {
                    let mask = self.agree_mask;
                    let survivors: Vec<u32> = (0..mpi.size())
                        .filter(|&r| r >= 16 || mask & (1 << r) == 0)
                        .collect();
                    let me = survivors.iter().position(|&r| r == mpi.rank());
                    if let Some(id) = sid {
                        self.statuses.borrow_mut().push((
                            id,
                            MpiStatus {
                                source: me.map_or(u16::MAX, |i| i as u16),
                                tag: 0,
                                len: survivors.len() as u32,
                                cancelled: me.is_none(),
                                overflow: false,
                                error: None,
                            },
                        ));
                    }
                    self.shrunk = Some(survivors);
                    self.pc += 1;
                }
                Op::ShrunkColl { op, root, len, sid } => {
                    match self.poll_coll(mpi, op, root, len, true) {
                        Some(st) => {
                            if let Some(id) = sid {
                                self.statuses.borrow_mut().push((id, st));
                            }
                            self.pc += 1;
                        }
                        None => return,
                    }
                }
                Op::RetrySend {
                    dst,
                    tag,
                    len,
                    tries,
                    backoff,
                    sid,
                } => {
                    if self.poll_retry(mpi, true, dst, tag, len, tries, backoff, sid) {
                        self.pc += 1;
                    } else {
                        return;
                    }
                }
                Op::RetryRecv {
                    src,
                    tag,
                    len,
                    tries,
                    backoff,
                    sid,
                } => {
                    if self.poll_retry(mpi, false, src as u32, tag, len, tries, backoff, sid) {
                        self.pc += 1;
                    } else {
                        return;
                    }
                }
                Op::Mark { id } => {
                    let now = mpi.now();
                    self.marks.borrow_mut().push((id, now));
                    self.pc += 1;
                }
                Op::Status { slot, id } => {
                    let r = self.slots[&slot];
                    let st = mpi
                        .status(r)
                        .expect("Op::Status requires a completed request");
                    self.statuses.borrow_mut().push((id, st));
                    self.pc += 1;
                }
                Op::Sleep { dur } => match self.sleep_until {
                    None => {
                        self.sleep_until = Some(mpi.now() + dur);
                        mpi.wake_after(dur);
                        return;
                    }
                    Some(until) => {
                        if mpi.now() >= until {
                            self.sleep_until = None;
                            self.pc += 1;
                        } else {
                            return; // spurious wake (a completion arrived)
                        }
                    }
                },
            }
        }
        mpi.finish();
    }
}

/// Fluent construction of scripts with automatic slot allocation.
#[derive(Default)]
pub struct ScriptBuilder {
    ops: Vec<Op>,
    next_slot: usize,
}

impl ScriptBuilder {
    /// `MPI_Isend`; returns the slot for a later wait.
    pub fn isend(&mut self, dst: u32, tag: u16, len: u32) -> usize {
        self.isend_ctx(dst, crate::types::CTX_WORLD, tag, len)
    }

    /// `MPI_Isend` on an explicit context (collectives machinery).
    pub fn isend_ctx(&mut self, dst: u32, ctx: u16, tag: u16, len: u32) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.ops.push(Op::Isend {
            dst,
            ctx,
            tag,
            len,
            slot,
        });
        slot
    }

    /// `MPI_Irecv`; returns the slot for a later wait.
    pub fn irecv(&mut self, src: Option<u16>, tag: Option<u16>, len: u32) -> usize {
        self.irecv_ctx(src, crate::types::CTX_WORLD, tag, len)
    }

    /// `MPI_Irecv` on an explicit context (collectives machinery).
    pub fn irecv_ctx(&mut self, src: Option<u16>, ctx: u16, tag: Option<u16>, len: u32) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.ops.push(Op::Irecv {
            src,
            ctx,
            tag,
            len,
            slot,
        });
        slot
    }

    /// `MPI_Wait`.
    pub fn wait(&mut self, slot: usize) -> &mut Self {
        self.ops.push(Op::Wait { slot });
        self
    }

    /// `MPI_Waitall`.
    pub fn wait_all(&mut self, slots: Vec<usize>) -> &mut Self {
        self.ops.push(Op::WaitAll { slots });
        self
    }

    /// `MPI_Waitany`.
    pub fn wait_any(&mut self, slots: Vec<usize>) -> &mut Self {
        self.ops.push(Op::WaitAny { slots });
        self
    }

    /// `MPI_Cancel` on a slot's request.
    pub fn cancel(&mut self, slot: usize) -> &mut Self {
        self.ops.push(Op::Cancel { slot });
        self
    }

    /// `MPI_Iprobe`; returns the slot carrying the answer.
    pub fn iprobe(&mut self, src: Option<u16>, tag: Option<u16>) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.ops.push(Op::Iprobe { src, tag, slot });
        slot
    }

    /// Blocking `MPI_Send` = `Isend` + `Wait`.
    pub fn send(&mut self, dst: u32, tag: u16, len: u32) -> &mut Self {
        let s = self.isend(dst, tag, len);
        self.wait(s)
    }

    /// Blocking `MPI_Recv` = `Irecv` + `Wait`.
    pub fn recv(&mut self, src: Option<u16>, tag: Option<u16>, len: u32) -> &mut Self {
        let s = self.irecv(src, tag, len);
        self.wait(s)
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self) -> &mut Self {
        self.ops.push(Op::Barrier);
        self
    }

    /// Record a timestamp.
    pub fn mark(&mut self, id: u32) -> &mut Self {
        self.ops.push(Op::Mark { id });
        self
    }

    /// Pause for a fixed simulated duration.
    pub fn sleep(&mut self, dur: Time) -> &mut Self {
        self.ops.push(Op::Sleep { dur });
        self
    }

    /// Record a completed slot's status.
    pub fn status(&mut self, slot: usize, id: u32) -> &mut Self {
        self.ops.push(Op::Status { slot, id });
        self
    }

    /// A NIC-offloadable collective with host fallback ([`Op::Coll`]).
    /// `sid` records the final status into the status log.
    pub fn coll(&mut self, op: CollOp, root: u32, len: u32, sid: Option<u32>) -> &mut Self {
        self.ops.push(Op::Coll { op, root, len, sid });
        self
    }

    /// Fault-tolerant agreement on the failed-rank set ([`Op::Agree`]).
    /// The agreed mask is recorded as the status `len` under `sid`.
    pub fn agree(&mut self, sid: Option<u32>) -> &mut Self {
        self.ops.push(Op::Agree { sid });
        self
    }

    /// Rebuild a dense rank mapping over the survivors of the last
    /// agreement ([`Op::Shrink`]).
    pub fn shrink(&mut self, sid: Option<u32>) -> &mut Self {
        self.ops.push(Op::Shrink { sid });
        self
    }

    /// A collective over the shrunk communicator ([`Op::ShrunkColl`]);
    /// `root` is a shrunk-space rank.
    pub fn shrunk_coll(&mut self, op: CollOp, root: u32, len: u32, sid: Option<u32>) -> &mut Self {
        self.ops.push(Op::ShrunkColl { op, root, len, sid });
        self
    }

    /// Blocking send with retry-and-doubling-backoff ([`Op::RetrySend`]).
    pub fn retry_send(
        &mut self,
        dst: u32,
        tag: u16,
        len: u32,
        tries: u32,
        backoff: Time,
        sid: Option<u32>,
    ) -> &mut Self {
        assert!(tries >= 1);
        self.ops.push(Op::RetrySend {
            dst,
            tag,
            len,
            tries,
            backoff,
            sid,
        });
        self
    }

    /// Blocking receive with retry-and-doubling-backoff
    /// ([`Op::RetryRecv`]).
    pub fn retry_recv(
        &mut self,
        src: u16,
        tag: u16,
        len: u32,
        tries: u32,
        backoff: Time,
        sid: Option<u32>,
    ) -> &mut Self {
        assert!(tries >= 1);
        self.ops.push(Op::RetryRecv {
            src,
            tag,
            len,
            tries,
            backoff,
            sid,
        });
        self
    }

    /// Finish, attaching the mark log.
    pub fn build(&mut self, marks: MarkLog) -> Script {
        Script::new(std::mem::take(&mut self.ops), marks)
    }
}
