//! The NIC collective engine's I/O: accepting offloads, injecting step
//! frames and harvesting them from the unexpected queue. The run rule
//! itself (step cursor, first failed rank, agreement mask) is
//! [`PlanRun`], shared with the host replay, so both paths put the same
//! frames on the wire.

use super::{cost, Effects, Firmware, FwStats};
use crate::coll::{CollOp, Dir, PlanRun, AGREE_MAX_RANKS, COLL_CTX};
use crate::host_iface::{Completion, HostRequest, ReqId};
use mpiq_cpusim::Core;
use mpiq_dessim::Time;
use mpiq_net::MsgKind;

/// One NIC-resident collective in flight: the host request its single
/// end-of-plan completion answers, and the plan's run. Steps run
/// strictly in plan order; a `Recv` step that no arrived frame satisfies
/// parks the instance until a collective frame arrives or the step's
/// peer is declared dead.
struct CollInstance {
    req: ReqId,
    run: PlanRun,
}

/// The collectives in flight and the engine's counters.
#[derive(Default)]
pub(super) struct CollEngine {
    live: Vec<CollInstance>,
    offloaded: u64,
    declined: u64,
    steps_sent: u64,
    steps_recv: u64,
    rank_failed: u64,
}

impl CollEngine {
    /// Fold the engine's counters into firmware statistics.
    pub(super) fn add_counters(&self, s: &mut FwStats) {
        s.coll_offloaded += self.offloaded;
        s.coll_declined += self.declined;
        s.coll_steps_sent += self.steps_sent;
        s.coll_steps_recv += self.steps_recv;
        s.coll_rank_failed += self.rank_failed;
    }
}

impl Firmware {
    /// Accept (or decline) a whole-collective offload. A declined
    /// request answers immediately with `cancelled = true` and the host
    /// replays the identical step plan itself — so the wire pattern is
    /// the same either way and mixed offload/fallback ranks interoperate.
    ///
    /// Decline conditions: offload not configured, multi-process nodes
    /// (the engine matches on the bare context), payloads past the eager
    /// threshold (rendezvous steps would need host buffers), overload
    /// protection armed (credits and staging accounting belong to the
    /// host path), degraded/dead ALPUs (quarantine recovery already
    /// owns the unexpected queue), or an agreement wider than its
    /// one-bit-per-rank mask ([`AGREE_MAX_RANKS`]).
    pub(super) fn do_collective(
        &mut self,
        request: HostRequest,
        now: Time,
        core: &mut Core,
        fx: &mut Effects,
    ) -> Time {
        let HostRequest::Collective {
            req,
            op,
            root,
            len,
            instance,
            n,
        } = request
        else {
            unreachable!("dispatched for collective requests only")
        };
        let t = core.begin(now).int(cost::COLL_DISPATCH).end();
        let decline = !self.cfg.coll_offload
            || self.cfg.ranks_per_node > 1
            || len > self.cfg.eager_threshold
            || self.cfg.overload_active()
            || self.posted_quarantined()
            || self.unexpected_quarantined()
            || self.faults.alpus_dead
            || (op == CollOp::Agree && n > AGREE_MAX_RANKS);
        if decline {
            self.colls.declined += 1;
            let comp = Completion::cancelled(req, req.rank as u16, 0);
            fx.completions.push((t + self.cfg.completion_cost, comp));
            return t;
        }
        self.colls.offloaded += 1;
        // Agreement seeds only from the host's view (carried in `len`);
        // peers this NIC already declared dead are discovered *in step
        // order* (each skipped step ORs its bit in), exactly as the host
        // fallback discovers them through typed per-step failures — so
        // both paths stamp identical masks on identical frames.
        let run = PlanRun::new(op, req.rank, n, root, len, instance, None);
        self.colls.live.push(CollInstance { req, run });
        self.coll_poll(t, core, fx)
    }

    /// Drive every NIC-resident collective as far as its plan allows,
    /// emitting the single end-of-plan completion for each instance that
    /// finishes. Called when an instance is created, when a collective
    /// frame arrives, and when a peer is declared dead: the dead peer's
    /// steps are skipped, un-parking the rest of each plan.
    pub(super) fn coll_poll(&mut self, now: Time, core: &mut Core, fx: &mut Effects) -> Time {
        let mut t = now;
        let mut i = 0;
        while i < self.colls.live.len() {
            t = self.coll_advance(i, t, core, fx);
            let Some((failed, len)) = self.colls.live[i].run.outcome() else {
                i += 1;
                continue;
            };
            // `swap_remove` moves the former tail into slot `i`: it is
            // examined next.
            let req = self.colls.live.swap_remove(i).req;
            let comp = match failed {
                Some(dead) => {
                    self.colls.rank_failed += 1;
                    Completion::failed(req, dead, 0, 0)
                }
                // Agreement returns its accumulated failed-set mask as
                // the completion length (zero for every other
                // collective) — failures are the collective's *output*,
                // never an error.
                None => Completion::ok(req, req.rank as u16, 0, len),
            };
            fx.completions.push((t + self.cfg.completion_cost, comp));
        }
        t
    }

    /// Run instance `i`'s steps in plan order until one parks (a `Recv`
    /// whose frame has not arrived) or the plan ends. `Send` steps inject
    /// the frame straight from NIC memory — no host DMA, no per-step
    /// completion: that is the offload. `Recv` steps harvest from the
    /// unexpected queue through [`Firmware::match_unexpected`] and
    /// [`Firmware::consume_unexpected`] (keeping the unexpected ALPU's
    /// shadow in sync); harvest is tried *before* the dead-peer check so
    /// a frame sent before its sender died is still consumed, exactly as
    /// `do_post_recv` orders it. A step naming a dead peer is skipped:
    /// agreement ORs the peer into its mask, any other collective ends
    /// typed `rank_failed`, naming the first dead peer met.
    fn coll_advance(&mut self, i: usize, mut t: Time, core: &mut Core, fx: &mut Effects) -> Time {
        let req = self.colls.live[i].req;
        while let Some(step) = self.colls.live[i].run.step() {
            let dead = self.peer_dead(self.node_of(step.peer));
            // `Some(received len)` when the step ran, `None` when its
            // peer is dead.
            let ran = match step.dir {
                Dir::Send if dead => None,
                Dir::Send => {
                    // Agreement frames carry the *current* mask as their
                    // length — the mask is the data plane.
                    let (ctx, tag) = (COLL_CTX, step.tag);
                    let msg =
                        self.make_msg(step.peer, req.rank, ctx, tag, step.len, MsgKind::Eager);
                    let at = self.inject(msg.wire_bytes(), t);
                    fx.tx.push((at, msg));
                    self.colls.steps_sent += 1;
                    t = core.begin(t).int(cost::COLL_SEND).bus_write().end();
                    Some(0)
                }
                Dir::Recv => {
                    let from = Some(step.peer as u16);
                    let probe = self.recv_probe(req, from, COLL_CTX, Some(step.tag));
                    let matched;
                    (t, matched) = self.match_unexpected(probe, t, core);
                    match matched {
                        // The payload is combined in NIC memory — no host
                        // DMA.
                        Some(key) => {
                            let frame;
                            (t, frame) = self.consume_unexpected(key, t, core);
                            self.colls.steps_recv += 1;
                            Some(frame.header.payload_len)
                        }
                        None if dead => None,
                        // Park: the frame is still in flight.
                        None => return t,
                    }
                }
            };
            let run = &mut self.colls.live[i].run;
            match ran {
                Some(len) => run.done(len),
                None => run.fail(step.peer as u16),
            }
        }
        t
    }
}
