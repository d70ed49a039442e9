//! Shared collective plans: the tag partition, the binomial-tree step
//! generator and [`PlanRun`], the one rule for running a plan. Both
//! collective executors — the NIC-firmware offload engine and the
//! script's host replay — drive a `PlanRun`, so an offloaded rank and a
//! fallen-back rank emit byte-identical wire patterns and therefore
//! interoperate mid-collective (e.g. when one node's ALPU is quarantined
//! and its neighbours' are not).
//!
//! # Tag partition
//!
//! Collective traffic runs on the internal context with tags in the upper
//! half of the 16-bit tag space (`0x8000 |`), leaving 15 bits. The old
//! scheme hashed `instance * 97 + k` into those 15 bits, which collides as
//! soon as a message index `k` reaches 97 — exactly what happens at ≥ 98
//! ranks, where per-rank tags use `k = 2 + rank`. [`ctag`] instead
//! *partitions* the space: each of [`INSTANCES`] instance slots owns a
//! contiguous block of [`K_SPAN`] message indices, so distinct in-flight
//! instances can never produce the same tag (scripts are sequential, so
//! only a couple of instances overlap in flight; 31 slots is far more
//! than the 2 the runtime needs).
//!
//! Message-index (`k`) assignment, fixed across the codebase:
//!
//! * `k = 0` — broadcast/down phase of a tree,
//! * `k = 1` — reduce/up phase of a tree,
//! * `k = 2 + rank` — per-rank tags (agreement, all-to-all).
//!
//! With `K_SPAN = 1056` the largest per-rank index at the target scale
//! (n = 1024 → `k = 1025`) fits with headroom; `31 * 1056 = 32736`
//! blocks fit in the 15-bit space with 32 codes to spare.

/// Context id collective traffic runs on. This must equal the MPI layer's
/// `CTX_INTERNAL`; `mpiq-nic` cannot depend on `mpiq-mpi`, so the value is
/// duplicated here and pinned by a test on the MPI side.
pub const COLL_CTX: u16 = 0;

/// Message-index span owned by each instance slot.
pub const K_SPAN: u16 = 1056;

/// Number of instance slots the 15-bit space is partitioned into.
pub const INSTANCES: u16 = 31;

/// Collision-free collective tag for `instance`, message index `k`.
///
/// Distinct instance slots (`instance mod INSTANCES`) map to disjoint
/// `K_SPAN`-sized blocks, so no two in-flight collectives with distinct
/// slots can collide, for any pair of message indices.
pub fn ctag(instance: u16, k: u16) -> u16 {
    assert!(k < K_SPAN, "collective message index {k} out of range");
    0x8000 | ((instance % INSTANCES) * K_SPAN + k)
}

/// The collectives the NIC firmware can run without host round-trips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollOp {
    /// Zero-payload allreduce: up-tree then down-tree, root 0.
    Barrier,
    /// Binomial-tree broadcast from a root.
    Bcast,
    /// Reduce-to-0 then broadcast-from-0 (message pattern only; the
    /// combining arithmetic is not modeled).
    Allreduce,
    /// Fault-tolerant agreement on a failed-rank bitmask (ULFM
    /// `MPI_Comm_agree` shape). All-exchange rather than a tree: a tree
    /// edge through a dead rank would sever mask propagation, while the
    /// all-exchange plan keeps every pair of survivors directly
    /// connected. The mask itself rides in `payload_len` — the only data
    /// plane this simulator has — so `len` here is the *seed* mask and
    /// the firmware/fallback runner OR in everything they learn.
    Agree,
}

/// Direction of one collective step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Transmit to `peer`.
    Send,
    /// Wait for a message from `peer`.
    Recv,
}

/// One point-to-point step of a collective, in dependency order: a rank's
/// steps must complete in sequence for the tree to make progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CollStep {
    /// Send or receive.
    pub dir: Dir,
    /// The absolute peer rank.
    pub peer: u32,
    /// Matching tag, from [`ctag`].
    pub tag: u16,
    /// Payload length in bytes.
    pub len: u32,
}

/// Steps of the binomial-tree reduce phase (`k = 1`) for rank `me` of
/// `n`, rooted at `root`: receive from each child in ascending mask
/// order, then send the combined value to the parent (the MPICH
/// `MPI_Reduce` pattern).
pub fn reduce_steps(me: u32, n: u32, root: u32, len: u32, instance: u16) -> Vec<CollStep> {
    assert!(me < n && root < n);
    let mut steps = Vec::new();
    if n <= 1 {
        return steps;
    }
    let relative = (me + n - root) % n;
    let tag = ctag(instance, 1);
    let mut mask = 1u32;
    while mask < n {
        if relative & mask == 0 {
            let src_rel = relative | mask;
            if src_rel < n {
                let peer = (src_rel + root) % n;
                steps.push(CollStep {
                    dir: Dir::Recv,
                    peer,
                    tag,
                    len,
                });
            }
        } else {
            // De-rotate the parent's relative rank back into absolute
            // rank space through `root`.
            let peer = ((relative & !mask) + root) % n;
            steps.push(CollStep {
                dir: Dir::Send,
                peer,
                tag,
                len,
            });
            break;
        }
        mask <<= 1;
    }
    steps
}

/// Steps of the binomial-tree broadcast phase (`k = 0`) for rank `me` of
/// `n`, rooted at `root`: receive once from the parent, then forward to
/// each child in descending mask order (the MPICH `MPI_Bcast` pattern).
///
/// Both the parent and the child are computed in *relative* rank space
/// and de-rotated through `root` explicitly — `((relative ± mask) + root)
/// % n` — rather than mixing absolute and relative arithmetic, so the
/// tree shape is manifestly root-invariant (see the shape-oracle tests).
pub fn bcast_steps(me: u32, n: u32, root: u32, len: u32, instance: u16) -> Vec<CollStep> {
    assert!(me < n && root < n);
    let mut steps = Vec::new();
    if n <= 1 {
        return steps;
    }
    let relative = (me + n - root) % n;
    let tag = ctag(instance, 0);
    let mut mask = 1u32;
    while mask < n {
        if relative & mask != 0 {
            // `relative & mask != 0` implies `relative >= mask`.
            let peer = ((relative - mask) + root) % n;
            steps.push(CollStep {
                dir: Dir::Recv,
                peer,
                tag,
                len,
            });
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n {
            let peer = ((relative + mask) + root) % n;
            steps.push(CollStep {
                dir: Dir::Send,
                peer,
                tag,
                len,
            });
        }
        mask >>= 1;
    }
    steps
}

/// The widest world fault-tolerant agreement supports: its failed-set
/// mask is a `u16`, one bit per rank.
pub const AGREE_MAX_RANKS: u32 = u16::BITS;

/// Steps of one fault-tolerant agreement sweep for rank `me` of `n`:
/// send the local failed-set mask to every other rank on this rank's
/// per-rank tag (`k = 2 + me`), then collect every other rank's mask
/// from *its* per-rank tag (`k = 2 + peer`), both in ascending peer
/// order. Sends come first so a rank never blocks its own contribution
/// behind a recv from a rank that may be dead.
///
/// The mask is a `u16`, one bit per world rank, so agreement is capped
/// at [`AGREE_MAX_RANKS`] — far above the rank counts recovery scenarios
/// run at, and small enough that the mask-as-`payload_len` stays below
/// the eager threshold (offload and host fallback then use the same wire
/// protocol for every frame). Cluster construction rejects an agreeing
/// script in a wider world and the firmware declines such an offload,
/// so the assert below is an internal invariant.
pub fn agree_steps(me: u32, n: u32, len: u32, instance: u16) -> Vec<CollStep> {
    assert!(me < n);
    assert!(
        n <= AGREE_MAX_RANKS,
        "agreement mask is one u16 bit per rank"
    );
    let mut steps = Vec::new();
    for peer in (0..n).filter(|&p| p != me) {
        steps.push(CollStep {
            dir: Dir::Send,
            peer,
            tag: ctag(instance, 2 + me as u16),
            len,
        });
    }
    for peer in (0..n).filter(|&p| p != me) {
        steps.push(CollStep {
            dir: Dir::Recv,
            peer,
            tag: ctag(instance, 2 + peer as u16),
            len,
        });
    }
    steps
}

/// The full step list for rank `me` of `n` in one collective instance.
///
/// `root` is ignored for [`CollOp::Barrier`] and [`CollOp::Allreduce`]
/// (their trees root at 0). A single `instance` covers both phases of an
/// allreduce — the reduce phase uses `k = 1` and the broadcast phase
/// `k = 0`, so they cannot collide within the instance.
pub fn steps(op: CollOp, me: u32, n: u32, root: u32, len: u32, instance: u16) -> Vec<CollStep> {
    match op {
        CollOp::Bcast => bcast_steps(me, n, root, len, instance),
        CollOp::Agree => agree_steps(me, n, len, instance),
        CollOp::Barrier | CollOp::Allreduce => {
            let len = if op == CollOp::Barrier { 0 } else { len };
            let mut s = reduce_steps(me, n, 0, len, instance);
            s.extend(bcast_steps(me, n, 0, len, instance));
            s
        }
    }
}

/// One rank's run of a shared plan: the step cursor, the first failed
/// rank and the agreement mask. Each executor keeps only its own I/O —
/// it asks for the [`step`](Self::step), runs it, and reports it
/// [`done`](Self::done) or [`fail`](Self::fail)ed — then builds its own
/// end status from the [`outcome`](Self::outcome).
#[derive(Debug)]
pub struct PlanRun {
    steps: Vec<CollStep>,
    idx: usize,
    /// First failed rank met mid-plan; never set for an agreement, whose
    /// failures are its payload rather than an error.
    failed: Option<u16>,
    agree: bool,
    /// Agreement only: the failed-rank mask, seeded from the plan's
    /// `len`, sent as every frame's length and grown by every received
    /// length and every failed peer, in step order.
    mask: u16,
}

impl PlanRun {
    /// The plan of rank `me` of `n` ([`steps`]). With `peers`, the plan
    /// is built in that rank space and each step's peer is translated
    /// through it (a shrunk communicator's survivor list).
    pub fn new(
        op: CollOp,
        me: u32,
        n: u32,
        root: u32,
        len: u32,
        instance: u16,
        peers: Option<&[u32]>,
    ) -> PlanRun {
        let mut steps = steps(op, me, n, root, len, instance);
        if let Some(peers) = peers {
            for s in &mut steps {
                s.peer = peers[s.peer as usize];
            }
        }
        let agree = op == CollOp::Agree;
        PlanRun {
            steps,
            idx: 0,
            failed: None,
            agree,
            mask: if agree { len as u16 } else { 0 },
        }
    }

    /// The step to run next, `None` once the plan is done. Its `len` is
    /// the length to send or post: an agreement sends its current mask
    /// and posts a full-mask-sized buffer.
    pub fn step(&self) -> Option<CollStep> {
        let mut step = *self.steps.get(self.idx)?;
        if self.agree {
            step.len = match step.dir {
                Dir::Send => self.mask as u32,
                Dir::Recv => u16::MAX as u32,
            };
        }
        Some(step)
    }

    /// The current step completed; `len` is what a receive delivered,
    /// ORed into an agreement's mask.
    pub fn done(&mut self, len: u32) {
        if self.agree && self.steps[self.idx].dir == Dir::Recv {
            self.mask |= len as u16;
        }
        self.idx += 1;
    }

    /// The current step cannot run because `rank` failed: an agreement
    /// adds it to its mask, any other collective ends naming the first
    /// failed rank.
    pub fn fail(&mut self, rank: u16) {
        if self.agree {
            self.mask |= 1 << rank.min(15);
        } else {
            self.failed.get_or_insert(rank);
        }
        self.idx += 1;
    }

    /// `(failed, len)` once every step has run: the first failed rank,
    /// and the agreed mask as the length (0 for every other collective).
    /// `None` while steps remain.
    pub fn outcome(&self) -> Option<(Option<u16>, u32)> {
        (self.idx == self.steps.len()).then_some((self.failed, self.mask as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// The pre-fix hash, reconstructed for the regression test.
    fn old_ctag(instance: u16, k: u16) -> u16 {
        0x8000 | ((instance.wrapping_mul(97).wrapping_add(k)) & 0x7FFF)
    }

    /// The old `*97` hash mis-matches two overlapping collectives as soon
    /// as a message index reaches 97 — i.e. at ≥ 98 ranks, where
    /// per-rank tags use `k = 2 + rank` (rank 97 → k = 99). Instance 1's
    /// rank-97 tag equals instance 2's rank-0 tag.
    #[test]
    fn old_hash_collides_at_98_ranks_new_partition_does_not() {
        // k = 99 is the per-rank index of rank 97, first reached with 98
        // ranks; k = 2 is rank 0's index in the neighbouring instance.
        assert_eq!(old_ctag(1, 99), old_ctag(2, 2), "old hash collision");
        assert_ne!(ctag(1, 99), ctag(2, 2), "partitioned tags must differ");
    }

    /// The partition is a bijection over its whole domain: all
    /// `INSTANCES * K_SPAN` (instance, k) pairs yield distinct tags with
    /// the collective bit set.
    #[test]
    fn ctag_is_bijective_over_the_partition() {
        let mut seen = HashSet::new();
        for i in 0..INSTANCES {
            for k in 0..K_SPAN {
                let t = ctag(i, k);
                assert!(t & 0x8000 != 0, "collective bit missing on {t:#x}");
                assert!(seen.insert(t), "collision at instance {i}, k {k}");
            }
        }
        assert_eq!(seen.len(), (INSTANCES as usize) * (K_SPAN as usize));
    }

    /// Exhaustive in-flight-pair check at n = 1024: for every pair of
    /// distinct instance slots, no tag produced by one (over the full
    /// index range a 1024-rank collective can use, k ≤ 2 + 1023) equals
    /// any tag produced by the other.
    #[test]
    fn no_instance_pair_collides_at_1024_ranks() {
        let k_max = 2 + 1023u16; // largest per-rank index at n = 1024
        assert!(k_max < K_SPAN);
        let mut owner: HashMap<u16, u16> = HashMap::new();
        for i in 0..INSTANCES {
            for k in 0..=k_max {
                if let Some(&j) = owner.get(&ctag(i, k)) {
                    panic!("instances {j} and {i} collide at k {k}");
                }
                owner.insert(ctag(i, k), i);
            }
        }
    }

    /// One plan edge as (from, to, tag, len).
    type Edge = (u32, u32, u16, u32);

    /// Collect every rank's steps for one op and return (sends, recvs).
    fn edges(op: CollOp, n: u32, root: u32, len: u32, instance: u16) -> (Vec<Edge>, Vec<Edge>) {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for me in 0..n {
            for s in steps(op, me, n, root, len, instance) {
                match s.dir {
                    Dir::Send => sends.push((me, s.peer, s.tag, s.len)),
                    Dir::Recv => recvs.push((s.peer, me, s.tag, s.len)),
                }
            }
        }
        (sends, recvs)
    }

    /// MPICH-shape oracle for bcast: every non-root rank receives exactly
    /// once, the root receives nothing, every send pairs with exactly one
    /// receive, and the send edges form a tree rooted at `root` reaching
    /// all ranks. Swept over non-power-of-two sizes and all roots — this
    /// is the oracle for the non-zero-root child-targeting bug class.
    #[test]
    fn bcast_shape_oracle_all_roots() {
        for n in 2..=33u32 {
            for root in 0..n {
                let (sends, recvs) = edges(CollOp::Bcast, n, root, 64, 5);
                let mut recv_count = vec![0u32; n as usize];
                for &(_, to, _, _) in &recvs {
                    recv_count[to as usize] += 1;
                }
                assert_eq!(recv_count[root as usize], 0, "n={n} root={root}");
                for (r, &c) in recv_count.iter().enumerate() {
                    if r as u32 != root {
                        assert_eq!(c, 1, "n={n} root={root}: rank {r} receives {c} times");
                    }
                }
                // Every send matched by exactly one receive on the same
                // (from, to, tag, len) edge.
                let mut s = sends.clone();
                let mut r = recvs.clone();
                s.sort_unstable();
                r.sort_unstable();
                assert_eq!(s, r, "n={n} root={root}: unmatched edges");
                // The send edges reach every rank from the root.
                let mut reached = HashSet::from([root]);
                let mut frontier = vec![root];
                while let Some(v) = frontier.pop() {
                    for &(from, to, _, _) in &sends {
                        if from == v && reached.insert(to) {
                            frontier.push(to);
                        }
                    }
                }
                assert_eq!(
                    reached.len(),
                    n as usize,
                    "n={n} root={root}: bcast tree does not span"
                );
            }
        }
    }

    /// Reduce oracle: every non-root sends exactly once, the root sends
    /// nothing, and the up-edges reach the root from every rank.
    #[test]
    fn reduce_shape_oracle_all_roots() {
        for n in 2..=33u32 {
            for root in 0..n {
                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                for me in 0..n {
                    for s in reduce_steps(me, n, root, 64, 6) {
                        match s.dir {
                            Dir::Send => sends.push((me, s.peer)),
                            Dir::Recv => recvs.push((s.peer, me)),
                        }
                    }
                }
                let mut send_count = vec![0u32; n as usize];
                for &(from, _) in &sends {
                    send_count[from as usize] += 1;
                }
                assert_eq!(send_count[root as usize], 0, "n={n} root={root}");
                for (r, &c) in send_count.iter().enumerate() {
                    if r as u32 != root {
                        assert_eq!(c, 1, "n={n} root={root}: rank {r} sends {c} times");
                    }
                }
                sends.sort_unstable();
                recvs.sort_unstable();
                assert_eq!(sends, recvs, "n={n} root={root}: unmatched edges");
                // Following parent edges from any rank terminates at root.
                let parent: HashMap<u32, u32> = sends.iter().copied().collect();
                for mut v in 0..n {
                    let mut hops = 0;
                    while v != root {
                        v = parent[&v];
                        hops += 1;
                        assert!(hops <= n, "n={n} root={root}: cycle in reduce tree");
                    }
                }
            }
        }
    }

    /// Barrier and allreduce pair every send with a receive globally and
    /// use a single instance for both phases (distinct per-phase k).
    #[test]
    fn barrier_and_allreduce_edges_pair_up() {
        for n in [2u32, 3, 7, 16, 33] {
            for op in [CollOp::Barrier, CollOp::Allreduce] {
                let (mut s, mut r) = edges(op, n, 0, 128, 9);
                if op == CollOp::Barrier {
                    assert!(
                        s.iter().all(|&(_, _, _, l)| l == 0),
                        "barrier carries payload"
                    );
                }
                s.sort_unstable();
                r.sort_unstable();
                assert_eq!(s, r, "op={op:?} n={n}: unmatched edges");
                let tags: HashSet<u16> = s.iter().map(|&(_, _, t, _)| t).collect();
                assert_eq!(tags.len(), 2, "up and down phases share an instance");
                assert_eq!(tags, HashSet::from([ctag(9, 0), ctag(9, 1)]));
            }
        }
    }

    /// Agree oracle: every rank exchanges exactly once with every other
    /// rank in both directions, each send pairs with exactly one recv on
    /// the sender's per-rank tag, and all sends precede all recvs so no
    /// rank's contribution waits behind a possibly-dead peer.
    #[test]
    fn agree_is_a_complete_exchange_with_sends_first() {
        for n in [2u32, 3, 5, 8, 16] {
            let (mut s, mut r) = edges(CollOp::Agree, n, 0, 0b101, 4);
            assert_eq!(s.len(), (n * (n - 1)) as usize);
            s.sort_unstable();
            r.sort_unstable();
            assert_eq!(s, r, "n={n}: unmatched edges");
            for &(from, to, tag, _) in &s {
                assert_ne!(from, to);
                assert_eq!(
                    tag,
                    ctag(4, 2 + from as u16),
                    "mask travels on sender's tag"
                );
            }
            for me in 0..n {
                let st = agree_steps(me, n, 0, 4);
                let first_recv = st.iter().position(|x| x.dir == Dir::Recv).unwrap();
                assert!(
                    st[..first_recv].iter().all(|x| x.dir == Dir::Send),
                    "n={n} me={me}: send phase must fully precede recv phase"
                );
            }
        }
    }

    /// Drive `run` through its remaining steps, answering each with
    /// `reply(step)`: `Ok(received len)` or `Err(failed rank)`.
    fn drive(run: &mut PlanRun, reply: impl Fn(CollStep) -> Result<u32, u16>) -> Vec<CollStep> {
        let mut seen = Vec::new();
        while let Some(step) = run.step() {
            assert_eq!(run.outcome(), None, "outcome before the plan ends");
            seen.push(step);
            match reply(step) {
                Ok(len) => run.done(len),
                Err(rank) => run.fail(rank),
            }
        }
        seen
    }

    /// An agreement's mask starts at the seed, is sent as every frame's
    /// length, and grows by every skipped peer and every received length
    /// (a send's reported length is not a receipt). Receives post a
    /// full-mask buffer. The outcome carries the mask, never a failure.
    #[test]
    fn plan_run_agreement_mask_grows_from_skips_and_receipts() {
        let mut run = PlanRun::new(CollOp::Agree, 3, 4, 0, 0b0001, 2, None);
        let seen = drive(&mut run, |s| match (s.dir, s.peer) {
            (_, 0 | 1) => Err(s.peer as u16),
            (Dir::Send, _) => Ok(0xFFFF),
            (Dir::Recv, _) => Ok(0b0100_0000),
        });
        let sends: Vec<(u32, u32)> = seen
            .iter()
            .filter(|s| s.dir == Dir::Send)
            .map(|s| (s.peer, s.len))
            .collect();
        assert_eq!(sends, [(0, 0b0001), (1, 0b0001), (2, 0b0011)]);
        assert!(seen
            .iter()
            .filter(|s| s.dir == Dir::Recv)
            .all(|s| s.len == u16::MAX as u32));
        assert_eq!(run.outcome(), Some((None, 0b0100_0011)));
    }

    /// Any other collective keeps the plan's lengths, ignores received
    /// lengths, runs every step after a failure, and ends naming the
    /// first failed rank with length 0.
    #[test]
    fn plan_run_other_ops_end_naming_the_first_failed_rank() {
        let mut run = PlanRun::new(CollOp::Allreduce, 0, 4, 0, 64, 3, None);
        let seen = drive(&mut run, |s| match s.peer {
            1 => Ok(999),
            peer => Err(peer as u16),
        });
        assert_eq!(seen, steps(CollOp::Allreduce, 0, 4, 0, 64, 3));
        let first_failed = seen.iter().find(|s| s.peer != 1).unwrap().peer as u16;
        assert_eq!(run.outcome(), Some((Some(first_failed), 0)));
        let mut ok = PlanRun::new(CollOp::Bcast, 2, 5, 2, 64, 3, None);
        drive(&mut ok, |_| Ok(64));
        assert_eq!(ok.outcome(), Some((None, 0)));
    }

    /// A peer map translates every step's peer and nothing else.
    #[test]
    fn plan_run_translates_peers_through_the_map() {
        let survivors = [0u32, 2, 5];
        let run = |peers| {
            let mut run = PlanRun::new(CollOp::Bcast, 0, 3, 0, 8, 1, peers);
            drive(&mut run, |_| Ok(8))
        };
        let mapped: Vec<CollStep> = run(None)
            .into_iter()
            .map(|s| CollStep {
                peer: survivors[s.peer as usize],
                ..s
            })
            .collect();
        assert_eq!(run(Some(&survivors)), mapped);
        assert_eq!(mapped.iter().map(|s| s.peer).collect::<Vec<_>>(), [5, 2]);
    }

    /// Steps are in dependency order: all of a rank's receives for the
    /// reduce phase precede its reduce send, which precedes any bcast
    /// step — the order the sequential offload engine relies on.
    #[test]
    fn steps_are_in_dependency_order() {
        for n in [4u32, 13, 32] {
            for me in 0..n {
                let s = steps(CollOp::Allreduce, me, n, 0, 32, 3);
                let up = ctag(3, 1);
                let mut seen_up_send = false;
                let mut seen_down = false;
                for st in s {
                    if st.tag == up {
                        assert!(!seen_down, "up-phase step after down phase");
                        if st.dir == Dir::Send {
                            seen_up_send = true;
                        } else {
                            assert!(!seen_up_send, "child recv after parent send");
                        }
                    } else {
                        seen_down = true;
                    }
                }
            }
        }
    }
}
