//! The component fault domain: dead peers and dead hardware. Each part
//! of the firmware says what a dead peer does to its own state.

use super::{Effects, Firmware, FwStats, Key, UNITS};
use crate::host_iface::Completion;
use mpiq_cpusim::Core;
use mpiq_dessim::Time;
use mpiq_net::NodeId;
use std::collections::BTreeSet;

/// The fault domain's state, with its counters.
#[derive(Default)]
pub(super) struct Faults {
    /// Peer nodes declared dead. Operations naming these peers fail with
    /// a typed `rank_failed` completion at post time; state already
    /// parked on them was failed when the peer entered the set. A
    /// `BTreeSet` so any iteration is deterministic.
    dead_peers: BTreeSet<NodeId>,
    /// Scheduled permanent ALPU death: both units are quarantined and
    /// retired, so they never re-engage and matching stays in software.
    pub(super) alpus_dead: bool,
    peers_failed: u64,
    ops_rank_failed: u64,
    alpus_killed: u64,
    stale_rndv_dropped: u64,
    peers_revived: u64,
}

impl Faults {
    /// Finish an operation that can never complete with the typed
    /// `rank_failed` completion `comp` at `at`.
    pub(super) fn fail_op(&mut self, at: Time, comp: Completion, fx: &mut Effects) {
        self.ops_rank_failed += 1;
        fx.completions.push((at, comp));
    }

    /// Drop a late rendezvous frame from a peer whose state was failed
    /// when it was declared dead; from a live peer it is the bug `bug`.
    pub(super) fn drop_stale_rndv(&mut self, peer: NodeId, bug: &str) {
        assert!(self.dead_peers.contains(&peer), "{bug}");
        self.stale_rndv_dropped += 1;
    }

    /// Fold the fault-domain counters into firmware statistics.
    pub(super) fn add_counters(&self, s: &mut FwStats) {
        s.peers_failed += self.peers_failed;
        s.ops_rank_failed += self.ops_rank_failed;
        s.alpus_killed += self.alpus_killed;
        s.stale_rndv_dropped += self.stale_rndv_dropped;
        s.peers_revived += self.peers_revived;
    }
}

impl Firmware {
    /// Has `peer` been declared dead?
    pub fn peer_dead(&self, peer: NodeId) -> bool {
        self.faults.dead_peers.contains(&peer)
    }

    /// Declare `peer` dead and fail, typed `rank_failed`, every operation
    /// that can now never finish: posted receives pinned to a rank on
    /// `peer`, parked and deferred sends toward it, and matched rendezvous
    /// receives awaiting its data. Deliberately *kept*: messages that
    /// already arrived from `peer` (ULFM lets a later receive match them)
    /// and wildcard receives. The cleanup costs no simulated time (a real
    /// NIC runs it off the critical path), except the collective steps it
    /// un-parks, which charge normal engine time on `core`.
    pub fn fail_peer(&mut self, peer: NodeId, now: Time, core: &mut Core, fx: &mut Effects) {
        if peer == self.node || !self.faults.dead_peers.insert(peer) {
            return;
        }
        self.faults.peers_failed += 1;
        let at = now + self.cfg.completion_cost;
        let on_peer = |rank: u32| self.node_of(rank) == peer;

        // Posted receives whose source is pinned to a rank on the dead
        // node. ALPU-resident copies become tombstones, exactly as
        // `MPI_Cancel` leaves them (no DELETE command, Table I).
        let victims: Vec<(Key, bool, Completion)> = self
            .posted
            .iter()
            .filter(|it| !it.val.ghost && it.val.pinned_source().is_some_and(|s| on_peer(s as u32)))
            .map(|it| (it.key, it.in_alpu, it.val.failed()))
            .collect();
        for (key, in_alpu, comp) in victims {
            self.unlink_posted(key, in_alpu, now);
            self.faults.fail_op(at, comp, fx);
        }

        // Rendezvous sends parked on a clear-to-send that will never
        // come, then sends flow control held behind one of those
        // handshakes.
        let (doomed, parked): (Vec<_>, _) = std::mem::take(&mut self.send_park)
            .into_iter()
            .partition(|e| self.node_of(e.send.dst) == peer);
        self.send_park = parked;
        let held = self.flow.forget_peer(peer);
        for s in doomed.into_iter().map(|e| e.send).chain(held) {
            self.faults.fail_op(at, s.failed(), fx);
        }

        // Matched rendezvous receives whose data frame died with the
        // sender. Keys are sorted before removal so the completion order
        // never depends on hash-map iteration.
        let mut stale: Vec<(NodeId, u64)> = self
            .rndv_expect
            .keys()
            .filter(|(n, _)| *n == peer)
            .copied()
            .collect();
        stale.sort_unstable();
        for key in stale {
            let exp = self.rndv_expect.remove(&key).expect("key just listed");
            let comp = Completion::failed(exp.req, exp.src_rank, exp.tag, 0);
            self.faults.fail_op(at, comp, fx);
        }

        // Offloaded collectives skip the dead peer's steps.
        self.coll_poll(now, core, fx);
    }

    /// `peer` restarted under a new incarnation: clear the sticky death
    /// so fresh operations toward it flow again, and forget the flow
    /// state keyed to its previous life (the reborn NIC's staging is
    /// empty). Operations failed at detection time stay failed: recovery
    /// is the application's job (`agree` / `shrink` / retry), not a
    /// silent un-failing. Returns whether the peer had actually been
    /// declared dead.
    pub fn revive_peer(&mut self, peer: NodeId) -> bool {
        if peer == self.node || !self.faults.dead_peers.remove(&peer) {
            return false;
        }
        let held = self.flow.forget_peer(peer);
        debug_assert!(held.is_empty(), "sends to a dead peer fail at post");
        self.faults.peers_revived += 1;
        true
    }

    /// Scheduled permanent ALPU death: quarantine both units (RESET-pin
    /// wipe; orphaned probes fall back to software) and retire them, so
    /// the update-item re-engage check never fires. Matching continues on
    /// the software queues — degraded, never wrong, and never trusted to
    /// hardware again.
    pub fn kill_alpus(&mut self, now: Time) {
        if self.faults.alpus_dead {
            return;
        }
        self.faults.alpus_dead = true;
        for unit in UNITS {
            let Some(port) = self.port(unit) else {
                continue;
            };
            if !port.quarantined() {
                self.fail_unit(unit, now);
            }
            self.port_mut(unit).retire();
            self.faults.alpus_killed += 1;
        }
    }
}
