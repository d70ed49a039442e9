//! `MPI_Cancel` and tombstone mechanics: the ingredient of §II's wildcard
//! workaround ("post a receive from every possible source and then cancel
//! those receives that are unused"), including the interaction with an
//! ALPU that has no DELETE command.

use mpiq_cpusim::Core;
use mpiq_dessim::Time;
use mpiq_net::{Message, MsgHeader, MsgKind};
use mpiq_nic::firmware::{check_invariants, Firmware, WorkItem};
use mpiq_nic::{HostRequest, NicConfig, ReqId};

struct Rig {
    fw: Firmware,
    core: Core,
    now: Time,
}

impl Rig {
    fn new(cfg: NicConfig) -> Rig {
        Rig {
            fw: Firmware::new(1, cfg),
            core: Core::new(cfg.core),
            now: Time::from_us(1),
        }
    }

    fn run(&mut self, item: WorkItem) -> mpiq_nic::firmware::Effects {
        let (end, fx) = self.fw.process(item, self.now, &mut self.core);
        self.now = end + Time::from_ns(10);
        fx
    }

    fn rx(&mut self, msg: Message) -> mpiq_nic::firmware::Effects {
        let probed = self.fw.header_arrival(&msg, self.now);
        self.run(WorkItem::Rx { msg, probed })
    }

    fn flush_updates(&mut self) {
        let mut guard = 0;
        while self.fw.update_needed(true, self.now) {
            self.run(WorkItem::AlpuUpdate);
            guard += 1;
            assert!(guard < 128, "updates did not converge");
        }
        self.now += Time::from_us(10);
        self.fw.sync_hardware(self.now);
    }
}

fn rid(seq: u64) -> ReqId {
    ReqId { rank: 1, seq }
}

fn post_recv(seq: u64, src: Option<u16>, tag: Option<u16>) -> WorkItem {
    WorkItem::Host(HostRequest::PostRecv {
        req: rid(seq),
        src,
        context: 1,
        tag,
        len: 64,
    })
}

fn cancel(seq: u64) -> WorkItem {
    WorkItem::Host(HostRequest::CancelRecv { target: rid(seq) })
}

fn eager(tag: u16, seq: u64) -> Message {
    Message::new(MsgHeader {
        src_node: 0,
        dst_node: 1,
        dst_rank: 1,
        context: 1,
        src_rank: 0,
        tag,
        payload_len: 64,
        kind: MsgKind::Eager,
        seq,
    })
}

#[test]
fn cancel_unlinks_software_entry() {
    let mut r = Rig::new(NicConfig::baseline());
    r.run(post_recv(0, Some(0), Some(5)));
    assert_eq!(r.fw.posted_len(), 1);
    let fx = r.run(cancel(0));
    assert_eq!(fx.completions.len(), 1);
    assert!(fx.completions[0].1.cancelled);
    assert_eq!(r.fw.posted_len(), 0);
    // The message now goes unexpected.
    let fx = r.rx(eager(5, 0));
    assert!(fx.completions.is_empty());
    assert_eq!(r.fw.unexpected_len(), 1);
}

#[test]
fn cancel_after_match_is_noop() {
    let mut r = Rig::new(NicConfig::baseline());
    r.run(post_recv(0, Some(0), Some(5)));
    let fx = r.rx(eager(5, 0));
    assert_eq!(fx.completions.len(), 1);
    let fx = r.run(cancel(0));
    assert!(fx.completions.is_empty(), "late cancel produces nothing");
}

#[test]
fn cancel_alpu_resident_entry_leaves_ghost() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    r.run(post_recv(0, Some(0), Some(5)));
    r.run(post_recv(1, Some(0), Some(6)));
    r.flush_updates();
    check_invariants(&r.fw);
    let fx = r.run(cancel(0));
    assert!(fx.completions[0].1.cancelled);
    assert_eq!(r.fw.posted_ghost_count(), 1);
    assert_eq!(
        r.fw.posted_len(),
        2,
        "tombstone stays in the software queue"
    );
    check_invariants(&r.fw); // prefix still equals hardware occupancy
                             // A message for the cancelled receive must NOT match it: the ghost is
                             // reclaimed and the message lands unexpected.
    let fx = r.rx(eager(5, 0));
    assert!(fx.completions.is_empty());
    assert_eq!(r.fw.unexpected_len(), 1);
    assert_eq!(r.fw.posted_ghost_count(), 0, "ghost reclaimed on hit");
    assert_eq!(r.fw.stats().ghost_rematches, 1);
    // The surviving receive still works.
    let fx = r.rx(eager(6, 1));
    assert_eq!(fx.completions.len(), 1);
    assert_eq!(fx.completions[0].1.req, rid(1));
}

#[test]
fn ghost_hit_rematches_to_correct_younger_entry() {
    // Two identical receives in the ALPU; cancel the older. A message
    // must hardware-hit the tombstone and re-match to the younger one.
    let mut r = Rig::new(NicConfig::with_alpus(128));
    r.run(post_recv(0, Some(0), Some(5)));
    r.run(post_recv(1, Some(0), Some(5)));
    r.flush_updates();
    r.run(cancel(0));
    let fx = r.rx(eager(5, 0));
    assert_eq!(fx.completions.len(), 1);
    assert_eq!(
        fx.completions[0].1.req,
        rid(1),
        "re-match must land on the younger live receive"
    );
    check_invariants(&r.fw);
}

#[test]
fn tombstone_buildup_triggers_purge() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    // Post and cancel enough receives to cross the purge threshold
    // (capacity/4 = 32 tombstones).
    for i in 0..40u64 {
        r.run(post_recv(i, Some(0), Some((100 + i) as u16)));
    }
    r.flush_updates();
    for i in 0..36u64 {
        r.run(cancel(i));
    }
    assert!(r.fw.posted_ghost_count() > 32);
    r.flush_updates(); // purge + rebuild session
    assert_eq!(r.fw.posted_ghost_count(), 0, "purge drops tombstones");
    assert_eq!(r.fw.posted_len(), 4, "live receives survive the rebuild");
    assert!(r.fw.stats().alpu_purges >= 1);
    check_invariants(&r.fw);
    // And they still match, via hardware.
    let fx = r.rx(eager(136, 0));
    assert_eq!(fx.completions.len(), 1);
    assert!(r.fw.stats().posted_alpu_hits >= 1);
}

#[test]
fn cancel_with_hash_strategy_unlinks_index() {
    let mut r = Rig::new(NicConfig::with_hash(16));
    r.run(post_recv(0, Some(0), Some(5)));
    r.run(cancel(0));
    let fx = r.rx(eager(5, 0));
    assert!(fx.completions.is_empty(), "cancelled entry must not match");
    assert_eq!(r.fw.unexpected_len(), 1);
}

#[test]
fn iprobe_peeks_without_consuming() {
    for nic in [NicConfig::baseline(), NicConfig::with_alpus(128)] {
        let mut r = Rig::new(nic);
        r.rx(eager(5, 0));
        r.flush_updates();
        // Hit: reports the envelope, leaves the message queued.
        let fx = r.run(WorkItem::Host(HostRequest::Probe {
            req: rid(10),
            src: Some(0),
            context: 1,
            tag: Some(5),
        }));
        assert_eq!(fx.completions.len(), 1);
        let c = fx.completions[0].1;
        assert!(!c.cancelled, "flag must be true");
        assert_eq!((c.source, c.tag, c.len), (0, 5, 64));
        assert_eq!(r.fw.unexpected_len(), 1, "probe must not consume");
        // Miss: flag == false via the cancelled marker.
        let fx = r.run(WorkItem::Host(HostRequest::Probe {
            req: rid(11),
            src: Some(0),
            context: 1,
            tag: Some(9),
        }));
        assert!(fx.completions[0].1.cancelled);
        // The real receive still drains it afterwards.
        let fx = r.run(post_recv(12, Some(0), Some(5)));
        assert_eq!(fx.completions.len(), 1);
        assert_eq!(r.fw.unexpected_len(), 0);
    }
}

#[test]
fn iprobe_wildcards_resolve_envelope() {
    let mut r = Rig::new(NicConfig::baseline());
    r.rx(eager(31, 3));
    let fx = r.run(WorkItem::Host(HostRequest::Probe {
        req: rid(20),
        src: None,
        context: 1,
        tag: None,
    }));
    let c = fx.completions[0].1;
    assert!(!c.cancelled);
    assert_eq!(c.tag, 31);
    assert_eq!(c.source, 0);
}
