//! Unit tests driving the NIC firmware directly — no DES, no network:
//! hand it work items, inspect effects and timing.

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
        assert!(end >= self.now, "time must be monotone");
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
            assert!(guard < 64, "updates did not converge");
        }
        // Let in-flight insert commands drain in the ALPU clock domains.
        self.now += Time::from_us(10);
        self.fw.sync_hardware(self.now);
    }
}

fn rid(seq: u64) -> ReqId {
    ReqId { rank: 1, seq }
}

fn post_recv(seq: u64, src: Option<u16>, tag: Option<u16>, len: u32) -> WorkItem {
    WorkItem::Host(HostRequest::PostRecv {
        req: rid(seq),
        src,
        context: 1,
        tag,
        len,
    })
}

fn post_send(seq: u64, dst: u32, tag: u16, len: u32) -> WorkItem {
    WorkItem::Host(HostRequest::PostSend {
        req: rid(seq),
        dst,
        context: 1,
        tag,
        len,
    })
}

fn eager(src_node: u32, tag: u16, len: u32, seq: u64) -> Message {
    Message::new(MsgHeader {
        src_node,
        dst_node: 1,
        dst_rank: 1,
        context: 1,
        src_rank: src_node as u16,
        tag,
        payload_len: len,
        kind: MsgKind::Eager,
        seq,
    })
}

#[test]
fn eager_send_emits_message_and_local_completion() {
    let mut r = Rig::new(NicConfig::baseline());
    let fx = r.run(post_send(0, 2, 5, 256));
    assert_eq!(fx.tx.len(), 1);
    let (at, msg) = &fx.tx[0];
    assert_eq!(msg.header.kind, MsgKind::Eager);
    assert_eq!(msg.header.payload_len, 256);
    assert_eq!(msg.header.dst_node, 2);
    assert!(*at >= Time::from_us(1));
    assert_eq!(fx.completions.len(), 1, "eager sends complete locally");
}

#[test]
fn large_send_goes_rendezvous() {
    let mut r = Rig::new(NicConfig::baseline());
    let fx = r.run(post_send(0, 2, 5, 64 * 1024));
    assert_eq!(fx.tx.len(), 1);
    assert_eq!(fx.tx[0].1.header.kind, MsgKind::RndvRequest);
    assert_eq!(
        fx.tx[0].1.wire_bytes(),
        Message::HEADER_BYTES,
        "rendezvous request carries no payload"
    );
    assert!(
        fx.completions.is_empty(),
        "rendezvous send completes only after data ships"
    );
}

#[test]
fn rendezvous_reply_ships_data_and_completes() {
    let mut r = Rig::new(NicConfig::baseline());
    r.run(post_send(0, 2, 5, 64 * 1024));
    let reply = Message::new(MsgHeader {
        src_node: 2,
        dst_node: 1,
        dst_rank: 1,
        context: 1,
        src_rank: 2,
        tag: 5,
        payload_len: 0,
        kind: MsgKind::RndvReply { token: 0 },
        seq: 9,
    });
    let fx = r.rx(reply);
    assert_eq!(fx.tx.len(), 1);
    match fx.tx[0].1.header.kind {
        MsgKind::RndvData { token } => assert_eq!(token, 0),
        other => panic!("expected RndvData, got {other:?}"),
    }
    assert_eq!(fx.tx[0].1.header.payload_len, 64 * 1024);
    assert_eq!(fx.completions.len(), 1);
    assert_eq!(fx.completions[0].1.req, rid(0));
}

#[test]
fn unmatched_arrival_parks_on_unexpected_queue() {
    let mut r = Rig::new(NicConfig::baseline());
    let fx = r.rx(eager(0, 9, 128, 0));
    assert!(fx.completions.is_empty());
    assert!(fx.tx.is_empty());
    assert_eq!(r.fw.unexpected_len(), 1);
    assert_eq!(r.fw.stats().unexpected_arrivals, 1);
}

#[test]
fn late_recv_drains_unexpected_queue() {
    let mut r = Rig::new(NicConfig::baseline());
    r.rx(eager(0, 9, 128, 0));
    let fx = r.run(post_recv(0, Some(0), Some(9), 128));
    assert_eq!(fx.completions.len(), 1);
    let comp = fx.completions[0].1;
    assert_eq!(comp.source, 0);
    assert_eq!(comp.tag, 9);
    assert_eq!(comp.len, 128);
    assert_eq!(r.fw.unexpected_len(), 0);
}

#[test]
fn arrival_truncates_to_posted_buffer() {
    let mut r = Rig::new(NicConfig::baseline());
    r.run(post_recv(0, Some(0), Some(9), 64)); // small buffer
    let fx = r.rx(eager(0, 9, 256, 0)); // bigger message
    assert_eq!(fx.completions.len(), 1);
    assert_eq!(fx.completions[0].1.len, 64, "MPI truncation semantics");
}

#[test]
fn software_search_costs_grow_with_depth() {
    let mut r = Rig::new(NicConfig::baseline());
    for i in 0..100 {
        r.run(post_recv(i, Some(0), Some(1000 + i as u16), 0));
    }
    r.run(post_recv(100, Some(0), Some(7), 0));
    let t0 = r.now;
    r.rx(eager(0, 7, 0, 0));
    let deep = r.now - t0;
    // Against a fresh rig with an empty queue:
    let mut r2 = Rig::new(NicConfig::baseline());
    r2.run(post_recv(0, Some(0), Some(7), 0));
    let t0 = r2.now;
    r2.rx(eager(0, 7, 0, 0));
    let shallow = r2.now - t0;
    assert!(
        deep > shallow + Time::from_ns(100 * 10),
        "100 extra entries must cost >1us of traversal: {shallow} vs {deep}"
    );
}

#[test]
fn alpu_hit_skips_software_search() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    for i in 0..50 {
        r.run(post_recv(i, Some(0), Some(1000 + i as u16), 0));
    }
    r.run(post_recv(50, Some(0), Some(7), 0));
    r.flush_updates();
    check_invariants(&r.fw);
    assert_eq!(r.fw.posted_len(), 51);
    let fx = r.rx(eager(0, 7, 0, 0));
    assert_eq!(fx.completions.len(), 1);
    let s = r.fw.stats();
    assert_eq!(s.posted_alpu_hits, 1);
    assert_eq!(
        s.posted_entries_traversed, 0,
        "hardware hit must not touch the software list"
    );
    check_invariants(&r.fw);
}

#[test]
fn alpu_miss_searches_tail_only() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    for i in 0..150 {
        r.run(post_recv(i, Some(0), Some((1000 + i) as u16), 0));
    }
    r.flush_updates();
    check_invariants(&r.fw);
    // Entry #140 is in the software tail (ALPU holds the first 128).
    let fx = r.rx(eager(0, 1140, 0, 0));
    assert_eq!(fx.completions.len(), 1);
    let s = r.fw.stats();
    assert_eq!(s.posted_alpu_hits, 0);
    assert!(
        s.posted_entries_traversed <= 22 - 8,
        "tail search should visit ~13 entries, visited {}",
        s.posted_entries_traversed
    );
}

#[test]
fn engagement_threshold_skips_probing_short_queues() {
    let mut cfg = NicConfig::with_alpus(128);
    let mut setup = cfg.posted_alpu.unwrap();
    setup.engage_threshold = 5;
    cfg.posted_alpu = Some(setup);
    cfg.unexpected_alpu = Some(setup);
    let mut r = Rig::new(cfg);
    r.run(post_recv(0, Some(0), Some(7), 0));
    assert!(!r.fw.posted_engaged(), "below threshold: not engaged");
    assert!(
        !r.fw.update_needed(true, r.now),
        "no insert sessions below threshold"
    );
    let msg = eager(0, 7, 0, 0);
    let probed = r.fw.header_arrival(&msg, r.now);
    assert!(!probed, "headers bypass a disengaged ALPU");
    let fx = r.run(WorkItem::Rx { msg, probed });
    assert_eq!(fx.completions.len(), 1, "software path still matches");
    // Crossing the threshold engages it.
    for i in 1..=6 {
        r.run(post_recv(i, Some(0), Some(1000 + i as u16), 0));
    }
    assert!(r.fw.posted_engaged());
    assert!(r.fw.update_needed(true, r.now));
}

#[test]
fn hash_strategy_matches_and_tracks_costs() {
    let mut r = Rig::new(NicConfig::with_hash(64));
    for i in 0..200 {
        r.run(post_recv(i, Some(0), Some((1000 + i) as u16), 0));
    }
    let t0 = r.now;
    let fx = r.rx(eager(0, 1150, 0, 0));
    let took = r.now - t0;
    assert_eq!(fx.completions.len(), 1);
    // Bin walk instead of a 150-entry traversal: sub-microsecond.
    assert!(
        took < Time::from_us(1),
        "hash probe should be shallow, took {took}"
    );
    let s = r.fw.stats();
    assert!(
        s.posted_entries_traversed < 20,
        "bin walk visited {}",
        s.posted_entries_traversed
    );
}

#[test]
#[should_panic(expected = "mutually exclusive")]
fn hash_plus_posted_alpu_rejected() {
    let mut cfg = NicConfig::with_alpus(128);
    cfg.sw_match = mpiq_nic::SwMatch::HashBins { bins: 16 };
    let _ = Firmware::new(0, cfg);
}

#[test]
fn wildcard_recv_matches_any_source_arrival() {
    let mut r = Rig::new(NicConfig::baseline());
    r.run(post_recv(0, None, Some(9), 64));
    let fx = r.rx(eager(0, 9, 64, 0));
    assert_eq!(fx.completions.len(), 1);
    assert_eq!(
        fx.completions[0].1.source, 0,
        "status resolves the wildcard"
    );
}

#[test]
fn mpi_ordering_across_kinds() {
    // An eager and a rendezvous message with the same tag from the same
    // source: the first-posted receive must take the first-sent message.
    let mut r = Rig::new(NicConfig::baseline());
    r.run(post_recv(0, Some(0), Some(5), 64 * 1024));
    r.run(post_recv(1, Some(0), Some(5), 64 * 1024));
    // First a rendezvous request (seq 0), then an eager (seq 1).
    let rndv = Message::new(MsgHeader {
        src_node: 0,
        dst_node: 1,
        dst_rank: 1,
        context: 1,
        src_rank: 0,
        tag: 5,
        payload_len: 64 * 1024,
        kind: MsgKind::RndvRequest,
        seq: 0,
    });
    let fx1 = r.rx(rndv);
    // The rendezvous matched the *first* receive: a reply goes out, no
    // completion yet.
    assert_eq!(fx1.tx.len(), 1);
    assert!(matches!(fx1.tx[0].1.header.kind, MsgKind::RndvReply { .. }));
    let fx2 = r.rx(eager(0, 5, 100, 1));
    assert_eq!(fx2.completions.len(), 1);
    assert_eq!(
        fx2.completions[0].1.req,
        rid(1),
        "eager takes the second receive"
    );
}

/// A stall far past the firmware's 4096-cycle wait budget, so the next
/// response read finds the unit wedged.
const WEDGE_CYCLES: u64 = 8192;

/// The `(source, tag, len)` of a work item's one completion.
fn sole_completion(fx: &mpiq_nic::firmware::Effects) -> (u16, u16, u32) {
    assert_eq!(fx.completions.len(), 1, "exactly one completion");
    let c = fx.completions[0].1;
    (c.source, c.tag, c.len)
}

#[test]
fn wedged_posted_unit_quarantines_falls_back_and_reengages() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    for tag in 1..=3u16 {
        r.run(post_recv(tag as u64, Some(0), Some(tag), 64));
    }
    r.flush_updates();
    check_invariants(&r.fw);
    r.fw.posted_alpu
        .as_mut()
        .unwrap()
        .inject_stall(WEDGE_CYCLES);

    // Two headers are probed before the firmware reads either response.
    let (m1, m2) = (eager(0, 1, 64, 0), eager(0, 2, 64, 1));
    assert!(r.fw.header_arrival(&m1, r.now));
    assert!(r.fw.header_arrival(&m2, r.now));
    // The first read times out: the unit is quarantined and the header
    // matches in software over the whole list.
    let fx = r.run(WorkItem::Rx {
        msg: m1,
        probed: true,
    });
    assert!(r.fw.posted_quarantined() && !r.fw.posted_engaged());
    assert_eq!(fx.completions[0].1.req, rid(1));
    let s = r.fw.stats();
    assert_eq!(
        (s.alpu_resets, s.alpu_fallbacks, s.posted_alpu_hits),
        (1, 1, 0)
    );
    // The second header's response died with the unit: an orphan, also
    // served by the software fallback.
    let fx = r.run(WorkItem::Rx {
        msg: m2,
        probed: true,
    });
    assert_eq!(fx.completions[0].1.req, rid(2));
    let s = r.fw.stats();
    assert_eq!(
        (s.alpu_resets, s.alpu_fallbacks),
        (1, 2),
        "no second quarantine"
    );
    check_invariants(&r.fw);

    // Out of service for the 10 us cooldown, then re-engaged and refilled.
    assert!(!r.fw.update_needed(true, r.now));
    r.now += Time::from_us(10);
    assert!(r.fw.update_needed(true, r.now));
    r.flush_updates();
    assert!(!r.fw.posted_quarantined());
    assert_eq!(r.fw.stats().alpu_reengagements, 1);
    check_invariants(&r.fw);
    let fx = r.rx(eager(0, 3, 64, 2));
    assert_eq!(fx.completions[0].1.req, rid(3));
    assert_eq!(
        r.fw.stats().posted_alpu_hits,
        1,
        "matched in hardware again"
    );
    r.flush_updates();
    check_invariants(&r.fw);
}

#[test]
fn wedged_unexpected_unit_quarantines_falls_back_and_reengages() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    for (seq, tag) in (1..=3u16).enumerate() {
        r.rx(eager(0, tag, 32 * tag as u32, seq as u64));
    }
    r.flush_updates();
    check_invariants(&r.fw);
    r.fw.unexpected_alpu
        .as_mut()
        .unwrap()
        .inject_stall(WEDGE_CYCLES);

    // A late receive probes the stalled unit: quarantine, then the
    // software walk still finds its message.
    let fx = r.run(post_recv(10, Some(0), Some(2), 256));
    assert!(r.fw.unexpected_quarantined());
    assert_eq!(sole_completion(&fx), (0, 2, 64));
    let s = r.fw.stats();
    assert_eq!(
        (s.alpu_resets, s.alpu_fallbacks, s.unexpected_alpu_hits),
        (1, 1, 0)
    );
    check_invariants(&r.fw);

    assert!(!r.fw.update_needed(true, r.now));
    r.now += Time::from_us(10);
    assert!(r.fw.update_needed(true, r.now));
    r.flush_updates();
    assert!(!r.fw.unexpected_quarantined());
    assert_eq!(r.fw.stats().alpu_reengagements, 1);
    check_invariants(&r.fw);
    let fx = r.run(post_recv(11, Some(0), Some(3), 256));
    assert_eq!(sole_completion(&fx), (0, 3, 96));
    assert_eq!(
        r.fw.stats().unexpected_alpu_hits,
        1,
        "matched in hardware again"
    );
    check_invariants(&r.fw);
}

#[test]
fn killed_alpus_stay_out_of_service() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    r.run(post_recv(1, Some(0), Some(1), 64));
    r.rx(eager(0, 2, 64, 0));
    r.flush_updates();
    r.fw.kill_alpus(r.now);
    assert!(r.fw.posted_quarantined() && r.fw.unexpected_quarantined());
    assert_eq!(r.fw.stats().alpus_killed, 2);
    // Far past any cooldown, nothing re-engages and matching stays in
    // software.
    r.now += Time::from_us(1000);
    assert!(!r.fw.update_needed(true, r.now));
    let msg = eager(0, 1, 64, 1);
    assert!(
        !r.fw.header_arrival(&msg, r.now),
        "a dead unit gets no probes"
    );
    let fx = r.run(WorkItem::Rx { msg, probed: false });
    assert_eq!(fx.completions[0].1.req, rid(1));
    let fx = r.run(post_recv(2, Some(0), Some(2), 64));
    assert_eq!(sole_completion(&fx), (0, 2, 64));
    r.run(post_recv(3, Some(0), Some(3), 64));
    r.flush_updates();
    let s = r.fw.stats();
    assert_eq!(
        (
            s.alpu_reengagements,
            s.posted_alpu_hits,
            s.unexpected_alpu_hits
        ),
        (0, 0, 0)
    );
    assert!(r.fw.posted_quarantined() && r.fw.unexpected_quarantined());
    check_invariants(&r.fw);
}

#[test]
fn agreement_wider_than_its_mask_is_declined_not_a_panic() {
    let mut cfg = NicConfig::baseline();
    cfg.coll_offload = true;
    let mut r = Rig::new(cfg);
    let agree = |n| {
        WorkItem::Host(HostRequest::Collective {
            req: rid(n as u64),
            op: mpiq_nic::CollOp::Agree,
            root: 0,
            len: 0,
            instance: 0,
            n,
        })
    };
    let fx = r.run(agree(mpiq_nic::coll::AGREE_MAX_RANKS + 1));
    assert!(fx.completions[0].1.cancelled, "declined back to the host");
    assert!(fx.tx.is_empty());
    assert_eq!(r.fw.stats().coll_declined, 1);
    // At the mask width the engine takes it and sends its mask.
    let fx = r.run(agree(mpiq_nic::coll::AGREE_MAX_RANKS));
    assert!(fx.completions.is_empty());
    assert!(!fx.tx.is_empty());
    assert_eq!(r.fw.stats().coll_offloaded, 1);
}
