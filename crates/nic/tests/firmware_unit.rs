//! Unit tests driving the NIC firmware directly — no DES, no network:
//! hand it work items, inspect effects and timing.
//!
//! `firmware_effects_match_golden` pins the simulated time of every
//! effect on the match outcome paths. Regenerate its golden with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mpiq-nic --test firmware_unit firmware_effects
//! ```

use mpiq_cpusim::Core;
use mpiq_dessim::Time;
use mpiq_net::{Message, MsgHeader, MsgKind};
use mpiq_nic::firmware::{check_invariants, Effects, Firmware, WorkItem};
use mpiq_nic::{CollOp, Dir, HostRequest, NicConfig, ReqId};
use std::fmt::Write;

struct Rig {
    fw: Firmware,
    core: Core,
    now: Time,
    /// When set, every work item's effects, credit grants and trace
    /// events are rendered here (telemetry on).
    tape: Option<String>,
}

impl Rig {
    fn new(cfg: NicConfig) -> Rig {
        Rig {
            fw: Firmware::new(1, cfg),
            core: Core::new(cfg.core),
            now: Time::from_us(1),
            tape: None,
        }
    }

    /// A rig that records an effects transcript under `title`.
    fn taped(cfg: NicConfig, title: &str) -> Rig {
        let mut r = Rig::new(cfg);
        r.fw.set_telemetry(true);
        r.tape = Some(format!("== {title}\n"));
        r
    }

    fn run(&mut self, item: WorkItem) -> Effects {
        let label = self.tape.is_some().then(|| describe(&item));
        let start = self.now;
        let (end, fx) = self.fw.process(item, self.now, &mut self.core);
        assert!(end >= self.now, "time must be monotone");
        self.now = end + Time::from_ns(10);
        if let Some(label) = label {
            self.record(&format!("{label} @{start} -> {end}"), &fx);
        }
        fx
    }

    /// Declare `peer` dead now, recording the effects when taped.
    fn fail_peer(&mut self, peer: u32) -> Effects {
        let mut fx = Effects::default();
        self.fw.fail_peer(peer, self.now, &mut self.core, &mut fx);
        self.record(&format!("fail_peer {peer} @{}", self.now), &fx);
        fx
    }

    fn record(&mut self, label: &str, fx: &Effects) {
        let Some(tape) = self.tape.as_mut() else {
            return;
        };
        writeln!(tape, "{label}").unwrap();
        for (at, msg) in &fx.tx {
            writeln!(tape, "  tx {at} {:?}", msg.header).unwrap();
        }
        for (at, comp) in &fx.completions {
            writeln!(tape, "  comp {at} {comp:?}").unwrap();
        }
        for (peer, n) in self.fw.take_grants() {
            writeln!(tape, "  grant {peer} {n}").unwrap();
        }
        for (at, ev) in self.fw.take_events() {
            writeln!(tape, "  ev {at} {ev:?}").unwrap();
        }
    }

    /// Close the transcript with the non-zero statistics and return it,
    /// so adding or removing an unexercised counter leaves it unchanged.
    fn finish(self) -> String {
        let mut tape = self.tape.expect("taped rig");
        let stats = format!("{:#?}", self.fw.stats());
        for line in stats.lines().filter(|l| !l.ends_with(": 0,")) {
            writeln!(tape, "{line}").unwrap();
        }
        writeln!(tape).unwrap();
        tape
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

/// A one-line name for a work item in the effects transcript.
fn describe(item: &WorkItem) -> String {
    match item {
        WorkItem::Rx { msg, probed } => {
            let h = msg.header;
            format!(
                "rx {:?} from {} tag {} len {} seq {} probed {probed}",
                h.kind, h.src_node, h.tag, h.payload_len, h.seq
            )
        }
        WorkItem::Host(req) => format!("{req:?}"),
        WorkItem::AlpuUpdate => "update".to_string(),
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

/// A header probed before a quarantine whose work item runs only after
/// the unit re-engaged and refilled: its software walk finds an entry the
/// unit holds again, which must stay behind as a tombstone, not vanish
/// from the shadow list.
#[test]
fn orphaned_probe_after_reengage_keeps_the_shadow() {
    let mut r = Rig::new(NicConfig::with_alpus(128));
    for tag in 1..=3u16 {
        r.run(post_recv(tag as u64, Some(0), Some(tag), 64));
    }
    r.flush_updates();
    r.fw.posted_alpu
        .as_mut()
        .unwrap()
        .inject_stall(WEDGE_CYCLES);
    let (m1, m2) = (eager(0, 1, 64, 0), eager(0, 2, 64, 1));
    assert!(r.fw.header_arrival(&m1, r.now));
    assert!(r.fw.header_arrival(&m2, r.now));
    r.run(WorkItem::Rx {
        msg: m1,
        probed: true,
    });
    assert!(r.fw.posted_quarantined());
    // The unit re-engages and refills before the orphaned header's work
    // item runs.
    r.now += Time::from_us(10);
    r.flush_updates();
    assert!(!r.fw.posted_quarantined());
    check_invariants(&r.fw);
    let fx = r.run(WorkItem::Rx {
        msg: m2,
        probed: true,
    });
    assert_eq!(fx.completions[0].1.req, rid(2));
    r.flush_updates();
    check_invariants(&r.fw);
    let fx = r.rx(eager(0, 3, 64, 2));
    assert_eq!(fx.completions[0].1.req, rid(3));
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

// ----------------------------------------------------------------------
// Admission and flow control (`flow`), the fault domain (`fault`).
// ----------------------------------------------------------------------

/// A rig whose unexpected queue refuses arrivals at `bound` entries (the
/// link layer, which retransmits refused frames, is forced on).
fn bounded(bound: u32) -> Rig {
    Rig::new(NicConfig::baseline().with_flow_control(0, bound, 0))
}

#[test]
fn flow_refuses_arrivals_once_queue_and_pending_reach_the_bound() {
    let mut r = bounded(2);
    assert!(!r.fw.refuse(&eager(0, 1, 64, 0).header));
    r.rx(eager(0, 1, 64, 0));
    assert_eq!(r.fw.unexpected_len(), 1);
    assert!(!r.fw.refuse(&eager(0, 2, 64, 1).header), "1 + 0 < 2");
    // Admitted but not yet picked up by the firmware: it counts.
    let pending = eager(0, 2, 64, 1);
    r.fw.header_arrival(&pending, r.now);
    assert!(
        r.fw.refuse(&eager(0, 3, 64, 2).header),
        "1 queued + 1 pending"
    );
    r.run(WorkItem::Rx {
        msg: pending,
        probed: false,
    });
    assert_eq!(r.fw.unexpected_len(), 2);
    assert!(r.fw.refuse(&rndv_request(0, 3, 64 * 1024, 2).header));
    assert_eq!(r.fw.stats().admission_refused, 2);
}

#[test]
fn flow_admits_a_posted_match_past_the_bound_only_with_nothing_pending() {
    let mut r = bounded(1);
    r.rx(eager(0, 1, 64, 0));
    r.run(post_recv(0, Some(0), Some(9), 64));
    let hit = eager(0, 9, 64, 1);
    assert!(!r.fw.refuse(&hit.header), "completes a posted receive");
    assert!(r.fw.refuse(&eager(0, 8, 64, 1).header), "matches nothing");
    // A pending frame could take the posted receive first.
    r.fw.header_arrival(&eager(0, 7, 64, 2), r.now);
    assert!(r.fw.refuse(&hit.header));
    assert_eq!(r.fw.stats().admission_refused, 2);
}

#[test]
fn flow_never_refuses_loopback_protocol_frames_or_without_an_armed_bound() {
    let mut r = bounded(1);
    r.rx(eager(0, 1, 64, 0));
    assert!(r.fw.refuse(&eager(0, 2, 64, 1).header));
    assert!(!r.fw.refuse(&eager(1, 2, 64, 0).header), "loopback");
    assert!(!r.fw.refuse(&rndv_data(0, 5, 64, 1).header));
    assert!(!r.fw.refuse(&rndv_reply(0, 5, 1).header));
    // Unbounded, or bounded with no link layer to retransmit a refusal.
    let mut no_link = NicConfig::baseline();
    no_link.max_unexpected = 1;
    for cfg in [NicConfig::baseline(), no_link] {
        let mut r = Rig::new(cfg);
        for seq in 0..4 {
            assert!(!r.fw.refuse(&eager(0, seq as u16, 64, seq).header));
            r.rx(eager(0, seq as u16, 64, seq));
        }
        assert_eq!(r.fw.stats().admission_refused, 0);
    }
}

#[test]
fn fault_revived_peer_gets_a_fresh_credit_pool_and_no_inflight_gate() {
    let mut cfg = NicConfig::baseline();
    cfg.eager_credits = 1;
    cfg.max_unexpected = 4;
    let mut r = Rig::new(cfg);
    let kind = |fx: &Effects| fx.tx[0].1.header.kind;
    // The one credit toward node 0 is spent; a rendezvous is in flight
    // and a send is held behind it.
    assert_eq!(kind(&r.run(post_send(0, 0, 1, 100))), MsgKind::Eager);
    assert_eq!(
        kind(&r.run(post_send(1, 0, 2, 64 * 1024))),
        MsgKind::RndvRequest
    );
    assert!(r.run(post_send(2, 0, 3, 16)).tx.is_empty(), "held");
    let fx = r.fail_peer(0);
    assert_eq!(fx.completions.iter().filter(|c| c.1.rank_failed).count(), 2);
    // A late frame from the dead peer still returns credits.
    r.fw.credit_returned(0, 5);
    assert!(r.fw.revive_peer(0));
    assert!(!r.fw.revive_peer(0), "already alive");
    // Sends flow at once, on a pool re-seeded at one credit.
    assert_eq!(kind(&r.run(post_send(3, 0, 4, 100))), MsgKind::Eager);
    assert_eq!(kind(&r.run(post_send(4, 0, 5, 100))), MsgKind::RndvRequest);
    let s = r.fw.stats();
    assert_eq!(
        (s.peers_revived, s.credit_stalls, s.sends_deferred),
        (1, 1, 1)
    );
}

#[test]
fn fault_fail_peer_unparks_offloaded_collectives() {
    let mut cfg = NicConfig::baseline();
    cfg.coll_offload = true;
    let mut r = Rig::new(cfg);
    // A barrier and a two-rank agreement, both parked on rank 0.
    assert!(r
        .run(coll(0, CollOp::Barrier, 0, 0, 4))
        .completions
        .is_empty());
    assert!(r
        .run(coll(1, CollOp::Agree, 0, 1, 2))
        .completions
        .is_empty());
    let fx = r.fail_peer(0);
    let mut comps: Vec<_> = fx.completions.iter().map(|c| c.1).collect();
    comps.sort_by_key(|c| c.req.seq);
    // The barrier fails naming rank 0; the agreement skips rank 0's
    // steps and completes with it in its mask.
    assert_eq!((comps[0].rank_failed, comps[0].source), (true, 0));
    assert_eq!((comps[1].rank_failed, comps[1].len), (false, 0b1));
    let s = r.fw.stats();
    assert_eq!((s.coll_offloaded, s.coll_rank_failed), (2, 1));
}

// ----------------------------------------------------------------------
// Effects transcript: every completion, frame, credit grant and trace
// event of the match outcome paths, with its simulated time.
// ----------------------------------------------------------------------

fn header(src_node: u32, tag: u16, len: u32, kind: MsgKind, seq: u64) -> Message {
    Message::new(MsgHeader {
        kind,
        payload_len: len,
        ..eager(src_node, tag, len, seq).header
    })
}

fn rndv_request(src_node: u32, tag: u16, len: u32, seq: u64) -> Message {
    header(src_node, tag, len, MsgKind::RndvRequest, seq)
}

fn rndv_data(src_node: u32, token: u64, len: u32, seq: u64) -> Message {
    header(src_node, 0, len, MsgKind::RndvData { token }, seq)
}

fn rndv_reply(src_node: u32, token: u64, seq: u64) -> Message {
    header(src_node, 0, 0, MsgKind::RndvReply { token }, seq)
}

fn cancel(seq: u64) -> WorkItem {
    WorkItem::Host(HostRequest::CancelRecv { target: rid(seq) })
}

fn iprobe(seq: u64, src: Option<u16>, tag: Option<u16>) -> WorkItem {
    WorkItem::Host(HostRequest::Probe {
        req: rid(seq),
        src,
        context: 1,
        tag,
    })
}

fn coll(seq: u64, op: CollOp, len: u32, instance: u16, n: u32) -> WorkItem {
    WorkItem::Host(HostRequest::Collective {
        req: rid(seq),
        op,
        root: 0,
        len,
        instance,
        n,
    })
}

/// The frame that satisfies `op`'s receive step from `peer` for rank 1
/// of `n`, carrying `len` payload bytes (the mask, for agreement).
fn coll_frame(op: CollOp, instance: u16, n: u32, peer: u32, len: u32, seq: u64) -> Message {
    let step = mpiq_nic::coll::steps(op, 1, n, 0, 0, instance)
        .into_iter()
        .find(|s| s.dir == Dir::Recv && s.peer == peer)
        .expect("plan receives from peer");
    Message::new(MsgHeader {
        context: mpiq_nic::coll::COLL_CTX,
        ..eager(peer, step.tag, len, seq).header
    })
}

fn tape_eager_and_credits() -> String {
    let mut cfg = NicConfig::baseline();
    cfg.eager_credits = 2;
    cfg.eager_buffer_bytes = 300;
    let mut r = Rig::taped(cfg, "eager delivery, credits and staging");
    // Matched on arrival: truncated to the 64-byte buffer, credit returned.
    r.run(post_recv(0, Some(0), Some(1), 64));
    r.rx(eager(0, 1, 128, 0));
    // Staged, then a header-only admit once the pool is exhausted.
    r.rx(eager(0, 2, 200, 1));
    r.rx(eager(0, 3, 200, 2));
    r.rx(eager(2, 4, 0, 0));
    // Delivered from staging (credit returned), the truncated admit
    // completes with `overflow`, a wildcard takes the empty message.
    r.run(post_recv(1, Some(0), Some(2), 256));
    r.run(post_recv(2, Some(0), Some(3), 256));
    r.run(post_recv(3, None, Some(4), 16));
    // Two credits toward node 0: the third send demotes to rendezvous.
    for seq in 4..7 {
        r.run(post_send(seq, 0, 9, 100));
    }
    r.finish()
}

fn tape_rendezvous() -> String {
    let mut r = Rig::taped(NicConfig::baseline(), "rendezvous");
    // Matched on arrival: clear-to-send, then the data completes.
    r.run(post_recv(0, Some(0), Some(5), 64 * 1024));
    r.rx(rndv_request(0, 5, 64 * 1024, 10));
    r.rx(rndv_data(0, 10, 64 * 1024, 11));
    // Matched from the unexpected queue.
    r.rx(rndv_request(2, 6, 32 * 1024, 20));
    r.run(post_recv(1, Some(2), Some(6), 64 * 1024));
    r.rx(rndv_data(2, 20, 32 * 1024, 21));
    // Sender side: request, clear-to-send, data.
    let fx = r.run(post_send(2, 2, 7, 64 * 1024));
    let token = fx.tx[0].1.header.seq;
    r.rx(rndv_reply(2, token, 22));
    // Iprobe miss, then hit.
    r.run(iprobe(3, Some(2), Some(8)));
    r.rx(eager(2, 8, 32, 23));
    r.run(iprobe(4, None, None));
    r.finish()
}

fn tape_alpu_resident() -> String {
    let mut r = Rig::taped(NicConfig::with_alpus(128), "ALPU-resident receives");
    r.run(post_recv(0, Some(0), Some(9), 64));
    r.run(post_recv(1, None, Some(9), 64));
    r.run(post_recv(2, Some(0), Some(10), 64));
    r.flush_updates();
    // Cancel an ALPU-resident receive (tombstone) and a software one.
    r.run(cancel(0));
    r.run(post_recv(3, Some(0), Some(11), 64));
    r.run(cancel(3));
    // The unit matches receive 0's tombstone; the re-match consumes the
    // ALPU-resident wildcard, leaving a tombstone of its own.
    r.rx(eager(0, 9, 64, 0));
    // The unit matches that tombstone; the re-match finds nothing.
    r.rx(eager(0, 9, 64, 1));
    // A plain hit, then a miss that stages.
    r.rx(eager(0, 10, 64, 2));
    r.rx(eager(0, 12, 64, 3));
    r.flush_updates();
    // Receives served by the unexpected unit.
    r.run(post_recv(4, Some(0), Some(12), 64));
    r.run(post_recv(5, Some(0), Some(9), 64));
    check_invariants(&r.fw);
    r.finish()
}

fn tape_hash() -> String {
    let mut r = Rig::taped(NicConfig::with_hash(16), "hash-bin matching");
    for i in 0..6u16 {
        r.run(post_recv(i as u64, Some(0), Some(20 + i), 32));
    }
    r.rx(eager(0, 23, 32, 0));
    r.run(cancel(4));
    r.rx(eager(0, 99, 8, 1));
    r.finish()
}

fn tape_dead_peer() -> String {
    let mut cfg = NicConfig::with_alpus(128);
    cfg.max_unexpected = 4;
    let mut r = Rig::taped(cfg, "a peer dies");
    // Pinned to the doomed peer: one ALPU-resident, one in software; the
    // wildcard survives.
    r.run(post_recv(0, Some(3), Some(1), 64));
    r.run(post_recv(1, None, Some(1), 64));
    r.flush_updates();
    r.run(post_recv(2, Some(3), Some(2), 64));
    // A parked rendezvous send, a send deferred behind it, and a matched
    // rendezvous receive awaiting its data.
    let fx = r.run(post_send(3, 3, 4, 64 * 1024));
    let token = fx.tx[0].1.header.seq;
    r.run(post_send(4, 3, 5, 16));
    r.run(post_recv(5, Some(3), Some(6), 64 * 1024));
    r.rx(rndv_request(3, 6, 64 * 1024, 30));
    r.fail_peer(3);
    // Typed failures at post time, then the dead peer's late frames.
    r.run(post_send(6, 3, 7, 16));
    r.run(post_recv(7, Some(3), Some(8), 16));
    r.rx(rndv_data(3, 30, 64 * 1024, 31));
    r.rx(rndv_reply(3, token, 32));
    r.finish()
}

fn tape_collectives() -> String {
    let mut cfg = NicConfig::baseline();
    cfg.coll_offload = true;
    let mut r = Rig::taped(cfg, "offloaded collectives");
    // Allreduce whose frame arrived first: harvested at once.
    r.rx(coll_frame(CollOp::Allreduce, 0, 4, 0, 8, 0));
    r.run(coll(0, CollOp::Allreduce, 8, 0, 4));
    // Barrier parked on its frame, harvested on arrival.
    r.run(coll(1, CollOp::Barrier, 0, 1, 4));
    r.rx(coll_frame(CollOp::Barrier, 1, 4, 0, 0, 1));
    // Agreement with rank 2 dead before it starts: its send and receive
    // steps are skipped into the mask; the masks from 0 and 3 are ORed in.
    r.rx(coll_frame(CollOp::Agree, 2, 4, 0, 0b1_0000, 2));
    r.fail_peer(2);
    r.run(coll(2, CollOp::Agree, 0b10_0000, 2, 4));
    r.rx(coll_frame(CollOp::Agree, 2, 4, 3, 0b100_0000, 0));
    // A barrier parked on a peer that dies: typed failure.
    r.run(coll(3, CollOp::Barrier, 0, 3, 4));
    r.fail_peer(0);
    // Too wide to agree in the NIC: declined back to the host.
    let wide = mpiq_nic::coll::AGREE_MAX_RANKS + 1;
    r.run(coll(4, CollOp::Agree, 0, 4, wide));
    r.finish()
}

#[test]
fn firmware_effects_match_golden() {
    let tape = [
        tape_eager_and_credits(),
        tape_rendezvous(),
        tape_alpu_resident(),
        tape_hash(),
        tape_dead_peer(),
        tape_collectives(),
    ]
    .concat();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/firmware_effects.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &tape).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create");
    if let Some((n, (got, want))) = tape
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "firmware effects differ at line {}:\n  got:  {got}\n  want: {want}\nrerun with UPDATE_GOLDEN=1 and review the diff",
            n + 1
        );
    }
    assert_eq!(
        tape.lines().count(),
        golden.lines().count(),
        "firmware effects transcript changed length; rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}
