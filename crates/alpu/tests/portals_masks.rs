//! Portals-style arbitrary-mask matching (§VI-A footnote 7: the
//! mask-per-bit configuration "supports protocols beyond MPI, such as
//! Portals").
//!
//! MPI only ever wildcards whole fields; Portals match entries can ignore
//! any bit pattern — including "a field wildcarded in the middle without
//! lower order fields being wildcarded", the case the paper uses to rule
//! out longest-prefix-match hardware (§II). These tests drive the full
//! cycle-level engine with such masks and property-check it against the
//! golden model under fully random 42-bit masks.

use mpiq_alpu::{
    Alpu, AlpuConfig, AlpuKind, Command, Entry, GoldenList, Probe, Response, MATCH_WIDTH,
};
use proptest::prelude::*;

fn load(alpu: &mut Alpu, entries: &[Entry]) {
    alpu.push_command(Command::StartInsert).unwrap();
    for &e in entries {
        alpu.push_command(Command::Insert(e)).unwrap();
    }
    alpu.push_command(Command::StopInsert).unwrap();
    alpu.run_to_idle(100_000);
    assert!(matches!(
        alpu.pop_response(),
        Some(Response::StartAck { .. })
    ));
}

fn probe_once(alpu: &mut Alpu, p: Probe) -> Option<u32> {
    alpu.push_header(p).unwrap();
    alpu.run_to_idle(100_000);
    match alpu.pop_response() {
        Some(Response::MatchSuccess { tag }) => Some(tag),
        Some(Response::MatchFailure) => None,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn mid_field_wildcard_not_expressible_as_prefix() {
    // Ignore the low 4 bits of the *source* field only: matches any of 16
    // consecutive source ranks, while the tag (lower-order bits!) stays
    // fully significant — impossible for LPM, natural for the ALPU.
    let source_low4: u64 = 0b1111 << 16;
    let mut a = Alpu::new(AlpuConfig::new(16, 4, AlpuKind::PostedReceive));
    let base = mpiq_alpu::MatchWord::mpi(3, 32, 7).0;
    load(&mut a, &[Entry::with_mask(base, source_low4, 42)]);
    // Source 32..48, same tag: match.
    assert_eq!(
        probe_once(&mut a, Probe::exact(mpiq_alpu::MatchWord::mpi(3, 47, 7))),
        Some(42)
    );
    // Same source range, different tag: no match.
    load(&mut a, &[Entry::with_mask(base, source_low4, 43)]);
    assert_eq!(
        probe_once(&mut a, Probe::exact(mpiq_alpu::MatchWord::mpi(3, 33, 8))),
        None
    );
    // Source out of the range: no match.
    assert_eq!(
        probe_once(&mut a, Probe::exact(mpiq_alpu::MatchWord::mpi(3, 48, 7))),
        None
    );
}

#[test]
fn older_wildcard_entry_wins_over_newer_exact_entry() {
    // MPI over Portals posts each receive as a use-once match entry whose
    // ignore bits encode the wildcards. Ordering, not specificity, picks
    // the winner: the older ANY_SOURCE entry takes the message before the
    // newer exact one, which then takes the next.
    let word = mpiq_alpu::MatchWord::mpi(1, 0, 9).0;
    let mut a = Alpu::new(AlpuConfig::new(16, 4, AlpuKind::PostedReceive));
    load(
        &mut a,
        &[
            Entry::with_mask(word, mpiq_alpu::MaskWord::ANY_SOURCE.0, 1),
            Entry::with_mask(word, 0, 2),
        ],
    );
    assert_eq!(probe_once(&mut a, Probe::with_mask(word, 0)), Some(1));
    assert_eq!(probe_once(&mut a, Probe::with_mask(word, 0)), Some(2));
    assert_eq!(probe_once(&mut a, Probe::with_mask(word, 0)), None);
}

#[test]
fn alternating_bit_mask() {
    // A pathological every-other-bit mask; the cell compare is purely
    // bitwise, so this must work like any other.
    let word = 0x2AA_AAAA_AAAA & ((1u64 << MATCH_WIDTH) - 1);
    let mask = 0x155_5555_5555 & ((1u64 << MATCH_WIDTH) - 1);
    let mut a = Alpu::new(AlpuConfig::new(16, 4, AlpuKind::PostedReceive));
    load(&mut a, &[Entry::with_mask(word, mask, 7)]);
    // Any probe agreeing on the unmasked (even) bits matches.
    assert_eq!(
        probe_once(&mut a, Probe::with_mask(word | mask, 0)),
        Some(7)
    );
    // Flip one unmasked bit: no match.
    load(&mut a, &[Entry::with_mask(word, mask, 8)]);
    assert_eq!(probe_once(&mut a, Probe::with_mask(word ^ 2, 0)), None);
}

#[test]
fn unexpected_variant_takes_probe_side_masks() {
    // Reverse lookup with an arbitrary probe mask: ignore the whole tag
    // AND the low bit of the context.
    let mut a = Alpu::new(AlpuConfig::new(16, 4, AlpuKind::Unexpected));
    load(&mut a, &[Entry::mpi_header(5, 9, 1234, 77)]);
    let ctx_low_bit = 1u64 << 31;
    let tag_bits = 0xFFFFu64;
    let probe = Probe::with_mask(
        mpiq_alpu::MatchWord::mpi(4, 9, 0).0, // context 4 vs stored 5: differ only in bit 0
        ctx_low_bit | tag_bits,
    );
    assert_eq!(probe_once(&mut a, probe), Some(77));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine == golden under fully random 42-bit words and masks, both
    /// variants, including ordering among multiple masked entries.
    #[test]
    fn random_masks_engine_equals_golden(
        entries in prop::collection::vec((any::<u64>(), any::<u64>()), 1..12),
        probes in prop::collection::vec((any::<u64>(), any::<u64>()), 1..12),
        unexpected in any::<bool>(),
    ) {
        let kind = if unexpected { AlpuKind::Unexpected } else { AlpuKind::PostedReceive };
        let mut engine = Alpu::new(AlpuConfig::new(16, 4, kind));
        let mut golden = GoldenList::new(16, kind);
        let entries: Vec<Entry> = entries
            .iter()
            .enumerate()
            .map(|(i, &(w, m))| Entry::with_mask(w, m, i as u32))
            .collect();
        load(&mut engine, &entries);
        for &e in &entries {
            golden.insert(e);
        }
        for &(w, m) in &probes {
            let p = Probe::with_mask(w, m);
            let got = probe_once(&mut engine, p);
            let want = golden.probe(p);
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(engine.occupied(), golden.len());
    }
}
