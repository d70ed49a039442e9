//! The §VII future-work direction, runnable: Portals-style building
//! blocks (match entries with ignore bits, memory descriptors with
//! managed offsets, event queues) with the ALPU's matching semantics
//! underneath.
//!
//! ```text
//! cargo run --example portals_put
//! ```

use mpiq::portals::md::MdOptions;
use mpiq::portals::me::{MatchEntry, MeOptions};
use mpiq::portals::{EventKind, MdHandle, Network, ProcessId};

fn main() {
    let mut net = Network::new();
    let client = net.add(ProcessId { nid: 0, pid: 0 });
    let server = net.add(ProcessId { nid: 1, pid: 0 });

    // The server exposes a request buffer at portal index 2: a persistent
    // match entry with locally managed offsets — every matching put
    // appends. The low 8 match bits are ignored (a Portals idiom: one ME
    // covers a whole family of request kinds).
    let req_md = net.ni_mut(server).md_bind(
        64,
        MdOptions {
            manage_local_offset: true,
            ..MdOptions::default()
        },
    );
    net.ni_mut(server).me_attach(
        2,
        MatchEntry {
            source: None,
            match_bits: 0x4000,
            ignore_bits: 0x00FF,
            options: MeOptions {
                use_once: false,
                ..MeOptions::default()
            },
            md: req_md,
        },
    );

    println!("server exposes a 64 B request region at portal 2,");
    println!("match bits 0x4000 with the low byte ignored\n");

    for (bits, body) in [
        (0x4001u64, &b"PUT-A "[..]),
        (0x40FFu64, &b"PUT-B "[..]),
        (0x4002u64, &b"PUT-C"[..]),
    ] {
        let ok = net.put(
            client,
            server,
            2,
            bits,
            0,
            bytes::Bytes::copy_from_slice(body),
        );
        println!(
            "client put bits {bits:#06x} ({} B): matched = {ok}",
            body.len()
        );
    }
    // A put outside the ignore window is dropped.
    let ok = net.put(
        client,
        server,
        2,
        0x5001,
        0,
        bytes::Bytes::from_static(b"nope"),
    );
    println!("client put bits 0x5001: matched = {ok} (dropped — outside the mask)\n");

    let region = region_string(&net, server, req_md);
    println!("server request region now holds: {region:?}");
    println!("server events:");
    while let Some(ev) = net.ni_mut(server).eq.poll() {
        println!(
            "  {:?} from nid {} bits {:#06x} offset {} len {}",
            ev.kind, ev.initiator.nid, ev.match_bits, ev.offset, ev.length
        );
    }
    let drops = net.ni(server).dropped();
    println!("dropped operations: {drops}");
    assert_eq!(drops, 1);

    println!("\nThis is the match problem the ALPU solves in hardware: ordered");
    println!("first-match with per-bit ignore masks — see");
    println!("crates/portals/tests/alpu_backed.rs for the equivalence proof.");
    let _ = EventKind::PutEnd;
}

fn region_string(net: &Network, server: ProcessId, md: MdHandle) -> String {
    let bytes = net.ni(server).md_bytes(md).unwrap();
    String::from_utf8_lossy(&bytes[..18]).into_owned()
}
