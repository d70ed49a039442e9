//! Golden-file test for the Chrome trace exporter.
//!
//! A tiny two-component simulation emits one of every structured trace
//! event at fixed times; the exported JSON must match the checked-in
//! golden byte for byte. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mpiq-bench --test chrome_trace_golden
//! ```
//!
//! A second test validates the exporter on a *real* two-node cluster run
//! (Fig. 5's benchmark with tracing on) against the in-repo JSON
//! validator, without pinning bytes that shift whenever timing models
//! are tuned.

use mpiq_bench::jsonlint;
use mpiq_bench::{traced_preposted, NicVariant, PrepostedPoint};
use mpiq_dessim::prelude::*;
use mpiq_dessim::trace::{AlpuCmdKind, DmaDir, QueueKind, QueueOpKind, SearchSource, TraceEvent};
use mpiq_dessim::{chrome_trace, Histogram, Metrics};

/// Emits one of every structured trace event; the `metered` instance
/// also keeps a counter and a histogram sample, which it publishes.
#[derive(Default)]
struct Scripted {
    metered: bool,
    work_items: u64,
    linear: Histogram,
}

impl Component for Scripted {
    fn publish_metrics(&self, metrics: &mut Metrics) {
        metrics.add("nic0.work_items", self.work_items);
        metrics.publish_hist("nic0.match.posted.linear", &self.linear);
    }

    fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
        if self.metered {
            self.work_items += 9;
            self.linear.record(Time::from_ns(105));
        }
        ctx.trace(TraceEvent::QueueOp {
            queue: QueueKind::Posted,
            op: QueueOpKind::Push,
            depth: 3,
        });
        ctx.trace(TraceEvent::AlpuCommand {
            unit: QueueKind::Posted,
            kind: AlpuCmdKind::InsertSession,
            dur: Time::from_ns(48),
            entries: 3,
        });
        ctx.trace(TraceEvent::AlpuResponse {
            unit: QueueKind::Posted,
            hit: true,
            dur: Time::from_ns(12),
        });
        ctx.trace(TraceEvent::SwSearch {
            queue: QueueKind::Unexpected,
            source: SearchSource::Linear,
            entries: 7,
            dur: Time::from_ns(105),
        });
        ctx.trace(TraceEvent::LinkRetransmit {
            peer: 1,
            frames: 2,
            backoff: Time::from_us(4),
        });
        ctx.trace(TraceEvent::Quarantine {
            unit: QueueKind::Posted,
            engaged: false,
        });
        ctx.trace(TraceEvent::Dma {
            dir: DmaDir::Rx,
            bytes: 4096,
            dur: Time::from_ns(820),
        });
        ctx.trace(TraceEvent::HostCompletion {
            rank: 0,
            cancelled: false,
        });
        ctx.trace("free-form note");
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json")
}

#[test]
fn scripted_two_component_trace_matches_golden() {
    let mut sim = Simulation::new(7);
    let metered = Scripted {
        metered: true,
        ..Scripted::default()
    };
    let a = sim.add_component("nic0", metered);
    let b = sim.add_component("nic1", Scripted::default());
    sim.enable_tracing(64);
    sim.enable_metrics();
    sim.post(a, InPort(0), Payload::empty(), Time::from_ns(100));
    sim.post(b, InPort(0), Payload::empty(), Time::from_us(2));
    sim.run();
    let json = chrome_trace(&sim);

    jsonlint::validate(&json).expect("exporter must emit valid JSON");

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create");
    assert_eq!(
        json, golden,
        "exporter output changed; rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn cluster_trace_is_valid_and_structured() {
    let run = traced_preposted(
        NicVariant::Alpu128.config(),
        PrepostedPoint {
            queue_len: 12,
            fraction: 1.0,
            msg_size: 64,
        },
        1 << 16,
    )
    .unwrap();
    jsonlint::validate(&run.chrome_json).expect("valid JSON");
    assert_eq!(run.dropped, 0);
    // The acceptance shape: ALPU command/response duration events and
    // queue-depth counter events from a real two-node run.
    assert!(run.chrome_json.contains("\"ph\":\"X\""));
    assert!(run.chrome_json.contains("alpu[posted]"));
    assert!(run.chrome_json.contains("\"ph\":\"C\""));
    assert!(run.chrome_json.contains("posted.depth"));
    assert!(run.chrome_json.contains("\"displayTimeUnit\":\"ns\""));
}
