//! Observability harness: one fully instrumented exchange, exported.
//!
//! The figure sweeps run thousands of points with tracing off (the
//! instrumented paths compile to single-branch no-ops, keeping the CSV
//! byte-identical). When a harness is asked for `--trace-out` or
//! `--metrics`, it runs *one representative point* through this module
//! with the trace ring and metrics registry enabled, then exports the
//! structured timeline as Chrome `chrome://tracing` JSON and the
//! histograms as text.

use crate::{PrepostedPoint, UnexpectedPoint};
use mpiq_dessim::Time;
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_nic::NicConfig;

/// Everything a traced run produces.
pub struct TracedRun {
    /// Chrome trace-event JSON (one self-contained document).
    pub chrome_json: String,
    /// Human-readable histogram / counter dump.
    pub metrics_text: String,
    /// Records captured in the trace ring.
    pub records: usize,
    /// Records lost to ring overflow (0 unless capacity was too small).
    pub dropped: u64,
}

/// Tag of the timed probe.
const PING_TAG: u16 = 7;
/// Tag of the reply.
const PONG_TAG: u16 = 8;
/// Filler receives that never match.
const FILLER_TAG: u16 = 10_000;

/// Run one pre-posted ping/pong point with tracing and metrics enabled.
/// Deterministic: equal inputs give byte-equal exports.
pub fn traced_preposted(nic: NicConfig, p: PrepostedPoint, trace_capacity: usize) -> TracedRun {
    let depth = (((p.queue_len as f64) * p.fraction).floor() as usize).min(p.queue_len);
    let marks = mark_log();

    let post_queue =
        |b: &mut mpiq_mpi::script::ScriptBuilder, peer: u16, match_tag: u16| -> usize {
            for i in 0..depth {
                b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
            }
            let matching = b.irecv(Some(peer), Some(match_tag), p.msg_size);
            for i in depth..p.queue_len {
                b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
            }
            matching
        };

    let mut b0 = Script::builder();
    let pong = post_queue(&mut b0, 1, PONG_TAG);
    b0.barrier();
    b0.sleep(Time::from_us(400)); // let ALPU insert sessions drain
    b0.send(1, PING_TAG, p.msg_size);
    b0.wait(pong);
    let p0 = b0.build(marks);

    let mut b1 = Script::builder();
    let matching = post_queue(&mut b1, 0, PING_TAG);
    b1.barrier();
    b1.sleep(Time::from_us(400));
    b1.wait(matching);
    b1.send(0, PONG_TAG, p.msg_size);
    let p1 = b1.build(mark_log());

    let mut cluster = Cluster::new(
        ClusterConfig::builder(nic)
            .observability(trace_capacity)
            .build(),
        vec![
            Box::new(p0) as Box<dyn AppProgram>,
            Box::new(p1) as Box<dyn AppProgram>,
        ],
    );
    cluster.run();

    export(cluster)
}

/// Run one unexpected-queue point (Fig. 6's benchmark) with tracing and
/// metrics enabled: park `queue_len` unexpected messages, then a single
/// timed ping/pong whose receive posting searches past them.
pub fn traced_unexpected(nic: NicConfig, p: UnexpectedPoint, trace_capacity: usize) -> TracedRun {
    let u = p.queue_len;

    let mut b0 = Script::builder();
    let mut filler_slots = Vec::new();
    for i in 0..u {
        filler_slots.push(b0.isend(1, FILLER_TAG + (i % 30_000) as u16, p.msg_size));
    }
    b0.wait_all(filler_slots);
    b0.barrier();
    b0.sleep(Time::from_us(500)); // ALPU insert sessions drain
    b0.send(1, PING_TAG, p.msg_size);
    b0.recv(Some(1), Some(PONG_TAG), 0);
    let p0 = b0.build(mark_log());

    let mut b1 = Script::builder();
    b1.barrier();
    b1.sleep(Time::from_us(500));
    b1.recv(Some(0), Some(PING_TAG), p.msg_size);
    b1.send(0, PONG_TAG, 0);
    let p1 = b1.build(mark_log());

    let mut cluster = Cluster::new(
        ClusterConfig::builder(nic)
            .observability(trace_capacity)
            .build(),
        vec![
            Box::new(p0) as Box<dyn AppProgram>,
            Box::new(p1) as Box<dyn AppProgram>,
        ],
    );
    cluster.run();
    export(cluster)
}

fn export(cluster: Cluster) -> TracedRun {
    TracedRun {
        chrome_json: cluster.chrome_trace(),
        metrics_text: cluster.metrics().render(),
        records: cluster.trace_record_count(),
        dropped: cluster.trace_dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonlint;
    use crate::NicVariant;

    fn small_point() -> PrepostedPoint {
        PrepostedPoint {
            queue_len: 8,
            fraction: 1.0,
            msg_size: 0,
        }
    }

    #[test]
    fn traced_run_captures_alpu_and_queue_events() {
        let run = traced_preposted(NicVariant::Alpu128.config(), small_point(), 1 << 16);
        assert!(run.records > 0);
        assert_eq!(run.dropped, 0, "ring sized for the whole run");
        jsonlint::validate(&run.chrome_json).expect("valid JSON");
        // ALPU command/response duration events and queue-depth counters.
        assert!(run.chrome_json.contains("alpu[posted] response"), "trace");
        assert!(run.chrome_json.contains("insert_session"), "trace");
        assert!(run.chrome_json.contains("\"ph\":\"C\""), "counters");
        assert!(run.chrome_json.contains("posted.depth"), "queue depth");
        assert!(run.chrome_json.contains("\"ph\":\"X\""), "durations");
        // Histograms made it into the text dump.
        assert!(
            run.metrics_text.contains("match.posted"),
            "{}",
            run.metrics_text
        );
    }

    #[test]
    fn traced_unexpected_shows_unexpected_queue() {
        let run = traced_unexpected(
            NicVariant::Alpu128.config(),
            UnexpectedPoint {
                queue_len: 6,
                msg_size: 64,
            },
            1 << 16,
        );
        jsonlint::validate(&run.chrome_json).expect("valid JSON");
        assert!(run.chrome_json.contains("unexpected.depth"), "counters");
        assert!(
            run.metrics_text.contains("match.unexpected"),
            "{}",
            run.metrics_text
        );
    }

    #[test]
    fn traced_run_is_deterministic() {
        let a = traced_preposted(NicVariant::Alpu128.config(), small_point(), 1 << 14);
        let b = traced_preposted(NicVariant::Alpu128.config(), small_point(), 1 << 14);
        assert_eq!(a.chrome_json, b.chrome_json);
        assert_eq!(a.metrics_text, b.metrics_text);
    }
}
