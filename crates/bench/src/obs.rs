//! Observability harness: one fully instrumented exchange, exported.
//!
//! The figure sweeps run thousands of points with tracing off (the
//! instrumented paths compile to single-branch no-ops, keeping the CSV
//! byte-identical). When a harness is asked for `--trace-out` or
//! `--metrics`, it runs *one representative point* through this module
//! with the trace ring and metrics registry enabled, then exports the
//! structured timeline as Chrome `chrome://tracing` JSON and the
//! histograms as text.

use crate::preposted::preposted_programs;
use crate::unexpected::unexpected_programs;
use crate::{PrepostedPoint, UnexpectedPoint};
use mpiq_dessim::watchdog::Diagnosis;
use mpiq_dessim::Time;
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{Cluster, ClusterConfig};
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

/// Run one pre-posted ping/pong point with tracing and metrics enabled.
/// Deterministic: equal inputs give byte-equal exports. A rank that
/// never finishes is the watchdog's diagnosis.
pub fn traced_preposted(
    nic: NicConfig,
    p: PrepostedPoint,
    trace_capacity: usize,
) -> Result<TracedRun, Box<Diagnosis>> {
    let mut cluster = Cluster::new(
        ClusterConfig::builder(nic)
            .observability(trace_capacity)
            .build(),
        preposted_programs(p, &mark_log()),
    );
    cluster.run_watched(Time::MAX)?;
    Ok(export(cluster))
}

/// Run one unexpected-queue point with tracing and metrics enabled: the
/// exchange Fig. 6 times (`queue_len` unexpected fillers, then the timed
/// ping/pongs whose receive postings search past them).
pub fn traced_unexpected(
    nic: NicConfig,
    p: UnexpectedPoint,
    trace_capacity: usize,
) -> Result<TracedRun, Box<Diagnosis>> {
    let mut cluster = Cluster::new(
        ClusterConfig::builder(nic)
            .observability(trace_capacity)
            .build(),
        unexpected_programs(p, &mark_log()),
    );
    cluster.run_watched(Time::MAX)?;
    Ok(export(cluster))
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
        let run = traced_preposted(NicVariant::Alpu128.config(), small_point(), 1 << 16).unwrap();
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
        )
        .unwrap();
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
        let a = traced_preposted(NicVariant::Alpu128.config(), small_point(), 1 << 14).unwrap();
        let b = traced_preposted(NicVariant::Alpu128.config(), small_point(), 1 << 14).unwrap();
        assert_eq!(a.chrome_json, b.chrome_json);
        assert_eq!(a.metrics_text, b.metrics_text);
    }
}
