//! Fault/recovery accounting for benchmark reports.
//!
//! Collects the injection and recovery counters a faulted run leaves in
//! the cluster statistics registry into one flat struct the report
//! writers can append to their rows. A fault-free run collects all
//! zeros, and the report writers omit the columns entirely in that case
//! so existing Fig. 5/6 outputs stay byte-identical.

use crate::spec::Value;
use mpiq_mpi::Cluster;

/// Injection and recovery totals for one benchmark run, summed across
/// every NIC in the cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Wire faults the fabric injected (drops + duplicates + corruptions).
    pub injected: u64,
    /// Frames the link layer re-sent (go-back-N windows, counted per frame).
    pub retransmits: u64,
    /// ALPU hard resets (quarantine events).
    pub alpu_resets: u64,
    /// Matches served by software while an ALPU was quarantined.
    pub alpu_fallbacks: u64,
    /// Quarantined ALPUs brought back after their cooldown.
    pub alpu_reengagements: u64,
}

impl FaultCounters {
    /// Gather the counters from a finished run.
    pub fn collect(cluster: &Cluster) -> FaultCounters {
        let stats = cluster.stats();
        let suffix_sum = |suffix: &str| {
            stats
                .iter()
                .filter(|(k, _)| k.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        FaultCounters {
            injected: stats.sum_prefix("net.faults."),
            retransmits: suffix_sum(".link.retransmits"),
            alpu_resets: suffix_sum(".alpu.resets"),
            alpu_fallbacks: suffix_sum(".alpu.fallbacks"),
            alpu_reengagements: suffix_sum(".alpu.reengagements"),
        }
    }

    /// True when nothing fault-related happened (fault-free runs).
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }

    /// The five result columns, in order.
    pub fn cells(&self) -> [(&'static str, Value); 5] {
        [
            ("faults_injected", Value::Int(self.injected)),
            ("retransmits", Value::Int(self.retransmits)),
            ("alpu_resets", Value::Int(self.alpu_resets)),
            ("alpu_fallbacks", Value::Int(self.alpu_fallbacks)),
            ("alpu_reengagements", Value::Int(self.alpu_reengagements)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ResultRow;

    #[test]
    fn zero_detection_and_rendering() {
        let z = FaultCounters::default();
        assert!(z.is_zero());
        let row = |c: FaultCounters| ResultRow(c.cells().to_vec());
        assert_eq!(row(z).num("alpu_reengagements"), Some(0.0));
        let c = FaultCounters {
            injected: 3,
            retransmits: 2,
            ..FaultCounters::default()
        };
        assert!(!c.is_zero());
        let csv: Vec<String> = c.cells().iter().map(|(_, v)| v.csv()).collect();
        assert_eq!(csv.join(","), "3,2,0,0,0");
        assert_eq!(row(c).num("faults_injected"), Some(3.0));
    }
}
