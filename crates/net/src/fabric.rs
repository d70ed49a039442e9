//! Network parameters shared by the fabric ports and the switches.

use crate::message::NodeId;
use mpiq_dessim::prelude::*;

/// Per-pair wire-latency shape overlaid on [`NetConfig::wire_latency`]:
/// a single short link in an otherwise long-haul topology, for example.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireProfile {
    /// Every pair uses [`NetConfig::wire_latency`].
    #[default]
    Uniform,
    /// Nodes `a` and `b` are joined by a `short` wire (both directions);
    /// every other pair uses [`NetConfig::wire_latency`].
    ShortPair { a: NodeId, b: NodeId, short: Time },
}

/// Network parameters (Table III: 200 ns wire latency).
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Propagation latency for any message (see [`NetConfig::profile`]
    /// for per-pair overrides).
    pub wire_latency: Time,
    /// Link bandwidth in bytes per nanosecond (serialization).
    pub bytes_per_ns: u64,
    /// Per-pair latency overrides.
    pub profile: WireProfile,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            wire_latency: Time::from_ns(200),
            // Red Storm-class injection bandwidth, ~2 GB/s.
            bytes_per_ns: 2,
            profile: WireProfile::Uniform,
        }
    }
}

impl NetConfig {
    /// Wire latency between two nodes under the configured profile
    /// (symmetric; the diagonal also answers `wire_latency`).
    pub fn latency_between(&self, src: NodeId, dst: NodeId) -> Time {
        match self.profile {
            WireProfile::Uniform => self.wire_latency,
            WireProfile::ShortPair { a, b, short } => {
                if (src == a && dst == b) || (src == b && dst == a) {
                    short
                } else {
                    self.wire_latency
                }
            }
        }
    }

    /// Serialization time for a frame of `bytes`, rounded up to the
    /// next picosecond so short frames are never undercharged to zero.
    pub fn serialize(&self, bytes: u64) -> Time {
        Time::from_ps((bytes * 1000).div_ceil(self.bytes_per_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_rounds_up_not_down() {
        // 7 B/ns does not divide the 32-byte header: 32000/7 ps = 4571.43,
        // which must round *up* to 4572 ps, not truncate to 4571.
        let cfg = NetConfig {
            bytes_per_ns: 7,
            ..NetConfig::default()
        };
        assert_eq!(cfg.serialize(32), Time::from_ps(4572));
    }

    #[test]
    fn sub_bandwidth_frame_still_charged_nonzero() {
        // A 1-byte frame on a 64 B/ns link is 15.625 ps of serialization;
        // a truncating division would charge 15 ps here but 0 ps for any
        // link fast enough to move the frame in under a picosecond.
        let link = |bytes_per_ns| NetConfig {
            bytes_per_ns,
            ..NetConfig::default()
        };
        assert_eq!(link(64).serialize(1), Time::from_ps(16));
        assert!(
            link(2048).serialize(1) > Time::ZERO,
            "sub-ps frame charged zero"
        );
    }

    /// `latency_between` is symmetric for every profile — both directions
    /// of a `ShortPair` answer the short latency, and every other pair
    /// (including pairs sharing one endpoint with the short pair) answers
    /// `wire_latency` in both directions. The switched topologies reuse
    /// `wire_latency` per hop, so this is the invariant that keeps
    /// multi-hop paths symmetric too.
    #[test]
    fn latency_between_is_symmetric_for_all_profiles() {
        let uniform = NetConfig::default();
        let short = NetConfig {
            profile: WireProfile::ShortPair {
                a: 1,
                b: 3,
                short: Time::from_ns(10),
            },
            ..NetConfig::default()
        };
        for cfg in [uniform, short] {
            for s in 0..5u32 {
                for d in 0..5u32 {
                    assert_eq!(
                        cfg.latency_between(s, d),
                        cfg.latency_between(d, s),
                        "asymmetric wire {s}<->{d}"
                    );
                }
            }
        }
        assert_eq!(short.latency_between(3, 1), Time::from_ns(10));
        assert_eq!(short.latency_between(1, 3), Time::from_ns(10));
        // Sharing an endpoint with the short pair does not shorten a wire.
        assert_eq!(short.latency_between(1, 2), short.wire_latency);
        assert_eq!(short.latency_between(2, 1), short.wire_latency);
    }
}
