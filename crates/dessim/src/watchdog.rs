//! Stall diagnosis: turn hangs into typed reports.
//!
//! A distributed protocol that loses a message it cannot recover (a
//! leaked credit grant, a clear-to-send that was never sent, a peer whose
//! retry budget ran out) does not crash — it goes *quiet*. The event heap
//! drains, `run()` returns, and the only symptom is an assertion about an
//! unfinished rank with no clue where the progress obligation died.
//!
//! This module gives components a voice in that moment. Each component
//! may implement [`Component::health`](crate::Component::health) to
//! report whether it still holds obligations (parked sends, nonempty
//! queues, live retransmit windows) along with gauges and notes. A
//! watched harness (e.g. `Cluster::run_watched` in `mpiq-mpi`) collects
//! the reports into a [`Diagnosis`] when a run stalls — either by
//! *quiescing* with obligations outstanding (a true deadlock) or by
//! blowing through a progress deadline (livelock or runaway work).

use crate::time::Time;
use std::fmt;

/// A component's self-reported health snapshot.
///
/// `busy` is the load-bearing bit: a component that still holds
/// unfinished obligations must report `busy = true`, because the
/// watchdog's quiescent-deadlock verdict is "the heap is empty yet
/// somebody is still busy".
#[derive(Clone, Debug, Default)]
pub struct Health {
    /// The component still holds unfinished obligations.
    pub busy: bool,
    /// Numeric state worth seeing in a stall dump (queue depths,
    /// outstanding credits, in-flight window sizes).
    pub gauges: Vec<(&'static str, u64)>,
    /// Free-form observations (dead peers, quarantined units).
    pub notes: Vec<String>,
}

impl Health {
    /// An idle report (no obligations).
    pub fn idle() -> Health {
        Health::default()
    }

    /// A busy report (unfinished obligations).
    pub fn busy() -> Health {
        Health {
            busy: true,
            ..Health::default()
        }
    }

    /// Attach a gauge.
    pub fn gauge(mut self, name: &'static str, value: u64) -> Health {
        self.gauges.push((name, value));
        self
    }

    /// Attach a note.
    pub fn note(mut self, note: impl Into<String>) -> Health {
        self.notes.push(note.into());
        self
    }
}

/// How a watched run stalled.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StallKind {
    /// The event heap drained while components still held obligations:
    /// nothing will ever run again, so the missing message is gone for
    /// good. A true deadlock.
    QuiescentDeadlock,
    /// The progress deadline passed with events still pending: the
    /// simulation is alive but not converging (livelock, runaway
    /// retransmission, or simply an undersized deadline).
    DeadlineExceeded,
    /// The stall coincides with an armed fault schedule holding the
    /// cluster split into these connectivity groups (each sorted,
    /// ordered by smallest member). Distinct from [`QuiescentDeadlock`]:
    /// the obligations are not *lost*, they are unreachable across the
    /// partition — the protocol is a hostage, not a leaker.
    ///
    /// [`QuiescentDeadlock`]: StallKind::QuiescentDeadlock
    Partitioned { groups: Vec<Vec<u32>> },
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallKind::QuiescentDeadlock => write!(f, "quiescent deadlock"),
            StallKind::DeadlineExceeded => write!(f, "deadline exceeded"),
            StallKind::Partitioned { groups } => {
                let gs: Vec<String> = groups
                    .iter()
                    .map(|g| {
                        let ns: Vec<String> = g.iter().map(u32::to_string).collect();
                        format!("{{{}}}", ns.join(","))
                    })
                    .collect();
                write!(f, "network partition: groups {}", gs.join(" | "))
            }
        }
    }
}

/// The typed stall report a watched run returns instead of hanging or
/// panicking bare.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// What kind of stall this is.
    pub kind: StallKind,
    /// Virtual time when the stall was detected.
    pub at: Time,
    /// Events delivered before the stall.
    pub events_processed: u64,
    /// `(component name, health)` for every component that reported one,
    /// in registration order.
    pub components: Vec<(String, Health)>,
}

impl Diagnosis {
    /// Names of the components still holding obligations.
    pub fn stuck(&self) -> Vec<&str> {
        self.components
            .iter()
            .filter(|(_, h)| h.busy)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// The report's first line: the stall's kind and time, the events
    /// delivered and the stuck components.
    pub fn headline(&self) -> String {
        format!(
            "{} at t={} after {} events; stuck: [{}]",
            self.kind,
            self.at,
            self.events_processed,
            self.stuck().join(", "),
        )
    }

    /// All notes mentioning `needle` (e.g. a peer id) across components.
    pub fn notes_containing(&self, needle: &str) -> Vec<&str> {
        self.components
            .iter()
            .flat_map(|(_, h)| h.notes.iter())
            .filter(|n| n.contains(needle))
            .map(|s| s.as_str())
            .collect()
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.headline())?;
        for (name, h) in &self.components {
            if !h.busy && h.notes.is_empty() {
                continue; // idle and silent: not part of the story
            }
            write!(f, "  {name}: {}", if h.busy { "BUSY" } else { "idle" })?;
            for (g, v) in &h.gauges {
                write!(f, " {g}={v}")?;
            }
            writeln!(f)?;
            for note in &h.notes {
                writeln!(f, "    - {note}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnosis_renders_stuck_components_and_notes() {
        let d = Diagnosis {
            kind: StallKind::QuiescentDeadlock,
            at: Time::from_us(3),
            events_processed: 42,
            components: vec![
                ("nic0".into(), Health::busy().gauge("unexpected", 7)),
                ("nic1".into(), Health::idle()),
                ("host1".into(), Health::busy().note("rank 1 not finished")),
            ],
        };
        assert_eq!(d.stuck(), vec!["nic0", "host1"]);
        let s = d.to_string();
        assert!(s.contains("quiescent deadlock"));
        assert!(s.contains("unexpected=7"));
        assert!(s.contains("rank 1 not finished"));
        assert!(!s.contains("nic1"), "idle, note-less components are elided");
        assert_eq!(d.notes_containing("rank 1"), vec!["rank 1 not finished"]);
    }

    #[test]
    fn partitioned_diagnosis_names_the_groups() {
        let d = Diagnosis {
            kind: StallKind::Partitioned {
                groups: vec![vec![0, 1], vec![2, 3]],
            },
            at: Time::from_us(9),
            events_processed: 100,
            components: vec![("nic2".into(), Health::busy())],
        };
        let s = d.to_string();
        assert!(s.contains("network partition"), "{s}");
        assert!(s.contains("{0,1} | {2,3}"), "{s}");
        assert_ne!(d.kind, StallKind::QuiescentDeadlock);
    }

    #[test]
    fn health_builder_composes() {
        let h = Health::busy().gauge("a", 1).gauge("b", 2).note("x");
        assert!(h.busy);
        assert_eq!(h.gauges, vec![("a", 1), ("b", 2)]);
        assert_eq!(h.notes, vec!["x".to_string()]);
    }
}
