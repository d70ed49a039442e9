//! Event tracing: a bounded ring of recent simulation activity.
//!
//! Debugging a distributed protocol deadlock needs to answer "what were
//! the last N things that happened, and when?". Components append
//! [`TraceRecord`]s through [`Ctx::trace`](crate::Ctx); the ring keeps the
//! most recent `capacity` records and renders them in time order.
//! Tracing is off (zero-capacity) by default and costs one branch when
//! disabled.
//!
//! Records carry a typed [`TraceEvent`], not a string: the structured
//! variants (queue ops, ALPU command/response exchanges, link
//! retransmits, quarantine transitions, DMA, host completions) keep their
//! fields machine-readable so the Chrome-trace exporter
//! ([`crate::export`]) can turn them into duration and counter events;
//! [`TraceEvent::Note`] keeps the old free-form string path working.

use crate::component::ComponentId;
use crate::time::Time;
use std::collections::VecDeque;
use std::fmt;

/// Which NIC matching queue an event concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The posted-receive queue.
    Posted,
    /// The unexpected-message queue.
    Unexpected,
}

impl QueueKind {
    /// Lowercase label (`"posted"` / `"unexpected"`), for keys and JSON.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Posted => "posted",
            QueueKind::Unexpected => "unexpected",
        }
    }
}

/// What a [`TraceEvent::QueueOp`] did to its queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOpKind {
    /// An entry was appended.
    Push,
    /// An entry was unlinked (matched, cancelled, or purged).
    Remove,
    /// An ALPU-resident entry was tombstoned in place.
    Ghost,
}

impl QueueOpKind {
    /// Lowercase label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            QueueOpKind::Push => "push",
            QueueOpKind::Remove => "remove",
            QueueOpKind::Ghost => "ghost",
        }
    }
}

/// Which software search path resolved a match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchSource {
    /// The hardware unit answered MATCH SUCCESS.
    AlpuHit,
    /// The hash-bin index was walked.
    HashIndex,
    /// The linear list (whole list, or the post-ALPU tail) was walked.
    Linear,
}

impl SearchSource {
    /// Lowercase label, used as the histogram key suffix.
    pub fn label(self) -> &'static str {
        match self {
            SearchSource::AlpuHit => "alpu_hit",
            SearchSource::HashIndex => "hash",
            SearchSource::Linear => "linear",
        }
    }
}

/// ALPU command activity traced as one duration event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlpuCmdKind {
    /// A batched insert session (START ... INSERT* ... STOP).
    InsertSession,
    /// A RESET + rebuild purge.
    Reset,
}

impl AlpuCmdKind {
    /// Lowercase label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            AlpuCmdKind::InsertSession => "insert_session",
            AlpuCmdKind::Reset => "reset",
        }
    }
}

/// DMA transfer direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaDir {
    /// Network/NIC memory to host user buffer.
    Rx,
    /// Host memory to the wire.
    Tx,
}

impl DmaDir {
    /// Lowercase label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            DmaDir::Rx => "rx",
            DmaDir::Tx => "tx",
        }
    }
}

/// One typed traced happening. Variants with a `dur` field describe an
/// activity that *started* at the record's timestamp and lasted `dur`
/// (the exporter renders them as Chrome `ph:"X"` duration events);
/// everything else is an instant.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Free-form note (the legacy string payload).
    Note(String),
    /// A queue mutation, carrying the resulting depth — the exporter
    /// renders these as `ph:"C"` counter events, giving queue-depth
    /// timelines for free.
    QueueOp {
        /// Which queue changed.
        queue: QueueKind,
        /// What happened to it.
        op: QueueOpKind,
        /// Queue length after the operation.
        depth: u32,
    },
    /// A command exchange with an ALPU (insert session or purge).
    AlpuCommand {
        /// Which queue's unit.
        unit: QueueKind,
        /// What the firmware asked of it.
        kind: AlpuCmdKind,
        /// Wall time of the whole exchange.
        dur: Time,
        /// Entries moved into the unit (insert sessions).
        entries: u32,
    },
    /// A response read from an ALPU: the wait for the MATCH response plus
    /// the §IV-D data/status retrieval reads.
    AlpuResponse {
        /// Which queue's unit.
        unit: QueueKind,
        /// MATCH SUCCESS (`true`) or MATCH FAILURE.
        hit: bool,
        /// Wall time from first poll to last status read.
        dur: Time,
    },
    /// A software search of a match queue.
    SwSearch {
        /// Which queue was walked.
        queue: QueueKind,
        /// Which path resolved (or exhausted) the search.
        source: SearchSource,
        /// Entries visited.
        entries: u32,
        /// Wall time of the walk.
        dur: Time,
    },
    /// The link layer retransmitted a go-back-N window.
    LinkRetransmit {
        /// Peer node the window was resent to.
        peer: u32,
        /// Frames in the resent window.
        frames: u32,
        /// The retransmit timeout now armed (exponential backoff state).
        backoff: Time,
    },
    /// An ALPU entered (`engaged == false`) or left quarantine.
    Quarantine {
        /// Which queue's unit.
        unit: QueueKind,
        /// `false` = taken out of service, `true` = re-engaged.
        engaged: bool,
    },
    /// A DMA engine transfer.
    Dma {
        /// Direction.
        dir: DmaDir,
        /// Payload bytes moved.
        bytes: u64,
        /// Busy time (queueing + setup + transfer).
        dur: Time,
    },
    /// A completion was handed to a host.
    HostCompletion {
        /// The completed request's issuing rank.
        rank: u32,
        /// Completion reports a cancellation.
        cancelled: bool,
    },
    /// A component-level fault transition was observed (scheduled fault
    /// domains: crashes, link state changes, permanent ALPU death, peer
    /// declared dead). Always an instant (`ph:"i"` in the Chrome export).
    ComponentFault {
        /// What happened.
        kind: ComponentFaultKind,
        /// The node reporting (for edges: one endpoint).
        node: u32,
        /// The other party (edge endpoint or dead peer); equal to `node`
        /// for single-component faults.
        peer: u32,
    },
}

/// The component-level fault transitions worth an instant on a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentFaultKind {
    /// The node crash-stopped.
    NodeCrash,
    /// The edge `node–peer` went down (flap or partition onset observed).
    LinkDown,
    /// The edge `node–peer` came back up.
    LinkUp,
    /// The link layer's retry budget declared the peer's link dead.
    LinkDead,
    /// The node's offload unit died permanently (software fallback pinned).
    AlpuDead,
    /// The keepalive detector declared the peer's rank(s) failed.
    PeerDead,
    /// The node restarted under a new incarnation epoch (wiped state).
    NodeRestart,
    /// A restarted peer's stale link state was fenced (reincarnation
    /// guard) and, if it had been declared dead, revived.
    PeerRestart,
}

impl ComponentFaultKind {
    /// Lowercase label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            ComponentFaultKind::NodeCrash => "node-crash",
            ComponentFaultKind::LinkDown => "link-down",
            ComponentFaultKind::LinkUp => "link-up",
            ComponentFaultKind::LinkDead => "link-dead",
            ComponentFaultKind::AlpuDead => "alpu-dead",
            ComponentFaultKind::PeerDead => "peer-dead",
            ComponentFaultKind::NodeRestart => "node-restart",
            ComponentFaultKind::PeerRestart => "peer-restart",
        }
    }
}

impl TraceEvent {
    /// The duration this event spans, if it is an activity rather than an
    /// instant.
    pub fn dur(&self) -> Option<Time> {
        match self {
            TraceEvent::AlpuCommand { dur, .. }
            | TraceEvent::AlpuResponse { dur, .. }
            | TraceEvent::SwSearch { dur, .. }
            | TraceEvent::Dma { dur, .. } => Some(*dur),
            _ => None,
        }
    }
}

impl From<String> for TraceEvent {
    fn from(s: String) -> TraceEvent {
        TraceEvent::Note(s)
    }
}

impl From<&str> for TraceEvent {
    fn from(s: &str) -> TraceEvent {
        TraceEvent::Note(s.to_string())
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Note(s) => write!(f, "{s}"),
            TraceEvent::QueueOp { queue, op, depth } => {
                write!(f, "{} {} -> depth {depth}", queue.label(), op.label())
            }
            TraceEvent::AlpuCommand {
                unit,
                kind,
                dur,
                entries,
            } => write!(
                f,
                "alpu[{}] {} ({entries} entries, {dur})",
                unit.label(),
                kind.label()
            ),
            TraceEvent::AlpuResponse { unit, hit, dur } => write!(
                f,
                "alpu[{}] response {} ({dur})",
                unit.label(),
                if *hit { "hit" } else { "miss" }
            ),
            TraceEvent::SwSearch {
                queue,
                source,
                entries,
                dur,
            } => write!(
                f,
                "search[{}] via {} visited {entries} ({dur})",
                queue.label(),
                source.label()
            ),
            TraceEvent::LinkRetransmit {
                peer,
                frames,
                backoff,
            } => write!(
                f,
                "retransmit -> node{peer} {frames} frames (rto {backoff})"
            ),
            TraceEvent::Quarantine { unit, engaged } => write!(
                f,
                "alpu[{}] {}",
                unit.label(),
                if *engaged {
                    "re-engaged"
                } else {
                    "quarantined"
                }
            ),
            TraceEvent::Dma { dir, bytes, dur } => {
                write!(f, "dma[{}] {bytes}B ({dur})", dir.label())
            }
            TraceEvent::HostCompletion { rank, cancelled } => write!(
                f,
                "completion -> rank{rank}{}",
                if *cancelled { " (cancelled)" } else { "" }
            ),
            TraceEvent::ComponentFault { kind, node, peer } => {
                if node == peer {
                    write!(f, "fault[{}] node{node}", kind.label())
                } else {
                    write!(f, "fault[{}] node{node}-node{peer}", kind.label())
                }
            }
        }
    }
}

/// One traced happening.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// When it happened (for duration events: when it started).
    pub time: Time,
    /// Which component reported it.
    pub who: ComponentId,
    /// What happened.
    pub what: TraceEvent,
}

/// A bounded trace ring.
#[derive(Clone, Debug, Default)]
pub struct TraceRing {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// A disabled ring (capacity 0).
    pub fn disabled() -> TraceRing {
        TraceRing::default()
    }

    /// A ring keeping the last `capacity` records.
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing {
            records: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Is tracing active?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Append a record (dropping the oldest when full).
    pub fn push(&mut self, time: Time, who: ComponentId, what: impl Into<TraceEvent>) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            time,
            who,
            what: what.into(),
        });
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records evicted since the last [`TraceRing::render`] or
    /// [`TraceRing::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the retained records, one per line, then reset the dropped
    /// counter — rendering consumes the "records were lost" notice the
    /// same way [`TraceRing::clear`] does, so the two paths agree and a
    /// second render doesn't re-report evictions it already disclosed.
    pub fn render(&mut self, name_of: impl Fn(ComponentId) -> String) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            let s = if self.dropped == 1 { "" } else { "s" };
            out.push_str(&format!(
                "... {} earlier record{s} dropped ...\n",
                self.dropped
            ));
        }
        for r in &self.records {
            out.push_str(&format!(
                "{:>12} {:<12} {}\n",
                r.time.to_string(),
                name_of(r.who),
                r.what
            ));
        }
        self.dropped = 0;
        out
    }

    /// Clear everything (keeps the capacity).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }

    /// Stable-sort the retained records by timestamp: records with
    /// equal timestamps keep the order they were written in. Components
    /// that log a duration at its end with its start time
    /// ([`Ctx::trace_at`](crate::Ctx::trace_at)) write out of time order;
    /// sorting lays the ring out in simulated time.
    pub fn sort_by_time(&mut self) {
        self.records.make_contiguous().sort_by_key(|r| r.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_drops_everything() {
        let mut r = TraceRing::disabled();
        r.push(Time::ZERO, ComponentId(0), "x");
        assert_eq!(r.records().count(), 0);
        assert!(!r.enabled());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = TraceRing::with_capacity(3);
        for i in 0..5u64 {
            r.push(Time::from_ns(i), ComponentId(0), format!("e{i}"));
        }
        let whats: Vec<String> = r.records().map(|x| x.what.to_string()).collect();
        assert_eq!(whats, vec!["e2", "e3", "e4"]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn render_includes_drop_marker_and_names() {
        let mut r = TraceRing::with_capacity(1);
        r.push(Time::from_ns(1), ComponentId(7), "a");
        r.push(Time::from_ns(2), ComponentId(7), "b");
        let s = r.render(|id| format!("c{}", id.0));
        assert!(s.contains("1 earlier record dropped"), "{s}");
        assert!(!s.contains("records dropped"), "singular drop: {s}");
        assert!(s.contains("c7"));
        assert!(s.contains('b'));
        assert!(!s.contains(" a\n"));
    }

    #[test]
    fn render_pluralizes_and_resets_dropped() {
        let mut r = TraceRing::with_capacity(1);
        for i in 0..4u64 {
            r.push(Time::from_ns(i), ComponentId(0), format!("e{i}"));
        }
        assert_eq!(r.dropped(), 3);
        let s = r.render(|_| "c".into());
        assert!(s.contains("3 earlier records dropped"), "{s}");
        // Rendering disclosed the loss; both exits reset the counter.
        assert_eq!(r.dropped(), 0);
        let again = r.render(|_| "c".into());
        assert!(!again.contains("dropped"), "{again}");
    }

    #[test]
    fn clear_resets() {
        let mut r = TraceRing::with_capacity(2);
        r.push(Time::ZERO, ComponentId(0), "x");
        r.clear();
        assert_eq!(r.records().count(), 0);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn typed_events_render_structured_fields() {
        let mut r = TraceRing::with_capacity(8);
        r.push(
            Time::from_ns(5),
            ComponentId(1),
            TraceEvent::QueueOp {
                queue: QueueKind::Posted,
                op: QueueOpKind::Push,
                depth: 3,
            },
        );
        r.push(
            Time::from_ns(6),
            ComponentId(1),
            TraceEvent::AlpuResponse {
                unit: QueueKind::Posted,
                hit: true,
                dur: Time::from_ns(12),
            },
        );
        let s = r.render(|id| format!("nic{}", id.0));
        assert!(s.contains("posted push -> depth 3"), "{s}");
        assert!(s.contains("alpu[posted] response hit (12ns)"), "{s}");
    }

    #[test]
    fn durations_only_on_activity_variants() {
        assert_eq!(TraceEvent::Note("x".into()).dur(), None);
        assert_eq!(
            TraceEvent::Dma {
                dir: DmaDir::Rx,
                bytes: 64,
                dur: Time::from_ns(3)
            }
            .dur(),
            Some(Time::from_ns(3))
        );
        assert_eq!(
            TraceEvent::Quarantine {
                unit: QueueKind::Unexpected,
                engaged: false
            }
            .dur(),
            None
        );
    }
}
