//! Export the trace ring and metrics as Chrome `chrome://tracing` JSON.
//!
//! The [Trace Event Format] is the de-facto interchange for timeline
//! viewers (`chrome://tracing`, Perfetto, Speedscope). We emit the JSON
//! object form: a `traceEvents` array plus an `otherData` bag carrying
//! the histogram/counter summary. Mapping:
//!
//! * each simulation component becomes a "thread" (`tid` = component id)
//!   named via a `ph:"M"` thread_name metadata event;
//! * trace events with a duration ([`TraceEvent::dur`]) become `ph:"X"`
//!   complete events spanning `[start, start+dur)`;
//! * [`TraceEvent::QueueOp`] becomes a `ph:"C"` counter event, so queue
//!   depth renders as a stacked area chart over time;
//! * everything else becomes a `ph:"i"` thread-scoped instant.
//!
//! Timestamps are microseconds (the format's unit) with picosecond
//! precision preserved in the fraction. The output is deterministic:
//! records are emitted in ring order, metrics in sorted key order.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::metrics::Metrics;
use crate::scheduler::Simulation;
use crate::trace::{TraceEvent, TraceRing};

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Picoseconds rendered as a microsecond JSON number with the fraction
/// kept exact (`1_500` ps -> `0.0015`).
fn us(ps: u64) -> String {
    let whole = ps / 1_000_000;
    let frac = ps % 1_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let s = format!("{whole}.{frac:06}");
        s.trim_end_matches('0').to_string()
    }
}

/// The display name and argument bag for one trace event.
fn describe(what: &TraceEvent) -> (String, String) {
    match what {
        TraceEvent::Note(s) => (esc(s), String::new()),
        TraceEvent::QueueOp { queue, op, depth } => (
            format!("{}.depth", queue.label()),
            format!("\"op\":\"{}\",\"depth\":{depth}", op.label()),
        ),
        TraceEvent::AlpuCommand {
            unit,
            kind,
            entries,
            ..
        } => (
            format!("alpu[{}] {}", unit.label(), kind.label()),
            format!("\"entries\":{entries}"),
        ),
        TraceEvent::AlpuResponse { unit, hit, .. } => (
            format!("alpu[{}] response", unit.label()),
            format!("\"hit\":{hit}"),
        ),
        TraceEvent::SwSearch {
            queue,
            source,
            entries,
            ..
        } => (
            format!("search[{}] {}", queue.label(), source.label()),
            format!("\"entries\":{entries}"),
        ),
        TraceEvent::LinkRetransmit {
            peer,
            frames,
            backoff,
        } => (
            "link retransmit".to_string(),
            format!(
                "\"peer\":{peer},\"frames\":{frames},\"backoff_ns\":{}",
                backoff.ns()
            ),
        ),
        TraceEvent::Quarantine { unit, engaged } => (
            format!(
                "alpu[{}] {}",
                unit.label(),
                if *engaged { "re-engage" } else { "quarantine" }
            ),
            format!("\"engaged\":{engaged}"),
        ),
        TraceEvent::Dma { dir, bytes, .. } => {
            (format!("dma {}", dir.label()), format!("\"bytes\":{bytes}"))
        }
        TraceEvent::HostCompletion { rank, cancelled } => (
            "completion".to_string(),
            format!("\"rank\":{rank},\"cancelled\":{cancelled}"),
        ),
        TraceEvent::ComponentFault { kind, node, peer } => (
            format!("fault {}", kind.label()),
            format!("\"node\":{node},\"peer\":{peer}"),
        ),
    }
}

/// Render the simulation's trace and metrics registry as a Chrome trace
/// JSON document. Records are laid out in time order first (see
/// [`TraceRing::sort_by_time`]), so the output is byte-identical from
/// run to run. With tracing disabled the `traceEvents` array holds only
/// the thread-name metadata.
pub fn chrome_trace(sim: &Simulation) -> String {
    let names: Vec<String> = (0..sim.component_count())
        .map(|i| {
            sim.name_of(crate::component::ComponentId(i as u32))
                .to_string()
        })
        .collect();
    chrome_trace_parts(&names, &sim.trace(), &sim.metrics())
}

/// The exporter core: component names (index = `tid`), a trace ring,
/// and a metrics registry.
fn chrome_trace_parts(names: &[String], ring: &TraceRing, metrics: &Metrics) -> String {
    let mut events: Vec<String> = Vec::new();

    // One "thread" per component, named up front so viewers label lanes.
    for (i, name) in names.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    for r in ring.records() {
        let tid = r.who.0;
        let ts = us(r.time.ps());
        let (name, args) = describe(&r.what);
        let args = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{args}}}")
        };
        match (&r.what, r.what.dur()) {
            (TraceEvent::QueueOp { .. }, _) => {
                // Counter events: Chrome plots each args key as a series.
                let TraceEvent::QueueOp { depth, .. } = r.what else {
                    unreachable!()
                };
                events.push(format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"name\":\"{name}\",\"args\":{{\"depth\":{depth}}}}}"
                ));
            }
            (_, Some(dur)) => {
                events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"dur\":{},\"name\":\"{name}\"{args}}}",
                    us(dur.ps())
                ));
            }
            (_, None) => {
                events.push(format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"t\",\"name\":\"{name}\"{args}}}"
                ));
            }
        }
    }

    // Histogram / counter summary rides along in otherData, where viewers
    // show it as run metadata.
    let m = metrics;
    let mut other: Vec<String> = Vec::new();
    for (k, v) in m.counters() {
        other.push(format!("\"{}\":\"{v}\"", esc(k)));
    }
    for (k, h) in m.hists() {
        other.push(format!(
            "\"{}\":\"count={} mean_ns={:.1} max_ps={}\"",
            esc(k),
            h.count(),
            h.mean_ns(),
            h.max_ps()
        ));
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{{}}}}}\n",
        events.join(",\n"),
        other.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Ctx};
    use crate::event::{Event, InPort, Payload};
    use crate::time::Time;
    use crate::trace::{DmaDir, QueueKind, QueueOpKind};

    #[test]
    fn us_preserves_picosecond_fractions() {
        assert_eq!(us(0), "0");
        assert_eq!(us(1_000_000), "1");
        assert_eq!(us(1_500), "0.0015");
        assert_eq!(us(123_456_789), "123.456789");
    }

    #[test]
    fn esc_escapes_controls_and_quotes() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    struct Emitter;
    impl Component for Emitter {
        fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
            ctx.trace(TraceEvent::QueueOp {
                queue: QueueKind::Posted,
                op: QueueOpKind::Push,
                depth: 2,
            });
            ctx.trace(TraceEvent::Dma {
                dir: DmaDir::Rx,
                bytes: 64,
                dur: Time::from_ns(7),
            });
            ctx.trace("plain note");
        }
    }

    #[test]
    fn exporter_emits_counter_duration_and_instant_events() {
        let mut sim = Simulation::new(0);
        let c = sim.add_component("nic0", Emitter);
        sim.enable_tracing(16);
        sim.post(c, InPort(0), Payload::empty(), Time::from_ns(3));
        sim.run();
        let json = chrome_trace(&sim);
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"nic0\"}"), "{json}");
        assert!(
            json.contains("\"ph\":\"C\"") && json.contains("posted.depth"),
            "{json}"
        );
        assert!(
            json.contains("\"ph\":\"X\"") && json.contains("\"dur\":0.007"),
            "{json}"
        );
        assert!(
            json.contains("\"ph\":\"i\"") && json.contains("plain note"),
            "{json}"
        );
        // All events sit at ts = 3 ns = 0.003 us.
        assert!(json.contains("\"ts\":0.003"), "{json}");
    }

    #[test]
    fn exporter_summarizes_metrics_in_other_data() {
        struct Metered;
        impl Component for Metered {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.metrics().add("nic0.ops", 5);
                ctx.metrics().record("nic0.lat", Time::from_ns(4));
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("nic0", Metered);
        sim.enable_metrics();
        sim.post(c, InPort(0), Payload::empty(), Time::ZERO);
        sim.run();
        let json = chrome_trace(&sim);
        assert!(json.contains("\"nic0.ops\":\"5\""), "{json}");
        assert!(json.contains("\"nic0.lat\":\"count=1"), "{json}");
    }

    #[test]
    fn exporter_without_tracing_is_still_valid_shell() {
        let mut sim = Simulation::new(0);
        sim.add_component("a", Emitter);
        let json = chrome_trace(&sim);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"displayTimeUnit\":\"ns\""));
    }
}
