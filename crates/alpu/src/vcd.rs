//! VCD (Value Change Dump) waveform capture for the cycle model.
//!
//! Hardware teams debug units like the ALPU by staring at waveforms; the
//! cycle model can produce them too. [`VcdRecorder`] samples a signal set
//! each cycle — FSM state, array occupancy, FIFO depths, pipeline
//! activity — and renders a standard IEEE-1364 VCD text file loadable in
//! GTKWave or any waveform viewer.

use crate::engine::{Alpu, State};
use std::fmt::Write as _;

/// One sampled signal set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Sample {
    state: u8,
    occupied: u16,
    headers: u16,
    commands: u16,
    responses: u16,
    busy: bool,
}

/// Records per-cycle ALPU activity and renders VCD.
#[derive(Debug, Default)]
pub struct VcdRecorder {
    samples: Vec<(u64, Sample)>, // (cycle, values) — change points only
    last: Option<Sample>,
    cycles: u64,
    period_ns: u64,
}

impl VcdRecorder {
    /// A recorder assuming `period_ns` nanoseconds per cycle (for the VCD
    /// timescale; 2 ns = the 500 MHz ASIC projection).
    pub fn new(period_ns: u64) -> VcdRecorder {
        VcdRecorder {
            samples: Vec::new(),
            last: None,
            cycles: 0,
            period_ns: period_ns.max(1),
        }
    }

    /// Sample the unit *after* one of its cycles; call once per tick.
    pub fn sample(&mut self, alpu: &Alpu) {
        let s = Sample {
            state: match alpu.state() {
                State::Match => 0,
                State::ReadCommand => 1,
                State::Insert => 2,
            },
            occupied: alpu.occupied() as u16,
            headers: alpu.headers_pending() as u16,
            commands: alpu.commands_pending() as u16,
            responses: alpu.responses_pending() as u16,
            busy: !alpu.idle(),
        };
        if self.last != Some(s) {
            self.samples.push((self.cycles, s));
            self.last = Some(s);
        }
        self.cycles += 1;
    }

    /// Cycles sampled so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Distinct change points recorded.
    pub fn changes(&self) -> usize {
        self.samples.len()
    }

    /// Render the capture as VCD text.
    pub fn render(&self, module: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date mpiq alpu cycle model $end");
        let _ = writeln!(out, "$timescale {}ns $end", self.period_ns);
        let _ = writeln!(out, "$scope module {module} $end");
        let _ = writeln!(out, "$var wire 2 s state $end");
        let _ = writeln!(out, "$var wire 16 o occupied $end");
        let _ = writeln!(out, "$var wire 16 h headers_pending $end");
        let _ = writeln!(out, "$var wire 16 c commands_pending $end");
        let _ = writeln!(out, "$var wire 16 r responses_pending $end");
        let _ = writeln!(out, "$var wire 1 b busy $end");
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        for &(cycle, s) in &self.samples {
            let _ = writeln!(out, "#{cycle}");
            let _ = writeln!(out, "b{:02b} s", s.state);
            let _ = writeln!(out, "b{:b} o", s.occupied);
            let _ = writeln!(out, "b{:b} h", s.headers);
            let _ = writeln!(out, "b{:b} c", s.commands);
            let _ = writeln!(out, "b{:b} r", s.responses);
            let _ = writeln!(out, "{}b", u8::from(s.busy));
        }
        let _ = writeln!(out, "#{}", self.cycles);
        out
    }
}

/// Convenience: run `f` to enqueue work, then tick the unit to idle while
/// recording, returning the rendered VCD.
pub fn capture<F: FnOnce(&mut Alpu)>(alpu: &mut Alpu, period_ns: u64, f: F) -> String {
    let mut rec = VcdRecorder::new(period_ns);
    f(alpu);
    rec.sample(alpu);
    let mut guard = 0u64;
    while !alpu.idle() {
        alpu.tick();
        rec.sample(alpu);
        guard += 1;
        assert!(guard < 1_000_000, "capture did not converge");
    }
    rec.render("alpu")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlpuConfig, AlpuKind, Command};
    use crate::match_types::{Entry, MatchWord, Probe};

    fn unit() -> Alpu {
        Alpu::new(AlpuConfig::new(16, 4, AlpuKind::PostedReceive))
    }

    #[test]
    fn vcd_has_header_and_signals() {
        let mut a = unit();
        let vcd = capture(&mut a, 2, |a| {
            a.push_command(Command::StartInsert).unwrap();
            a.push_command(Command::Insert(Entry::mpi_recv(1, Some(0), Some(5), 1)))
                .unwrap();
            a.push_command(Command::StopInsert).unwrap();
        });
        assert!(vcd.contains("$timescale 2ns $end"));
        assert!(vcd.contains("$var wire 2 s state $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        // Insert mode (state 2 = b10) must appear somewhere.
        assert!(vcd.contains("b10 s"), "insert state missing:\n{vcd}");
        // Occupancy reaches 1.
        assert!(vcd.contains("b1 o"));
    }

    #[test]
    fn recorder_stores_changes_only() {
        let mut rec = VcdRecorder::new(2);
        let a = unit();
        for _ in 0..100 {
            rec.sample(&a); // identical idle samples
        }
        assert_eq!(rec.cycles(), 100);
        assert_eq!(rec.changes(), 1, "only the first sample is a change");
    }

    #[test]
    fn match_pipeline_shows_busy_window() {
        let mut a = unit();
        // Preload one entry.
        a.push_command(Command::StartInsert).unwrap();
        a.push_command(Command::Insert(Entry::mpi_recv(1, Some(0), Some(5), 7)))
            .unwrap();
        a.push_command(Command::StopInsert).unwrap();
        a.run_to_idle(10_000);
        while a.pop_response().is_some() {}
        let vcd = capture(&mut a, 2, |a| {
            a.push_header(Probe::exact(MatchWord::mpi(1, 0, 5)))
                .unwrap();
        });
        assert!(vcd.contains("1b"), "busy must assert:\n{vcd}");
        assert!(vcd.contains("0b"), "busy must deassert");
    }
}
