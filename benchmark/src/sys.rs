//! Host readouts (thread CPU time, peak RSS from `/proc`), the host-speed
//! reference kernel, and the small numeric helpers the report needs.
//! 64-bit Linux only: elsewhere the benchmark cannot report `cpu_s` or
//! `peak_rss_mb`, so it refuses to run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ffi::{c_int, c_long};
use std::fs;
use std::hint::black_box;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads host clocks as 64-bit Linux lays them out");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time of the calling thread so far, in seconds, to the nanosecond.
/// Timed ops run on the calling thread: the default engine and the
/// sharded engine at one worker spawn none. (`/proc` counts CPU time in
/// 10 ms ticks, too coarse for one op.)
pub fn thread_cpu_seconds() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the C library
    // std links on Linux provides `clock_gettime`.
    match unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } {
        0 => Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9),
        _ => Err(format!(
            "clock_gettime(CLOCK_THREAD_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        )),
    }
}

/// [`ref_kernel_s`] on the reference host, a shared 2-core x86-64 VM at
/// 2.1 GHz: the median over 40 benchmark runs of its fastest time in a
/// run. Host times scaled by it read as seconds on that host.
pub const REF_KERNEL_S: f64 = 0.015;

/// Wall seconds of a fixed reference kernel: an event heap and a table
/// indexed by pseudo-random keys, like the simulator's scheduler and
/// lookups. It calls nothing in the program, and allocates and faults in
/// nothing while timed, so its time tracks only how fast the host runs
/// right now: other tenants of a shared machine slow it and the
/// benchmark's ops alike.
pub fn ref_kernel_s() -> f64 {
    const KEYS: usize = 1 << 15;
    let mut heap = BinaryHeap::from(vec![Reverse((0u64, 0u64)); 1024]);
    heap.clear();
    // Non-zero, so that every page is written (faulted in) here.
    let mut table = vec![1u64; KEYS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..250_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 100_000, i)));
        table[x as usize % KEYS] ^= x;
        if heap.len() > 512 {
            let Reverse((k, _)) = heap.pop().expect("heap holds 513 keys");
            acc = acc.wrapping_add(table[k as usize % KEYS]);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Reset the peak-RSS high-water mark to the current RSS.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// The `q` quantile (0..=1) of `xs`, linearly interpolated between the
/// closest ranks; infinite if it reaches an infinite sample (a failed
/// op). `xs` must be non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (s[pos.floor() as usize], s[pos.ceil() as usize]);
    if lo == hi {
        lo
    } else {
        lo + (hi - lo) * pos.fract()
    }
}

/// Median of `xs` (non-empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// 64-bit FNV-1a, the digest over every simulated output.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn failed_samples_count_as_infinitely_slow() {
        let xs = [1.0, f64::INFINITY, 2.0, f64::INFINITY];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs), f64::INFINITY);
        assert_eq!(quantile(&xs, 1.0), f64::INFINITY);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn proc_readouts_work_here() {
        let cpu = thread_cpu_seconds().unwrap();
        black_box(ref_kernel_s());
        assert!(thread_cpu_seconds().unwrap() > cpu);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
