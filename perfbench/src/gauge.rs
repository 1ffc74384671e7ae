//! CPU clocks and the host-speed gauge.
//!
//! On a shared host the speed of a CPU-second drifts: the hypervisor's
//! neighbours contend for caches and cores, so the same request costs
//! anywhere from 0.72 to 0.98 CPU-ms from one minute to the next on a
//! shared 2-vCPU Intel Xeon KVM guest. The gauge times a fixed,
//! program-independent kernel (a pointer chase through 1 MiB mixed with
//! multiplies) on the measuring thread throughout a run. Dividing by its
//! median expresses each CPU time in "nominal" milliseconds: what the
//! request would have cost on a host where the kernel takes
//! `NOMINAL_KERNEL_MS`. Across runs minutes apart this halved the spread
//! of per-request CPU.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel's thread CPU time on a quiet 2-vCPU Intel Xeon KVM guest;
/// normalized times are expressed relative to it.
pub const NOMINAL_KERNEL_MS: f64 = 0.1;

/// How often a running phase re-times the kernel.
const PROBE_EVERY: Duration = Duration::from_millis(50);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const PROCESS_CLOCK: i32 = 2;
const THREAD_CLOCK: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (every thread, live or exited) at
/// nanosecond resolution. It moves far less with host steal than wall
/// time does.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(PROCESS_CLOCK)
}

/// CPU time of the calling thread, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(THREAD_CLOCK)
}

/// Runs the kernel once; returns its thread CPU time in nanoseconds.
fn probe(table: &[u64]) -> u64 {
    let start = thread_cpu_ns();
    let mask = table.len() - 1;
    let (mut x, mut acc) = (1u64, 0u64);
    for _ in 0..20_000 {
        x = table[x as usize & mask]
            ^ x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(x >> 7);
    }
    black_box(acc);
    thread_cpu_ns() - start
}

/// Kernel timings taken over a phase.
pub struct Gauge {
    table: Vec<u64>,
    probes_ms: Vec<f64>,
    spent_ns: u64,
    last: Instant,
}

impl Gauge {
    /// Builds the kernel's table and warms it, then takes `probes`
    /// timings.
    pub fn new(probes: usize) -> Self {
        let table: Vec<u64> = (0..1u64 << 17)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 47)
            .collect();
        for _ in 0..3 {
            probe(&table);
        }
        let mut gauge = Self {
            table,
            probes_ms: Vec::new(),
            spent_ns: 0,
            last: Instant::now(),
        };
        for _ in 0..probes {
            gauge.probe_now();
        }
        gauge
    }

    fn probe_now(&mut self) -> u64 {
        let ns = probe(&self.table);
        self.probes_ms.push(ns as f64 / 1e6);
        self.spent_ns += ns;
        self.last = Instant::now();
        ns
    }

    /// Times the kernel if `PROBE_EVERY` has passed since the last timing;
    /// returns the CPU nanoseconds the timing spent (0 if none was due).
    pub fn tick(&mut self) -> u64 {
        if self.last.elapsed() >= PROBE_EVERY {
            self.probe_now()
        } else {
            0
        }
    }

    /// CPU nanoseconds spent timing the kernel so far.
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// The median kernel time, in milliseconds.
    pub fn kernel_ms(&mut self) -> f64 {
        median(&mut self.probes_ms)
    }

    /// Multiplier from the running host's CPU time to nominal CPU time.
    pub fn factor(&mut self) -> f64 {
        NOMINAL_KERNEL_MS / self.kernel_ms()
    }
}

/// Nominal process CPU seconds `f` takes, with its result: its CPU time
/// scaled by a gauge read just before it.
pub fn nominal_cpu_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let factor = Gauge::new(30).factor();
    let before = process_cpu_ns();
    let out = f();
    let secs = (process_cpu_ns() - before) as f64 / 1e9;
    (out, secs * factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p, t) = (process_cpu_ns(), thread_cpu_ns());
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(20) {
            x = black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu_ns() - t > 10_000_000);
        assert!(process_cpu_ns() - p >= thread_cpu_ns() - t - 1_000_000);
    }

    #[test]
    fn the_gauge_times_the_kernel_and_accounts_for_its_cost() {
        let mut gauge = Gauge::new(5);
        assert_eq!(gauge.probes_ms.len(), 5);
        assert_eq!(gauge.tick(), 0, "no probe is due right after one");
        std::thread::sleep(PROBE_EVERY);
        assert!(gauge.tick() > 0);
        let ms = gauge.kernel_ms();
        assert!(ms > 0.0 && ms < 100.0, "{ms}");
        let spent: f64 = gauge.probes_ms.iter().sum();
        assert!((gauge.spent_ns() as f64 / 1e6 - spent).abs() < 1e-6);
        assert!((gauge.factor() - NOMINAL_KERNEL_MS / ms).abs() < 1e-12);
    }
}
