//! Measurement helpers: percentiles, process CPU and memory from
//! `/proc/self`, the host's steal time from `/proc/stat`, and the host
//! stamp printed with every run.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::gauge::{process_cpu_ns, Gauge};

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux the benchmark targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `samples` must be sorted ascending and
/// non-empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps a rank that is an integer in decimal (99.9% of
    // 1000) from rounding up through binary floating point.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples (nearest-rank), for repeated timings.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    nearest_rank(samples, 50.0)
}

/// Median per-call time of `f` in microseconds over `reps` calls, each
/// timed on its own.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

/// Samples kept per statistic: exact percentiles up to this many
/// requests, a uniform sample of them beyond, so that `peak_rss_mb` does
/// not grow with throughput.
const RESERVOIR: usize = 1 << 14;

/// A uniform random sample of at most `capacity` values.
struct Reservoir {
    values: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    fn new(seed: u64) -> Self {
        Self::with_capacity(seed, RESERVOIR)
    }

    fn with_capacity(seed: u64, capacity: usize) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: seed,
        }
    }

    fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < self.capacity {
            self.values.push(value);
        } else {
            let slot = crate::fresh::splitmix(&mut self.rng) % self.seen;
            if let Some(v) = self.values.get_mut(slot as usize) {
                *v = value;
            }
        }
    }

    /// Nearest-rank percentiles of the sample; `None` when it is empty.
    fn percentiles<const N: usize>(&mut self, ps: [f64; N]) -> Option<[f64; N]> {
        self.values.sort_by(f64::total_cmp);
        (!self.values.is_empty()).then(|| ps.map(|p| nearest_rank(&self.values, p)))
    }
}

/// Time slices a measured phase is cut into, and how many of them, those
/// the hypervisor stole least from, the CPU figures come from.
const SLICES: u32 = 10;
const QUIET_SLICES: usize = 4;

/// Requests (or windows) whose CPU is kept per slice.
const SLICE_SAMPLES: usize = 1 << 11;

/// Responses per CPU window of a streamed phase.
const STREAM_WINDOW: u64 = 1024;

/// One finished time slice of a [`Load`].
struct Slice {
    metered: Metered,
    served: u64,
    gauge_ns: u64,
    cpu_ms: Reservoir,
}

/// One measured phase. Each request's wall latency is recorded, and its
/// process CPU: per request in a closed loop, where one request is in
/// flight at a time, and as the mean over each window of `STREAM_WINDOW`
/// responses in a streamed run, where requests overlap.
///
/// The phase is cut into `SLICES` time slices, each with its own host
/// steal, and the CPU figures come from the `QUIET_SLICES` slices with the
/// least: a CPU-millisecond costs more while the hypervisor steals (on a
/// shared 2-vCPU Intel Xeon KVM guest, `width-miss` spent 0.68 CPU-ms per
/// request at 0.3% steal and 0.93 at 24%), and steal there swings from 0
/// to over 20% within a minute. A [`Gauge`] runs between requests throughout; CPU
/// figures are reported in nominal milliseconds, its own CPU left out.
pub struct Load {
    total: Meter,
    slice: Meter,
    slice_len: Duration,
    gauge: Gauge,
    gauge_ns_at_slice: u64,
    served: u64,
    served_in_slice: u64,
    window_cpu_ns: u64,
    in_window: u64,
    rng: u64,
    cpu_ms: Reservoir,
    slices: Vec<Slice>,
    wall_ms: Reservoir,
}

/// What a [`Load`] measured.
pub struct Measured {
    pub served: u64,
    /// The whole phase.
    pub metered: Metered,
    /// Host steal over the slices the CPU figures come from, in percent.
    pub quiet_steal_pct: f64,
    /// Mean, p50 and p90 process CPU per request, in nominal ms.
    pub cpu: [f64; 3],
    /// The gauge's median kernel time, in ms of the running host's CPU.
    pub kernel_ms: f64,
    /// p50, p90 and p99 wall latency, in milliseconds.
    pub wall: [f64; 3],
}

impl Load {
    /// Starts a phase of `budget` now; `seed` drives the sampling.
    pub fn start(seed: u64, budget: Duration) -> Self {
        let gauge = Gauge::new(5);
        Self {
            total: Meter::start(),
            slice: Meter::start(),
            slice_len: budget / SLICES,
            gauge_ns_at_slice: gauge.spent_ns(),
            gauge,
            served: 0,
            served_in_slice: 0,
            window_cpu_ns: process_cpu_ns(),
            in_window: 0,
            rng: seed,
            cpu_ms: Reservoir::with_capacity(seed, SLICE_SAMPLES),
            slices: Vec::new(),
            wall_ms: Reservoir::new(seed ^ 1),
        }
    }

    /// Time since the phase started.
    pub fn elapsed(&self) -> Duration {
        self.total.elapsed()
    }

    /// Records one closed-loop request: its wall latency and the process
    /// CPU spent while it was in flight.
    pub fn record(&mut self, wall: Duration, cpu_ns: u64) {
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.cpu_ms.push(cpu_ns as f64 / 1e6);
        self.gauge.tick();
        self.served_one();
    }

    /// Records one response of a streamed run.
    pub fn record_streamed(&mut self, wall: Duration) {
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.in_window += 1;
        if self.in_window == STREAM_WINDOW {
            let now = process_cpu_ns();
            let ns = now - self.window_cpu_ns;
            self.cpu_ms.push(ns as f64 / 1e6 / STREAM_WINDOW as f64);
            self.in_window = 0;
            // The next window starts now, less the gauge's own CPU.
            self.window_cpu_ns = now + self.gauge.tick();
        }
        self.served_one();
    }

    fn served_one(&mut self) {
        self.served += 1;
        self.served_in_slice += 1;
        if self.slice.elapsed() >= self.slice_len {
            self.close_slice();
        }
    }

    fn close_slice(&mut self) {
        let next = Reservoir::with_capacity(crate::fresh::splitmix(&mut self.rng), SLICE_SAMPLES);
        self.slices.push(Slice {
            metered: self.slice.stop(),
            served: self.served_in_slice,
            gauge_ns: self.gauge.spent_ns() - self.gauge_ns_at_slice,
            cpu_ms: std::mem::replace(&mut self.cpu_ms, next),
        });
        self.slice = Meter::start();
        self.served_in_slice = 0;
        self.gauge_ns_at_slice = self.gauge.spent_ns();
    }

    /// Ends the phase.
    pub fn finish(mut self) -> Measured {
        if self.cpu_ms.seen == 0 && self.in_window > 0 {
            // A streamed slice shorter than one window.
            let ns = process_cpu_ns().saturating_sub(self.window_cpu_ns);
            self.cpu_ms.push(ns as f64 / 1e6 / self.in_window as f64);
        }
        if self.served_in_slice > 0 || self.slices.is_empty() {
            self.close_slice();
        }
        let metered = self.total.stop();
        let mut quiet: Vec<&mut Slice> = self
            .slices
            .iter_mut()
            .filter(|s| s.cpu_ms.seen > 0)
            .collect();
        quiet.sort_by(|a, b| a.metered.steal_pct.total_cmp(&b.metered.steal_pct));
        quiet.truncate(QUIET_SLICES);
        let (mut served, mut cpu_ns, mut wall, mut stolen) = (0, 0.0, 0.0, 0.0);
        let mut pooled = Reservoir::with_capacity(0, QUIET_SLICES * SLICE_SAMPLES);
        for slice in &mut quiet {
            served += slice.served;
            cpu_ns += slice.metered.cpu.as_nanos() as f64 - slice.gauge_ns as f64;
            wall += slice.metered.wall.as_secs_f64();
            stolen += slice.metered.steal_pct * slice.metered.wall.as_secs_f64();
            for &v in &slice.cpu_ms.values {
                pooled.push(v);
            }
        }
        let factor = self.gauge.factor();
        let mean = cpu_ns.max(0.0) / 1e6 / served.max(1) as f64;
        let [p50, p90] = pooled.percentiles([50.0, 90.0]).unwrap_or([0.0; 2]);
        Measured {
            served: self.served,
            metered,
            quiet_steal_pct: stolen / wall.max(f64::MIN_POSITIVE),
            cpu: [mean, p50, p90].map(|ms| ms * factor),
            kernel_ms: self.gauge.kernel_ms(),
            wall: self
                .wall_ms
                .percentiles([50.0, 90.0, 99.0])
                .unwrap_or([0.0; 3]),
        }
    }
}

/// Runs the workload's set-up in `children` fresh processes of this
/// benchmark, one after another, and returns their nominal set-up CPU
/// seconds. Each
/// set-up runs alone in its process, so none of them leaves memory behind
/// in the measured one.
pub fn child_set_ups(workload: &str, children: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("locating the benchmark executable");
    (0..children)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--setup-only"])
                .output()
                .expect("running a set-up process");
            assert!(out.status.success(), "set-up process failed: {out:?}");
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse().ok())
                .expect("set-up process prints setup_s")
        })
        .collect()
}

/// User plus system CPU ticks from the text of `/proc/self/stat`: fields
/// 14 and 15, counted after the parenthesised command name (which may
/// itself hold spaces and parentheses).
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (the state), so field N is `fields[N - 3]`.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU time (user + system, all threads) so far.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    let ticks = parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    Duration::from_secs_f64(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status has VmHWM");
    kb / 1024.0
}

/// The aggregate `cpu` line of `/proc/stat` as (steal ticks, total ticks).
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let values: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let total = values.iter().take(8).sum();
    (values.get(7).copied().unwrap_or(0), total)
}

/// Process CPU and host steal over one measured phase.
pub struct Meter {
    wall: Instant,
    cpu: Duration,
    host: (u64, u64),
}

/// What a [`Meter`] saw.
pub struct Metered {
    pub wall: Duration,
    pub cpu: Duration,
    /// Share of all host CPU time stolen by the hypervisor, in percent.
    pub steal_pct: f64,
}

impl Meter {
    pub fn start() -> Self {
        Self {
            host: host_ticks(),
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.wall.elapsed()
    }

    pub fn stop(&self) -> Metered {
        let wall = self.wall.elapsed();
        let cpu = process_cpu() - self.cpu;
        let (steal, total) = host_ticks();
        let total = total.saturating_sub(self.host.1);
        let steal_pct = if total == 0 {
            0.0
        } else {
            100.0 * steal.saturating_sub(self.host.0) as f64 / total as f64
        };
        Metered {
            wall,
            cpu,
            steal_pct,
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host stamp as one JSON object: processor count, CPU model,
/// compiler, source revision (`unknown` outside a git checkout) and the
/// steal share measured over the run.
pub fn host_stamp(steal_pct: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let esc = |s: String| s.replace(['"', '\\'], "_");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"host.steal_pct\": {steal_pct}}}",
        esc(cpu),
        esc(command_line("rustc", &["--version"])),
        esc(command_line("git", &["rev-parse", "--short=12", "HEAD"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 5.0);
        assert_eq!(nearest_rank(&samples, 90.0), 9.0);
        assert_eq!(nearest_rank(&samples, 91.0), 10.0);
        assert_eq!(nearest_rank(&samples, 99.0), 10.0);
        assert_eq!(nearest_rank(&samples, 100.0), 10.0);
        assert_eq!(nearest_rank(&samples, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
        // Two outliers in 1000: p99 stays on the bulk, p99.9 reaches one.
        let mut tail = vec![1.0; 998];
        tail.extend([50.0, 60.0]);
        assert_eq!(nearest_rank(&tail, 99.0), 1.0);
        assert_eq!(nearest_rank(&tail, 99.9), 50.0);
    }

    #[test]
    fn median_sorts_its_input() {
        let mut samples = [3.0, 1.0, 2.0, 9.0];
        assert_eq!(median(&mut samples), 2.0);
    }

    #[test]
    fn a_reservoir_keeps_every_value_until_full_then_a_fixed_sample() {
        let mut r = Reservoir::new(7);
        for v in 1..=10 {
            r.push(f64::from(v));
        }
        assert_eq!(r.percentiles([50.0, 90.0]), Some([5.0, 9.0]));
        for v in 0..(3 * RESERVOIR) {
            r.push(v as f64);
        }
        assert_eq!(r.values.len(), RESERVOIR);
        assert_eq!(Reservoir::new(1).percentiles([50.0]), None);
    }

    #[test]
    fn a_load_reports_cpu_and_wall_percentiles() {
        let mut load = Load::start(1, Duration::from_secs(3600));
        for ms in 1..=10 {
            load.record(Duration::from_millis(ms), ms * 2_000_000);
        }
        let m = load.finish();
        assert_eq!(m.served, 10);
        let raw = m
            .cpu
            .map(|ms| ms * m.kernel_ms / crate::gauge::NOMINAL_KERNEL_MS);
        assert!((raw[1] - 10.0).abs() < 1e-9 && (raw[2] - 18.0).abs() < 1e-9);
        assert_eq!(m.wall, [5.0, 9.0, 10.0]);
        let mut streamed = Load::start(1, Duration::from_secs(3600));
        streamed.record_streamed(Duration::from_millis(1));
        assert!(streamed.finish().cpu[1] >= 0.0);
    }

    #[test]
    fn a_load_takes_cpu_figures_from_its_least_stolen_slices() {
        let mut load = Load::start(1, Duration::from_millis(100));
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(100) {
            std::thread::sleep(Duration::from_millis(2));
            load.record(Duration::from_millis(2), 1_000_000);
        }
        assert!(load.slices.len() >= SLICES as usize - 1);
        let m = load.finish();
        let raw = m.cpu[1] * m.kernel_ms / crate::gauge::NOMINAL_KERNEL_MS;
        assert!((raw - 1.0).abs() < 1e-9, "{raw}");
        assert!(m.quiet_steal_pct <= m.metered.steal_pct + 1e-9 || m.metered.steal_pct == 0.0);
    }

    #[test]
    fn cpu_ticks_are_fields_fourteen_and_fifteen() {
        let stat = "4242 (perf bench) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    37 5 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        // A command name holding ") " must not shift the fields.
        let tricky = "7 (a) b) R 1 7 7 0 -1 0 0 0 0 0 100 23 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(tricky), Some(123));
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn this_process_reports_cpu_and_memory() {
        let before = process_cpu();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
