//! The soctam benchmark: three workloads, one per kind of traffic the DAC
//! 2002 flow serves, each measured end to end (untraced) or layer by
//! layer (traced). See `perfbench/NOTES.md` for why each workload exists
//! and which layers it loads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh-soc|width-miss|hit-wire --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod fresh;
mod gauge;
mod layers;
mod stats;
mod wire;

use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("cpu_ms_per_req", "ms"),
    ("cpu_p50_ms", "ms"),
    ("cpu_p90_ms", "ms"),
    ("makespan_over_lb", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("wrapper.rect_builds_per_req", "count"),
    ("wrapper.rect_build_us", "us"),
    ("menus.builds_per_req", "count"),
    ("menus.build_ms", "ms"),
    ("registry.hit_ratio", "ratio"),
    ("registry.evictions_per_req", "count"),
    ("context.compile_us", "us"),
    ("optimizer.sweep_ms", "ms"),
    ("optimizer.runs_executed_per_req", "count"),
    ("optimizer.runs_cut_per_req", "count"),
    ("optimizer.useful_ratio", "ratio"),
    ("optimizer.parallel_speedup", "ratio"),
    ("validate.us", "us"),
    ("tam.assign_us", "us"),
    ("solution_cache.hit_ratio", "ratio"),
    ("solution_cache.evictions_per_req", "count"),
    ("engine.hit_us", "us"),
    ("engine.miss_ms", "ms"),
    ("engine.digest_us_d695", "us"),
    ("engine.digest_us_p93791", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("server.wire_us", "us"),
    ("server.sheds", "count"),
    ("trace.resolve_us", "us"),
    ("trace.cache_lookup_us", "us"),
    ("trace.context_compile_us", "us"),
    ("trace.menu_build_us", "us"),
    ("trace.sweep_us", "us"),
    ("trace.validate_us", "us"),
    ("trace.render_us", "us"),
    ("trace.unaccounted_us", "us"),
    ("trace.overhead_pct", "%"),
    ("balance.overhead_us", "us"),
    ("host.steal_pct", "%"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fresh-soc", "width-miss", "hit-wire"];

/// Set-ups timed per untraced run: this many in child processes, plus
/// the measured process's own.
const SETUP_CHILDREN: usize = 2;

/// One run's settings, from the command line.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: Duration,
    /// Set-up seconds measured in child processes.
    child_setups: Vec<f64>,
}

impl RunArgs {
    /// `setup_s`: the median of the child set-ups and this process's own.
    pub fn setup_s(&self, own: f64) -> f64 {
        let mut all = self.child_setups.clone();
        all.push(own);
        stats::median(&mut all)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Gate violations; any one makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    pub steal_pct: f64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Fills the end-to-end metrics from a measured phase.
    pub fn end_to_end(&mut self, m: &stats::Measured, makespan_over_lb: f64, setup_s: f64) {
        let served = m.served.max(1) as f64;
        self.metric("cpu_ms_per_req", m.cpu[0]);
        self.metric("cpu_p50_ms", m.cpu[1]);
        self.metric("cpu_p90_ms", m.cpu[2]);
        self.metric("makespan_over_lb", makespan_over_lb);
        self.metric("setup_s", setup_s);
        self.metric("peak_rss_mb", stats::peak_rss_mb());
        let wall = m.metered.wall.as_secs_f64();
        let [p50, p90, p99] = m.wall;
        self.notes.push(format!(
            "wall clock (informational, not metrics): {} requests in {wall:.3} s = \
             {:.1}/s; latency p50 {p50:.4} ms, p90 {p90:.4} ms, p99 {p99:.4} ms",
            m.served,
            served / wall,
        ));
        self.notes.push(format!(
            "CPU figures from the least-stolen slices (steal {:.1}%, whole run {:.1}%), \
             scaled by the host speed gauge: kernel {:.4} ms (nominal {}), factor {:.4}",
            m.quiet_steal_pct,
            m.metered.steal_pct,
            m.kernel_ms,
            gauge::NOMINAL_KERNEL_MS,
            gauge::NOMINAL_KERNEL_MS / m.kernel_ms,
        ));
        self.steal_pct = m.metered.steal_pct;
    }

    /// Records a gate: a violation unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The result line. Panics if the metrics are not exactly `expected`,
    /// which would be a bug in the benchmark.
    fn result_json(&self, expected: &[(&str, &str)]) -> String {
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "the run must emit exactly its metric set");
        let metrics: Vec<String> = expected
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("checked")
                    .1;
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty() && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args(args: &[String]) -> Result<(String, RunArgs, bool), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let run = RunArgs {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        child_setups: Vec::new(),
    };
    Ok((workload, run, trace))
}

/// `--workload W --setup-only`: one set-up of `W`, timed, in a process of
/// its own (see [`stats::child_set_ups`]).
fn set_up_only(workload: &str) -> f64 {
    match workload {
        "fresh-soc" => fresh::set_up_seconds(),
        "width-miss" => wire::width_miss_set_up().1,
        _ => wire::hit_wire_set_up(&wire::hot_set()).2,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--setup-only") {
        return match args
            .iter()
            .position(|a| a == "--workload")
            .and_then(|i| args.get(i + 1))
        {
            Some(w) if WORKLOADS.contains(&w.as_str()) => {
                println!("setup_s {}", set_up_only(w));
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("error: --setup-only needs a known --workload");
                ExitCode::from(2)
            }
        };
    }
    let (workload, mut run, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !trace {
        run.child_setups = stats::child_set_ups(&workload, SETUP_CHILDREN);
    }
    let mut report = match (workload.as_str(), trace) {
        ("fresh-soc", false) => fresh::run(&run),
        ("fresh-soc", true) => fresh::run_traced(&run),
        ("width-miss", false) => wire::width_miss(&run),
        ("width-miss", true) => wire::width_miss_traced(&run),
        ("hit-wire", false) => wire::hit_wire(&run),
        ("hit-wire", true) => wire::hit_wire_traced(&run),
        _ => unreachable!("workload validated above"),
    };
    if trace {
        report.metric("host.steal_pct", report.steal_pct);
    }
    for note in &report.notes {
        println!("{workload}: {note}");
    }
    for violation in &report.violations {
        println!("{workload}: GATE FAILED: {violation}");
    }
    println!("host: {}", stats::host_stamp(report.steal_pct));
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, value) in &report.metrics {
        let unit = expected
            .iter()
            .find(|(n, _)| n == name)
            .map_or("?", |(_, u)| u);
        println!("{workload}: {name} = {value:.6} {unit}");
    }
    println!("{}", report.result_json(expected));
    ExitCode::SUCCESS
}
