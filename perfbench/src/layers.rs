//! The traced run's layer measurements, shared by every workload: counter
//! deltas across a traced pass, per-phase trace totals, and direct timings
//! of each layer's public function on the workload's own inputs.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use soctam_core::engine::{solution_cache_digest, Engine, EngineOp, EngineRequest};
use soctam_core::flow::{ParamSweep, TestFlow};
use soctam_core::protocol::{self, parse_request, render_result};
use soctam_core::schedule::obs::{Phase, TraceTree};
use soctam_core::schedule::validate::validate_with;
use soctam_core::schedule::{
    instrument, schedule_best_with_stats, CompiledSoc, RectangleMenus, RegistryStats,
    SchedulerConfig, SolutionCacheStats,
};
use soctam_core::soc::{benchmarks, Soc};
use soctam_core::tam::WireAssignment;
use soctam_core::wrapper::{self, RectangleSet};

use crate::stats::median_us;
use crate::Report;

/// The phases a request's trace is split into, with their metric names.
/// (`proxy` is the balancer's own phase; `balance.overhead_us` covers it.)
pub const PHASES: [(Phase, &str); 7] = [
    (Phase::Resolve, "trace.resolve_us"),
    (Phase::CacheLookup, "trace.cache_lookup_us"),
    (Phase::ContextCompile, "trace.context_compile_us"),
    (Phase::MenuBuild, "trace.menu_build_us"),
    (Phase::Sweep, "trace.sweep_us"),
    (Phase::Validate, "trace.validate_us"),
    (Phase::Render, "trace.render_us"),
];

/// Per-cap width every request of the protocol compiles at.
const W_MAX: u16 = benchmarks::W_MAX;

/// One request of a workload, as a protocol line and as parsed.
pub struct Sample {
    pub line: String,
    pub req: EngineRequest,
}

/// Process and engine counters at one instant.
pub struct Counters {
    rect_builds: u64,
    menu_builds: u64,
    schedule_runs: u64,
    registry: RegistryStats,
    solutions: SolutionCacheStats,
}

impl Counters {
    pub fn take(engine: &Engine) -> Self {
        Self {
            rect_builds: wrapper::instrument::rectangle_set_builds(),
            menu_builds: instrument::menu_builds(),
            schedule_runs: instrument::schedule_runs(),
            registry: engine.registry().stats(),
            solutions: engine.solution_stats().unwrap_or_default(),
        }
    }

    /// The context-registry and solution-cache hit ratios between `self`
    /// and `after`; 0 for a cache that saw no lookups.
    pub fn hit_ratios(&self, after: &Self) -> (f64, f64) {
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let (r0, r1) = (&self.registry, &after.registry);
        let (s0, s1) = (&self.solutions, &after.solutions);
        (
            ratio(r1.hits - r0.hits, r1.misses - r0.misses),
            ratio(
                s1.hits - s0.hits,
                (s1.misses - s0.misses) + (s1.coalesced - s0.coalesced),
            ),
        )
    }

    /// Emits the counter metrics for `requests` requests served between
    /// `self` and `after`, and returns the hit ratios for the workload's
    /// gates.
    pub fn emit(&self, after: &Self, requests: u64, report: &mut Report) -> (f64, f64) {
        let per_req = |d: u64| d as f64 / requests.max(1) as f64;
        let (registry, solutions) = self.hit_ratios(after);
        let (r0, r1) = (&self.registry, &after.registry);
        let (s0, s1) = (&self.solutions, &after.solutions);
        report.notes.push(format!(
            "registry lookups {}, solution-cache lookups {} over {requests} traced requests",
            (r1.hits + r1.misses) - (r0.hits + r0.misses),
            (s1.hits + s1.misses + s1.coalesced) - (s0.hits + s0.misses + s0.coalesced),
        ));
        report.metric(
            "wrapper.rect_builds_per_req",
            per_req(after.rect_builds - self.rect_builds),
        );
        report.metric(
            "menus.builds_per_req",
            per_req(after.menu_builds - self.menu_builds),
        );
        report.metric(
            "optimizer.runs_executed_per_req",
            per_req(after.schedule_runs - self.schedule_runs),
        );
        report.metric("registry.hit_ratio", registry);
        report.metric(
            "registry.evictions_per_req",
            per_req(r1.evictions - r0.evictions),
        );
        report.metric("solution_cache.hit_ratio", solutions);
        report.metric(
            "solution_cache.evictions_per_req",
            per_req(s1.evictions - s0.evictions),
        );
        (registry, solutions)
    }
}

/// Per-phase exclusive time summed over a traced pass, against the time
/// the caller saw.
#[derive(Default)]
pub struct PhaseTotals {
    micros: [f64; PHASES.len()],
    observed_us: f64,
    requests: u64,
}

impl PhaseTotals {
    /// Adds one request: its per-phase exclusive micros and the latency
    /// its caller observed.
    pub fn add(&mut self, phases: [f64; PHASES.len()], observed_us: f64) {
        for (sum, v) in self.micros.iter_mut().zip(phases) {
            *sum += v;
        }
        self.observed_us += observed_us;
        self.requests += 1;
    }

    pub fn add_tree(&mut self, tree: &TraceTree, observed_us: f64) {
        self.add(
            PHASES.map(|(phase, _)| tree.phase_total(phase) as f64),
            observed_us,
        );
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Mean observed latency per request, in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.observed_us / self.requests.max(1) as f64
    }

    /// Emits the `trace.*` metrics; `untraced_mean_us` is the same
    /// traffic's mean latency with tracing off.
    pub fn emit(&self, untraced_mean_us: f64, report: &mut Report) {
        let n = self.requests.max(1) as f64;
        for ((_, name), sum) in PHASES.iter().zip(self.micros) {
            report.metric(name, sum / n);
        }
        let accounted: f64 = self.micros.iter().sum();
        report.metric("trace.unaccounted_us", (self.observed_us - accounted) / n);
        report.metric(
            "trace.overhead_pct",
            100.0 * (self.mean_us() - untraced_mean_us) / untraced_mean_us,
        );
    }
}

/// The exclusive phase micros of a `--trace` wire response, read from its
/// `"phases": {...}` object.
pub fn response_phases(response: &str) -> Option<[f64; PHASES.len()]> {
    let start = response.find("\"phases\": {")?;
    let body = &response[start..start + response[start..].find('}')?];
    let mut out = [0.0; PHASES.len()];
    for (slot, (phase, _)) in out.iter_mut().zip(PHASES) {
        *slot = number_field(body, phase.label())?;
    }
    Some(out)
}

/// The first `"field": <number>` in a JSON line.
pub fn number_field(line: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Times each layer's public function on the workload's own requests and
/// emits the layer metrics not taken from counters or traces. `samples`
/// must hold at least one schedule request.
pub fn time_layers(samples: &[Sample], report: &mut Report) {
    let reps = 5;
    let socs: Vec<Arc<Soc>> = {
        let mut seen = HashMap::new();
        for s in samples {
            seen.entry(s.req.soc.name().to_owned())
                .or_insert_with(|| Arc::clone(&s.req.soc));
        }
        let mut socs: Vec<_> = seen.into_values().collect();
        socs.sort_by(|a, b| a.name().cmp(b.name()));
        socs
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;

    // wrapper: one rectangle set per core at the full cap.
    report.metric(
        "wrapper.rect_build_us",
        mean(
            socs.iter()
                .map(|soc| {
                    median_us(reps, || {
                        for core in soc.cores() {
                            black_box(RectangleSet::build(core.test(), W_MAX));
                        }
                    }) / soc.len() as f64
                })
                .collect(),
        ),
    );
    // schedule::menus: a whole-SOC menu build.
    report.metric(
        "menus.build_ms",
        mean(
            socs.iter()
                .map(|soc| {
                    median_us(reps, || drop(black_box(RectangleMenus::build(soc, W_MAX)))) / 1e3
                })
                .collect(),
        ),
    );
    // schedule::context: a context compile (constraint tables; menus lazy).
    report.metric(
        "context.compile_us",
        mean(
            socs.iter()
                .map(|soc| {
                    median_us(reps, || {
                        drop(black_box(CompiledSoc::compile_arc(Arc::clone(soc), W_MAX)));
                    })
                })
                .collect(),
        ),
    );

    // schedule::optimizer, validate, tam: over warmed contexts, so each
    // timing holds only its own layer's work.
    let contexts: HashMap<(String, Option<u64>), Arc<CompiledSoc>> = samples
        .iter()
        .map(|s| {
            let budget = s.req.flow.power.resolve(&s.req.soc);
            let ctx = CompiledSoc::compile_arc(Arc::clone(&s.req.soc), s.req.flow.w_max);
            ((s.req.soc.name().to_owned(), budget), Arc::new(ctx))
        })
        .collect();
    let grid = ParamSweep::quick();
    let (mut sweep_us, mut seq_us, mut par_us) = (Vec::new(), 0.0, 0.0);
    let (mut validate_us, mut assign_us) = (Vec::new(), Vec::new());
    let (mut executed, mut total, mut cut, mut sweeps) = (0usize, 0usize, 0usize, 0usize);
    for s in samples {
        let EngineOp::Schedule { width } = s.req.op else {
            continue;
        };
        let budget = s.req.flow.power.resolve(&s.req.soc);
        let ctx = &contexts[&(s.req.soc.name().to_owned(), budget)];
        let mut base = SchedulerConfig::new(width);
        base.w_max = s.req.flow.w_max;
        base.allow_preemption = s.req.flow.allow_preemption;
        base.p_max = budget;
        let _ = ctx.lower_bound(width);
        let run = || {
            schedule_best_with_stats(ctx, &base, grid.percents.clone(), grid.bumps.clone(), true)
        };
        let (schedule, _, _, stats) = run().expect("workload requests are schedulable");
        sweep_us.push(median_us(reps, || drop(black_box(run()))));
        executed += stats.runs_executed;
        total += stats.runs_total;
        cut += stats.runs_cut;
        sweeps += 1;

        let flow = |parallel| {
            TestFlow::with_context(Arc::clone(ctx), s.req.flow.clone().with_parallel(parallel))
        };
        let (seq, par) = (flow(false), flow(true));
        seq_us += median_us(reps, || drop(black_box(seq.best_schedule(width))));
        par_us += median_us(reps, || drop(black_box(par.best_schedule(width))));

        validate_us.push(median_us(reps, || {
            validate_with(ctx, &schedule).expect("served schedules validate");
        }));
        assign_us.push(median_us(reps, || {
            drop(black_box(WireAssignment::assign(&schedule)))
        }));
    }
    assert!(sweeps > 0, "layer timings need a schedule request");
    report.metric("optimizer.sweep_ms", mean(sweep_us) / 1e3);
    report.metric("optimizer.runs_cut_per_req", cut as f64 / sweeps as f64);
    report.metric("optimizer.useful_ratio", executed as f64 / total as f64);
    report.metric("optimizer.parallel_speedup", seq_us / par_us);
    report.metric("validate.us", mean(validate_us));
    report.metric("tam.assign_us", mean(assign_us));

    // core::engine: a solution-cache hit, and a solve on a compiled context
    // with no solution cache in front of it.
    let cached = Engine::new().with_solution_cache(samples.len().max(1), None);
    let uncached = Engine::new();
    let (mut hit_us, mut miss_us, mut parse_us, mut render_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut resolver = |name: &str| {
        socs.iter()
            .find(|s| s.name() == name)
            .map(Arc::clone)
            .ok_or_else(|| format!("unknown SOC `{name}`"))
    };
    for s in samples {
        let result = cached.serve_one(&s.req);
        assert!(result.is_ok(), "workload requests are servable");
        hit_us.push(median_us(reps, || {
            drop(black_box(cached.serve_one(&s.req)))
        }));
        if matches!(s.req.op, EngineOp::Schedule { .. }) {
            let _ = uncached.serve_one(&s.req);
            miss_us.push(median_us(reps, || {
                drop(black_box(uncached.serve_one(&s.req)))
            }));
        }
        parse_us.push(median_us(reps, || {
            black_box(parse_request(&s.line, &mut resolver).expect("sample lines parse"));
        }));
        render_us.push(median_us(reps, || {
            drop(black_box(render_result(&s.req, &result)))
        }));
    }
    report.metric("engine.hit_us", mean(hit_us));
    report.metric("engine.miss_ms", mean(miss_us) / 1e3);
    report.metric("protocol.parse_us", mean(parse_us));
    report.metric("protocol.render_us", mean(render_us));
    for (metric, name) in [
        ("engine.digest_us_d695", "d695"),
        ("engine.digest_us_p93791", "p93791"),
    ] {
        let soc = Arc::new(benchmarks::by_name(name).expect("benchmark SOC"));
        let req = EngineRequest::schedule(soc, protocol::request_flow(false, false), 32);
        // One digest is well under the clock's resolution: time batches.
        report.metric(
            metric,
            median_us(reps, || {
                for _ in 0..100 {
                    black_box(solution_cache_digest(black_box(&req)));
                }
            }) / 100.0,
        );
    }
}
