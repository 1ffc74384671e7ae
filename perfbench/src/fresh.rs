//! `fresh-soc`: wrapper/TAM co-optimization of SOCs the engine has never
//! seen. One closed-loop caller drives `Engine::serve_one` in process;
//! every request is a new synthetic SOC, so every request misses the
//! context registry and pays wrapper design and menu build.

use std::sync::Arc;
use std::time::Instant;

use soctam_core::engine::{Engine, EngineOutput, EngineRequest};
use soctam_core::protocol::request_flow;
use soctam_core::schedule::{obs, validate, ContextRegistry};
use soctam_core::soc::{benchmarks, synth::SynthConfig};

use crate::gauge::{nominal_cpu_seconds, process_cpu_ns};
use crate::layers::{self, Counters, PhaseTotals, Sample};
use crate::stats::{Load, Meter};
use crate::{wire, Report, RunArgs};

/// Solution-cache size of the served engine, as the daemon's default.
const SOLUTION_CAPACITY: usize = 1024;

/// Seed of the warm-up SOCs; measured streams use the run's own seed.
const WARM_SEED: u64 = 0x57A7_1C0D_E5EE_D000;

/// SplitMix64: a seeded stream of well-mixed 64-bit values.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th request of `seed`'s stream: an SOC of 8 to 32 cores (every
/// other one with precedence, hierarchy and BIST constraints) at a Table 1
/// width, under the protocol's flow.
pub fn fresh_request(seed: u64, i: u64) -> Sample {
    let mut state = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let soc_seed = splitmix(&mut state);
    let cores = 8 + (splitmix(&mut state) % 25) as usize;
    let width = [16, 32, 48, 64][(splitmix(&mut state) % 4) as usize];
    let mut cfg = SynthConfig::new(cores);
    if i % 2 == 1 {
        cfg = cfg.with_constraints();
    }
    let soc = Arc::new(cfg.generate(soc_seed));
    Sample {
        line: format!("schedule {} --width {width}", soc.name()),
        req: EngineRequest::schedule(soc, request_flow(false, false), width),
    }
}

/// Checks one served request outside its timed call: the schedule passes
/// the independent validator and does not beat the lower bound. Returns
/// makespan ÷ lower bound.
fn check(sample: &Sample, result: &soctam_core::engine::EngineResult) -> Result<f64, String> {
    let name = sample.req.soc.name();
    let run = match result {
        Ok(EngineOutput::Schedule(run)) => run,
        Ok(_) => return Err(format!("{name}: not a schedule")),
        Err(e) => return Err(format!("{name}: {e}")),
    };
    validate::validate(&sample.req.soc, &run.schedule).map_err(|e| format!("{name}: {e}"))?;
    let (makespan, bound) = (run.schedule.makespan(), run.lower_bound);
    if makespan < bound || bound == 0 {
        return Err(format!(
            "{name}: makespan {makespan} vs lower bound {bound}"
        ));
    }
    Ok(makespan as f64 / bound as f64)
}

/// Engine start plus warm-up: the four benchmark SOCs at their Table 1
/// widths and enough synthetic SOCs besides to fill the context registry,
/// so the measured phase starts in the steady state where every request
/// evicts a context.
fn set_up(warm: &[EngineRequest]) -> Engine {
    let engine = Engine::new().with_solution_cache(SOLUTION_CAPACITY, None);
    for req in warm {
        engine.serve_one(req).expect("warm-up SOCs are schedulable");
    }
    engine
}

/// One set-up's nominal CPU seconds, input generation excluded.
pub fn set_up_seconds() -> f64 {
    let warm = warm_set();
    nominal_cpu_seconds(|| set_up(&warm)).1
}

/// The warm-up requests, the same for every seed.
fn warm_set() -> Vec<EngineRequest> {
    let mut warm: Vec<EngineRequest> = benchmarks::NAMES
        .iter()
        .flat_map(|name| {
            let soc = Arc::new(benchmarks::by_name(name).expect("benchmark SOC"));
            benchmarks::table1_widths(name)
                .map(|w| EngineRequest::schedule(Arc::clone(&soc), request_flow(false, false), w))
        })
        .collect();
    let synthetic = ContextRegistry::DEFAULT_CAPACITY.saturating_sub(warm.len()) as u64;
    warm.extend((0..synthetic).map(|i| fresh_request(WARM_SEED, i).req));
    warm
}

pub fn run(args: &RunArgs) -> Report {
    let warm = warm_set();
    let (engine, setup_s) = nominal_cpu_seconds(|| set_up(&warm));

    let mut report = Report::default();
    let mut ratios = Vec::new();
    let mut load = Load::start(args.seed, args.seconds);
    let mut i = 0;
    while i == 0 || load.elapsed() < args.seconds {
        let sample = fresh_request(args.seed, i);
        i += 1;
        let (t, cpu) = (Instant::now(), process_cpu_ns());
        let result = engine.serve_one(&sample.req);
        load.record(t.elapsed(), process_cpu_ns() - cpu);
        match check(&sample, &result) {
            Ok(ratio) => ratios.push(ratio),
            Err(e) => {
                report.failed += 1;
                report.violations.push(e);
            }
        }
    }
    report.attempted = i;
    let ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    report.end_to_end(&load.finish(), ratio, args.setup_s(setup_s));
    report
}

pub fn run_traced(args: &RunArgs) -> Report {
    let engine = set_up(&warm_set());
    let mut report = Report::default();
    let mut i = 0;

    // Traced and untraced requests alternate, so the tracing overhead
    // compares requests served under the same conditions.
    let meter = Meter::start();
    let before = Counters::take(&engine);
    let (mut traced, mut untraced) = (PhaseTotals::default(), PhaseTotals::default());
    let mut requests = 0;
    while requests < 2 || meter.elapsed() < args.seconds * 3 / 4 {
        let sample = fresh_request(args.seed, i);
        i += 1;
        requests += 1;
        let t = Instant::now();
        let result = if requests % 2 == 0 {
            obs::trace_begin();
            let (result, _) = engine.serve_one_traced(&sample.req);
            let observed = t.elapsed().as_secs_f64() * 1e6;
            traced.add_tree(&obs::trace_end().expect("recorder armed above"), observed);
            result
        } else {
            let result = engine.serve_one(&sample.req);
            untraced.add([0.0; layers::PHASES.len()], t.elapsed().as_secs_f64() * 1e6);
            result
        };
        if let Err(e) = check(&sample, &result) {
            report.failed += 1;
            report.violations.push(e);
        }
    }
    let after = Counters::take(&engine);
    report.steal_pct = meter.stop().steal_pct;
    report.attempted = requests;
    let (registry_hits, _) = before.emit(&after, requests, &mut report);
    report.gate(registry_hits == 0.0, || {
        format!("registry hit ratio {registry_hits} on never-seen SOCs, expected 0")
    });
    traced.emit(untraced.mean_us(), &mut report);

    let samples: Vec<Sample> = (0..6).map(|k| fresh_request(args.seed, i + k)).collect();
    layers::time_layers(&samples, &mut report);
    // This workload never touches the daemon or the front: their metrics
    // come from the hit-wire probe, the traffic that loads them.
    let shed = wire::probe_daemon(args, &mut report);
    report.metric("server.sheds", shed as f64);
    report
}
