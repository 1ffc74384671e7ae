//! The two daemon workloads, `width-miss` and `hit-wire`, plus the wire
//! and front probe every traced run reports. Each drives an in-process
//! loopback daemon (`soctam_server::Server`) over one connection.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use soctam_core::protocol::{benchmark_resolver, parse_request, render_result};
use soctam_core::soc::benchmarks;
use soctam_server::balance::{Balancer, BalancerConfig};
use soctam_server::client::{response_ok, Connection};
use soctam_server::{Server, ServerConfig};

use crate::fresh::splitmix;
use crate::gauge::{nominal_cpu_seconds, process_cpu_ns};
use crate::layers::{self, number_field, response_phases, Counters, PhaseTotals, Sample};
use crate::stats::{median, median_us, Load, Meter, Metered};
use crate::{Report, RunArgs};

/// Requests `hit-wire` keeps in flight on its one connection.
const WINDOW: usize = 32;

/// `width-miss`'s solution-cache size: far below its 912-key cycle, so
/// each of the cache's shards sees many more keys than it holds and a
/// fixed cyclic order misses on every request.
const MISS_CACHE: usize = 64;

/// `width-miss`'s keys: every benchmark SOC at every width from 8 to 64
/// in each of the four modes.
pub fn width_keys() -> Vec<String> {
    let mut keys = Vec::new();
    for name in benchmarks::NAMES {
        for w in 8..=64 {
            for mode in ["", " --power", " --no-preempt", " --power --no-preempt"] {
                keys.push(format!("schedule {name} --width {w}{mode}"));
            }
        }
    }
    keys
}

/// `hit-wire`'s hot set: per benchmark SOC, its four Table 1 widths, one
/// width sweep and one bounds query.
pub fn hot_set() -> Vec<String> {
    let mut lines = Vec::new();
    for name in benchmarks::NAMES {
        for w in benchmarks::table1_widths(name) {
            lines.push(format!("schedule {name} --width {w}"));
        }
        lines.push(format!("sweep {name}"));
        lines.push(format!("bounds {name}"));
    }
    lines
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

fn bind(cache_capacity: usize) -> Server {
    let cfg = ServerConfig {
        cache_capacity,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", cfg).expect("binding a loopback daemon")
}

/// Connections the daemon shed, from its `/metrics` exposition.
fn sheds(server: &Server) -> u64 {
    server
        .metrics()
        .lines()
        .find_map(|l| l.strip_prefix("soctam_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("the daemon exports soctam_shed_total")
}

/// Makespan ÷ lower bound of a schedule response.
fn schedule_ratio(response: &str) -> Option<f64> {
    Some(number_field(response, "makespan")? / number_field(response, "lower_bound")?)
}

/// Parses protocol lines into layer samples, as the daemon resolves them.
fn samples(lines: &[String]) -> Vec<Sample> {
    let mut resolver = benchmark_resolver();
    lines
        .iter()
        .map(|line| Sample {
            req: parse_request(line, &mut resolver).expect("workload lines parse"),
            line: line.clone(),
        })
        .collect()
}

/// Closed loop on one connection: send, wait for the answer, repeat, until
/// `budget` has passed (at least one request). Calls `seen` with each
/// request's index, response, wall latency and the process CPU (client
/// and daemon alike, both in this process) spent while it was in flight.
fn ping_pong(
    addr: SocketAddr,
    lines: &[String],
    mut next: impl FnMut() -> usize,
    budget: Duration,
    mut seen: impl FnMut(usize, &str, Duration, u64),
) -> Metered {
    let mut conn = Connection::connect(addr).expect("connecting to the daemon");
    let meter = Meter::start();
    let mut first = true;
    while first || meter.elapsed() < budget {
        first = false;
        let i = next();
        let (t, cpu) = (Instant::now(), process_cpu_ns());
        let response = conn.request(&lines[i]).expect("daemon answers");
        seen(i, &response, t.elapsed(), process_cpu_ns() - cpu);
    }
    meter.stop()
}

/// Streamed load on one connection: `WINDOW` requests stay in flight, the
/// next written as each answer arrives, and writes are flushed only when
/// the client has no complete answer left to read. Latency runs from a
/// request's write to its answer.
fn stream(
    addr: SocketAddr,
    lines: &[String],
    mut next: impl FnMut() -> usize,
    budget: Duration,
    mut seen: impl FnMut(usize, &str, Duration),
) -> io::Result<Metered> {
    let socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    let mut reader = BufReader::new(socket.try_clone()?);
    let mut writer = BufWriter::new(socket);
    let mut in_flight = VecDeque::with_capacity(WINDOW);
    let mut send = |writer: &mut BufWriter<TcpStream>, in_flight: &mut VecDeque<_>| {
        let i = next();
        writer.write_all(lines[i].as_bytes())?;
        writer.write_all(b"\n")?;
        in_flight.push_back((i, Instant::now()));
        io::Result::Ok(())
    };
    let meter = Meter::start();
    for _ in 0..WINDOW {
        send(&mut writer, &mut in_flight)?;
    }
    let mut response = String::new();
    while let Some((i, sent)) = in_flight.pop_front() {
        if !reader.buffer().contains(&b'\n') {
            writer.flush()?;
        }
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        seen(i, response.trim_end(), sent.elapsed());
        if meter.elapsed() < budget {
            send(&mut writer, &mut in_flight)?;
        }
    }
    Ok(meter.stop())
}

/// Daemon start plus warm-up for `width-miss`: every context and every
/// width cap compiled by one width sweep per SOC and power mode. Returns
/// the daemon and the set-up's nominal CPU seconds.
pub fn width_miss_set_up() -> (Server, f64) {
    let warm: String = benchmarks::NAMES
        .iter()
        .flat_map(|n| {
            [
                format!("sweep {n} --from 8 --to 64\n"),
                format!("sweep {n} --from 8 --to 64 --power\n"),
            ]
        })
        .collect();
    let ((server, warmed), secs) = nominal_cpu_seconds(|| {
        let server = bind(MISS_CACHE);
        let warmed = server.warm_from_text(&warm);
        (server, warmed)
    });
    assert_eq!(warmed.ok, warmed.requests, "width-miss warm-up solves");
    (server, secs)
}

/// Daemon start plus warm-up for `hit-wire`: the hot set answered once,
/// cold, over the wire. Returns the daemon, the cold answers and the
/// set-up's nominal CPU seconds.
pub fn hit_wire_set_up(hot: &[String]) -> (Server, Vec<String>, f64) {
    let ((server, answers), secs) = nominal_cpu_seconds(|| {
        let server = bind(ServerConfig::default().cache_capacity);
        let mut conn = Connection::connect(server.local_addr()).expect("connecting to the daemon");
        let answers: Vec<String> = hot
            .iter()
            .map(|l| conn.request(l).expect("daemon answers"))
            .collect();
        (server, answers)
    });
    assert!(answers.iter().all(|a| response_ok(a)), "hot set solves");
    (server, answers, secs)
}

pub fn width_miss(args: &RunArgs) -> Report {
    let keys = width_keys();
    let (server, setup_s) = width_miss_set_up();

    let mut report = Report::default();
    let order = permutation(args.seed, keys.len());
    let mut first: Vec<Option<String>> = vec![None; keys.len()];
    let mut ratios = Vec::new();
    let mut load = Load::start(args.seed, args.seconds);
    let before = Counters::take(server.engine());
    let (mut pos, mut failed, mut mismatched) = (0, 0u64, 0u64);
    ping_pong(
        server.local_addr(),
        &keys,
        || {
            pos += 1;
            order[(pos - 1) % order.len()]
        },
        args.seconds,
        |i, response, latency, cpu_ns| {
            load.record(latency, cpu_ns);
            if !response_ok(response) {
                failed += 1;
            } else if let Some(previous) = &first[i] {
                if previous != response {
                    failed += 1;
                    mismatched += 1;
                }
            } else {
                ratios.extend(schedule_ratio(response));
                first[i] = Some(response.to_owned());
            }
        },
    );
    let after = Counters::take(server.engine());
    let measured = load.finish();
    report.attempted = measured.served;
    report.failed = failed;
    report.gate(mismatched == 0, || {
        format!("{mismatched} re-solves differ from the key's first answer")
    });
    let (registry, solutions) = before.hit_ratios(&after);
    report.gate(registry == 1.0 && solutions == 0.0, || {
        format!("registry hit ratio {registry} (want 1), solution-cache {solutions} (want 0)")
    });
    let shed = sheds(&server);
    report.gate(shed == 0, || format!("daemon shed {shed} connections"));
    let ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    report.end_to_end(&measured, ratio, args.setup_s(setup_s));
    report
}

pub fn hit_wire(args: &RunArgs) -> Report {
    let hot = hot_set();
    let (server, answers, setup_s) = hit_wire_set_up(&hot);
    let mut report = Report::default();

    let mut state = args.seed;
    let mut load = Load::start(args.seed, args.seconds);
    let (mut failed, mut mismatched) = (0u64, 0u64);
    let before = Counters::take(server.engine());
    stream(
        server.local_addr(),
        &hot,
        || (splitmix(&mut state) % hot.len() as u64) as usize,
        args.seconds,
        |i, response, latency| {
            load.record_streamed(latency);
            if response != answers[i] {
                failed += 1;
                mismatched += u64::from(response_ok(response));
            }
        },
    )
    .expect("streaming to the daemon");
    let after = Counters::take(server.engine());
    let measured = load.finish();
    report.attempted = measured.served;
    report.failed = failed;
    report.gate(mismatched == 0, || {
        format!("{mismatched} hits differ from their cold answers")
    });
    let (_, solutions) = before.hit_ratios(&after);
    report.gate(solutions == 1.0, || {
        format!("solution-cache hit ratio {solutions}, want 1")
    });
    let shed = sheds(&server);
    report.gate(shed == 0, || format!("daemon shed {shed} connections"));
    let ratios: Vec<f64> = answers.iter().filter_map(|a| schedule_ratio(a)).collect();
    let ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    report.end_to_end(&measured, ratio, args.setup_s(setup_s));
    report
}

/// The traced pass shared by both daemon workloads: the workload's traffic
/// for three quarters of the budget, closed loop, every other request sent
/// with `--trace` so traced and untraced requests see the same conditions.
/// Returns the counters around the pass and the untraced and traced
/// latency totals.
fn traced_pass(
    report: &mut Report,
    server: &Server,
    lines: &[String],
    mut next: impl FnMut() -> usize,
    budget: Duration,
) -> (Counters, Counters, PhaseTotals, PhaseTotals) {
    let n = lines.len();
    let both: Vec<String> = lines
        .iter()
        .cloned()
        .chain(lines.iter().map(|l| format!("{l} --trace")))
        .collect();
    let (mut untraced, mut traced) = (PhaseTotals::default(), PhaseTotals::default());
    let mut sent = 0;
    let before = Counters::take(server.engine());
    let measured = ping_pong(
        server.local_addr(),
        &both,
        || {
            sent += 1;
            next() + if sent % 2 == 0 { n } else { 0 }
        },
        budget * 3 / 4,
        |i, response, latency, _| {
            let us = latency.as_secs_f64() * 1e6;
            match (i < n, response_phases(response)) {
                _ if !response_ok(response) => report.failed += 1,
                (true, _) => untraced.add([0.0; layers::PHASES.len()], us),
                (false, Some(phases)) => traced.add(phases, us),
                (false, None) => report.failed += 1,
            }
        },
    );
    let after = Counters::take(server.engine());
    report.steal_pct = measured.steal_pct;
    report.attempted = untraced.requests() + traced.requests() + report.failed;
    (before, after, untraced, traced)
}

pub fn width_miss_traced(args: &RunArgs) -> Report {
    let keys = width_keys();
    let (server, _) = width_miss_set_up();
    let mut report = Report::default();
    let order = permutation(args.seed, keys.len());
    let mut pos = 0;
    let (before, after, untraced, traced) = traced_pass(
        &mut report,
        &server,
        &keys,
        || {
            pos += 1;
            order[(pos - 1) % order.len()]
        },
        args.seconds,
    );
    let (registry, solutions) = before.emit(&after, report.attempted, &mut report);
    report.gate(registry == 1.0 && solutions == 0.0, || {
        format!("registry hit ratio {registry} (want 1), solution-cache {solutions} (want 0)")
    });
    gate_no_builds(&mut report);
    traced.emit(untraced.mean_us(), &mut report);
    // The first 16 keys of the seeded cycle.
    let picked: Vec<String> = order.iter().take(16).map(|&i| keys[i].clone()).collect();
    layers::time_layers(&samples(&picked), &mut report);
    let shed = sheds(&server) + probe_daemon(args, &mut report);
    report.metric("server.sheds", shed as f64);
    report
}

pub fn hit_wire_traced(args: &RunArgs) -> Report {
    let hot = hot_set();
    let (server, _, _) = hit_wire_set_up(&hot);
    let mut report = Report::default();
    let mut state = args.seed;
    let (before, after, untraced, traced) = traced_pass(
        &mut report,
        &server,
        &hot,
        || (splitmix(&mut state) % hot.len() as u64) as usize,
        args.seconds,
    );
    let (_, solutions) = before.emit(&after, report.attempted, &mut report);
    report.gate(solutions == 1.0, || {
        format!("solution-cache hit ratio {solutions}, want 1")
    });
    gate_no_builds(&mut report);
    traced.emit(untraced.mean_us(), &mut report);
    layers::time_layers(&samples(&hot), &mut report);
    probe(args, &server, &hot, &mut report);
    report.metric("server.sheds", sheds(&server) as f64);
    report
}

/// Zero rectangle-set builds per request on a workload whose contexts are
/// all compiled in set-up.
fn gate_no_builds(report: &mut Report) {
    let builds = report
        .metrics
        .iter()
        .find(|(n, _)| *n == "wrapper.rect_builds_per_req")
        .map_or(f64::NAN, |m| m.1);
    report.gate(builds == 0.0, || {
        format!("{builds} rectangle-set builds per request, expected 0")
    });
}

/// Starts a `hit-wire` daemon and runs [`probe`] on it, for workloads that
/// load neither the daemon nor the front. Returns the daemon's sheds.
pub fn probe_daemon(args: &RunArgs, report: &mut Report) -> u64 {
    let hot = hot_set();
    let (server, _, _) = hit_wire_set_up(&hot);
    probe(args, &server, &hot, report);
    sheds(&server)
}

/// The wire and front costs of hot-set traffic on `server`:
/// `server.wire_us` is a streamed request's client time less the in-process
/// parse, hit and render of the same line; `balance.overhead_us` is the
/// median closed-loop latency through a one-backend front less the median
/// direct one.
fn probe(args: &RunArgs, server: &Server, hot: &[String], report: &mut Report) {
    let mut state = args.seed ^ 0x5EED;
    let mut completed = 0u64;
    let measured = stream(
        server.local_addr(),
        hot,
        || (splitmix(&mut state) % hot.len() as u64) as usize,
        args.seconds / 4,
        |_, _, _| completed += 1,
    )
    .expect("streaming to the daemon");
    let client_us = measured.wall.as_secs_f64() * 1e6 / completed as f64;
    let mut resolver = benchmark_resolver();
    let in_process: f64 = hot
        .iter()
        .map(|line| {
            median_us(5, || {
                let req = parse_request(line, &mut resolver).expect("hot lines parse");
                let result = server.engine().serve_one(&req);
                std::hint::black_box(render_result(&req, &result));
            })
        })
        .sum::<f64>()
        / hot.len() as f64;
    report.metric("server.wire_us", client_us - in_process);

    let front = Balancer::bind(
        "127.0.0.1:0",
        &[server.local_addr()],
        BalancerConfig::default(),
    )
    .expect("binding the front");
    let (mut via_front, mut direct) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut i = 0;
    {
        let mut front_conn =
            Connection::connect(front.local_addr()).expect("connecting to the front");
        let mut direct_conn =
            Connection::connect(server.local_addr()).expect("connecting to the daemon");
        while i == 0 || t0.elapsed() < args.seconds / 8 {
            for (conn, samples) in [
                (&mut front_conn, &mut via_front),
                (&mut direct_conn, &mut direct),
            ] {
                for k in 0..50 {
                    let line = &hot[(i + k) % hot.len()];
                    let t = Instant::now();
                    let response = conn.request(line).expect("answer");
                    samples.push(t.elapsed().as_secs_f64() * 1e6);
                    report.gate(response_ok(&response), || {
                        "front probe request failed".into()
                    });
                }
            }
            i += 50;
        }
    }
    front.shutdown();
    report.metric(
        "balance.overhead_us",
        median(&mut via_front) - median(&mut direct),
    );
}
