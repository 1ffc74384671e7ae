//! A tiny run of each workload, untraced and traced, emits exactly the
//! metrics `BENCHMARK.json` names, each with its unit, and passes every
//! gate. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..start + json[start..].find(']').expect("list ends")];
    let values = |key: &str| -> Vec<String> {
        let key = format!("\"{key}\": \"");
        body.match_indices(&key)
            .map(|(at, _)| {
                let rest = &body[at + key.len()..];
                rest[..rest.find('"').expect("string ends")].to_owned()
            })
            .collect()
    };
    let (names, units) = (values("name"), values("unit"));
    assert_eq!(names.len(), units.len());
    assert!(!names.is_empty());
    names.into_iter().zip(units).collect()
}

/// Runs the benchmark and returns its last line of output.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

fn check(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        assert!(
            result.starts_with("{\"correct\": true, "),
            "{workload}: {result}"
        );
        assert!(
            !result.contains("\"attempted\": 0,"),
            "{workload}: {result}"
        );
        let metrics = declared(section);
        for (name, unit) in &metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = result
                .find(&key)
                .unwrap_or_else(|| panic!("{workload} {section}: no {name} in {result}"));
            let rest = &result[at + key.len()..];
            let (value, rest) = rest.split_once(", ").expect("value then unit");
            value
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("{workload} {name}: {value}: {e}"));
            assert!(
                rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                "{workload} {name}"
            );
        }
        assert_eq!(
            result.matches("\"value\": ").count(),
            metrics.len(),
            "{workload}: {result}"
        );
    }
}

#[test]
fn fresh_soc_emits_every_metric_and_passes_its_gates() {
    check("fresh-soc");
}

#[test]
fn width_miss_emits_every_metric_and_passes_its_gates() {
    check("width-miss");
}

#[test]
fn hit_wire_emits_every_metric_and_passes_its_gates() {
    check("hit-wire");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "hit-wire", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("running the benchmark");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
