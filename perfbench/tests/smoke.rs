//! Tiny-scale runs of every workload through the real command line, in
//! both modes and at two seeds: each must verify clean and print the
//! result line the contract asks for, holding exactly the metrics
//! `BENCHMARK.json` declares for the mode.

use std::process::Command;

use serde::Value;

fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
    let list = v
        .as_object()
        .and_then(|o| o.get(kind))
        .and_then(Value::as_array);
    list.expect("metric list")
        .iter()
        .map(|m| {
            let o = m.as_object().expect("metric object");
            let s = |k: &str| o.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_rlleg-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--scale", "0.02"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: {stdout}");
    let parse = |l: &str| serde_json::parse_value_str(l).expect("JSON line");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

#[test]
fn manifest_declares_the_metrics_the_benchmark_prints() {
    let names = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), names(&rlleg_perfbench::END_TO_END));
    assert_eq!(declared("per_layer"), names(&rlleg_perfbench::PER_LAYER));
}

/// Per-layer metrics each workload observes itself, so they are never the
/// 0 of an unobserved layer.
fn observed(workload: &str) -> &'static [&'static str] {
    match workload {
        "gplace_flow" => &[
            "gplace.place_s",
            "gplace.cg_iterations",
            "legalize.solve_s",
            "legalize.cells",
            "legalize.searches",
        ],
        "rl_train_infer" => &[
            "core.infer_s",
            "core.network_s",
            "core.train_steps",
            "nn.rows_per_forward",
            "legalize.solve_s",
            "legalize.cells",
        ],
        _ => &[
            "serve.ack_ms",
            "serve.exec_ms.legalize",
            "serve.jobs.done",
            "design.def_parse_s",
            "design.qor_s",
        ],
    }
}

fn check(workload: &str, seed: u64, trace: bool) {
    let (full, result) = run(workload, seed, trace);
    let r = result.as_object().expect("result object");
    let keys: Vec<&str> = r.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{full:?}");
    assert!(matches!(
        r.get("failed"),
        Some(Value::Int(0) | Value::UInt(0))
    ));

    let kind = if trace { "per_layer" } else { "end_to_end" };
    let declared = declared(kind);
    let metrics = r
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert!(!metrics.is_empty());
    assert_eq!(metrics.len(), declared.len(), "{workload}: {kind}");
    let value = |name: &str| -> f64 {
        let m = metrics.get(name).and_then(Value::as_object);
        let m = m.unwrap_or_else(|| panic!("{workload} lacks {name}"));
        match m.get("value") {
            Some(Value::Float(v)) => *v,
            Some(Value::Int(v)) => *v as f64,
            Some(Value::UInt(v)) => *v as f64,
            v => panic!("{workload}: {name} = {v:?}"),
        }
    };
    for (name, unit) in &declared {
        let m = metrics.get(name).and_then(Value::as_object);
        let m = m.unwrap_or_else(|| panic!("{workload} lacks {name}"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        assert!(value(name).is_finite());
        if !trace {
            assert!(value(name) > 0.0, "{workload}: {name} is not positive");
        }
    }
    if trace {
        for name in observed(workload) {
            assert!(value(name) > 0.0, "{workload} did not observe {name}");
        }
    }

    // The full report describes itself: header and sample counts.
    let f = full.as_object().expect("full report");
    let header = f.get("header").and_then(Value::as_object).expect("header");
    for key in [
        "nproc",
        "threads",
        "sessions",
        "outstanding",
        "git_revision",
        "profile",
        "seed",
    ] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }
    for m in f
        .get("metrics")
        .and_then(Value::as_array)
        .expect("metric list")
    {
        let m = m.as_object().expect("metric");
        assert!(m.get("samples").is_some() && m.get("unit").is_some());
    }
}

#[test]
fn gplace_flow_smoke() {
    for (seed, trace) in [(0, false), (0, true), (7, false)] {
        check("gplace_flow", seed, trace);
    }
}

#[test]
fn rl_train_infer_smoke() {
    for (seed, trace) in [(0, false), (0, true), (7, false)] {
        check("rl_train_infer", seed, trace);
    }
}

#[test]
fn serve_mixed_smoke() {
    for (seed, trace) in [(0, false), (0, true), (7, false)] {
        check("serve_mixed", seed, trace);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_rlleg-perfbench"))
        .args(["--workload", "nope", "--seed", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
