//! The command line end to end: a short run prints the contract's result
//! line, and every correctness gate is live — with the reference digests
//! deliberately corrupted, `bench run` must report `correct: false` and exit
//! non-zero.

use std::process::{Command, Output};

use morphstream_benchmark::json::Json;
use morphstream_benchmark::spec;

fn bench(workload: &str, trace: &str, corrupt: bool) -> Output {
    // Scratch inside cargo's target directory: the benchmark writes nowhere
    // else. One directory per call, since the tests run in parallel.
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out_dir = scratch.join(format!("gates-{workload}-{trace}-{corrupt}"));
    let mut command = Command::new(env!("CARGO_BIN_EXE_bench"));
    command
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace])
        .current_dir(scratch)
        .env("BENCH_OUT", &out_dir);
    if corrupt {
        command.env("BENCH_CORRUPT_REFERENCE", "1");
    }
    let output = command.output().expect("run the bench binary");
    let _ = std::fs::remove_dir_all(out_dir);
    output
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn a_run_prints_every_end_to_end_metric_and_exits_zero() {
    let output = bench("sl_overhead", "0", false);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = result_line(&output);
    let keys: Vec<&str> = result
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = result.get("metrics").unwrap().as_object().unwrap();
    assert_eq!(metrics.len(), spec::END_TO_END.len());
    for metric in spec::END_TO_END {
        let entry = &metrics[metric.name];
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
        assert!(entry.get("value").and_then(Json::as_f64).unwrap() > 0.0);
    }
}

#[test]
fn corrupting_the_reference_digest_voids_each_kind_of_run() {
    for workload in ["sl_overhead", "topo_fraud", "serve_mem"] {
        let output = bench(workload, "0", true);
        assert!(!output.status.success(), "{workload}: gate did not fire");
        assert_eq!(
            result_line(&output).get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        // It is the digest gate that fired, and nothing else: a validity
        // guard (late generator, growing backlog) voiding this short run
        // would prove nothing about the gate.
        let stderr = String::from_utf8_lossy(&output.stderr);
        let reasons: Vec<&str> = stderr.lines().filter(|l| l.contains("VOID:")).collect();
        assert!(!reasons.is_empty(), "{workload}: no reason given\n{stderr}");
        assert!(
            reasons.iter().all(|reason| reason.contains("digest")),
            "{workload}: voided by something other than a digest gate\n{stderr}"
        );
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric() {
    let output = bench("sl_contended", "1", false);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = result_line(&output);
    let metrics = result.get("metrics").unwrap().as_object().unwrap();
    let expected: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    let mut reported: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut sorted = expected.clone();
    sorted.sort_unstable();
    reported.sort_unstable();
    assert_eq!(reported, sorted);
}
