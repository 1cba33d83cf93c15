//! `bench` — the benchmark's command line. See `benchmark/README.md`.

use std::process::ExitCode;

use morphstream_benchmark::json::Json;
use morphstream_benchmark::rig::{self, Outcome};
use morphstream_benchmark::spec::{self, MetricSpec, Workload};
use morphstream_benchmark::suite::SuiteOptions;
use morphstream_benchmark::{alloc, compare, layers, library, serve, suite, topo};

/// Counts allocations for the traced run's allocs/event metrics; idle (one
/// relaxed load per allocation) in every other run.
#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  bench run --workload W [--seed N] [--seconds S] [--trace 0|1]
        one run in this process; the last line of standard output is the result object
  bench trace --workload W [--seed N] [--seconds S]
        the traced run (`run --trace 1`): per-layer metrics and benchmark/out/trace_W.json
  bench suite --json OUT [--workload W]... [--seed N] [--seconds S] [--repeats R]
        every workload in fresh child processes, R end-to-end runs each (round-robin)
        plus one traced run; medians, quartiles and run metadata go to OUT
  bench compare A.json B.json
        per workload and metric: both values, ratio (base = A), ok / worse / unresolved
  bench spec
        print BENCHMARK.json";

/// End-to-end runs per workload `bench suite` makes by default: the fewest
/// whose first and third quartile are not simply the fastest and slowest
/// run, and a suite of them (about 11 minutes) still fits a CI job.
const DEFAULT_REPEATS: usize = 5;

/// Value of `--name` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_seed_flag(args: &[String]) -> Result<u64, String> {
    flag(args, "--seed")
        .map_or(Some(spec::DEFAULT_SEED), parse_seed)
        .ok_or_else(|| "--seed must be a whole number".into())
}

fn parse_seconds_flag(args: &[String]) -> Result<f64, String> {
    flag(args, "--seconds")
        .map_or(Ok(spec::RUN_SECONDS as f64), str::parse)
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .ok_or_else(|| "--seconds must be a positive number".into())
}

fn run_once(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        return layers::run(workload, seed, seconds);
    }
    match workload {
        Workload::SlPaper | Workload::SlOverhead | Workload::SlContended => {
            library::run(workload, seed, seconds)
        }
        Workload::TopoFraud => topo::run(seed, seconds),
        Workload::ServeMem | Workload::ServeDurable => serve::run(workload, seed, seconds),
    }
}

/// `bench run`: one workload, in this process; the last line of standard
/// output is the result object the benchmark contract specifies.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")
        .and_then(Workload::from_name)
        .ok_or("--workload must name one of the workloads in BENCHMARK.json")?;
    let seed = parse_seed_flag(args)?;
    let seconds = parse_seconds_flag(args)?;
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if workload.is_serve() && rig::nproc() < 2 {
        return Err(format!(
            "{} needs 2 cores: with one, generator and server would time-share it",
            workload.name()
        ));
    }

    let outcome = run_once(workload, seed, seconds, traced);
    let expected: &[MetricSpec] = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let mut metrics = Vec::new();
    for m in expected {
        let value = outcome
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("internal: {} did not report {}", workload.name(), m.name))?;
        metrics.push((
            m.name,
            Json::object([("value", Json::Num(*value)), ("unit", Json::from(m.unit))]),
        ));
    }
    for problem in &outcome.problems {
        eprintln!("bench: {}: VOID: {problem}", workload.name());
    }
    for doubt in &outcome.suspect {
        eprintln!("bench: {}: SUSPECT: {doubt}", workload.name());
    }
    let mut meta = outcome.meta.clone();
    meta.insert("workload", Json::from(workload.name()));
    meta.insert("seed", Json::from(seed));
    meta.insert("seconds", Json::Num(seconds));
    meta.insert("nproc", Json::from(rig::nproc() as u64));
    eprintln!("bench: meta {}", Json::object(meta));
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(outcome.attempted.max(1))),
            ("failed", Json::from(outcome.failed)),
            ("metrics", Json::object(metrics)),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `bench suite`: the whole benchmark into one result file.
fn cmd_suite(args: &[String]) -> Result<ExitCode, String> {
    let path = flag(args, "--json").ok_or("bench suite needs --json OUT")?;
    let mut workloads = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--workload" {
            let name = args.get(i + 1).map(String::as_str).unwrap_or_default();
            workloads.push(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
        }
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    let repeats = flag(args, "--repeats").map_or(Ok(DEFAULT_REPEATS), str::parse);
    let opts = SuiteOptions {
        workloads,
        seed: parse_seed_flag(args)?,
        seconds: parse_seconds_flag(args)?,
        repeats: repeats
            .ok()
            .filter(|r| *r >= 1)
            .ok_or("--repeats must be a whole number, at least 1")?,
    };
    let (results, void_runs) = suite::run(&opts)?;
    std::fs::write(path, format!("{results}\n"))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("bench suite: results in {path}, {void_runs} void runs");
    Ok(if void_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `bench compare`: exit 1 when a metric is worse, more events failed, or a
/// file lacks a workload or metric.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, other] = args else {
        return Err(USAGE.into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = compare::compare(&read(base)?, &read(other)?)?;
    print!("{}", comparison.report);
    for metric in &comparison.worse {
        println!("WORSE: {metric}");
    }
    for workload in &comparison.more_failures {
        println!("MORE FAILURES: {workload}");
    }
    for what in &comparison.missing {
        println!("MISSING: {what}");
    }
    Ok(if comparison.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => {
            let mut args = args[1..].to_vec();
            args.extend(["--trace".to_string(), "1".to_string()]);
            cmd_run(&args)
        }
        Some("suite") => cmd_suite(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("spec") => {
            println!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("bench: {message}");
        ExitCode::from(2)
    })
}
