//! `bench suite`: every workload in a fresh child process, interleaved
//! round-robin over the repeats, summarised as median and quartiles with the
//! run metadata, into one result file `bench compare` reads.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::spec::Workload;
use crate::stats;

/// What `bench suite` was asked to do.
pub struct SuiteOptions {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// `--seed` of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// End-to-end runs per workload.
    pub repeats: usize,
}

/// Standard output of `program args…`, trimmed; `"unknown"` when it cannot
/// be run (a checkout that is not a git repository, say).
fn probe_command(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One child run: `bench run …` of this same executable. Returns the result
/// object of its last output line, or `None` for a void run (a correctness
/// gate or validity guard failed; the child has said which on stderr).
fn child_run(
    workload: Workload,
    opts: &SuiteOptions,
    traced: bool,
) -> Result<Option<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line)
        .map_err(|e| format!("{}: child printed no result line: {e}", workload.name()))?;
    let good = output.status.success() && result.get("correct") == Some(&Json::Bool(true));
    Ok(good.then_some(result))
}

fn summarise(values: &mut [f64]) -> Json {
    stats::sort(values);
    let (q1, median, q3) = stats::quartiles(values);
    Json::object([
        ("median", Json::Num(median)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::from(values.len() as u64)),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

/// Metric name → `(unit, values over the repeats)`.
type Samples = BTreeMap<String, (String, Vec<f64>)>;

fn collect(result: &Json, into: &mut Samples) {
    let metrics = result.get("metrics").and_then(Json::as_object);
    for (name, entry) in metrics.into_iter().flatten() {
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        into.entry(name.clone())
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    }
}

fn section(samples: Samples) -> Json {
    Json::object(samples.into_iter().map(|(name, (unit, mut values))| {
        let mut summary = summarise(&mut values);
        if let Json::Obj(map) = &mut summary {
            map.insert("unit".into(), Json::from(unit));
        }
        (name, summary)
    }))
}

/// Run the suite. Returns the result file's contents and how many runs were
/// void (they are left out of the summaries and counted per workload).
pub fn run(opts: &SuiteOptions) -> Result<(Json, usize), String> {
    let mut end_to_end: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut per_layer: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut counts: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut void: BTreeMap<&str, u64> = BTreeMap::new();
    // Round-robin: a slow minute of the host lands on every workload's
    // repeat `r`, not on every repeat of one workload.
    for repeat in 0..opts.repeats {
        for &workload in &opts.workloads {
            eprintln!(
                "bench suite: {} ({}/{})",
                workload.name(),
                repeat + 1,
                opts.repeats
            );
            let Some(result) = child_run(workload, opts, false)? else {
                *void.entry(workload.name()).or_default() += 1;
                continue;
            };
            collect(&result, end_to_end.entry(workload.name()).or_default());
            let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let entry = counts.entry(workload.name()).or_default();
            entry.0 += number("attempted");
            entry.1 += number("failed");
        }
    }
    for &workload in &opts.workloads {
        eprintln!("bench suite: {} (traced)", workload.name());
        match child_run(workload, opts, true)? {
            Some(result) => collect(&result, per_layer.entry(workload.name()).or_default()),
            None => *void.entry(workload.name()).or_default() += 1,
        }
    }
    let workloads = opts.workloads.iter().map(|w| {
        let name = w.name();
        let (attempted, failed) = counts.get(name).copied().unwrap_or_default();
        let fields = [
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            (
                "void_runs",
                Json::from(void.get(name).copied().unwrap_or(0)),
            ),
            (
                "end_to_end",
                section(end_to_end.remove(name).unwrap_or_default()),
            ),
            (
                "per_layer",
                section(per_layer.remove(name).unwrap_or_default()),
            ),
        ];
        (name, Json::object(fields))
    });
    let workloads = Json::object(workloads.collect::<Vec<_>>());
    let meta = Json::object([
        (
            "commit",
            Json::from(probe_command("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(probe_command("rustc", &["-V"]))),
        ("nproc", Json::from(crate::rig::nproc() as u64)),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("repeats", Json::from(opts.repeats as u64)),
    ]);
    let results = Json::object([("meta", meta), ("workloads", workloads)]);
    Ok((results, void.values().sum::<u64>() as usize))
}
