//! `bench compare A.json B.json`: per workload and metric, both values, the
//! ratio with its base, and a verdict against the bounds of
//! [`crate::spec`].

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{self, Better, MetricSpec};

/// Median and quartiles of one metric on one workload over a file's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of runs.
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a single run).
    pub fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn from_json(value: &Json) -> Option<Summary> {
        Some(Summary {
            median: value.get("median")?.as_f64()?,
            q1: value.get("q1")?.as_f64()?,
            q3: value.get("q3")?.as_f64()?,
            n: value.get("n")?.as_f64()? as usize,
        })
    }
}

/// What a comparison of one metric concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound, and the runs are
    /// steady enough to say so.
    Ok,
    /// Worse than the base by more than the bound and by more than the
    /// run-to-run spread.
    Worse,
    /// The run-to-run spread is wider than the bound (or than the
    /// difference): neither "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of the base's median `other` is worse (negative: better).
pub fn worse_by(metric: &MetricSpec, base: &Summary, other: &Summary) -> f64 {
    let delta = match metric.better {
        Better::Higher => base.median - other.median,
        Better::Lower => other.median - base.median,
    };
    delta / base.median.abs()
}

/// Judge `other` against `base` under the metric's bound.
pub fn verdict(metric: &MetricSpec, base: &Summary, other: &Summary) -> Verdict {
    let worse = worse_by(metric, base, other);
    let spread = base.spread().max(other.spread());
    if worse > metric.bound {
        if worse > spread {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Result of comparing two result files.
pub struct Comparison {
    /// The table, ready to print.
    pub report: String,
    /// Metrics judged [`Verdict::Worse`], as `workload/metric`.
    pub worse: Vec<String>,
    /// Workloads on which more events failed than in the base.
    pub more_failures: Vec<String>,
    /// What the base file's workloads should have and one of the files
    /// lacks — a whole workload, or `workload/metric` (every run of it was
    /// void, say). Nothing can be claimed about these, so they fail the
    /// comparison like a worse metric does.
    pub missing: Vec<String>,
}

impl Comparison {
    /// True when nothing is worse, nothing failed more, nothing is missing.
    pub fn passed(&self) -> bool {
        self.worse.is_empty() && self.more_failures.is_empty() && self.missing.is_empty()
    }
}

fn failed_share(workload: &Json) -> f64 {
    let number = |key: &str| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    number("failed") / number("attempted").max(1.0)
}

/// Compare result file `other` against result file `base` (both as written
/// by `bench suite`): every workload of `base`, every metric of
/// [`crate::spec`].
pub fn compare(base: &Json, other: &Json) -> Result<Comparison, String> {
    let workloads = |file: &Json| {
        file.get("workloads")
            .and_then(Json::as_object)
            .cloned()
            .ok_or("not a result file: no \"workloads\" object")
    };
    let (base_workloads, other_workloads) = (workloads(base)?, workloads(other)?);
    let mut out = Comparison {
        report: String::new(),
        worse: Vec::new(),
        more_failures: Vec::new(),
        missing: Vec::new(),
    };
    let _ = writeln!(
        out.report,
        "{:<14} {:<44} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "other", "ratio"
    );
    for (name, base_workload) in &base_workloads {
        let Some(other_workload) = other_workloads.get(name) else {
            let _ = writeln!(out.report, "{name:<14} missing from the second file");
            out.missing.push(name.clone());
            continue;
        };
        let (base_failed, other_failed) =
            (failed_share(base_workload), failed_share(other_workload));
        if other_failed > base_failed {
            out.more_failures.push(name.clone());
        }
        let _ = writeln!(
            out.report,
            "{name:<14} {:<44} {base_failed:>14.6} {other_failed:>14.6} {:>8}  {}",
            "failed_share",
            "",
            if other_failed > base_failed {
                "worse"
            } else {
                "ok"
            }
        );
        let sections = [
            ("end_to_end", spec::END_TO_END),
            ("per_layer", spec::PER_LAYER),
        ];
        for (section, metrics) in sections {
            for metric in metrics {
                let summary = |workload: &Json| {
                    workload
                        .get(section)
                        .and_then(|m| m.get(metric.name))
                        .and_then(Summary::from_json)
                };
                let label = format!("{} [{}]", metric.name, metric.unit);
                let (Some(base_summary), Some(other_summary)) =
                    (summary(base_workload), summary(other_workload))
                else {
                    let _ = writeln!(out.report, "{name:<14} {label:<44} missing");
                    out.missing.push(format!("{name}/{}", metric.name));
                    continue;
                };
                // Per-layer metrics explain; only end-to-end metrics gate.
                let judged = if section == "end_to_end" {
                    let verdict = verdict(metric, &base_summary, &other_summary);
                    if verdict == Verdict::Worse {
                        out.worse.push(format!("{name}/{}", metric.name));
                    }
                    format!(
                        "{} (worse by {:+.1}%, bound {:.0}%, spread {:.1}%)",
                        verdict.name(),
                        worse_by(metric, &base_summary, &other_summary) * 100.0,
                        metric.bound * 100.0,
                        base_summary.spread().max(other_summary.spread()) * 100.0
                    )
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out.report,
                    "{name:<14} {label:<44} {:>14.6} {:>14.6} {:>8.3}  {judged}",
                    base_summary.median,
                    other_summary.median,
                    other_summary.median / base_summary.median,
                );
            }
        }
    }
    let _ = writeln!(
        out.report,
        "ratio = other / base (the first file is the base)"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 10,
        }
    }

    fn noisy(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.8,
            q3: median * 1.2,
            n: 10,
        }
    }

    /// Metrics with bounds of the tests' own, whatever the table says today.
    const THROUGHPUT: &MetricSpec = &MetricSpec {
        name: "throughput_keps",
        unit: "kevents/s",
        better: Better::Higher,
        bound: 0.07,
    };
    const LATENCY: &MetricSpec = &MetricSpec {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn bounds_apply_in_the_metrics_own_direction() {
        let (throughput, latency) = (THROUGHPUT, LATENCY);
        // Throughput: lower is worse, bound 7 %.
        assert_eq!(
            verdict(throughput, &steady(100.0), &steady(94.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(throughput, &steady(100.0), &steady(90.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(throughput, &steady(100.0), &steady(150.0)),
            Verdict::Ok
        );
        // Latency: higher is worse.
        assert_eq!(
            verdict(latency, &steady(10.0), &steady(20.0)),
            Verdict::Worse
        );
        assert_eq!(verdict(latency, &steady(10.0), &steady(5.0)), Verdict::Ok);
        assert!((worse_by(latency, &steady(10.0), &steady(12.0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let throughput = THROUGHPUT;
        assert_eq!(
            verdict(throughput, &noisy(100.0), &steady(99.0)),
            Verdict::Unresolved
        );
        // Worse by 20 %, but the runs spread by 40 %: cannot tell.
        assert_eq!(
            verdict(throughput, &noisy(100.0), &noisy(80.0)),
            Verdict::Unresolved
        );
        // Worse by far more than the spread: worse, noise or not.
        assert_eq!(
            verdict(throughput, &noisy(100.0), &noisy(40.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn single_runs_compare_on_the_bound_alone() {
        let one = |median| Summary {
            median,
            q1: median,
            q3: median,
            n: 1,
        };
        let throughput = THROUGHPUT;
        assert_eq!(verdict(throughput, &one(100.0), &one(95.0)), Verdict::Ok);
        assert_eq!(verdict(throughput, &one(100.0), &one(80.0)), Verdict::Worse);
    }

    /// A result file with one workload carrying every metric of the spec
    /// (all at 50) except `throughput_keps`, which is as given.
    fn file(throughput: f64, failed: f64) -> Json {
        let entry = |m: &MetricSpec| {
            let value = if m.name == "throughput_keps" {
                throughput
            } else {
                50.0
            };
            let summary = ["median", "q1", "q3"].map(|key| (key, Json::Num(value)));
            (
                m.name,
                Json::object(summary.into_iter().chain([("n", Json::Num(1.0))])),
            )
        };
        let workload = Json::object([
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed)),
            (
                "end_to_end",
                Json::object(spec::END_TO_END.iter().map(entry)),
            ),
            ("per_layer", Json::object(spec::PER_LAYER.iter().map(entry))),
        ]);
        Json::object([("workloads", Json::object([("sl_paper", workload)]))])
    }

    #[test]
    fn files_compare_per_workload_and_flag_more_failures() {
        let same = compare(&file(100.0, 0.0), &file(99.0, 0.0)).unwrap();
        assert!(same.passed(), "{}", same.report);
        assert!(same.report.contains("tpg.build_ns_per_op"));
        let slower = compare(&file(100.0, 0.0), &file(50.0, 3.0)).unwrap();
        assert_eq!(slower.worse, vec!["sl_paper/throughput_keps"]);
        assert_eq!(slower.more_failures, vec!["sl_paper"]);
        assert!(!slower.passed());
        assert!(compare(&Json::Null, &file(1.0, 0.0)).is_err());
    }

    #[test]
    fn whatever_one_file_lacks_fails_the_comparison() {
        let without = |section: &str, metric: Option<&str>| {
            let mut file = file(100.0, 0.0);
            let Json::Obj(root) = &mut file else {
                unreachable!()
            };
            let Some(Json::Obj(workloads)) = root.get_mut("workloads") else {
                unreachable!()
            };
            match metric {
                None => workloads.clear(),
                Some(metric) => {
                    let Some(Json::Obj(workload)) = workloads.get_mut("sl_paper") else {
                        unreachable!()
                    };
                    let Some(Json::Obj(metrics)) = workload.get_mut(section) else {
                        unreachable!()
                    };
                    metrics.remove(metric);
                }
            }
            file
        };
        // A workload the second file never ran.
        let gone = compare(&file(100.0, 0.0), &without("", None)).unwrap();
        assert_eq!(gone.missing, vec!["sl_paper"]);
        assert!(!gone.passed());
        // Every run of the second file was void: no end-to-end summary.
        let void = compare(
            &file(100.0, 0.0),
            &without("end_to_end", Some("recovery_s")),
        )
        .unwrap();
        assert_eq!(void.missing, vec!["sl_paper/recovery_s"]);
        // ... or of the base: an empty base must not compare clean.
        let void_base = compare(
            &without("end_to_end", Some("recovery_s")),
            &file(100.0, 0.0),
        )
        .unwrap();
        assert_eq!(void_base.missing, vec!["sl_paper/recovery_s"]);
        // A traced run that was void leaves a per-layer metric out.
        let untraced = compare(
            &file(100.0, 0.0),
            &without("per_layer", Some("tpg.edges_per_op")),
        )
        .unwrap();
        assert_eq!(untraced.missing, vec!["sl_paper/tpg.edges_per_op"]);
        assert!(untraced.worse.is_empty() && !untraced.passed());
    }
}
