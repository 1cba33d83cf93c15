//! What every workload shares: seeded inputs, the scratch directory, the
//! set-up timer, and the outcome one run reports.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use morphstream::WorkloadConfig;
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::json::Json;
use crate::spec::SlShape;
use crate::stats;

/// Events in a pre-generated pool. A run that outlasts its pool wraps
/// around, so memory and set-up time do not depend on how fast the program
/// under test is. A multiple of every punctuation interval in use, so a
/// batch never straddles the wrap.
pub const POOL_EVENTS: usize = 1_024_000;

/// Events of the verified prefix of a library run: the state after exactly
/// this many events is compared against a single-threaded reference run. A
/// multiple of every punctuation interval in use.
pub const PREFIX_EVENTS: usize = 102_400;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// How many times a run restarts; `recovery_s` is the fastest.
pub const RESTARTS: usize = 5;

/// Width of the windows throughput is the median over, in seconds.
pub const RATE_WINDOW_S: f64 = 0.5;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the calling thread to the last hardware thread. Best effort: where
/// the call fails, or off Linux, the thread stays where the scheduler puts
/// it.
fn pin_to_last_core() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mask: u64 = 1 << (nproc() - 1).min(63);
        // SAFETY: `mask` is a live `u64` and the size passed is its size;
        // pid 0 names the calling thread; the call only reads the mask and
        // changes where this thread may run.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    }
}

/// Run `work` on a thread of its own, pinned to the last hardware thread:
/// where the load generator of the serve workloads runs, so that it keeps
/// to the one core the server (`threads = nproc − 1`) leaves it. Left to
/// the scheduler, generator and connection handler share a core in one run
/// and not in the next: over ten alternating pairs of runs on the seed,
/// `serve_mem`'s `recovery_s` spread by 31 % unpinned and 6.5 % pinned, its
/// `throughput_keps` by 25 % and 16 %. A thread of its own, because threads
/// inherit the mask: a pinned main thread would pin every server it starts.
pub fn on_last_core<R: Send>(work: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            pin_to_last_core();
            work()
        });
        generator.join().expect("the generator thread panicked")
    })
}

/// The workload configuration of a Streaming Ledger shape under `seed`.
pub fn sl_config(shape: &SlShape, seed: u64) -> WorkloadConfig {
    WorkloadConfig::streaming_ledger()
        .with_zipf_theta(shape.theta)
        .with_abort_ratio(shape.abort_ratio)
        .with_udf_complexity_us(shape.udf_us)
        .with_txns_per_batch(shape.punctuation)
        .with_key_space(shape.key_space)
        .with_seed(seed)
}

/// The seeded Streaming Ledger pool of a shape: the same seed gives the
/// same events.
pub fn sl_pool(shape: &SlShape, seed: u64, count: usize) -> Vec<SlEvent> {
    StreamingLedgerApp::generate(&sl_config(shape, seed), count, shape.transfer_ratio)
}

/// The `count` events that follow the first `skip` of the endless stream a
/// pool stands for.
pub fn cycled<T: Clone>(pool: &[T], skip: usize, count: usize) -> impl Iterator<Item = T> + '_ {
    pool.iter()
        .cycle()
        .skip(skip % pool.len())
        .take(count)
        .cloned()
}

/// The benchmark's output directory: `$BENCH_OUT` when set, else
/// `benchmark/out` from the repo root (how the driver and the README run
/// it), else `out` (from inside `benchmark/`).
pub fn out_dir() -> PathBuf {
    let dir = match std::env::var_os("BENCH_OUT") {
        Some(dir) => PathBuf::from(dir),
        None if Path::new("benchmark/Cargo.toml").exists() => PathBuf::from("benchmark/out"),
        None => PathBuf::from("out"),
    };
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// A scratch directory under [`out_dir`], removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create an empty scratch directory unique to this process and `tag`.
    pub fn new(tag: &str) -> Scratch {
        let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copy a directory tree (regular files and directories only).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Run `build` [`SETUP_REPEATS`] times, timing each; keep the last product.
/// Returns the product and the median set-up time in seconds.
pub fn set_up<R>(mut build: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut product = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous product down outside the timed part.
        drop(product.take());
        let started = Instant::now();
        product = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    stats::sort(&mut times);
    (product.expect("SETUP_REPEATS >= 1"), stats::median(&times))
}

/// The fastest of [`RESTARTS`] timed restarts, in seconds. A restart does
/// the same work every time, so what varies is what the shared host adds
/// (memory-bound work runs up to 1.6 times slower for seconds at a time),
/// and the fastest repeat has the least of it; a change that makes
/// restarting slower raises the minimum like any other statistic. `restart`
/// returns how long its timed part took.
pub fn fastest_restart(mut restart: impl FnMut() -> Duration) -> f64 {
    (0..RESTARTS)
        .map(|_| restart())
        .min()
        .expect("RESTARTS >= 1")
        .as_secs_f64()
}

/// Throughput in thousands of events per second from `(seconds since the
/// start, events completed so far)` marks: the median over consecutive
/// windows of at least [`RATE_WINDOW_S`], so a stall of the shared host
/// moves one window and not the result. Falls back to the overall rate when
/// the marks span less than one window.
pub fn median_rate_keps(marks: &[(f64, u64)]) -> f64 {
    let mut rates = Vec::new();
    let mut open = marks[0];
    for &mark in marks {
        if mark.0 - open.0 >= RATE_WINDOW_S {
            rates.push((mark.1 - open.1) as f64 / (mark.0 - open.0) / 1e3);
            open = mark;
        }
    }
    if rates.is_empty() {
        let (first, last) = (marks[0], marks[marks.len() - 1]);
        return (last.1 - first.1) as f64 / (last.0 - first.0) / 1e3;
    }
    stats::sort(&mut rates);
    stats::median(&rates)
}

/// What one end-to-end run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value, every entry of [`crate::spec::END_TO_END`] (or
    /// of [`crate::spec::PER_LAYER`] for a traced run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Events offered to the program.
    pub attempted: u64,
    /// Events lost, refused, or slower than the latency limit.
    pub failed: u64,
    /// Why the run is void (a correctness gate failed); empty for a good
    /// run.
    pub problems: Vec<String>,
    /// Why the run's timings are suspect (a validity guard tripped: the
    /// shared host stalled the generator or the server). Reported, not
    /// fatal: the outputs were still correct, and whoever repeats runs takes
    /// a median over them.
    pub suspect: Vec<String>,
    /// Run metadata for the log: thread counts, sample counts, the
    /// percentile the tail stands for, generator lateness.
    pub meta: BTreeMap<&'static str, Json>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a metadata field.
    pub fn note(&mut self, key: &'static str, value: impl Into<Json>) {
        self.meta.insert(key, value.into());
    }

    /// Void the run unless `ok`.
    pub fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Mark the run's timings suspect unless `ok`.
    pub fn suspect_unless(&mut self, ok: bool, doubt: impl FnOnce() -> String) {
        if !ok {
            self.suspect.push(doubt());
        }
    }
}

/// A reference digest as the gates compare it: flipped when
/// `BENCH_CORRUPT_REFERENCE` is set, which must void the run. The test suite
/// uses that to prove each correctness gate is live.
pub fn reference_digest(digest: u64) -> u64 {
    digest ^ std::env::var_os("BENCH_CORRUPT_REFERENCE").is_some() as u64
}
