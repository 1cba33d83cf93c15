//! Operator-topology benchmark: the fused TP operator against its
//! two-operator dataflow split, with per-operator-instance
//! throughput/latency rows. Pass `--full` for the larger run, `--concurrent`
//! to also measure the threaded (per-operator-thread) driver against the
//! inline one, `--parallelism N` to run the keyed road-statistics
//! stage with `N` parallel instances, and `--json PATH` to also write the
//! rows — including the per-instance sub-rows, wall-clock seconds, and
//! back-pressure counters — as machine-readable JSON (uploaded by the CI
//! smoke-bench job as `BENCH_topology_smoke.json` and, for the
//! `--concurrent --parallelism 4` leg, `BENCH_topology_parallel_smoke.json`).
fn main() {
    let scale = morphstream_bench::Scale::from_args();
    let options = morphstream_bench::figs::fig_topology::TopologyOptions::from_args();
    // Validate the argument list before the (multi-second) measurement runs.
    let json_path = morphstream_bench::harness::json_path_from_args();
    let rows = morphstream_bench::figs::fig_topology::run(scale, options);
    if let Some(path) = json_path {
        morphstream_bench::figs::fig_topology::write_json(&path, scale, &rows)
            .expect("failed to write bench JSON");
        println!("\nwrote {}", path.display());
    }
}
