//! Regenerates Figure 16 of the paper. Pass `--full` for the larger run and
//! `--json PATH` to also write the rows — including the construct and execute
//! stage times — as machine-readable JSON (uploaded by the CI smoke-bench job
//! as `BENCH_fig16_smoke.json`).
fn main() {
    let scale = morphstream_bench::Scale::from_args();
    // Validate the argument list before the (multi-second) measurement runs.
    let json_path = morphstream_bench::harness::json_path_from_args();
    let rows = morphstream_bench::figs::fig16::run(scale);
    if let Some(path) = json_path {
        morphstream_bench::figs::fig16::write_json(&path, scale, &rows)
            .expect("failed to write bench JSON");
        println!("\nwrote {}", path.display());
    }
}
