//! Regenerates Figure 21 of the paper. Pass `--full` for the larger run, and
//! `--workers` for the one-vs-two-worker sweep behind the engine's
//! declared-work rule instead.
fn main() {
    let scale = morphstream_bench::Scale::from_args();
    if std::env::args().any(|a| a == "--workers") {
        morphstream_bench::workers::run(scale);
    } else {
        morphstream_bench::figs::fig21::run(scale);
    }
}
