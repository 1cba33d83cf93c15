//! Regenerates the figures of the MorphStream evaluation:
//! `figs <11|12|13|14|15|16|17|18|19|20|21|23|25|all> [--full]`, and
//! `figs 21 --workers [--full]` for the one-vs-two-worker sweep behind the
//! engine's declared-work rule. `--full` selects the larger scale.

use morphstream_bench::figs::FIGURES;
use morphstream_bench::{workers, Scale};

const USAGE: &str = "usage: figs <11|12|13|14|15|16|17|18|19|20|21|23|25|all> [--full]
       figs 21 --workers [--full]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((figure, flags)) = args.split_first() else {
        usage()
    };
    let (mut scale, mut sweep) = (Scale::Smoke, false);
    for flag in flags {
        match flag.as_str() {
            "--full" => scale = Scale::Full,
            "--workers" if figure == "21" => sweep = true,
            _ => usage(),
        }
    }
    if sweep {
        workers::run(scale);
    } else if figure == "all" {
        for (_, run) in FIGURES {
            run(scale);
        }
    } else {
        match FIGURES.iter().find(|(number, _)| number == figure) {
            Some((_, run)) => run(scale),
            None => usage(),
        }
    }
}
