//! Benchmark harness regenerating every table and figure of the MorphStream
//! evaluation (Section 8 of the paper).
//!
//! Each `figs::figXX` module exposes `measure(scale)`, which runs the
//! experiment and returns its rows, and `run(scale)`, which prints them as the
//! paper reports them. One binary, `figs <N|all> [--full]`, runs them;
//! `tests/paper_claims.rs` asserts each figure's claim on the rows `measure`
//! returns.
//!
//! Absolute numbers depend on the host; what the harness preserves is the
//! *shape* of every figure — which system wins, by roughly what factor, and
//! where the crossovers fall.

#![warn(missing_docs)]

pub mod figs;
pub mod harness;
pub mod workers;

pub use harness::{Scale, SystemReport};

/// Identifies one of the systems under comparison; labels the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemUnderTest {
    /// MorphStream with adaptive scheduling.
    MorphStream,
    /// The TStream reconstruction.
    TStream,
    /// The S-Store reconstruction.
    SStore,
    /// Conventional SPE + external state, with locking.
    LockedSpeWithLocks,
    /// Conventional SPE + external state, without locking (incorrect).
    LockedSpeWithoutLocks,
}

impl std::fmt::Display for SystemUnderTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SystemUnderTest::MorphStream => "MorphStream",
            SystemUnderTest::TStream => "TStream",
            SystemUnderTest::SStore => "S-Store",
            SystemUnderTest::LockedSpeWithLocks => "Flink+Redis (w/ locks)",
            SystemUnderTest::LockedSpeWithoutLocks => "Flink+Redis (w/o locks)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_labels_match_figure_11() {
        assert_eq!(SystemUnderTest::MorphStream.to_string(), "MorphStream");
        assert_eq!(SystemUnderTest::SStore.to_string(), "S-Store");
        assert!(SystemUnderTest::LockedSpeWithLocks
            .to_string()
            .contains("w/ locks"));
        assert!(SystemUnderTest::LockedSpeWithoutLocks
            .to_string()
            .contains("w/o locks"));
    }
}
