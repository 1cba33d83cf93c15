//! Zipfian key sampling.
//!
//! The paper models state-access skew as a Zipfian distribution over the key
//! space and sweeps the Zipf factor θ between 0.0 (uniform) and 1.0 (highly
//! skewed) — see Table 6 and Figures 18b. This module implements the standard
//! rejection-inversion-free CDF-table sampler: exact and deterministic. A
//! guide table narrows every draw to the few ranks whose CDF values share the
//! draw's bucket, so a sample costs O(1) expected whatever the key space —
//! the benchmark's pools of a million events over 100 000 keys are generated
//! by two such draws per transfer.

use crate::rng::DetRng;

/// A Zipfian sampler over the key range `[0, n)`.
///
/// For θ = 0 the distribution degenerates to uniform; larger θ concentrates
/// probability mass on the low-numbered keys. The generator shuffles the rank
/// → key mapping so that "hot" keys are spread across the key space rather
/// than clustered at 0, mirroring how the original benchmark seeds hot
/// accounts.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]` is the first rank whose CDF value is at least `b / g`, for
    /// `g = guide.len() - 1` buckets (a power of two, so `u * g` is exact).
    /// A draw `u` in bucket `b` has its rank inside `guide[b]..=guide[b + 1]`.
    guide: Vec<u32>,
    rank_to_key: Vec<u64>,
}

impl Zipf {
    /// Build a sampler over `n` keys with skew factor `theta`, using `seed`
    /// to derive the hot-key placement.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf requires a non-empty key space");
        assert!(theta >= 0.0, "Zipf skew must be non-negative");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf key space exceeds the guide table's u32 ranks"
        );
        let n_usize = n as usize;
        let mut weights = Vec::with_capacity(n_usize);
        let mut total = 0.0f64;
        for rank in 1..=n_usize {
            let w = 1.0 / (rank as f64).powf(theta);
            total += w;
            weights.push(total);
        }
        let cdf: Vec<f64> = weights.iter().map(|w| w / total).collect();
        // One merge pass: both the bucket bounds and the CDF ascend.
        let buckets = n_usize.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0usize;
        for b in 0..=buckets {
            let bound = b as f64 / buckets as f64;
            while rank < n_usize && cdf[rank] < bound {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        let mut rank_to_key: Vec<u64> = (0..n).collect();
        let mut rng = DetRng::new(seed ^ ZIPF_SEED_MIX);
        rng.shuffle(&mut rank_to_key);
        Self {
            cdf,
            guide,
            rank_to_key,
        }
    }

    /// Number of keys in the sampled space.
    #[inline]
    pub fn key_space(&self) -> u64 {
        self.rank_to_key.len() as u64
    }

    /// Sample one key.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.next_f64();
        self.rank_to_key[self.rank_of(u)]
    }

    /// The first rank whose CDF value is at least `u` (clamped to the last
    /// rank), found inside the guide bucket `u` falls in.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let bucket = (u * (self.guide.len() - 1) as f64) as usize;
        let lo = self.guide[bucket] as usize;
        let hi = (self.guide[bucket + 1] as usize).min(last);
        (lo + self.cdf[lo..=hi].partition_point(|p| *p < u)).min(last)
    }

    /// The whole-table binary search `rank_of` replaced, kept as the
    /// reference the guide-table lookup is tested against.
    #[cfg(test)]
    fn rank_of_reference(&self, u: f64) -> usize {
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Sample `count` distinct keys (used for multi-key transactions where the
    /// same transaction must not read and write the identical state twice).
    pub fn sample_distinct(&self, rng: &mut DetRng, count: usize) -> Vec<u64> {
        assert!(
            count as u64 <= self.key_space(),
            "cannot sample more distinct keys than the key space holds"
        );
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let k = self.sample(rng);
            if !out.contains(&k) {
                out.push(k);
            }
        }
        out
    }
}

/// Mixed into the caller-provided seed so the hot-key shuffle stream differs
/// from any stream the caller derives from the same seed.
const ZIPF_SEED_MIX: u64 = 0x5A1F_5EED_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_theta_spreads_mass_evenly() {
        let zipf = Zipf::new(100, 0.0, 1);
        let mut rng = DetRng::new(2);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.6,
            "uniform sampling should be flat: {min}..{max}"
        );
    }

    #[test]
    fn high_theta_concentrates_mass() {
        let zipf = Zipf::new(1000, 0.99, 1);
        let mut rng = DetRng::new(3);
        let mut counts = std::collections::HashMap::new();
        let samples = 50_000;
        for _ in 0..samples {
            *counts.entry(zipf.sample(&mut rng)).or_insert(0usize) += 1;
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freq.iter().take(10).sum();
        assert!(
            top10 as f64 / samples as f64 > 0.3,
            "top-10 keys should dominate a skewed distribution, got {top10}"
        );
    }

    #[test]
    fn samples_stay_in_key_space() {
        let zipf = Zipf::new(37, 0.7, 5);
        let mut rng = DetRng::new(7);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 37);
        }
    }

    #[test]
    fn distinct_sampling_returns_unique_keys() {
        let zipf = Zipf::new(16, 0.9, 9);
        let mut rng = DetRng::new(11);
        let keys = zipf.sample_distinct(&mut rng, 10);
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    /// `rank_of` against the whole-table search on `draws` outputs of the
    /// stream seeded by `stream_seed`.
    fn assert_matches_reference(n: u64, theta: f64, stream_seed: u64, draws: usize) {
        let zipf = Zipf::new(n, theta, 1);
        let mut rng = DetRng::new(stream_seed);
        for _ in 0..draws {
            let u = rng.next_f64();
            assert_eq!(
                zipf.rank_of(u),
                zipf.rank_of_reference(u),
                "n = {n}, theta = {theta}, u = {u}"
            );
        }
    }

    #[test]
    fn guide_table_lookup_equals_the_whole_table_search() {
        for (n, theta) in [
            (100_000, 0.2),
            (10_000, 1.0),
            (100_000, 0.0),
            (1_000, 0.99),
            (37, 0.7),
            (1, 0.5),
        ] {
            assert_matches_reference(n, theta, 0xC0FF_EE00 ^ n, 300_000);
        }
        // the ends of the unit interval, which no stream is sure to hit
        let zipf = Zipf::new(37, 0.7, 1);
        for u in [0.0, f64::MIN_POSITIVE, 0.5, 1.0 - f64::EPSILON / 2.0] {
            assert_eq!(zipf.rank_of(u), zipf.rank_of_reference(u), "u = {u}");
        }
    }

    #[test]
    fn guide_table_lookup_equals_the_search_on_the_benchmark_streams() {
        // Every draw the Streaming Ledger generator can hand `sample` in its
        // first 102 400 events is one output of the stream it seeds with
        // `seed ^ 0x51ED_6E5A`, at most five per event; the hot-key shuffle
        // does not enter the rank lookup.
        for seed in [0xD5EE_D001u64, 7] {
            for (n, theta) in [(100_000, 0.2), (10_000, 1.0)] {
                assert_matches_reference(n, theta, seed ^ 0x51ED_6E5A, 5 * 102_400);
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_key_space_is_rejected() {
        let _ = Zipf::new(0, 0.5, 1);
    }
}
