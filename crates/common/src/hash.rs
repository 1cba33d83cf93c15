//! Small hashing utilities: the deterministic digest shared by state
//! digests and tests, and the seeded hasher of the per-operation maps.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The `BuildHasher` of the maps every operation of a batch touches: a
/// table's version chains, the planner's per-state sorted lists and the
/// coarse partition's groups. Their keys are integers and small tuples of
/// them, which one multiply per word mixes in a few cycles where SipHash
/// spends tens of nanoseconds.
///
/// Each map draws its own seed from std's [`RandomState`], so bucket
/// placement cannot be predicted from the key stream and differs between
/// maps and processes; the table's keys can arrive from outside the program.
/// Nothing may depend on a map's iteration order.
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    seed: u64,
}

impl SeededState {
    /// A state with a fresh random seed.
    pub fn new() -> Self {
        Self::with_seed(RandomState::new().hash_one(0x5EED_u64))
    }

    /// A state with a fixed seed, for tests that compare two seeds. The
    /// maps of the engine always take [`SeededState::new`].
    #[doc(hidden)]
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for SeededState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    #[inline]
    fn build_hasher(&self) -> SeededHasher {
        SeededHasher { state: self.seed }
    }
}

/// The hasher [`SeededState`] builds: each 64-bit word is xored into the
/// state, multiplied by an odd constant into 128 bits, and the two halves of
/// the product are xored together. The high half carries every input bit,
/// so the low bits (the bucket) and the high bits (the control byte) of the
/// result both depend on all of them — a single 64-bit product would leave
/// keys that differ only in their high bits in one bucket whatever the
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct SeededHasher {
    state: u64,
}

impl SeededHasher {
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(Self::MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for SeededHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Incremental FNV-1a (64-bit). Deterministic across platforms and runs, so
/// digests can be compared between thread counts, pipeline modes, and CI
/// hosts. Not a cryptographic hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self {
            state: Self::OFFSET,
        }
    }

    /// Hasher resumed from a previously [`finish`](Self::finish)ed state —
    /// lets a running digest survive a process restart (the recovery path
    /// checkpoints the state and keeps hashing where it left off).
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }

    /// Mix `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= *b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest accumulated so far.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// Append the 8-byte little-endian digest of `buf[from..]` to `buf` —
    /// the integrity trailer of the `MSW1`/`MSC1`/`MSR1` framings.
    pub fn seal(buf: &mut Vec<u8>, from: usize) {
        let mut fnv = Self::new();
        fnv.update(&buf[from..]);
        buf.extend_from_slice(&fnv.finish().to_le_bytes());
    }

    /// Whether `trailer` is the 8-byte trailer [`Fnv1a::seal`] writes for
    /// `region`. A trailer of any other length never verifies.
    pub fn verify(region: &[u8], trailer: &[u8]) -> bool {
        let mut fnv = Self::new();
        fnv.update(region);
        trailer == fnv.finish().to_le_bytes()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = Fnv1a::new();
        a.update(b"hello");
        a.update(b"world");
        let mut b = Fnv1a::new();
        b.update(b"helloworld");
        // chunking does not matter, only the byte stream
        assert_eq!(a.finish(), b.finish());

        let mut c = Fnv1a::new();
        c.update(b"worldhello");
        assert_ne!(a.finish(), c.finish());
        // empty hasher reports the offset basis
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn seal_and_verify_agree_and_catch_damage() {
        let mut buf = b"skipped|covered".to_vec();
        Fnv1a::seal(&mut buf, 8);
        let (region, trailer) = buf[8..].split_at(7);
        assert!(Fnv1a::verify(region, trailer));
        assert!(!Fnv1a::verify(b"coverex", trailer));
        assert!(!Fnv1a::verify(region, &trailer[..7]));
    }

    #[test]
    fn seeded_hashes_depend_on_the_seed_and_spread_dense_keys() {
        let (a, b) = (SeededState::with_seed(1), SeededState::with_seed(2));
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64));
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        // the fresh seeds of two maps differ
        assert_ne!(SeededState::new().seed, SeededState::new().seed);
        // a dense key range fills the buckets (low bits) and the control
        // bytes (top seven bits) of a table alike
        let (mut low, mut top) = (HashSet::new(), HashSet::new());
        for key in 0..1_024u64 {
            let hash = a.hash_one(key);
            low.insert(hash & 1_023);
            top.insert(hash >> 57);
        }
        assert!(low.len() > 600, "{} of 1024 buckets", low.len());
        assert_eq!(top.len(), 128);
        // keys that differ only in their high bits spread over the buckets
        // too, under either seed
        for state in [a, b] {
            let low: HashSet<u64> = (0..1_024u64)
                .map(|i| state.hash_one(i << 54) & 1_023)
                .collect();
            assert!(low.len() > 600, "{} of 1024 buckets", low.len());
        }
    }

    #[test]
    fn resumed_hasher_continues_the_same_stream() {
        let mut whole = Fnv1a::new();
        whole.update(b"helloworld");
        let mut first = Fnv1a::new();
        first.update(b"hello");
        let mut resumed = Fnv1a::from_state(first.finish());
        resumed.update(b"world");
        assert_eq!(resumed.finish(), whole.finish());
    }
}
