//! Small deterministic hashing utilities shared by state digests and tests.

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
