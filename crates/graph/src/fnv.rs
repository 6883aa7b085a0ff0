//! FNV-1a (64-bit): the workspace's one fingerprint hash.
//!
//! Transport checksums, journal frame checksums, ball-cache keys, label
//! digests and service report fingerprints all use it. A word is mixed as
//! its eight little-endian bytes, so every digest is the same on every
//! host.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Mixes one word as its eight little-endian bytes.
    pub fn word(&mut self, word: u64) -> &mut Self {
        self.bytes(&word.to_le_bytes())
    }

    /// The digest of everything mixed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a sequence of words.
#[must_use]
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for w in words {
        h.word(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn words_are_little_endian_bytes() {
        let w = 0x0102_0304_0506_0708u64;
        assert_eq!(
            fnv1a_words([w]),
            Fnv1a::new().bytes(&w.to_le_bytes()).finish()
        );
    }
}
