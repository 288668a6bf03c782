//! Event-trace hashing: the runtime twin of the `simlint` static policy.
//!
//! The static analyzer keeps nondeterminism *sources* out of the tree; this
//! module proves the property end-to-end: a simulator folds every dispatched
//! event into a [`TraceHash`], and two runs with the same seed must produce
//! the same digest. Any hash-ordered iteration, uninitialised read, or
//! wall-clock leak shows up as a digest mismatch within one test run.
//!
//! The digest folds one 64-bit word per step: `x = (state ^ word) * K`,
//! then `state = x ^ (x >> 29)`, with `K` the odd 64-bit golden-ratio
//! constant. Every event folds several words, so a per-word step (rather
//! than FNV-1a's eight dependent byte multiplies) keeps the hash off the
//! per-event hot path. Each step is a bijection of the state for a fixed
//! word and of the word for a fixed state, so changing any one folded word
//! always changes the digest. It is tiny, dependency-free, and plenty for
//! equality comparison (this is a replication check, not a cryptographic
//! commitment). The accumulator is snapshot state: changing the mixer is a
//! snapshot layout change and needs a `SNAPSHOT_VERSION` bump.
//!
//! # Example
//!
//! ```
//! use sim_core::TraceHash;
//! let mut a = TraceHash::new();
//! a.write_u64(7).write_str("RxEnd");
//! let mut b = TraceHash::new();
//! b.write_u64(7).write_str("RxEnd");
//! assert_eq!(a.digest(), b.digest());
//! ```

/// An order-sensitive running digest of a simulation's event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHash {
    state: u64,
}

/// The initial state (the FNV-1a offset basis; any nonzero constant works).
const SEED: u64 = 0xCBF2_9CE4_8422_2325;
/// The per-word multiplier: odd, so the multiply is a bijection.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl TraceHash {
    /// A fresh digest.
    pub fn new() -> Self {
        TraceHash { state: SEED }
    }

    /// Folds raw bytes into the digest as little-endian words, the last one
    /// zero-padded. Not length-framed: use [`Self::write_str`] (or fold the
    /// length first) when the boundary matters.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self
    }

    /// Folds one `u64` into the digest in a single mixing step.
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        let x = (self.state ^ value).wrapping_mul(MIX);
        self.state = x ^ (x >> 29);
        self
    }

    /// Folds a string into the digest (length-prefixed, so `"ab", "c"` and
    /// `"a", "bc"` differ).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// Folds an `f64` by bit pattern (exact, not approximate: replication
    /// means bit-for-bit equality, including NaN payloads and signed zero).
    pub fn write_f64(&mut self, value: f64) -> &mut Self {
        self.write_u64(value.to_bits())
    }

    /// The current digest value.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

impl Default for TraceHash {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::Snapshotable for TraceHash {
    fn encode(&self, w: &mut crate::SnapshotWriter) {
        w.put_u64(self.state);
    }

    fn decode(r: &mut crate::SnapshotReader<'_>) -> Result<Self, crate::SnapError> {
        Ok(TraceHash { state: r.take_u64()? })
    }
}

/// Runs `f` twice and asserts both runs produce equal output — the
/// twin-run determinism check. Returns the (verified identical) result.
///
/// `f` must construct *all* of its state internally (simulator, RNG,
/// clocks); any shared mutable state between the runs defeats the check.
///
/// # Panics
///
/// Panics with a diagnostic if the two runs disagree.
///
/// # Example
///
/// ```
/// use sim_core::{twin_run, SimRng};
/// let digest = twin_run(|| {
///     let mut rng = SimRng::new(42);
///     (0..100).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
/// });
/// let _ = digest;
/// ```
pub fn twin_run<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> T {
    let first = f();
    let second = f();
    assert_eq!(
        first, second,
        "twin-run determinism check failed: two identical-seed runs diverged \
         (a nondeterminism source leaked into the simulation — run \
         `cargo run -p simlint` and check recent changes for hash-ordered \
         iteration)"
    );
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest of the fold sequence in `known_answer_digest`, computed
    /// independently of this module from the mixer formula.
    const KNOWN_ANSWER: u64 = 0x4B00_6D67_5C27_9F35;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = TraceHash::new();
        a.write_u64(1).write_u64(2);
        let mut b = TraceHash::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn str_framing_prevents_concatenation_collisions() {
        let mut a = TraceHash::new();
        a.write_str("ab").write_str("c");
        let mut b = TraceHash::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn f64_hashing_is_bit_exact() {
        let mut a = TraceHash::new();
        a.write_f64(0.0);
        let mut b = TraceHash::new();
        b.write_f64(-0.0);
        assert_ne!(a.digest(), b.digest(), "signed zeros are distinct traces");
    }

    /// Pins the mixer. Changing this value changes every digest and the
    /// snapshot state behind it: bump `SNAPSHOT_VERSION` in the same change.
    #[test]
    fn known_answer_digest() {
        let mut h = TraceHash::new();
        h.write_u64(0).write_u64(1).write_u64(u64::MAX).write_str("RxEnd").write_f64(-0.5);
        assert_eq!(h.digest(), KNOWN_ANSWER);
    }

    #[test]
    fn bytes_fold_as_zero_padded_words() {
        let mut a = TraceHash::new();
        a.write_bytes(b"0123456789");
        let mut b = TraceHash::new();
        b.write_u64(u64::from_le_bytes(*b"01234567"))
            .write_u64(u64::from_le_bytes(*b"89\0\0\0\0\0\0"));
        assert_eq!(a.digest(), b.digest());
        let mut empty = TraceHash::new();
        empty.write_bytes(&[]);
        assert_eq!(empty.digest(), TraceHash::new().digest(), "no bytes fold no words");
    }

    #[test]
    fn empty_digest_is_stable() {
        assert_eq!(TraceHash::new().digest(), TraceHash::default().digest());
    }

    #[test]
    fn twin_run_returns_the_common_value() {
        let mut calls = 0;
        let v = twin_run(|| {
            calls += 1;
            99u32
        });
        assert_eq!((v, calls), (99, 2));
    }

    #[test]
    #[should_panic(expected = "twin-run determinism check failed")]
    fn twin_run_catches_divergence() {
        let mut n = 0u32;
        twin_run(|| {
            n += 1;
            n
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn digest(words: &[u64]) -> u64 {
        let mut h = TraceHash::new();
        for &w in words {
            h.write_u64(w);
        }
        h.digest()
    }

    proptest! {
        /// Flipping any one bit of any one folded word changes the digest.
        #[test]
        fn one_bit_flip_changes_the_digest(
            words in proptest::collection::vec(any::<u64>(), 1..16),
            at in any::<usize>(),
            bit in 0u32..64,
        ) {
            let mut flipped = words.clone();
            let i = at % flipped.len();
            if let Some(w) = flipped.get_mut(i) {
                *w ^= 1 << bit;
            }
            prop_assert_ne!(digest(&words), digest(&flipped));
        }

        /// Swapping two adjacent, distinct words changes the digest.
        #[test]
        fn adjacent_swap_changes_the_digest(
            words in proptest::collection::vec(any::<u64>(), 2..16),
            at in any::<usize>(),
        ) {
            let i = at % (words.len() - 1);
            let mut swapped = words.clone();
            swapped.swap(i, i + 1);
            if swapped != words {
                prop_assert_ne!(digest(&words), digest(&swapped));
            }
        }
    }
}
