//! Seeded randomness.
//!
//! Every generator in the reproduction takes an explicit `u64` seed so runs
//! are bit-for-bit reproducible. One dependency-free SplitMix64 serves them
//! all: workload sampling, Zipfian ranks, chaos scenarios, property-test
//! cases ([`crate::check`]) and seed derivation.

/// Derive a child seed from a parent seed and a stream label, so different
/// components of one experiment draw from independent streams.
pub fn child_seed(parent: u64, label: &str) -> u64 {
    let mut h = SplitMix64::new(parent ^ 0x9E37_79B9_7F4A_7C15);
    for b in label.bytes() {
        h.state = h.state.wrapping_add(b as u64);
        h.next_u64();
    }
    h.next_u64()
}

/// Minimal SplitMix64 PRNG (public-domain algorithm by Sebastiano Vigna).
///
/// Not cryptographic; statistically adequate for workload generation, and
/// fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift reduction; bias is negligible for our uses.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[0, 1)`: the top 53 bits as the mantissa.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_sequence_is_stable() {
        // Vigna's reference output for seed 0 — the stream every seeded
        // workload, figure and benchmark plan is built on.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut s = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(s.next_below(10) < 10);
        }
    }

    #[test]
    fn child_seed_depends_on_label() {
        assert_ne!(child_seed(1, "a"), child_seed(1, "b"));
        assert_eq!(child_seed(1, "a"), child_seed(1, "a"));
        assert_ne!(child_seed(1, "a"), child_seed(2, "a"));
    }
}
