//! YCSB-style Zipfian and scrambled-Zipfian key samplers.
//!
//! The implementation follows Gray et al.'s rejection-free inverse-CDF
//! approximation as used by the original YCSB `ZipfianGenerator`, including
//! the incremental re-computation of `zeta(n)` when the item count grows.

use crate::rng::SplitMix64;

const ZIPF_CONSTANT: f64 = 0.99;

/// Zipfian sampler over `0..n` with YCSB's default skew (θ = 0.99).
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zeta_n: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Sampler over `0..items` with the default YCSB skew.
    pub fn new(items: u64) -> Zipfian {
        Zipfian::with_theta(items, ZIPF_CONSTANT)
    }

    /// Sampler over `0..items` with explicit skew θ in (0, 1).
    pub fn with_theta(items: u64, theta: f64) -> Zipfian {
        assert!(items > 0, "zipfian domain must be non-empty");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0,1)");
        let zeta_n = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian {
            items,
            theta,
            zeta_n,
            zeta2,
            alpha,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items in the domain.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Grow the domain to `items` (recomputing zeta incrementally).
    pub fn grow(&mut self, items: u64) {
        if items <= self.items {
            return;
        }
        self.zeta_n += ((self.items + 1)..=items)
            .map(|i| 1.0 / (i as f64).powf(self.theta))
            .sum::<f64>();
        self.items = items;
        self.eta =
            (1.0 - (2.0 / items as f64).powf(1.0 - self.theta)) / (1.0 - self.zeta2 / self.zeta_n);
    }

    /// Draw a rank in `0..items`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.items - 1)
    }
}

/// Scrambled Zipfian: Zipfian ranks passed through a stateless hash so hot
/// keys are spread across the key space (as YCSB does for its request
/// distribution).
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Sampler over `0..items`.
    pub fn new(items: u64) -> ScrambledZipfian {
        ScrambledZipfian {
            inner: Zipfian::new(items),
        }
    }

    /// Draw a key in `0..items`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let rank = self.inner.sample(rng);
        fnv1a_64(rank) % self.inner.items()
    }
}

/// FNV-1a hash of a u64 (YCSB uses FNV for scrambling).
pub fn fnv1a_64(v: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(1000);
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed_toward_low_ranks() {
        let z = Zipfian::new(1000);
        let mut rng = SplitMix64::new(2);
        let mut head = 0u64;
        let n = 50_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With theta=0.99 the hottest 10% of ranks should draw well over
        // half the samples.
        assert!(
            head as f64 / n as f64 > 0.55,
            "head share {}",
            head as f64 / n as f64
        );
    }

    #[test]
    fn scrambled_spreads_hot_keys() {
        let z = ScrambledZipfian::new(1000);
        let mut rng = SplitMix64::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            seen.insert(z.sample(&mut rng));
        }
        // Scrambling must not collapse the domain.
        assert!(seen.len() > 100);
        for &k in &seen {
            assert!(k < 1000);
        }
    }

    #[test]
    fn grow_extends_domain() {
        let mut z = Zipfian::new(10);
        z.grow(1000);
        assert_eq!(z.items(), 1000);
        let mut rng = SplitMix64::new(4);
        let any_large = (0..20_000).any(|_| z.sample(&mut rng) >= 10);
        assert!(any_large);
    }

    #[test]
    fn uniform_theta_zero_like_behaviour() {
        // Low theta should be much flatter than default.
        let flat = Zipfian::with_theta(1000, 0.01);
        let mut rng = SplitMix64::new(5);
        let mut head = 0u64;
        let n = 50_000;
        for _ in 0..n {
            if flat.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        let share = head as f64 / n as f64;
        assert!(share < 0.35, "flat head share {share}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_panics() {
        let _ = Zipfian::new(0);
    }
}
