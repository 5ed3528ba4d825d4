//! Deterministic, random-access pseudo-randomness.
//!
//! The fluid traffic model and per-packet fate decisions need noise that is a
//! *pure function* of `(seed, entity, time-bin / packet-uid)` so that the
//! whole year-long campaign is reproducible bit-for-bit and queue state can
//! be queried lazily without replaying history. We use SplitMix64 as the
//! mixing function.

/// SplitMix64 finalizer: a high-quality 64→64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix an arbitrary number of words into one hash.
#[inline]
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64; // pi fractional bits
    for &w in words {
        h = splitmix64(h ^ w);
    }
    h
}

/// A stateless hash-based random source keyed by a seed.
///
/// Each method derives an independent value from `(seed, stream, key)`;
/// callers choose `stream` constants so different uses never collide.
#[derive(Clone, Copy, Debug)]
pub struct HashNoise {
    seed: u64,
}

impl HashNoise {
    /// Create a noise source for `seed`.
    pub fn new(seed: u64) -> Self {
        HashNoise { seed }
    }

    /// The underlying seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` for `(stream, key)`.
    #[inline]
    pub fn u64(&self, stream: u64, key: u64) -> u64 {
        mix(&[self.seed, stream, key])
    }

    /// Uniform `f64` in `[0, 1)` for `(stream, key)`.
    #[inline]
    pub fn unit_f64(&self, stream: u64, key: u64) -> f64 {
        // 53 random mantissa bits.
        (self.u64(stream, key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&self, stream: u64, key: u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit_f64(stream, key)
    }

    /// Standard normal variate (Box–Muller on two derived uniforms).
    #[inline]
    pub fn std_normal(&self, stream: u64, key: u64) -> f64 {
        let u1 = self.unit_f64(stream, key ^ 0x5bf0_3635).max(1e-12);
        let u2 = self.unit_f64(stream, key ^ 0x9e37_79b9);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&self, stream: u64, key: u64, p: f64) -> bool {
        self.unit_f64(stream, key) < p
    }

    /// Derive a child noise source with an independent seed.
    pub fn child(&self, stream: u64, key: u64) -> HashNoise {
        HashNoise { seed: self.u64(stream, key) }
    }
}

/// Stream constants used across the workspace, collected here so collisions
/// are visible in one place.
pub mod streams {
    /// Per-link offered-load noise.
    pub const LOAD_NOISE: u64 = 0x01;
    /// Per-packet drop decision at a saturated queue.
    pub const QUEUE_DROP: u64 = 0x02;
    /// Per-packet random loss floor (fault injection).
    pub const FAULT_LOSS: u64 = 0x03;
    /// ICMP generation jitter.
    pub const ICMP_JITTER: u64 = 0x04;
    /// RTT measurement micro-jitter.
    pub const RTT_JITTER: u64 = 0x08;
    /// Geolocation database error model.
    pub const GEO_ERROR: u64 = 0x09;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(1), 1);
    }

    #[test]
    fn unit_f64_in_range() {
        let n = HashNoise::new(42);
        for k in 0..10_000 {
            let v = n.unit_f64(1, k);
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn unit_f64_roughly_uniform() {
        let n = HashNoise::new(7);
        let mut buckets = [0usize; 10];
        let total = 100_000u64;
        for k in 0..total {
            buckets[(n.unit_f64(2, k) * 10.0) as usize] += 1;
        }
        for b in buckets {
            let frac = b as f64 / total as f64;
            assert!((0.09..0.11).contains(&frac), "bucket fraction {frac}");
        }
    }

    #[test]
    fn std_normal_moments() {
        let n = HashNoise::new(3);
        let total = 200_000u64;
        let (mut sum, mut sq) = (0.0, 0.0);
        for k in 0..total {
            let v = n.std_normal(4, k);
            sum += v;
            sq += v * v;
        }
        let mean = sum / total as f64;
        let var = sq / total as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn chance_matches_probability() {
        let n = HashNoise::new(11);
        let total = 100_000u64;
        let hits = (0..total).filter(|&k| n.chance(5, k, 0.25)).count();
        let frac = hits as f64 / total as f64;
        assert!((0.24..0.26).contains(&frac), "{frac}");
    }

    #[test]
    fn streams_are_independent() {
        let n = HashNoise::new(9);
        assert_ne!(n.u64(1, 100), n.u64(2, 100));
        assert_ne!(n.child(1, 0).seed(), n.child(1, 1).seed());
    }
}
