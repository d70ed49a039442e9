//! Deterministic pseudo-random numbers for simulations.
//!
//! The kernel carries its own tiny generator rather than threading an
//! external RNG through every component: workload generators and randomized
//! arbiters need reproducible streams that are stable across platforms and
//! crate versions. The implementation is SplitMix64 (Steele, Lea, Flood,
//! OOPSLA'14) — 64 bits of state, full period, passes BigCrush when used as
//! a stream, and trivially seedable.

/// A small, fast, deterministic PRNG (SplitMix64).
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// Derive an independent child stream; used to give each component its
    /// own generator without correlating their draws.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(99);
        for _ in 0..10_000 {
            assert!(r.gen_range(13) < 13);
        }
    }

    #[test]
    fn gen_range_covers_all_residues() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SimRng::new(1234);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn fork_produces_uncorrelated_stream() {
        let mut a = SimRng::new(42);
        let mut b = a.fork();
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }
}
