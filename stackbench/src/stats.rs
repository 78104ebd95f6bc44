//! Order statistics and the seeded input generator.

/// The `q`-quantile of `v` (0 ≤ q ≤ 1) by linear interpolation between
/// closest ranks. `NaN` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Sub-buckets per power of two: values keep 1/1024 relative precision.
const SUB: usize = 1024;
const OCTAVES: usize = 64;

/// Log-linear histogram of values ≥ 1. Its memory does not grow with the
/// number of samples, so a faster program, which records more samples in
/// the same seconds, does not show a larger `peak_rss_mb`.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; OCTAVES * SUB],
            n: 0,
        }
    }

    pub fn record(&mut self, v: f64) {
        let v = v.clamp(1.0, 2f64.powi(OCTAVES as i32) - 1.0);
        let e = v.log2().floor();
        let sub = ((v / e.exp2() - 1.0) * SUB as f64) as usize;
        self.counts[e as usize * SUB + sub.min(SUB - 1)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> usize {
        self.n as usize
    }

    /// The bucket midpoint at rank `q·(n−1)`; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.n - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen > rank {
                let (e, sub) = (i / SUB, i % SUB);
                return (e as f64).exp2() * (1.0 + (sub as f64 + 0.5) / SUB as f64);
            }
        }
        unreachable!("rank < n")
    }
}

/// SplitMix64: the benchmark's only source of input randomness, so one
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_quantiles_keep_a_thousandth() {
        let mut h = Hist::new();
        assert!(h.quantile(0.5).is_nan());
        let v: Vec<f64> = (1..=1000).map(|i| 1000.0 + i as f64 * 3.7).collect();
        for x in &v {
            h.record(*x);
        }
        assert_eq!(h.count(), 1000);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let (got, want) = (h.quantile(q), quantile(&v, q));
            assert!((got - want).abs() / want < 2e-3, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
