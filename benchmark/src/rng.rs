//! Seeded randomness for op schedules: the benchmark's inputs are a pure
//! function of `--seed`, so the generator is written out here instead of
//! depending on whatever RNG the system under test vendors.

/// SplitMix64: tiny, fast, and good enough to shuffle an op schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// benchmark seed (schedules of different connections, CSV contents).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// A uniformly random order of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<usize> {
        let zipf = Zipf::new(16, 1.0);
        let mut rng = Rng::new(seed, 1);
        (0..500).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(draws(12), draws(12));
        assert_ne!(draws(12), draws(13));
        let mut a = Rng::new(12, 1);
        let mut b = Rng::new(12, 2);
        assert_ne!(a.next_u64(), b.next_u64(), "streams of one seed differ");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let d = draws(7);
        assert!(d.iter().all(|&r| r < 16));
        let count = |r| d.iter().filter(|&&x| x == r).count();
        // Weight of rank 0 under Zipf(1.0, 16) is 1/H16 = 0.296.
        assert!((100..200).contains(&count(0)), "rank 0 drawn {}", count(0));
        assert!(count(0) > count(1) && count(1) > count(15));
    }

    #[test]
    fn permutation_holds_every_index_once() {
        let mut order = Rng::new(5, 0).permutation(100);
        assert_ne!(order, (0..100).collect::<Vec<_>>());
        assert_eq!(order, Rng::new(5, 0).permutation(100));
        assert_ne!(order, Rng::new(6, 0).permutation(100));
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn below_covers_the_range() {
        let mut rng = Rng::new(3, 0);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
