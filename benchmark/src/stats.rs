//! Order statistics, the rank digest, and the process's peak memory.

/// The percentiles a latency metric may be named after.
const LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100)
}

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it — a tail estimate resting on fewer is noise.
pub fn supported_percentile(n: usize) -> Option<u32> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method) gives them, so
/// `compare` applies the same spread rule as the driver.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// FNV-1a over table ids and score bits of every response, in issue
/// order: two runs of one seed must agree on it bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDigest(u64);

impl Default for RankDigest {
    fn default() -> Self {
        RankDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl RankDigest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one response in: its length, then `(table, score bits)` pairs.
    pub fn response(&mut self, ranked: &[(u64, u64)]) {
        self.word(ranked.len() as u64);
        for &(table, bits) in ranked {
            self.word(table);
            self.word(bits);
        }
    }

    /// Folds another caller's digest in; callers merge in a fixed order.
    pub fn merge(&mut self, other: &RankDigest) {
        self.word(other.0);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(160), Some(90));
        assert_eq!(supported_percentile(199), Some(90));
        assert_eq!(supported_percentile(200), Some(95));
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 100.0);
        assert_eq!(percentile(&s, 95), 190.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) -> [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rank_digest_sees_order_ids_and_bits() {
        let digest = |rs: &[&[(u64, u64)]]| {
            let mut d = RankDigest::default();
            for r in rs {
                d.response(r);
            }
            d
        };
        let a = digest(&[&[(1, 10), (2, 20)], &[(3, 30)]]);
        assert_eq!(a, digest(&[&[(1, 10), (2, 20)], &[(3, 30)]]));
        assert_ne!(a, digest(&[&[(2, 20), (1, 10)], &[(3, 30)]]), "order");
        assert_ne!(a, digest(&[&[(1, 10), (2, 21)], &[(3, 30)]]), "bits");
        assert_ne!(a, digest(&[&[(1, 10)], &[(2, 20), (3, 30)]]), "framing");
        assert_eq!(a.hex().len(), 16);
    }
}
