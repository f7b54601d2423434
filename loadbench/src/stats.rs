//! Order statistics and the seeded generator the session lists are drawn
//! from.

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// session list on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail percentile to report: `preferred` (p99 or p90), stepping
/// down through p90/p75/p50 while fewer than ten samples lie beyond it
/// (the maximum below 20 samples). Returns `(label, value, samples
/// beyond it)`.
pub fn tail(sorted: &[f64], preferred: f64) -> (&'static str, f64, usize) {
    for (label, p) in [("p99", 0.99), ("p90", 0.90), ("p75", 0.75), ("p50", 0.50)] {
        let rank = (p * sorted.len() as f64).ceil() as usize;
        let beyond = sorted.len().saturating_sub(rank);
        if p <= preferred && beyond >= 10 {
            return (label, percentile(sorted, p), beyond);
        }
    }
    ("max", sorted.last().copied().unwrap_or(0.0), 0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
