//! Deterministic RNG helpers.
//!
//! Every stochastic component in the workspace (MCTS rollouts, ε-greedy
//! action sampling, synthetic workload generation, DQN exploration) takes an
//! explicit seed and derives its generator through these helpers, so that
//! experiments are reproducible bit-for-bit (the paper runs 5 seeds and
//! reports mean ± std; we do the same).

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Construct the standard generator from a seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a stream-specific generator from a base seed and a stream label.
///
/// Mixing the label via FNV-1a keeps independently-seeded components (e.g.
/// the rollout RNG vs the query-selection RNG) decorrelated even when the
/// user supplies adjacent base seeds.
pub fn derive(seed: u64, stream: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in stream.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// The weight [`weighted_choice`] gives `w`: `w` itself when finite and
/// positive, else `0.0`.
#[inline]
pub fn sampling_weight(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

/// Weighted sampling: pick an element index with probability proportional to
/// `weights[i]`. Non-finite or negative weights are treated as zero; if all
/// weights are zero the choice is uniform. Returns `None` on empty input.
///
/// This implements the paper's Eq. 6 sampling rule
/// `Pr(a|s) = Q̂(s,a) / Σ_b Q̂(s,b)` used by the ε-greedy variant.
pub fn weighted_choice<R: rand::Rng>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    if weights.is_empty() {
        return None;
    }
    let total: f64 = weights.iter().copied().map(sampling_weight).sum();
    if total <= 0.0 {
        return Some(rng.random_range(0..weights.len()));
    }
    let mut target = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= sampling_weight(w);
        if target <= 0.0 {
            return Some(i);
        }
    }
    // Floating-point slack: fall back to the last positive-weight element.
    weights.iter().rposition(|&w| sampling_weight(w) > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn derive_streams_differ() {
        let mut a = derive(1, "rollout");
        let mut b = derive(1, "query-selection");
        let xa: u64 = a.random();
        let xb: u64 = b.random();
        assert_ne!(xa, xb);
    }

    #[test]
    fn derive_is_deterministic() {
        let x: u64 = derive(7, "s").random();
        let y: u64 = derive(7, "s").random();
        assert_eq!(x, y);
    }

    #[test]
    fn weighted_choice_empty() {
        assert_eq!(weighted_choice(&mut seeded(0), &[]), None);
    }

    #[test]
    fn weighted_choice_all_zero_is_uniform() {
        let mut rng = seeded(3);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[weighted_choice(&mut rng, &[0.0, 0.0, 0.0]).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = seeded(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_choice(&mut rng, &[1.0, 0.0, 9.0]).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac = counts[2] as f64 / 30_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn weighted_choice_ignores_nan_and_negative() {
        let mut rng = seeded(9);
        for _ in 0..100 {
            let i = weighted_choice(&mut rng, &[f64::NAN, -3.0, 2.0]).unwrap();
            assert_eq!(i, 2);
        }
    }
}
