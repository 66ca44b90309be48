//! Small, deterministic helpers the workloads are built from: the
//! forward-and-back frame replay, seeded pool cycling and nearest-rank
//! percentiles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of `frames` stored frames step `step` replays: forward through
/// `0..frames`, then backward, then forward again, never repeating an
/// end frame. Consecutive steps are always adjacent frames, so the churn
/// between steps is the churn between adjacent frames.
pub fn ping_pong(step: usize, frames: usize) -> usize {
    assert!(frames >= 2, "ping-pong replay needs at least two frames");
    let period = 2 * (frames - 1);
    let phase = step % period;
    if phase < frames {
        phase
    } else {
        period - phase
    }
}

/// A seeded permutation of `0..len`: the order in which a bounded pool of
/// requests is cycled. The same seed gives the same order.
pub fn pool_order(len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`, with
/// the number of samples strictly above it; `(0.0, 0)` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    // The epsilon keeps exact rank boundaries from ceiling one rank high.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Sorts `values` ascending (they must be finite).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_steps_between_adjacent_frames() {
        let frames = 5;
        let seq: Vec<usize> = (0..12).map(|s| ping_pong(s, frames)).collect();
        assert_eq!(seq, [0, 1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3]);
        for s in 0..100 {
            assert_eq!(ping_pong(s, frames).abs_diff(ping_pong(s + 1, frames)), 1);
        }
    }

    #[test]
    fn pool_order_is_a_seeded_permutation() {
        let a = pool_order(512, 9);
        assert_eq!(a, pool_order(512, 9));
        assert_ne!(a, pool_order(512, 10));
        let mut check = a.clone();
        check.sort_unstable();
        assert_eq!(check, (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn percentile_reports_samples_beyond_it() {
        let values = sorted((1..=1000).map(f64::from).rev().collect());
        assert_eq!(percentile(&values, 50.0), (500.0, 500));
        assert_eq!(percentile(&values, 90.0), (900.0, 100));
        assert_eq!(percentile(&values, 99.0), (990.0, 10));
        assert_eq!(percentile(&values, 100.0), (1000.0, 0));
        assert_eq!(percentile(&[], 50.0), (0.0, 0));
        assert_eq!(percentile(&[3.0], 99.0), (3.0, 0));
    }
}
