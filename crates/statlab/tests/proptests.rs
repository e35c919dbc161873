//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use statlab::{
    percentile, rank_vector, spearman_rho, AttemptLog, Describe, SimplexSampler, TieBreak,
    WeightScheme,
};

proptest! {
    /// Percentiles are monotone in q and bracketed by min/max.
    #[test]
    fn percentiles_monotone(mut xs in proptest::collection::vec(-1e3f64..1e3, 1..50),
                            q1 in 0.0f64..100.0, q2 in 0.0f64..100.0) {
        xs.sort_by(|a, b| a.total_cmp(b));
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = percentile(&xs, lo);
        let p_hi = percentile(&xs, hi);
        prop_assert!(p_lo <= p_hi + 1e-12);
        prop_assert!(p_lo >= xs[0] - 1e-12);
        prop_assert!(p_hi <= xs[xs.len() - 1] + 1e-12);
    }

    /// Describe invariants: min ≤ p25 ≤ median ≤ p75 ≤ max, std ≥ 0, and the
    /// mode is an observed value.
    #[test]
    fn describe_invariants(xs in proptest::collection::vec(-1e3f64..1e3, 1..60)) {
        let d = Describe::new(&xs).expect("finite input");
        prop_assert!(d.min <= d.p25 + 1e-12);
        prop_assert!(d.p25 <= d.median + 1e-12);
        prop_assert!(d.median <= d.p75 + 1e-12);
        prop_assert!(d.p75 <= d.max + 1e-12);
        prop_assert!(d.std_dev >= 0.0);
        prop_assert!(xs.contains(&d.mode));
        prop_assert!(d.mean >= d.min - 1e-12 && d.mean <= d.max + 1e-12);
    }

    /// rank_vector produces a permutation of 1..=n when scores are distinct.
    #[test]
    fn ranks_are_a_permutation(xs in proptest::collection::hash_set(-1000i64..1000, 1..30)) {
        let scores: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        let ranks = rank_vector(&scores, TieBreak::Min);
        let mut sorted: Vec<usize> = ranks.iter().map(|&r| r as usize).collect();
        sorted.sort_unstable();
        let expected: Vec<usize> = (1..=scores.len()).collect();
        prop_assert_eq!(sorted, expected);
    }

    /// Spearman's rho is symmetric and bounded by [-1, 1].
    #[test]
    fn spearman_bounds(
        a in proptest::collection::vec(-1e3f64..1e3, 3..30),
        shift in -10.0f64..10.0,
    ) {
        let b: Vec<f64> = a.iter().enumerate().map(|(i, v)| v * 0.5 + shift + i as f64).collect();
        if let Some(r1) = spearman_rho(&a, &b) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r1));
            let r2 = spearman_rho(&b, &a).expect("symmetric");
            prop_assert!((r1 - r2).abs() < 1e-9);
        }
        // Self-correlation is exactly 1 when the vector has variance.
        if let Some(rself) = spearman_rho(&a, &a) {
            prop_assert!((rself - 1.0).abs() < 1e-9);
        }
    }

    /// Every sampler scheme yields normalized non-negative weights.
    #[test]
    fn samplers_always_normalize(n in 2usize..10, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schemes = vec![
            WeightScheme::Uniform,
            WeightScheme::RankOrder { order: (0..n).collect() },
        ];
        for scheme in schemes {
            let s = SimplexSampler::new(n, scheme);
            let w = s.sample(&mut rng);
            let sum: f64 = w.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    /// Interval-constrained samples stay inside their boxes.
    #[test]
    fn interval_sampler_respects_box(n in 2usize..8, seed in 0u64..500) {
        let lower: Vec<f64> = (0..n).map(|_| 0.3 / n as f64).collect();
        let upper: Vec<f64> = (0..n).map(|_| 2.0 / n as f64).collect();
        let s = SimplexSampler::new(n, WeightScheme::Intervals {
            lower: lower.clone(),
            upper: upper.clone(),
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let w = s.sample(&mut rng);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for ((&x, &l), &u) in w.iter().zip(&lower).zip(&upper) {
            prop_assert!(x >= l - 1e-6 && x <= u + 1e-6, "{x} not in [{l}, {u}]");
        }
    }
}

/// A weight box of `n` intervals that meets the simplex: a random box
/// around a random point of the simplex (`0`), a `1e-10`-wide box (`1`),
/// a box whose every draw is the fallback (`2`), or a box that accepts
/// 1 attempt in 140–440, so the fallback fires in some draws (`3`).
fn weight_box(n: usize, kind: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut point: Vec<f64> = (0..n).map(|_| unit() + 0.01).collect();
    let total: f64 = point.iter().sum();
    point.iter_mut().for_each(|p| *p /= total);
    match kind {
        _ if n == 1 => (vec![0.0], vec![1.0]),
        0 => {
            let width = 1e-3 + unit() * 0.5;
            point
                .iter()
                .map(|&p| ((p - unit() * width).max(0.0), p + unit() * width))
                .unzip()
        }
        1 => point.iter().map(|&p| ((p - 1e-10).max(0.0), p)).unzip(),
        2 => {
            let share = 1.0 / (n - 1) as f64;
            let mut lower = vec![0.5 * share; n];
            let mut upper = vec![0.6 * share; n];
            (lower[0], upper[0]) = (0.5, 0.5);
            (lower, upper)
        }
        _ => {
            let mut lower = vec![0.0; n];
            let mut upper = vec![1.0 / (n - 1) as f64; n];
            (lower[0], upper[0]) = (0.5 - 5e-4, 0.5 + 5e-4);
            (lower, upper)
        }
    }
}

proptest! {
    /// Replaying an `Intervals` run from its attempt log redraws exactly
    /// the rows `sample_batch` draws, bit for bit, and leaves the
    /// generator in the same state; logging the run changes neither. Over
    /// random boxes, `1e-10`-wide boxes, boxes where the 1000-rejection
    /// fallback fires in every draw or in some, with batches of 1–40 rows
    /// (so partial 16-row blocks) and replay batches cut elsewhere.
    #[test]
    fn replayed_draws_match_sample_batch(
        shape in (1usize..9, 0usize..4, 1usize..300),
        cuts in (1usize..41, 1usize..41, 0u64..1_000_000),
    ) {
        let ((n, kind, rows), (batch, replay, seed)) = (shape, cuts);
        // The always-fallback box takes 1000 attempts a draw.
        let rows = if kind == 2 { rows.min(20) } else { rows };
        let (lower, upper) = weight_box(n, kind, seed);
        let s = SimplexSampler::new(n, WeightScheme::Intervals { lower, upper });
        let mut plain_rng = StdRng::seed_from_u64(seed);
        let mut plain = vec![0.0; rows * n];
        for chunk in plain.chunks_mut(batch * n) {
            s.sample_batch(&mut plain_rng, chunk);
        }
        let mut log = AttemptLog::with_byte_budget(rows * 126 + 8);
        let mut logged_rng = StdRng::seed_from_u64(seed);
        let mut logged = vec![f64::NAN; rows * n];
        for chunk in logged.chunks_mut(batch * n) {
            s.sample_batch_logged(&mut logged_rng, chunk, &mut log);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&plain), bits(&logged));
        prop_assert_eq!(format!("{plain_rng:?}"), format!("{logged_rng:?}"));
        let log = log.finish().expect("1001 bits a row cover every draw");
        prop_assert!(log.bytes() <= rows * 126 + 8);
        let mut replay_rng = StdRng::seed_from_u64(seed);
        let mut replayed = vec![f64::NAN; rows * n];
        let mut at = 0;
        for chunk in replayed.chunks_mut(replay * n) {
            s.replay_batch(&mut replay_rng, chunk, &log, &mut at);
        }
        prop_assert_eq!(bits(&plain), bits(&replayed));
        prop_assert_eq!(at, log.attempts());
        prop_assert_eq!(format!("{plain_rng:?}"), format!("{replay_rng:?}"));
    }
}
