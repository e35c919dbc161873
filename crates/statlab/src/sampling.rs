//! Weight-vector sampling on the probability simplex.
//!
//! GMAA's Monte Carlo sensitivity analysis offers **three classes of
//! simulation** (paper, Section V):
//!
//! 1. attribute weights generated *completely at random* (no knowledge of
//!    relative importance) — uniform distribution on the simplex;
//! 2. random weights *preserving a total or partial rank order* of attribute
//!    importance;
//! 3. random weights *inside the elicited weight intervals*.
//!
//! All three are implemented here over any [`rand::Rng`], seeded by callers
//! for reproducibility.
//!
//! A class-3 run can also record which rejection-sampler attempts it kept
//! ([`AttemptLog`], one bit per attempt) and later redraw the same rows
//! from that log ([`SimplexSampler::replay_batch`]), bit for bit, without
//! repeating the box tests.

use rand::Rng;

/// Which generation scheme a [`SimplexSampler`] uses.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightScheme {
    /// Uniform (flat Dirichlet) over the whole simplex.
    Uniform,
    /// Uniform over the simplex, then reordered so that
    /// `w[order[0]] ≥ w[order[1]] ≥ …` (a *total* rank order of importance).
    RankOrder { order: Vec<usize> },
    /// Like `RankOrder` but with *groups* of indistinguishable attributes: a
    /// partial order. Weights are sorted across groups while order inside a
    /// group stays random.
    PartialRankOrder { groups: Vec<Vec<usize>> },
    /// Each weight drawn uniformly from `[low, upp]`, then normalized to sum
    /// to one; the draw is rejected if normalization pushes any component
    /// more than `1e-9` outside its interval (the procedure GMAA documents
    /// for simulating within elicited intervals). After 1000 rejections
    /// the sampler falls back to one clamped-and-renormalized draw, which
    /// sums to one but **can leave the box**: the renormalization after
    /// the clamp moves every weight again, by as much as the clamp moved
    /// the sum (see [`SimplexSampler::sample_into`]).
    Intervals { lower: Vec<f64>, upper: Vec<f64> },
}

/// Sampler producing normalized weight vectors under a [`WeightScheme`].
#[derive(Debug, Clone)]
pub struct SimplexSampler {
    n: usize,
    scheme: WeightScheme,
    /// Max rejection attempts for `Intervals` before falling back to the
    /// clamped-renormalized draw (keeps the sampler total).
    max_rejects: usize,
    /// `upp − low` per weight for `Intervals` (empty otherwise): the span
    /// `random_range(low..=upp)` would recompute on every draw.
    span: Vec<f64>,
}

impl SimplexSampler {
    /// Build a sampler for `n` weights. Panics if the scheme is inconsistent
    /// with `n` (wrong index sets or interval lengths).
    pub fn new(n: usize, scheme: WeightScheme) -> SimplexSampler {
        assert!(n > 0, "need at least one weight");
        match &scheme {
            WeightScheme::Uniform => {}
            WeightScheme::RankOrder { order } => {
                assert_eq!(order.len(), n, "rank order must mention every attribute");
                let mut seen = vec![false; n];
                for &i in order {
                    assert!(i < n && !seen[i], "rank order must be a permutation");
                    seen[i] = true;
                }
            }
            WeightScheme::PartialRankOrder { groups } => {
                let mut seen = vec![false; n];
                let mut count = 0;
                for g in groups {
                    for &i in g {
                        assert!(i < n && !seen[i], "groups must partition the attributes");
                        seen[i] = true;
                        count += 1;
                    }
                }
                assert_eq!(count, n, "groups must cover every attribute");
            }
            WeightScheme::Intervals { lower, upper } => {
                assert_eq!(lower.len(), n);
                assert_eq!(upper.len(), n);
                let lo: f64 = lower.iter().sum();
                let hi: f64 = upper.iter().sum();
                assert!(
                    lower.iter().zip(upper).all(|(l, u)| l <= u && *l >= 0.0),
                    "invalid weight intervals"
                );
                assert!(
                    lo <= 1.0 + 1e-9 && hi >= 1.0 - 1e-9,
                    "intervals exclude the simplex"
                );
            }
        }
        let span = match &scheme {
            WeightScheme::Intervals { lower, upper } => {
                upper.iter().zip(lower).map(|(u, l)| u - l).collect()
            }
            _ => Vec::new(),
        };
        SimplexSampler {
            n,
            scheme,
            max_rejects: 1000,
            span,
        }
    }

    pub fn dim(&self) -> usize {
        self.n
    }

    pub fn scheme(&self) -> &WeightScheme {
        &self.scheme
    }

    /// Draw one weight vector (sums to 1, all components ≥ 0, scheme
    /// constraints satisfied except by the documented `Intervals`
    /// fallback, which can leave the box).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.sample_into(rng, &mut out);
        out
    }

    /// Draw one weight vector into a caller-provided buffer — the form the
    /// batched Monte Carlo loop uses. Allocation-free for the `Uniform`
    /// and `Intervals` schemes; the rank-order schemes still build a
    /// sort scratch per draw. Consumes exactly the same RNG stream as
    /// [`SimplexSampler::sample`] (draw for draw), so the two produce
    /// identical sequences from the same seed.
    ///
    /// An `Intervals` draw is accepted only when every normalized weight
    /// lies within `1e-9` of its interval. If 1000 draws in a row are
    /// rejected, one fallback draw clamps the normalized weights into the
    /// box and renormalizes once. That result sums to one, but the second
    /// normalization can push weights back out of the box, by far more
    /// than `1e-9` when the box is narrow (lower `[0.5, 0.5]`, upper
    /// `[0.5, 0.6]` can give a first weight of `0.485`). Callers that rely
    /// on the box must check the weights themselves.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "sample buffer arity");
        match &self.scheme {
            WeightScheme::Uniform => uniform_simplex_into(rng, out),
            WeightScheme::RankOrder { order } => {
                let mut w = vec![0.0; self.n];
                uniform_simplex_into(rng, &mut w);
                w.sort_by(|a, b| b.total_cmp(a));
                for (pos, &attr) in order.iter().enumerate() {
                    out[attr] = w[pos];
                }
            }
            WeightScheme::PartialRankOrder { groups } => {
                let mut w = vec![0.0; self.n];
                uniform_simplex_into(rng, &mut w);
                w.sort_by(|a, b| b.total_cmp(a));
                // Hand the largest block of weights to the most important
                // group, shuffling inside each group.
                let mut next = 0usize;
                for g in groups {
                    let block = &mut w[next..next + g.len()];
                    next += g.len();
                    // Fisher-Yates over the block for within-group freedom.
                    for i in (1..block.len()).rev() {
                        let j = rng.random_range(0..=i);
                        block.swap(i, j);
                    }
                    for (&attr, &val) in g.iter().zip(block.iter()) {
                        out[attr] = val;
                    }
                }
            }
            WeightScheme::Intervals { lower, upper } => {
                self.sample_intervals(rng, out, lower, upper);
            }
        }
    }

    /// One `Intervals` draw into `out`; returns how many attempts were
    /// rejected before the kept one, `max_rejects` when the kept one is
    /// the fallback draw.
    #[inline(always)]
    fn sample_intervals<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut [f64],
        lower: &[f64],
        upper: &[f64],
    ) -> usize {
        for rejected in 0..self.max_rejects {
            let sum = self.attempt(rng, out, lower);
            if sum <= 0.0 {
                continue;
            }
            // Normalize and box-check in one pass, with one reciprocal
            // instead of n divisions.
            let inv = 1.0 / sum;
            let mut ok = true;
            for ((x, &l), &u) in out.iter_mut().zip(lower).zip(upper) {
                let v = *x * inv;
                *x = v;
                ok &= v >= l - 1e-9 && v <= u + 1e-9;
            }
            if ok {
                return rejected;
            }
        }
        self.fallback(rng, out, lower, upper);
        self.max_rejects
    }

    /// One `Intervals` attempt: `random_range(l..=u)` per weight, with
    /// `u − l` precomputed, into `out`; returns the sum, added in index
    /// order. Takes exactly `dim()` generator outputs.
    #[inline(always)]
    fn attempt<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64], lower: &[f64]) -> f64 {
        let mut sum = 0.0;
        for ((x, &l), &s) in out.iter_mut().zip(lower).zip(&self.span) {
            let v = l + rng.random::<f64>() * s;
            *x = v;
            sum += v;
        }
        sum
    }

    /// The `Intervals` fallback: one more draw, normalized, clamped into
    /// the box and renormalized once. This keeps the sampler total, but
    /// the renormalization can move weights back out of the box; the
    /// result is only guaranteed to lie on the simplex.
    fn fallback<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut [f64],
        lower: &[f64],
        upper: &[f64],
    ) {
        let inv = 1.0 / self.attempt(rng, out, lower).max(1e-12);
        for ((x, &l), &u) in out.iter_mut().zip(lower).zip(upper) {
            *x = (*x * inv).clamp(l, u);
        }
        let inv = 1.0 / out.iter().sum::<f64>();
        for x in out.iter_mut() {
            *x *= inv;
        }
    }

    /// Fill `out` (a whole number of `dim()`-weight rows) with consecutive
    /// draws — the same stream as calling [`SimplexSampler::sample_into`]
    /// once per row. The draws run on a local copy of the generator, so
    /// its state can live in registers for the whole batch instead of
    /// behind `rng`; the advanced state is written back at the end.
    pub fn sample_batch<R: Rng + Clone>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len() % self.n, 0, "sample batch arity");
        // lint:allow(no-alloc-in-kernel) -- copies the generator state, no heap
        let mut local = rng.clone();
        for row in out.chunks_exact_mut(self.n) {
            self.sample_into(&mut local, row);
        }
        *rng = local;
    }

    /// [`SimplexSampler::sample_batch`] that also appends to `log` one bit
    /// per `Intervals` attempt: the draws, and the generator state left
    /// behind, are exactly those of `sample_batch`. Only `Intervals` draws
    /// are logged; under any other scheme the log is marked incomplete.
    pub fn sample_batch_logged<R: Rng + Clone>(
        &self,
        rng: &mut R,
        out: &mut [f64],
        log: &mut AttemptLog,
    ) {
        let WeightScheme::Intervals { lower, upper } = &self.scheme else {
            log.complete = false;
            return self.sample_batch(rng, out);
        };
        assert_eq!(out.len() % self.n, 0, "sample batch arity");
        // lint:allow(no-alloc-in-kernel) -- copies the generator state, no heap
        let mut local = rng.clone();
        for row in out.chunks_exact_mut(self.n) {
            let rejected = self.sample_intervals(&mut local, row, lower, upper);
            log.push_draw(rejected);
        }
        *rng = local;
    }

    /// Redraw into `out` the rows an `Intervals` run logged into `log`,
    /// starting at attempt `*at` (advanced past the rows drawn), from the
    /// generator state that run started these rows from. The rows and the
    /// generator state left behind are bit-identical to
    /// [`SimplexSampler::sample_batch`]'s, but a rejected attempt only
    /// steps the generator `dim()` times, and a kept one repeats the
    /// draw's float operations without the box test. Panics if the
    /// scheme is not `Intervals` or the log runs out of kept attempts.
    pub fn replay_batch<R: Rng + Clone>(
        &self,
        rng: &mut R,
        out: &mut [f64],
        log: &AttemptLog,
        at: &mut usize,
    ) {
        let WeightScheme::Intervals { lower, upper } = &self.scheme else {
            panic!("only Intervals draws are logged");
        };
        assert_eq!(out.len() % self.n, 0, "sample batch arity");
        // lint:allow(no-alloc-in-kernel) -- copies the generator state, no heap
        let mut local = rng.clone();
        for row in out.chunks_exact_mut(self.n) {
            let rejected = log.rejections_before_kept(at);
            for _ in 0..rejected * self.n {
                local.next_u64();
            }
            if rejected < self.max_rejects {
                let inv = 1.0 / self.attempt(&mut local, row, lower);
                for x in row.iter_mut() {
                    *x *= inv;
                }
            } else {
                self.fallback(&mut local, row, lower, upper);
            }
        }
        *rng = local;
    }
}

/// Which attempts of an `Intervals` rejection sampler were kept, one bit
/// per attempt in draw order (set when kept), so that
/// [`SimplexSampler::replay_batch`] can redraw the run without testing
/// a single box. Each draw is a run of rejected attempts ended by a kept
/// one; a run of 1000 rejections is ended by the kept fallback draw. The log holds at most the bytes it was created with: an attempt
/// past them marks it incomplete, and [`AttemptLog::finish`] then
/// returns nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptLog {
    words: Vec<u64>,
    /// Attempts logged: bit `a` of the log is bit `a % 64` of
    /// `words[a / 64]`.
    attempts: usize,
    /// Whether every attempt offered to the log fit in it.
    complete: bool,
}

impl AttemptLog {
    /// An empty log of at most `bytes` bytes, rounded down to whole
    /// 64-bit words.
    pub fn with_byte_budget(bytes: usize) -> AttemptLog {
        AttemptLog {
            words: vec![0; bytes / 8],
            attempts: 0,
            complete: true,
        }
    }

    /// Attempts logged.
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Heap bytes the log holds.
    pub fn bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The log trimmed to the words its attempts fill, or `None` if some
    /// attempt did not fit.
    pub fn finish(mut self) -> Option<AttemptLog> {
        if !self.complete {
            return None;
        }
        self.words.truncate(self.attempts.div_ceil(64));
        self.words.shrink_to_fit();
        Some(self)
    }

    /// Log a draw: `rejected` rejected attempts, then the kept one. The
    /// words start zeroed, so only the kept attempt's bit is written.
    #[inline(always)]
    fn push_draw(&mut self, rejected: usize) {
        let kept = self.attempts + rejected;
        match self.words.get_mut(kept / 64) {
            Some(word) => {
                *word |= 1 << (kept % 64);
                self.attempts = kept + 1;
            }
            None => self.complete = false,
        }
    }

    /// The rejected attempts from `*at` up to the next kept one; moves
    /// `*at` past the kept attempt.
    #[inline(always)]
    fn rejections_before_kept(&self, at: &mut usize) -> usize {
        let start = *at;
        loop {
            let word = self
                .words
                .get(*at / 64)
                .expect("the log holds a kept attempt for every replayed draw")
                >> (*at % 64);
            if word != 0 {
                *at += word.trailing_zeros() as usize + 1;
                return *at - 1 - start;
            }
            *at += 64 - *at % 64;
        }
    }
}

/// Uniform sample on the standard simplex via normalized unit-rate
/// exponentials (equivalently Dirichlet(1,…,1)).
pub fn uniform_simplex<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let mut w = vec![0.0; n];
    uniform_simplex_into(rng, &mut w);
    w
}

/// [`uniform_simplex`] into a caller-provided buffer; same RNG stream.
pub fn uniform_simplex_into<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    loop {
        for x in out.iter_mut() {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            *x = -u.ln();
        }
        let sum: f64 = out.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            let inv = 1.0 / sum;
            for x in out.iter_mut() {
                *x *= inv;
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    fn assert_simplex(w: &[f64]) {
        let s: f64 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum {s}");
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn uniform_sums_to_one() {
        let s = SimplexSampler::new(5, WeightScheme::Uniform);
        let mut r = rng();
        for _ in 0..100 {
            assert_simplex(&s.sample(&mut r));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let s = SimplexSampler::new(4, WeightScheme::Uniform);
        let mut r = rng();
        let mut mean = vec![0.0; 4];
        let trials = 20_000;
        for _ in 0..trials {
            for (m, x) in mean.iter_mut().zip(s.sample(&mut r)) {
                *m += x;
            }
        }
        for m in &mean {
            let avg = m / trials as f64;
            assert!((avg - 0.25).abs() < 0.01, "avg {avg}");
        }
    }

    #[test]
    fn rank_order_is_respected() {
        let order = vec![2, 0, 1]; // attr2 most important, then 0, then 1
        let s = SimplexSampler::new(3, WeightScheme::RankOrder { order });
        let mut r = rng();
        for _ in 0..200 {
            let w = s.sample(&mut r);
            assert_simplex(&w);
            assert!(w[2] >= w[0] && w[0] >= w[1], "{w:?}");
        }
    }

    #[test]
    fn partial_rank_order_is_respected_across_groups() {
        // {0,3} jointly more important than {1,2}
        let groups = vec![vec![0, 3], vec![1, 2]];
        let s = SimplexSampler::new(4, WeightScheme::PartialRankOrder { groups });
        let mut r = rng();
        for _ in 0..200 {
            let w = s.sample(&mut r);
            assert_simplex(&w);
            let min_top = w[0].min(w[3]);
            let max_bottom = w[1].max(w[2]);
            assert!(min_top >= max_bottom, "{w:?}");
        }
    }

    #[test]
    fn intervals_are_respected() {
        let lower = vec![0.1, 0.2, 0.05, 0.0];
        let upper = vec![0.4, 0.6, 0.3, 0.5];
        let s = SimplexSampler::new(
            4,
            WeightScheme::Intervals {
                lower: lower.clone(),
                upper: upper.clone(),
            },
        );
        let mut r = rng();
        for _ in 0..500 {
            let w = s.sample(&mut r);
            assert_simplex(&w);
            for ((&x, &l), &u) in w.iter().zip(&lower).zip(&upper) {
                assert!(x >= l - 1e-6 && x <= u + 1e-6, "{x} not in [{l},{u}]");
            }
        }
    }

    #[test]
    fn tight_intervals_still_sample() {
        // Nearly degenerate box around (0.25,0.25,0.25,0.25).
        let lower = vec![0.24; 4];
        let upper = vec![0.26; 4];
        let s = SimplexSampler::new(4, WeightScheme::Intervals { lower, upper });
        let mut r = rng();
        let w = s.sample(&mut r);
        assert_simplex(&w);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_rank_order_panics() {
        SimplexSampler::new(
            3,
            WeightScheme::RankOrder {
                order: vec![0, 0, 1],
            },
        );
    }

    #[test]
    #[should_panic(expected = "exclude the simplex")]
    fn incompatible_intervals_panic() {
        SimplexSampler::new(
            2,
            WeightScheme::Intervals {
                lower: vec![0.0, 0.0],
                upper: vec![0.2, 0.2],
            },
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = SimplexSampler::new(6, WeightScheme::Uniform);
        let a = s.sample(&mut StdRng::seed_from_u64(7));
        let b = s.sample(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn sample_into_ignores_prior_buffer_contents() {
        // The draw must be a pure function of (scheme, rng state): a dirty
        // reused buffer — the batched Monte Carlo loop writes trial after
        // trial into the same storage — yields the same stream as fresh
        // allocations.
        let schemes = vec![
            WeightScheme::Uniform,
            WeightScheme::RankOrder {
                order: vec![2, 0, 1, 3],
            },
            WeightScheme::PartialRankOrder {
                groups: vec![vec![0, 3], vec![1, 2]],
            },
            WeightScheme::Intervals {
                lower: vec![0.1, 0.2, 0.05, 0.0],
                upper: vec![0.4, 0.6, 0.3, 0.5],
            },
        ];
        for scheme in schemes {
            let s = SimplexSampler::new(4, scheme);
            let mut rng_a = StdRng::seed_from_u64(4242);
            let mut rng_b = StdRng::seed_from_u64(4242);
            let mut dirty = vec![f64::MAX; 4];
            for _ in 0..200 {
                let mut fresh = vec![0.0; 4];
                s.sample_into(&mut rng_a, &mut fresh);
                s.sample_into(&mut rng_b, &mut dirty);
                assert_eq!(fresh, dirty, "{:?}", s.scheme());
                assert_simplex(&dirty);
            }
        }
    }

    #[test]
    fn interval_fallback_can_leave_the_box_but_stays_on_the_simplex() {
        // No normalized draw can keep the first weight at 0.5 unless the
        // second is drawn at exactly 0.5, so every draw takes the
        // clamp-and-renormalize fallback, whose second normalization pulls
        // the first weight below its box. Pinned bit for bit: the fallback
        // consumes the RNG stream exactly as it always has.
        let s = SimplexSampler::new(
            2,
            WeightScheme::Intervals {
                lower: vec![0.5, 0.5],
                upper: vec![0.5, 0.6],
            },
        );
        let w = s.sample(&mut rng());
        assert_eq!(
            [w[0].to_bits(), w[1].to_bits()],
            [4602409058074071370, 4602813699721934682],
            "{w:?}"
        );
        assert!(w[0] < 0.5 - 0.01, "{w:?} is outside [0.5, 0.5] by 0.015");
        assert_simplex(&w);
    }

    #[test]
    fn sample_batch_matches_row_by_row_draws() {
        let schemes = vec![
            WeightScheme::Uniform,
            WeightScheme::RankOrder {
                order: vec![2, 0, 1],
            },
            WeightScheme::PartialRankOrder {
                groups: vec![vec![0], vec![1, 2]],
            },
            WeightScheme::Intervals {
                lower: vec![0.1, 0.2, 0.05],
                upper: vec![0.4, 0.6, 0.3],
            },
            WeightScheme::Intervals {
                lower: vec![0.5, 0.5, 0.0],
                upper: vec![0.5, 0.6, 0.0],
            },
        ];
        for scheme in schemes {
            let s = SimplexSampler::new(3, scheme);
            let mut row_rng = StdRng::seed_from_u64(99);
            let mut batch_rng = StdRng::seed_from_u64(99);
            let mut rows = vec![0.0; 3 * 37];
            for row in rows.chunks_exact_mut(3) {
                s.sample_into(&mut row_rng, row);
            }
            let mut batch = vec![f64::NAN; 3 * 37];
            s.sample_batch(&mut batch_rng, &mut batch);
            assert_eq!(rows, batch, "{:?}", s.scheme());
            // The generator state was written back: the next draws agree.
            assert_eq!(s.sample(&mut row_rng), s.sample(&mut batch_rng));
        }
    }

    #[test]
    fn fallback_draws_replay_bit_for_bit() {
        // Every draw is the clamp-and-renormalize fallback (see
        // `interval_fallback_can_leave_the_box_but_stays_on_the_simplex`):
        // 1000 rejected attempts and the kept fallback. Logged in batches
        // of 2 rows, replayed in batches of 3.
        let s = SimplexSampler::new(
            2,
            WeightScheme::Intervals {
                lower: vec![0.5, 0.5],
                upper: vec![0.5, 0.6],
            },
        );
        let mut plain_rng = rng();
        let mut plain = vec![0.0; 10];
        s.sample_batch(&mut plain_rng, &mut plain);
        let mut log = AttemptLog::with_byte_budget(5 * 126 + 8);
        let mut logged_rng = rng();
        let mut logged = vec![f64::NAN; 10];
        for chunk in logged.chunks_mut(4) {
            s.sample_batch_logged(&mut logged_rng, chunk, &mut log);
        }
        assert_eq!(plain, logged, "logging leaves the draws alone");
        let log = log.finish().expect("the budget covers every attempt");
        assert_eq!(log.attempts(), 5 * 1001);
        let mut replay_rng = rng();
        let mut replayed = vec![f64::NAN; 10];
        let mut at = 0;
        for chunk in replayed.chunks_mut(6) {
            s.replay_batch(&mut replay_rng, chunk, &log, &mut at);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&replayed));
        assert_eq!(at, log.attempts());
        assert_eq!(format!("{plain_rng:?}"), format!("{replay_rng:?}"));
        assert_eq!(format!("{plain_rng:?}"), format!("{logged_rng:?}"));
    }

    #[test]
    fn a_log_past_its_budget_or_of_another_scheme_is_dropped() {
        let s = SimplexSampler::new(
            2,
            WeightScheme::Intervals {
                lower: vec![0.5, 0.5],
                upper: vec![0.5, 0.6],
            },
        );
        // 16 bytes hold 128 attempts; one fallback draw takes 1001.
        let mut log = AttemptLog::with_byte_budget(16);
        assert!(log.bytes() <= 16);
        s.sample_batch_logged(&mut rng(), &mut [0.0; 2], &mut log);
        assert_eq!(log.finish(), None);

        let s = SimplexSampler::new(2, WeightScheme::Uniform);
        let mut log = AttemptLog::with_byte_budget(16);
        s.sample_batch_logged(&mut rng(), &mut [0.0; 2], &mut log);
        assert_eq!(log.finish(), None);

        // A finished log keeps only the words its attempts fill.
        let s = SimplexSampler::new(
            2,
            WeightScheme::Intervals {
                lower: vec![0.0, 0.0],
                upper: vec![1.0, 1.0],
            },
        );
        let mut log = AttemptLog::with_byte_budget(1000);
        s.sample_batch_logged(&mut rng(), &mut [0.0; 2 * 65], &mut log);
        let log = log.finish().expect("fits");
        assert_eq!((log.attempts(), log.bytes()), (65, 16));
    }

    #[test]
    fn uniform_simplex_handles_n1() {
        let w = uniform_simplex(1, &mut rng());
        assert_eq!(w, vec![1.0]);
    }
}
