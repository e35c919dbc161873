//! Ranking utilities: converting score vectors to rank vectors, accumulating
//! rank distributions across Monte Carlo trials (the per-alternative
//! statistics of the paper's Fig 10), and rank correlation coefficients used
//! to validate the reconstructed dataset against the published ranking.

use crate::describe::describe_counts;
use serde::{Deserialize, Serialize};

/// Trial count of the register-blocked transposed rank kernel (see
/// [`RankAccumulator::record_scores_transposed`]); batch drivers slice
/// their trials into sub-blocks of exactly this size for the fast path.
pub const RANK_LANES: usize = 16;

/// How one alternative of a pair stands against the other in *every*
/// trial of a run, when that is known before the run starts (see
/// [`RankWindows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOrder {
    /// Either may score higher; the trials must compare them.
    Unknown,
    /// Scores strictly higher in every trial.
    Above,
    /// Scores strictly lower in every trial.
    Below,
}

/// One alternative's share of the windowed rank kernel.
#[derive(Debug, Clone, Copy)]
struct Sweep {
    alt: usize,
    /// The alternative's own position.
    pos: usize,
    /// The window of positions holding every rival whose order is
    /// unknown, as two position ranges that leave out `pos` itself.
    spans: [(usize, usize); 2],
    /// Rivals known to score higher that sit outside the window.
    base: usize,
}

/// The per-run plan of [`RankAccumulator::record_windows_16`]: which
/// alternatives each trial must compare, given the pairs whose order is
/// fixed for the whole run, for the alternatives the run counts.
///
/// The alternatives are laid out in *positions*, sorted by how many rivals
/// are known to beat them (model order on ties), so the rivals an
/// alternative cannot be ordered against tend to sit next to it. Each
/// alternative with such rivals gets the contiguous window of positions
/// that holds all of them, and a base count of the known-better rivals
/// outside the window; its `TieBreak::Min` rank in a trial is
/// `1 + base + #{window scores strictly above its own}`, the window
/// leaving out the alternative itself. Comparing inside the window is
/// exact for known pairs too, so only the outside needs the certificate.
/// An alternative with no unknown rival has a fixed rank and is neither
/// scored nor compared.
///
/// A plan may count only some of the alternatives (an incremental Monte
/// Carlo rerun recounts those an edit can reorder): the others get no
/// sweep and no fixed rank, their rows of the counts are left untouched,
/// and only the positions the counted alternatives read are scored.
#[derive(Debug, Clone, Default)]
pub struct RankWindows {
    order: Vec<usize>,
    sweeps: Vec<Sweep>,
    fixed: Vec<(usize, usize)>,
    scored: Vec<usize>,
}

impl RankWindows {
    /// Plan the kernel for `n` alternatives from an `n × n` pair relation,
    /// `rel[i·n + k]` being how `i` stands against `k`, counting the
    /// alternatives `alt` with `counted[alt]`. The relation must be
    /// antisymmetric (`Above` at `(i, k)` exactly when `Below` at
    /// `(k, i)`); the diagonal is ignored.
    pub fn new(n: usize, rel: &[PairOrder], counted: &[bool]) -> RankWindows {
        assert_eq!(rel.len(), n * n, "pair relation arity");
        assert_eq!(counted.len(), n, "counted mask arity");
        let row = |i: usize| &rel[i * n..(i + 1) * n];
        let beaten_by: Vec<usize> = (0..n)
            .map(|i| {
                let row = row(i).iter().enumerate();
                row.filter(|&(k, &r)| k != i && r == PairOrder::Below)
                    .count()
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| beaten_by[i]);
        let mut pos_of = vec![0; n];
        for (p, &alt) in order.iter().enumerate() {
            pos_of[alt] = p;
        }
        let mut plan = RankWindows::default();
        let mut scored = vec![false; n];
        for (pos, &alt) in order.iter().enumerate() {
            if !counted[alt] {
                continue;
            }
            let (mut lo, mut hi) = (n, 0);
            for (k, &r) in row(alt).iter().enumerate() {
                if k != alt && r == PairOrder::Unknown {
                    lo = lo.min(pos_of[k]);
                    hi = hi.max(pos_of[k] + 1);
                }
            }
            if lo >= hi {
                plan.fixed.push((alt, beaten_by[alt]));
                continue;
            }
            let base = row(alt)
                .iter()
                .enumerate()
                .filter(|&(k, &r)| {
                    k != alt && r == PairOrder::Below && !(lo..hi).contains(&pos_of[k])
                })
                .count();
            // The sweep reads its own row too; a rival's window holds it
            // in a plan that counts the rival, not always in this one.
            scored[lo..hi].fill(true);
            scored[pos] = true;
            let spans = if (lo..hi).contains(&pos) {
                [(lo, pos), (pos + 1, hi)]
            } else {
                [(lo, hi), (hi, hi)]
            };
            plan.sweeps.push(Sweep {
                alt,
                pos,
                spans,
                base,
            });
        }
        plan.scored = (0..n).filter(|&p| scored[p]).collect();
        plan.order = order;
        plan
    }

    /// The alternative at each position.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The positions whose scores [`RankAccumulator::record_windows_16`]
    /// reads, ascending: the union of the counted alternatives' windows
    /// and positions.
    pub fn scored(&self) -> &[usize] {
        &self.scored
    }
}

/// Tie-handling policy for [`rank_vector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Tied scores share the average of the ranks they span (fractional
    /// ranks; standard for Spearman's rho).
    Average,
    /// Tied scores all receive the smallest rank of their group ("1224"
    /// competition ranking, what a ranked list display uses).
    Min,
}

/// Rank a score vector, rank 1 = highest score. Returns fractional ranks for
/// `TieBreak::Average`.
pub fn rank_vector(scores: &[f64], ties: TieBreak) -> Vec<f64> {
    let n = scores.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Descending by score; NaNs sink to the end deterministically. A bare
    // descending `total_cmp` would rank +NaN above +inf, so NaN keys
    // collapse to -inf first; index order breaks remaining ties.
    let key = |i: usize| {
        let s = scores[i];
        if s.is_nan() {
            f64::NEG_INFINITY
        } else {
            s
        }
    };
    order.sort_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
    let mut ranks = vec![0.0; n];
    let mut i = 0usize;
    while i < n {
        // NaN != NaN, so each NaN is its own singleton group (the j = i + 1
        // start also keeps the loop advancing for them).
        let mut j = i + 1;
        while j < n && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        // positions i..j (0-based) share ranks i+1 ..= j.
        let value = match ties {
            TieBreak::Average => (i + 1 + j) as f64 / 2.0,
            TieBreak::Min => (i + 1) as f64,
        };
        for &idx in &order[i..j] {
            ranks[idx] = value;
        }
        i = j;
    }
    ranks
}

/// Spearman rank correlation between two score vectors (computed on
/// average-tie ranks). Returns `None` for length mismatch, n < 2, or zero
/// variance.
pub fn spearman_rho(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let ra = rank_vector(a, TieBreak::Average);
    let rb = rank_vector(b, TieBreak::Average);
    pearson(&ra, &rb)
}

/// Kendall's tau-b between two score vectors.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            if da == 0.0 && db == 0.0 {
                // tied in both; contributes to neither
            } else if da == 0.0 {
                ties_a += 1;
            } else if db == 0.0 {
                ties_b += 1;
            } else if (da > 0.0) == (db > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return None;
    }
    Some((concordant - discordant) as f64 / denom)
}

fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Summary of one alternative's rank distribution (the row format of the
/// paper's Fig 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankStats {
    pub label: String,
    pub mode: u32,
    pub min: u32,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: u32,
    pub mean: f64,
    pub std_dev: f64,
    /// How often this alternative ranked first.
    pub times_best: usize,
    pub trials: usize,
}

/// Accumulates integer rank observations for a set of alternatives across
/// Monte Carlo trials.
#[derive(Debug, Clone)]
pub struct RankAccumulator {
    labels: Vec<String>,
    /// `counts[alt][rank-1]` = number of trials where `alt` took `rank`.
    counts: Vec<Vec<usize>>,
    trials: usize,
    /// Scratch for [`RankAccumulator::record_scores_transposed`]:
    /// per-trial strictly-greater tallies, kept as f64 so the
    /// compare-accumulate loop vectorizes lane-for-lane with the f64 score
    /// compares (small integer counts are exact in f64). Re-sized by every
    /// user — lengths vary between calls.
    better: Vec<f64>,
}

// Wire encoding for the serving layer: the accumulator is the full
// fidelity rank distribution (`counts[alt][rank-1]`), so a Monte Carlo
// result shipped across a connection can answer `acceptability` queries
// exactly like the in-process original. The `better` scratch buffer is
// transient per-call state and deliberately stays out of the encoding;
// deserialization rebuilds it empty-sized to the alternative count.
impl serde::Serialize for RankAccumulator {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.field("labels", &self.labels);
        s.field("counts", &self.counts);
        s.field("trials", &self.trials);
        s.end_object();
    }
}

/// The decoded form of a [`RankAccumulator`]: its derived impl holds the
/// field rules (any order, unknown keys skipped, first duplicate kept,
/// absent keys read as `null`), and the conversion adds the squareness
/// check and the scratch buffer.
#[derive(Deserialize)]
struct RankWire {
    labels: Vec<String>,
    counts: Vec<Vec<usize>>,
    trials: usize,
}

impl serde::Deserialize for RankAccumulator {
    fn deserialize(d: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let RankWire {
            labels,
            counts,
            trials,
        } = RankWire::deserialize(d)?;
        if counts.len() != labels.len() || counts.iter().any(|row| row.len() != labels.len()) {
            return Err(serde::Error::custom(
                "rank accumulator counts must be square in the label count",
            ));
        }
        let n = labels.len();
        Ok(RankAccumulator {
            labels,
            counts,
            trials,
            better: vec![0.0; n],
        })
    }
}

impl RankAccumulator {
    pub fn new(labels: Vec<String>) -> RankAccumulator {
        let n = labels.len();
        RankAccumulator {
            labels,
            counts: vec![vec![0; n]; n],
            trials: 0,
            better: vec![0.0; n],
        }
    }

    pub fn num_alternatives(&self) -> usize {
        self.labels.len()
    }

    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Record one trial's score vector (higher score = better rank).
    pub fn record_scores(&mut self, scores: &[f64]) {
        assert_eq!(
            scores.len(),
            self.labels.len(),
            "score vector length mismatch"
        );
        let ranks = rank_vector(scores, TieBreak::Min);
        for (alt, &r) in ranks.iter().enumerate() {
            let r = r as usize;
            debug_assert!((1..=self.labels.len()).contains(&r));
            self.counts[alt][r - 1] += 1;
        }
        self.trials += 1;
    }

    /// Record a transposed *block* of trials at once — the batched Monte
    /// Carlo ranking kernel. `scores_t` is alternative-major
    /// (`scores_t[alt * block + t]` = score of `alt` in trial `t`). Rank
    /// counting runs pair-major: an alternative's `TieBreak::Min` rank is
    /// `1 +` the number of strictly greater scores, so each ordered
    /// alternative pair is one vectorized strictly-greater sweep across
    /// the whole block of trials. Counts are identical to the sorting
    /// path of [`RankAccumulator::record_scores`] for finite scores (the
    /// only scores an additive utility model produces).
    pub fn record_scores_transposed(&mut self, scores_t: &[f64], block: usize) {
        let n = self.labels.len();
        assert_eq!(scores_t.len(), n * block, "score block arity");
        debug_assert!(scores_t.iter().all(|s| !s.is_nan()), "NaN score");
        if block == RANK_LANES {
            return self.record_scores_16(scores_t);
        }
        self.better.clear();
        self.better.resize(block, 0.0);
        for (i, row) in self.counts.iter_mut().enumerate() {
            let s_i = &scores_t[i * block..(i + 1) * block];
            self.better.fill(0.0);
            for (k, s_k) in scores_t.chunks_exact(block).enumerate() {
                if k == i {
                    continue;
                }
                for ((a, &sk), &si) in self.better.iter_mut().zip(s_k).zip(s_i) {
                    *a += if sk > si { 1.0 } else { 0.0 };
                }
            }
            for &b in self.better.iter() {
                row[b as usize] += 1;
            }
        }
        self.trials += block;
    }

    /// Fixed-width fast path of
    /// [`RankAccumulator::record_scores_transposed`]: with the block size a
    /// compile-time constant, each alternative's strictly-greater tally and
    /// its own score row live in stack arrays the compiler keeps in vector
    /// registers across the whole rival sweep — one compare + masked add
    /// per `(rival, trial)` lane with no accumulator memory traffic.
    fn record_scores_16(&mut self, scores_t: &[f64]) {
        const T: usize = RANK_LANES;
        for (i, row) in self.counts.iter_mut().enumerate() {
            let mut s_i = [0.0f64; T];
            s_i.copy_from_slice(&scores_t[i * T..(i + 1) * T]);
            let mut acc = [0.0f64; T];
            for (k, s_k) in scores_t.chunks_exact(T).enumerate() {
                if k == i {
                    continue;
                }
                for ((a, &sk), &si) in acc.iter_mut().zip(s_k).zip(&s_i) {
                    *a += if sk > si { 1.0 } else { 0.0 };
                }
            }
            for &b in &acc {
                row[b as usize] += 1;
            }
        }
        self.trials += T;
    }

    /// Record a block of [`RANK_LANES`] trials through a [`RankWindows`]
    /// plan. `scores_t` is position-major (`scores_t[p·RANK_LANES + t]` is
    /// the score of the alternative at position `p` in trial `t`); only
    /// the plan's [`RankWindows::scored`] positions are read. The rows of
    /// the plan's counted alternatives equal those of
    /// [`RankAccumulator::record_scores_transposed`] on the same trials,
    /// provided every pair the plan was built as `Above` or `Below` really
    /// is ordered so in each of them; every other row is left as it was.
    pub fn record_windows_16(&mut self, scores_t: &[f64], plan: &RankWindows) {
        const T: usize = RANK_LANES;
        assert_eq!(scores_t.len(), plan.order.len() * T, "score block arity");
        let (rows, _) = scores_t.as_chunks::<T>();
        for s in &plan.sweeps {
            let own = rows[s.pos];
            // Even and odd rivals go to separate tallies, so consecutive
            // compares feed independent add chains, and the conditional
            // add compiles to one masked add. Tallies are small integers,
            // exact in f64, so the split does not change their sum.
            let tally = |acc: &mut [f64; T], rival: &[f64; T]| {
                for ((a, &sk), &si) in acc.iter_mut().zip(rival).zip(&own) {
                    if sk > si {
                        *a += 1.0;
                    }
                }
            };
            let (mut even, mut odd) = ([s.base as f64; T], [0.0f64; T]);
            for &(lo, hi) in &s.spans {
                let (twos, rest) = rows[lo..hi].as_chunks::<2>();
                for [first, second] in twos {
                    tally(&mut even, first);
                    tally(&mut odd, second);
                }
                for rival in rest {
                    tally(&mut even, rival);
                }
            }
            let row = &mut self.counts[s.alt];
            for (&e, &o) in even.iter().zip(&odd) {
                row[(e + o) as usize] += 1;
            }
        }
        for &(alt, rank0) in &plan.fixed {
            self.counts[alt][rank0] += T;
        }
        self.trials += T;
    }

    /// Overwrite `alt`'s row of the counts with `other`'s (same label
    /// set): how an incremental Monte Carlo rerun keeps the rows whose
    /// ranks an edit cannot change.
    pub fn copy_row(&mut self, other: &RankAccumulator, alt: usize) {
        assert_eq!(self.labels.len(), other.labels.len(), "accumulator arity");
        self.counts[alt].copy_from_slice(&other.counts[alt]);
    }

    /// The raw ranking-frequency matrix: `counts()[alt][rank-1]` = number
    /// of trials where `alt` took `rank`.
    pub fn counts(&self) -> &[Vec<usize>] {
        &self.counts
    }

    /// Rank-acceptability index b(alt, rank): share of trials in which
    /// `alt` obtained exactly `rank` (1-based).
    pub fn acceptability(&self, alt: usize, rank: usize) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.counts[alt][rank - 1] as f64 / self.trials as f64
    }

    /// Reconstruct the (sorted) rank sample of one alternative.
    pub fn rank_sample(&self, alt: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.trials);
        for (rank0, &c) in self.counts[alt].iter().enumerate() {
            out.extend(std::iter::repeat_n((rank0 + 1) as f64, c));
        }
        out
    }

    /// Fig 10-style statistics for every alternative, straight from the
    /// count histograms (no per-trial sample is ever expanded).
    pub fn stats(&self) -> Vec<RankStats> {
        let ranks: Vec<f64> = (1..=self.labels.len()).map(|r| r as f64).collect();
        (0..self.labels.len())
            .map(|alt| {
                let d = describe_counts(&ranks, &self.counts[alt]).expect("non-empty after trials");
                RankStats {
                    label: self.labels[alt].clone(),
                    mode: d.mode as u32,
                    min: d.min as u32,
                    p25: d.p25,
                    median: d.median,
                    p75: d.p75,
                    max: d.max as u32,
                    mean: d.mean,
                    std_dev: d.std_dev,
                    times_best: self.counts[alt][0],
                    trials: self.trials,
                }
            })
            .collect()
    }

    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_vector_simple_descending() {
        let r = rank_vector(&[0.9, 0.5, 0.7], TieBreak::Min);
        assert_eq!(r, vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn rank_vector_average_ties() {
        let r = rank_vector(&[0.5, 0.5, 0.1], TieBreak::Average);
        assert_eq!(r, vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn rank_vector_min_ties() {
        let r = rank_vector(&[0.5, 0.5, 0.1], TieBreak::Min);
        assert_eq!(r, vec![1.0, 1.0, 3.0]);
    }

    #[test]
    fn rank_vector_sinks_nan_below_every_finite_score() {
        // NaN keys collapse to -inf before the descending total_cmp, so
        // a NaN never outranks a real score; the NaN group itself stays
        // deterministic (index order). The NaN and the real -inf share
        // the key but not equality, so they rank as distinct singletons.
        let r = rank_vector(&[f64::NAN, 0.1, f64::NEG_INFINITY, 0.7], TieBreak::Min);
        assert_eq!(r, vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman_rho(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman_rho(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_rejects_degenerate() {
        assert!(spearman_rho(&[1.0], &[2.0]).is_none());
        assert!(spearman_rho(&[1.0, 1.0], &[2.0, 3.0]).is_none()); // zero variance
        assert!(spearman_rho(&[1.0, 2.0], &[2.0]).is_none());
    }

    #[test]
    fn kendall_matches_known_value() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [3.0, 4.0, 1.0, 2.0, 5.0];
        // concordant = 6, discordant = 4 over 10 pairs: tau = 0.2
        assert!((kendall_tau(&a, &b).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn kendall_handles_ties() {
        let a = [1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        let t = kendall_tau(&a, &b).unwrap();
        assert!(t > 0.0 && t <= 1.0);
    }

    #[test]
    fn accumulator_records_and_summarizes() {
        let mut acc = RankAccumulator::new(vec!["a".into(), "b".into(), "c".into()]);
        acc.record_scores(&[0.9, 0.5, 0.1]); // a=1, b=2, c=3
        acc.record_scores(&[0.8, 0.9, 0.1]); // b=1, a=2, c=3
        acc.record_scores(&[0.9, 0.5, 0.1]); // a=1 again
        assert_eq!(acc.trials(), 3);
        let stats = acc.stats();
        assert_eq!(stats[0].mode, 1);
        assert_eq!(stats[0].times_best, 2);
        assert_eq!(stats[2].mode, 3);
        assert_eq!(stats[2].min, 3);
        assert_eq!(stats[2].max, 3);
        assert!((stats[1].mean - (2.0 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn acceptability_sums_to_one_over_ranks() {
        let mut acc = RankAccumulator::new(vec!["a".into(), "b".into()]);
        acc.record_scores(&[1.0, 0.0]);
        acc.record_scores(&[0.0, 1.0]);
        let total: f64 = (1..=2).map(|r| acc.acceptability(0, r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((acc.acceptability(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_sample_roundtrip() {
        let mut acc = RankAccumulator::new(vec!["a".into(), "b".into()]);
        acc.record_scores(&[1.0, 0.0]);
        acc.record_scores(&[1.0, 0.0]);
        assert_eq!(acc.rank_sample(0), vec![1.0, 1.0]);
        assert_eq!(acc.rank_sample(1), vec![2.0, 2.0]);
    }

    #[test]
    fn transposed_recording_matches_sorting_path_on_ties() {
        // One-trial blocks through the transposed kernel vs the sorting
        // path, on tie-heavy score vectors.
        let labels: Vec<String> = (0..7).map(|i| format!("a{i}")).collect();
        let mut sorted = RankAccumulator::new(labels.clone());
        let mut transposed = RankAccumulator::new(labels);
        let trials = [
            vec![0.9, 0.5, 0.1, 0.5, 0.9, 0.0, 0.3], // ties everywhere
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            vec![0.0; 7], // all tied
            vec![0.1, 0.2, 0.2, 0.2, 0.9, 0.9, 0.5],
        ];
        for t in &trials {
            sorted.record_scores(t);
            // A block of one trial is already alternative-major.
            transposed.record_scores_transposed(t, 1);
        }
        assert_eq!(sorted.counts(), transposed.counts());
        assert_eq!(sorted.stats(), transposed.stats());
    }

    #[test]
    fn transposed_scratch_survives_varying_block_sizes() {
        // Regression: the `better` scratch is shared across calls of
        // different lengths; a small block must not truncate a larger
        // following one.
        let labels: Vec<String> = (0..7).map(|i| format!("a{i}")).collect();
        let trial = [0.9, 0.5, 0.1, 0.6, 0.2, 0.8, 0.4];
        let mut reference = RankAccumulator::new(labels.clone());
        reference.record_scores(&trial);
        reference.record_scores(&trial);
        reference.record_scores(&trial);

        let mut mixed = RankAccumulator::new(labels);
        // Leaves `better` at length 7 (block of one trial)...
        mixed.record_scores_transposed(&trial, 1);
        // ...then a two-trial block needs length 14.
        let mut scores_t = vec![0.0; 14];
        for (alt, &s) in trial.iter().enumerate() {
            scores_t[alt * 2] = s;
            scores_t[alt * 2 + 1] = s;
        }
        mixed.record_scores_transposed(&scores_t, 2);
        assert_eq!(reference.counts(), mixed.counts());
        for row in mixed.counts() {
            assert_eq!(row.iter().sum::<usize>(), 3);
        }
    }

    #[test]
    fn transposed_block_matches_per_trial_paths() {
        let labels: Vec<String> = (0..5).map(|i| format!("a{i}")).collect();
        let trials = [
            vec![0.9, 0.5, 0.1, 0.5, 0.9],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.3, 0.3, 0.9, 0.1, 0.9],
            vec![0.7, 0.1, 0.1, 0.2, 0.6],
            vec![0.2, 0.8, 0.8, 0.8, 0.2],
            vec![0.4, 0.6, 0.5, 0.3, 0.2],
        ];
        let mut per_trial = RankAccumulator::new(labels.clone());
        for t in &trials {
            per_trial.record_scores(t);
        }
        // Two blocks of sizes 4 and 3 in alternative-major layout.
        let mut blocked = RankAccumulator::new(labels);
        for chunk in trials.chunks(4) {
            let block = chunk.len();
            let mut scores_t = vec![0.0; 5 * block];
            for (t, trial) in chunk.iter().enumerate() {
                for (alt, &s) in trial.iter().enumerate() {
                    scores_t[alt * block + t] = s;
                }
            }
            blocked.record_scores_transposed(&scores_t, block);
        }
        assert_eq!(per_trial.counts(), blocked.counts());
        assert_eq!(per_trial.trials(), blocked.trials());
    }

    #[test]
    fn windowed_recording_matches_the_dense_kernel() {
        // Five alternatives; `a0` beats everyone, `a4` trails everyone, and
        // `a1` is known to beat `a3`. The rest (a1–a2, a2–a3) are unknown.
        use PairOrder::{Above, Below, Unknown};
        let n = 5;
        let mut rel = vec![Unknown; n * n];
        let mut set = |i: usize, k: usize| {
            rel[i * n + k] = Above;
            rel[k * n + i] = Below;
        };
        for k in 1..4 {
            set(0, k);
            set(k, 4);
        }
        set(0, 4);
        set(1, 3);
        let plan = RankWindows::new(n, &rel, &[true; 5]);
        assert_eq!(plan.order(), &[0, 1, 2, 3, 4]);
        assert_eq!(plan.scored(), &[1, 2, 3]);

        // 16 trials consistent with the relation, ties between a1 and a2
        // included; a0 and a4 are never read.
        let labels: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let mut scores_t = vec![0.0; n * RANK_LANES];
        for t in 0..RANK_LANES {
            let wobble = (t % 4) as f64 * 0.1;
            let trial = [9.0, 0.5 + wobble, 0.6, 0.2 + wobble, -9.0];
            for (alt, &s) in trial.iter().enumerate() {
                scores_t[alt * RANK_LANES + t] = s;
            }
        }
        let mut dense = RankAccumulator::new(labels.clone());
        dense.record_scores_transposed(&scores_t, RANK_LANES);
        let mut windowed = RankAccumulator::new(labels);
        scores_t[..RANK_LANES].fill(f64::NAN);
        scores_t[4 * RANK_LANES..].fill(f64::NAN);
        windowed.record_windows_16(&scores_t, &plan);
        assert_eq!(dense.counts(), windowed.counts());
        assert_eq!(windowed.trials(), RANK_LANES);

        // Counting only a3 (window: a2) and a4 (fixed last): their rows
        // match, the others stay empty, and only a3's window and position
        // are read.
        let plan = RankWindows::new(n, &rel, &[false, false, false, true, true]);
        assert_eq!(plan.scored(), &[2, 3]);
        let mut partial = RankAccumulator::new(dense.labels().to_vec());
        partial.record_windows_16(&scores_t, &plan);
        for alt in 0..n {
            let expect = if alt >= 3 {
                dense.counts()[alt].clone()
            } else {
                vec![0; n]
            };
            assert_eq!(partial.counts()[alt], expect, "a{alt}");
        }

        // Counting only a1, whose one unknown rival is a2: a1's own
        // position is scored although no counted window holds it.
        let plan = RankWindows::new(n, &rel, &[false, true, false, false, false]);
        assert_eq!(plan.scored(), &[1, 2]);
        let mut partial = RankAccumulator::new(dense.labels().to_vec());
        partial.record_windows_16(&scores_t, &plan);
        assert_eq!(partial.counts()[1], dense.counts()[1]);
        partial.copy_row(&dense, 0);
        assert_eq!(partial.counts()[0], dense.counts()[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulator_rejects_wrong_length() {
        let mut acc = RankAccumulator::new(vec!["a".into()]);
        acc.record_scores(&[1.0, 2.0]);
    }

    fn decode(text: &str) -> Result<RankAccumulator, serde::Error> {
        RankAccumulator::deserialize(&mut serde::Deserializer::new(text))
    }

    #[test]
    fn accumulator_decodes_with_derived_field_rules_and_checks_squareness() {
        let mut acc = RankAccumulator::new(vec!["a".into(), "b".into()]);
        acc.record_scores(&[1.0, 2.0]);
        let mut s = serde::Serializer::compact();
        acc.serialize(&mut s);
        let text = s.into_string();
        assert_eq!(
            text,
            r#"{"labels":["a","b"],"counts":[[0,1],[1,0]],"trials":1}"#
        );

        let back = decode(&text).unwrap();
        assert_eq!(back.labels(), acc.labels());
        assert_eq!(back.counts, acc.counts);
        assert_eq!(back.trials, 1);
        assert_eq!(back.better.len(), 2);

        // Any order, unknown keys skipped, the first duplicate kept.
        let shuffled = decode(
            r#"{"trials":1,"x":{"y":[1]},"counts":[[0,1],[1,0]],"labels":["a","b"],"trials":9}"#,
        )
        .unwrap();
        assert_eq!(shuffled.counts, acc.counts);
        assert_eq!(shuffled.trials, 1);

        assert!(decode(r#"{"labels":["a","b"],"counts":[[0,1]],"trials":1}"#).is_err());
        assert!(decode(r#"{"labels":["a"],"counts":[[1]]}"#).is_err());
    }
}
