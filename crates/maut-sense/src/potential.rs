//! Potential optimality (paper refs \[23\]–\[25\]).
//!
//! An alternative is **potentially optimal** when it is best-ranked for *at
//! least one* admissible combination of the imprecise parameters. With
//! component utilities free inside their bands, the most favorable case for
//! alternative `i` against every rival `k` is `uᵢ` at its upper bounds and
//! `uₖ` at its lower bounds; what remains is a feasibility question over the
//! weight polytope, solved as a max-slack linear program:
//!
//! ```text
//! max t   s.t.  Σⱼ wⱼ (uᵢⱼᵁ − uₖⱼᴸ) ≥ t   ∀ k ≠ i
//!               low ≤ w ≤ upp,  Σ w = 1
//! ```
//!
//! `i` is potentially optimal iff the optimum `t* ≥ 0`. The paper finds 20
//! of its 23 candidates potentially optimal, discarding three.
//!
//! ## Solve loop and warm row growth
//!
//! Each alternative's LP is solved by the context's shared
//! [`simplex_lp::SolverWorkspace`], the bounded-variable simplex built for
//! this family. The box costs no tableau rows, so the tableau holds only
//! the normalization row and the working set's rival rows. Each LP starts
//! from a closed form: `w` on the polytope vertex that maximizes the sum
//! of the working-set rows, and `t` on the tightest of them, which is
//! primal feasible with no phase 1. When an optimum violates excluded
//! rivals, their rows are appended to the optimal tableau in the current
//! basis, and dual simplex steps re-optimize from there (a *warm* solve).
//! Nothing carries over from one alternative to the next, so a slack
//! depends only on the model and the alternative's starting working set,
//! not on the order or history of the solves. Everything runs on the
//! calling thread at every model size, so results do not depend on the
//! core count either.
//!
//! ## Certificates and incremental re-certification
//!
//! Every certification also records *why* it holds: the final working
//! set and the optimal weight vector ([`PotentialCert`]). After a
//! `set_perf` edit, [`certify_incremental_ctx`] re-solves only
//!
//! * the edited alternatives themselves (their `u_hi` row changed),
//! * alternatives whose **working set** contained an edited rival (a
//!   binding constraint row changed, so the stored optimum is void), and
//! * alternatives whose stored optimum an edited rival now *violates*
//!   (the rival strengthened past the certified slack — checked by one
//!   dot product per (kept alternative, edited rival) pair);
//!
//! every other certificate is provably still the full LP's optimum (the
//! working-set relaxation is unchanged and the new rival rows are
//! satisfied at the stored optimum, to the same `VIOLATION_EPS` the full
//! pass certifies with). Re-solved alternatives seed their working set
//! from the previous certificate, so constraint generation usually
//! finishes in one solve.
//!
//! ## Errors
//!
//! The weight polytope is validated non-empty when the context is built
//! and `t` is bounded above by 2 (utilities live in `[0, 1]`, so a row
//! value is at least −1), so these LPs are feasible and bounded by
//! construction and every solve ends at an optimum. What *can* fail is
//! the solver itself (the step budget, indicating numerical corruption)
//! — that is propagated as a typed [`LpError`] instead of aborting the
//! analysis cycle.

use maut::{BandMatrixSoA, EvalContext};
use serde::{Deserialize, Serialize};
use simplex_lp::{LpError, SolverWorkspace, WeightPolytope};
use std::collections::BTreeSet;

/// Rival rows kept in the LP working set. Most rivals are provably slack
/// at the optimum; constraint generation starts from the strongest
/// candidates (smallest greedy upper bound on `c_k·w`) and grows the set
/// monotonically until no excluded rival is violated — the final optimum
/// equals the full formulation's exactly.
const WORKING_SET: usize = 5;

/// An excluded rival counts as violated when `c_k·w* < t* − VIOLATION_EPS`
/// at the working-set optimum. Tight enough that the accepted optimum
/// matches the full LP's to well under the analysis thresholds.
const VIOLATION_EPS: f64 = 1e-10;

/// Ceiling on a re-certification's *seeded* working set. Constraint
/// generation only ever grows a set, and re-certification re-seeds from
/// the previous certificate, so over a long what-if session sets would
/// ratchet monotonically toward the full `n − 1` formulation (and a
/// bloated set also intersects more dirty sets, forcing extra
/// re-solves). Past this size the seed is discarded and the alternative
/// restarts from the strength-order base set — one cold solve that
/// resets the ratchet.
const MAX_SEED: usize = 4 * WORKING_SET;

/// Verdict for one alternative.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PotentialOutcome {
    /// Index into the model's alternative list, which also names it.
    pub alternative: usize,
    /// Whether some admissible weight/utility combination makes it best.
    pub potentially_optimal: bool,
    /// The optimal slack `t*`: ≥ 0 iff potentially optimal; more negative
    /// means further from ever being best.
    pub slack: f64,
}

/// A potential-optimality verdict together with the evidence that makes
/// it incrementally checkable: the optimal weight vector and the final
/// constraint-generation working set. [`certify_incremental_ctx`] uses
/// these to decide, after an edit, whether the verdict can be kept
/// without re-solving (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PotentialCert {
    /// The verdict this certificate backs.
    pub outcome: PotentialOutcome,
    /// Optimal weight vector `w*` at the certified optimum.
    pub weights: Vec<f64>,
    /// Rival indices in the final working set, in LP row order (the
    /// order re-certification re-seeds with). Constraints of rivals
    /// outside this set were slack at `w*` by at least `−VIOLATION_EPS`.
    pub working_set: Vec<usize>,
}

/// Per-pass scratch for the constraint-generation loop.
struct Scratch {
    /// One difference row `u_hi(i,·) − u_lo(k,·)`.
    row: Vec<f64>,
    /// The start vertex's pour key: the sum of the seeded rows.
    key: Vec<f64>,
    /// The optimal weights of the last solve.
    w: Vec<f64>,
    /// Current working set and membership mask.
    active: Vec<usize>,
    in_set: Vec<bool>,
    violated: Vec<usize>,
    /// Difference-row value `Σⱼ (u_hi(i,j) − u_lo(k,j))·wⱼ` per rival `k`.
    dots: Vec<f64>,
}

impl Scratch {
    fn new(n: usize, n_attr: usize) -> Scratch {
        Scratch {
            row: vec![0.0; n_attr],
            key: vec![0.0; n_attr],
            w: vec![0.0; n_attr],
            active: Vec::with_capacity(n.saturating_sub(1)),
            in_set: vec![false; n],
            violated: Vec::new(),
            dots: vec![0.0; n],
        }
    }

    /// Collect into `violated`, ascending, every rival outside the working
    /// set whose difference row against `i` falls more than
    /// `VIOLATION_EPS` below `t` at `self.w`. The rows are swept one column
    /// at a time; each rival's value sums `(hi − lo)·wⱼ` in ascending `j`
    /// from −0.0, the start value of `Iterator::sum`, so it equals the row
    /// dot product bit for bit (`hi·w − lo·w` would round differently).
    fn collect_violated(&mut self, soa: &BandMatrixSoA, i: usize, t: f64) {
        self.dots.fill(-0.0);
        for (j, &wj) in self.w.iter().enumerate() {
            let hi = soa.hi(i, j);
            for (dot, &lo) in self.dots.iter_mut().zip(soa.lo_col(j)) {
                *dot += (hi - lo) * wj;
            }
        }
        self.violated.clear();
        for (k, &dot) in self.dots.iter().enumerate() {
            if k != i && !self.in_set[k] && dot < t - VIOLATION_EPS {
                self.violated.push(k);
            }
        }
    }

    /// Whether any `edited` rival's difference row against `i` falls more
    /// than `VIOLATION_EPS` below `t` at `w`: the sweep of
    /// [`Scratch::collect_violated`] over the edited rivals only, with the
    /// same per-rival summation order.
    fn edited_rival_violated(
        &mut self,
        soa: &BandMatrixSoA,
        i: usize,
        w: &[f64],
        t: f64,
        edited: &[usize],
    ) -> bool {
        for &k in edited {
            self.dots[k] = -0.0;
        }
        for (j, &wj) in w.iter().enumerate() {
            let (hi, lo) = (soa.hi(i, j), soa.lo_col(j));
            for &k in edited {
                self.dots[k] += (hi - lo[k]) * wj;
            }
        }
        edited.iter().any(|&k| self.dots[k] < t - VIOLATION_EPS)
    }
}

/// Shared read-only inputs of one certification pass, including the
/// working-set seeding order.
struct CertifyInputs<'a> {
    polytope: &'a WeightPolytope,
    soa: &'a BandMatrixSoA,
    /// Seeding order, shared by every alternative: the binding rivals are
    /// the *strong* ones, and scoring rival `k` against `i` at the
    /// polytope centroid w̄ gives `u_hi(i)·w̄ − u_lo(k)·w̄` — the
    /// alternative-dependent term is constant across rivals, so ordering
    /// by descending `u_lo(k)·w̄` ranks candidates once for the whole
    /// pass.
    order: Vec<usize>,
}

impl<'a> CertifyInputs<'a> {
    fn new(ctx: &'a EvalContext) -> CertifyInputs<'a> {
        let (polytope, soa) = (ctx.polytope(), ctx.soa());
        // Column sweep; each strength sums in ascending `j` from −0.0, as
        // `Iterator::sum` does, so ties order exactly as a row sum's.
        let mut strength = vec![-0.0; soa.n_alternatives()];
        for (j, &w) in polytope.centroid().iter().enumerate() {
            for (st, &lo) in strength.iter_mut().zip(soa.lo_col(j)) {
                *st += lo * w;
            }
        }
        let mut order: Vec<usize> = (0..soa.n_alternatives()).collect();
        // total_cmp, not partial_cmp().expect(): the seeding order is a pure
        // heuristic (any order gives the same certified optimum), and a NaN
        // strength — impossible for validated models — must not be the line
        // that aborts an analysis cycle; it just lands at a deterministic
        // position instead of panicking.
        order.sort_unstable_by(|&a, &b| strength[b].total_cmp(&strength[a]));
        CertifyInputs {
            polytope,
            soa,
            order,
        }
    }

    /// Certify one alternative by delayed constraint generation: the LP
    /// holds only a small working set of rival rows, grown monotonically
    /// until no excluded rival is violated at the optimum — which
    /// certifies the working-set optimum as the full LP's. Grown rows are
    /// appended to the optimal tableau and re-solved warm. `seed` (used by
    /// re-certification) replaces the strength-order seeding with the
    /// previous certificate's working set. Returns the optimal slack and
    /// leaves the optimal weights in `s.w` and the final working set in
    /// `s.active`.
    fn solve_one(
        &self,
        i: usize,
        seed: Option<&[usize]>,
        s: &mut Scratch,
        ws: &mut SolverWorkspace,
    ) -> Result<f64, LpError> {
        let soa = self.soa;
        let base_r = WORKING_SET.min(soa.n_alternatives().saturating_sub(1));
        let diff_into = |row: &mut [f64], k: usize| {
            for (j, r) in row.iter_mut().enumerate() {
                *r = soa.hi(i, j) - soa.lo(k, j);
            }
        };

        // Seed the working set: previous certificate's set on
        // re-certification (unless it has ratcheted past MAX_SEED —
        // then restart small), strongest rivals otherwise.
        s.in_set.fill(false);
        s.active.clear();
        match seed {
            Some(set) if !set.is_empty() && set.len() <= MAX_SEED => {
                s.active.extend(set.iter().filter(|&&k| k != i).copied());
            }
            _ => {
                s.active
                    .extend(self.order.iter().filter(|&&k| k != i).take(base_r).copied());
            }
        }
        s.key.fill(0.0);
        for &k in &s.active {
            s.in_set[k] = true;
            diff_into(&mut s.row, k);
            for (key, &c) in s.key.iter_mut().zip(&s.row) {
                *key += c;
            }
        }

        ws.start(self.polytope, &s.key);
        let mut pushed = 0;
        loop {
            for &k in &s.active[pushed..] {
                diff_into(&mut s.row, k);
                ws.push_row(&s.row);
            }
            pushed = s.active.len();
            let t = ws.solve()?;
            ws.weights_into(&mut s.w);
            // Certify against the excluded rivals.
            s.collect_violated(soa, i, t);
            if s.violated.is_empty() {
                return Ok(t);
            }
            // Grow the working set monotonically (termination: it can
            // only grow n − 1 times) and re-solve warm.
            for &k in &s.violated {
                s.in_set[k] = true;
            }
            s.active.extend(s.violated.iter().copied());
        }
    }

    /// A fresh certificate for alternative `i`.
    fn certify_one(
        &self,
        i: usize,
        s: &mut Scratch,
        ws: &mut SolverWorkspace,
    ) -> Result<PotentialCert, LpError> {
        let slack = self.solve_one(i, None, s, ws)?;
        Ok(PotentialCert {
            outcome: PotentialOutcome {
                alternative: i,
                potentially_optimal: slack >= -1e-9,
                slack,
            },
            weights: s.w.clone(),
            working_set: s.active.clone(),
        })
    }

    /// Re-certify `cert` (alternative `i`) seeded with its own working
    /// set, rewriting it in place in its existing allocations.
    fn recertify(
        &self,
        i: usize,
        cert: &mut PotentialCert,
        s: &mut Scratch,
        ws: &mut SolverWorkspace,
    ) -> Result<(), LpError> {
        let slack = self.solve_one(i, Some(&cert.working_set), s, ws)?;
        cert.outcome.potentially_optimal = slack >= -1e-9;
        cert.outcome.slack = slack;
        cert.weights.clone_from(&s.w);
        cert.working_set.clone_from(&s.active);
        Ok(())
    }
}

/// Evaluate potential optimality for every alternative against a shared
/// evaluation context (see the module docs). Fails only on solver
/// breakdown ([`LpError::IterationLimit`]), never on legitimate analysis
/// outcomes.
pub fn potentially_optimal_ctx(ctx: &EvalContext) -> Result<Vec<PotentialOutcome>, LpError> {
    Ok(certify_ctx(ctx)?.into_iter().map(|c| c.outcome).collect())
}

/// [`potentially_optimal_ctx`] returning the full certificates (optimal
/// weights + final working set per alternative) that
/// [`certify_incremental_ctx`] consumes.
pub fn certify_ctx(ctx: &EvalContext) -> Result<Vec<PotentialCert>, LpError> {
    let n = ctx.soa().n_alternatives();
    let inputs = CertifyInputs::new(ctx);
    let mut s = Scratch::new(n, ctx.polytope().dim());
    let mut ws = ctx.lp_workspace();
    (0..n)
        .map(|i| inputs.certify_one(i, &mut s, &mut ws))
        .collect()
}

/// Re-certify potential optimality after band-row edits to the `dirty`
/// alternatives, in place: `certs` (the previous certificates, in
/// alternative order) keeps every certificate whose stored optimum is
/// provably still the full LP's — see the module docs for the exact
/// keep/re-solve rule — and only the re-solved ones are rewritten, in
/// their own allocations. Verdicts equal a full recompute's; slacks agree
/// to the certification tolerance. Runs inline on the context's shared
/// workspace. On an error `certs` is partly rewritten and must be
/// discarded.
///
/// # Panics
///
/// When `certs` does not cover exactly the context's alternatives.
pub fn certify_incremental_ctx(
    ctx: &EvalContext,
    certs: &mut [PotentialCert],
    dirty: &BTreeSet<usize>,
) -> Result<(), LpError> {
    let soa = ctx.soa();
    let n = soa.n_alternatives();
    assert_eq!(certs.len(), n, "certificate set does not match the model");

    let inputs = CertifyInputs::new(ctx);
    let mut s = Scratch::new(n, ctx.polytope().dim());
    let mut ws = ctx.lp_workspace();
    let edited: Vec<usize> = dirty.iter().copied().collect();

    for (i, cert) in certs.iter_mut().enumerate() {
        // An edited rival outside the working set (`i` itself is
        // dirty-checked first): keep the certificate only if its new row
        // is still satisfied at the stored optimum.
        let must_resolve = dirty.contains(&i)
            || cert.working_set.iter().any(|k| dirty.contains(k))
            || s.edited_rival_violated(soa, i, &cert.weights, cert.outcome.slack, &edited);
        if must_resolve {
            inputs.recertify(i, cert, &mut s, &mut ws)?;
        }
    }
    Ok(())
}

/// Indices of alternatives that are *not* potentially optimal — the ones
/// this analysis can discard (3 of 23 in the paper).
pub fn discarded_ctx(ctx: &EvalContext) -> Result<Vec<usize>, LpError> {
    Ok(potentially_optimal_ctx(ctx)?
        .into_iter()
        .filter(|o| !o.potentially_optimal)
        .map(|o| o.alternative)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn ctx(m: &DecisionModel) -> EvalContext {
        EvalContext::new(m.clone()).expect("valid model")
    }

    fn model(rows: &[(&str, usize, usize)], wx: Interval, wy: Interval) -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, wx), (y, wy)]);
        for (name, px, py) in rows {
            b.alternative(*name, vec![Perf::level(*px), Perf::level(*py)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn clear_winner_is_potentially_optimal_loser_is_not() {
        let m = model(
            &[("top", 3, 3), ("bottom", 0, 0)],
            Interval::new(0.3, 0.7),
            Interval::new(0.3, 0.7),
        );
        let out = potentially_optimal_ctx(&ctx(&m)).unwrap();
        assert!(out[0].potentially_optimal);
        assert!(!out[1].potentially_optimal);
        assert_eq!(discarded_ctx(&ctx(&m)).unwrap(), vec![1]);
        assert!(out[1].slack < 0.0);
    }

    #[test]
    fn trade_off_pair_both_potentially_optimal() {
        let m = model(
            &[("left", 3, 0), ("right", 0, 3)],
            Interval::new(0.2, 0.8),
            Interval::new(0.2, 0.8),
        );
        let out = potentially_optimal_ctx(&ctx(&m)).unwrap();
        assert!(out.iter().all(|o| o.potentially_optimal));
        assert!(discarded_ctx(&ctx(&m)).unwrap().is_empty());
    }

    #[test]
    fn tight_weights_can_exclude_a_specialist() {
        // y's weight is capped at 0.3: an alternative strong only on y can
        // never overtake one strong on x.
        let m = model(
            &[("x-strong", 3, 1), ("y-strong", 0, 3)],
            Interval::new(0.7, 0.9),
            Interval::new(0.1, 0.3),
        );
        let out = potentially_optimal_ctx(&ctx(&m)).unwrap();
        assert!(out[0].potentially_optimal);
        assert!(!out[1].potentially_optimal, "{out:?}");
    }

    #[test]
    fn middle_alternative_dominated_in_every_direction_is_discarded() {
        // "middle" is below the convex frontier spanned by the others for
        // every admissible weight vector.
        let m = model(
            &[("left", 3, 0), ("right", 0, 3), ("middle", 1, 1)],
            Interval::new(0.2, 0.8),
            Interval::new(0.2, 0.8),
        );
        let out = potentially_optimal_ctx(&ctx(&m)).unwrap();
        assert!(out[0].potentially_optimal);
        assert!(out[1].potentially_optimal);
        assert!(!out[2].potentially_optimal);
    }

    #[test]
    fn missing_entry_keeps_alternative_in_play() {
        // The [0,1] band of a missing performance lets the alternative be
        // best in its most favorable scenario.
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        b.alternative("solid", vec![Perf::level(2), Perf::level(2)]);
        b.alternative("mystery", vec![Perf::level(2), Perf::Missing]);
        let m = b.build().unwrap();
        let out = potentially_optimal_ctx(&ctx(&m)).unwrap();
        assert!(out[1].potentially_optimal, "{out:?}");
    }

    #[test]
    fn ties_count_as_potentially_optimal() {
        let m = model(
            &[("a", 2, 2), ("b", 2, 2)],
            Interval::new(0.4, 0.6),
            Interval::new(0.4, 0.6),
        );
        let out = potentially_optimal_ctx(&ctx(&m)).unwrap();
        assert!(out.iter().all(|o| o.potentially_optimal));
        assert!(out.iter().all(|o| o.slack.abs() < 1e-7));
    }

    #[test]
    fn potentially_optimal_implies_non_dominated() {
        use crate::dominance::non_dominated_ctx;
        let m = model(
            &[("a", 3, 0), ("b", 0, 3), ("c", 1, 1), ("d", 2, 2)],
            Interval::new(0.2, 0.8),
            Interval::new(0.2, 0.8),
        );
        let c = ctx(&m);
        let nd: std::collections::BTreeSet<usize> = non_dominated_ctx(&c).into_iter().collect();
        for o in potentially_optimal_ctx(&c).unwrap() {
            // Strict potential optimality implies non-dominance; a slack of
            // ~0 (can only tie for best) is compatible with weak dominance.
            if o.potentially_optimal && o.slack > 1e-6 {
                assert!(
                    nd.contains(&o.alternative),
                    "{} strictly potentially optimal but dominated",
                    m.alternatives[o.alternative]
                );
            }
        }
    }

    #[test]
    fn warm_chain_reuses_the_context_workspace() {
        // The paper's 23 × 14 study: one cold solve per alternative from
        // the closed-form start, and one warm re-solve per working-set
        // growth, all counted on the context's workspace.
        let c = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
        let first = certify_ctx(&c).unwrap();
        let stats = c.lp_stats();
        assert_eq!(stats.cold_solves(), 23, "{stats:?}");
        assert_eq!(stats.pivots, stats.warm_pivots + stats.cold_pivots);
        // A second run over the same context repeats the same solves: no
        // state carries over from one LP to the next, so it agrees bit
        // for bit.
        let again = certify_ctx(&c).unwrap();
        let stats2 = c.lp_stats();
        assert_eq!(stats2.solves, 2 * stats.solves);
        assert_eq!(stats2.pivots, 2 * stats.pivots);
        assert_eq!(first, again);

        // Seeded with one rival each, every alternative must grow its
        // working set: the grown rows re-solve warm and reach the same
        // optimum.
        let weakest = *CertifyInputs::new(&c)
            .order
            .last()
            .expect("23 alternatives");
        let thin: Vec<PotentialCert> = first
            .iter()
            .map(|cert| PotentialCert {
                working_set: vec![if cert.outcome.alternative == weakest {
                    0
                } else {
                    weakest
                }],
                ..cert.clone()
            })
            .collect();
        let all: BTreeSet<usize> = (0..23).collect();
        let mut grown = thin;
        certify_incremental_ctx(&c, &mut grown, &all).unwrap();
        let stats3 = c.lp_stats();
        assert_eq!(stats3.cold_solves() - stats2.cold_solves(), 23);
        assert!(stats3.warm_solves > stats2.warm_solves, "{stats3:?}");
        for (a, b) in grown.iter().zip(&first) {
            assert_eq!(a.outcome.potentially_optimal, b.outcome.potentially_optimal);
            assert!(
                (a.outcome.slack - b.outcome.slack).abs() < 1e-12,
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn certificates_carry_weights_and_working_sets() {
        let c = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
        let certs = certify_ctx(&c).unwrap();
        assert_eq!(certs.len(), 23);
        for cert in &certs {
            assert_eq!(cert.weights.len(), c.polytope().dim());
            assert!(!cert.working_set.is_empty());
            let unique: BTreeSet<usize> = cert.working_set.iter().copied().collect();
            assert_eq!(unique.len(), cert.working_set.len(), "no duplicates");
            assert!(!cert.working_set.contains(&cert.outcome.alternative));
        }
    }

    #[test]
    fn incremental_recertification_matches_full_pass_after_edits() {
        let mut c = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
        let prev = certify_ctx(&c).unwrap();

        // Edit two alternatives' rows (one up, one down).
        let doc = c.model().find_attribute("doc_quality").expect("exists");
        c.set_perf(3, doc, Perf::level(3)).expect("valid");
        c.set_perf(8, doc, Perf::level(0)).expect("valid");
        let dirty: BTreeSet<usize> = [3, 8].into_iter().collect();

        let mut incr = prev;
        certify_incremental_ctx(&c, &mut incr, &dirty).unwrap();
        let full = certify_ctx(&EvalContext::new(c.model().clone()).expect("valid")).unwrap();
        for (a, b) in incr.iter().zip(&full) {
            assert_eq!(
                a.outcome.potentially_optimal, b.outcome.potentially_optimal,
                "{:?} vs {:?}",
                a.outcome, b.outcome
            );
            assert!(
                (a.outcome.slack - b.outcome.slack).abs() < 1e-7,
                "{:?} vs {:?}",
                a.outcome,
                b.outcome
            );
        }
    }

    #[test]
    fn incremental_recertification_skips_untouched_alternatives() {
        let mut c = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
        let mut prev = certify_ctx(&c).unwrap();
        let before = c.lp_stats().solves;

        // A weak alternative's edit should trigger far fewer than 23
        // re-solves: only itself plus dependents.
        let doc = c.model().find_attribute("doc_quality").expect("exists");
        c.set_perf(20, doc, Perf::level(1)).expect("valid");
        let dirty: BTreeSet<usize> = [20].into_iter().collect();
        certify_incremental_ctx(&c, &mut prev, &dirty).unwrap();
        let resolved = c.lp_stats().solves - before;
        assert!(
            (1..23).contains(&resolved),
            "expected a partial re-solve, got {resolved} LP solves"
        );
    }

    #[test]
    fn recertifying_an_unchanged_alternative_repeats_its_certificate() {
        // No paper alternative grows its working set, so re-certification
        // seeds each LP with exactly the rows and start vertex of its
        // first solve: one cold solve apiece reproduces every certificate
        // bit for bit.
        let c = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
        let prev = certify_ctx(&c).unwrap();
        let before = c.lp_stats();
        let dirty: BTreeSet<usize> = [5].into_iter().collect();
        let mut again = prev.clone();
        certify_incremental_ctx(&c, &mut again, &dirty).unwrap();
        let stats = c.lp_stats();
        assert!(stats.solves > before.solves);
        assert_eq!(stats.warm_solves, before.warm_solves, "{stats:?}");
        assert_eq!(again, prev);
    }

    #[test]
    fn single_alternative_is_trivially_potentially_optimal() {
        let m = model(
            &[("only", 1, 1)],
            Interval::new(0.3, 0.7),
            Interval::new(0.3, 0.7),
        );
        let out = potentially_optimal_ctx(&ctx(&m)).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].potentially_optimal);
    }
}
