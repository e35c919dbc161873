//! # gmaa-gen
//!
//! Seeded synthetic model-family generator: a reproducible fleet of
//! [`DecisionModel`]s that sweep the knobs driving LP and sweep difficulty
//! — alternative count, attribute count, hierarchy depth, utility band
//! widths, weight-interval tightness — plus adversarial presets
//! (near-degenerate frontiers, frontrunner-heavy bands).
//!
//! Every model is deterministic in its [`GenConfig`] (in particular per
//! `(family, seed)`): the same config produces a byte-identical model in
//! any process. Models are valid by construction — feasible sibling weight
//! intervals, utilities matching their scales, finite performances — so
//! they pass [`DecisionModel::validate`] and can be fed straight into
//! `EvalContext`, the analysis engine, or a serving tenant.
//!
//! ```
//! use gmaa_gen::{generate, Family, GenConfig};
//!
//! let model = generate(&GenConfig::preset(Family::Mixed, 30, 8, 7));
//! assert_eq!(model.num_alternatives(), 30);
//! assert!(model.validate().is_ok());
//! ```

#![warn(missing_docs)]

use maut::prelude::*;
use maut::{PiecewiseLinearUtility, UtilityFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The model families the generator can emit.
///
/// `Flat`, `Deep` and `Mixed` sweep structural difficulty; the last two
/// are adversarial presets aimed at the discard-cycle and LP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// All attributes directly under the root, all discrete.
    Flat,
    /// Three-level objective hierarchy (root → groups → subgroups).
    Deep,
    /// Two-level hierarchy mixing discrete and continuous attributes,
    /// with occasional range performances.
    Mixed,
    /// Near-degenerate frontier: all alternatives share one base
    /// performance row, each perturbed in only one or two cells, under
    /// wide utility bands — nothing dominates, everything stays
    /// potentially optimal, and the per-alternative LPs run with slack
    /// near zero.
    NearDegenerate,
    /// Frontrunner-heavy bands: one alternative holds top performances
    /// almost everywhere while the rest sit mid-band; the frontrunner
    /// enters every rival's LP working set, stressing constraint
    /// generation.
    FrontrunnerHeavy,
}

impl Family {
    /// Every family, in a fixed sweep order.
    pub const ALL: [Family; 5] = [
        Family::Flat,
        Family::Deep,
        Family::Mixed,
        Family::NearDegenerate,
        Family::FrontrunnerHeavy,
    ];

    /// Stable string key (used in labels, bench JSON, and the CLI).
    pub fn key(self) -> &'static str {
        match self {
            Family::Flat => "flat",
            Family::Deep => "deep",
            Family::Mixed => "mixed",
            Family::NearDegenerate => "near-degenerate",
            Family::FrontrunnerHeavy => "frontrunner-heavy",
        }
    }

    /// Inverse of [`Family::key`].
    pub fn from_key(key: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.key() == key)
    }

    fn tag(self) -> u64 {
        match self {
            Family::Flat => 0x01,
            Family::Deep => 0x02,
            Family::Mixed => 0x03,
            Family::NearDegenerate => 0x04,
            Family::FrontrunnerHeavy => 0x05,
        }
    }
}

/// Full knob set for one generated model.
///
/// Construct via [`GenConfig::preset`] for the per-family defaults, then
/// override individual knobs as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Which family shape to emit.
    pub family: Family,
    /// Number of alternatives (≥ 2).
    pub alternatives: usize,
    /// Number of attributes (≥ 2).
    pub attributes: usize,
    /// Objective-hierarchy depth: 1 = flat, 2 = root → groups,
    /// 3 = root → groups → subgroups.
    pub depth: usize,
    /// Half width of the utility imprecision band (`0.0..=0.5`); wider
    /// bands mean weaker dominance and busier LPs.
    pub band_half_width: f64,
    /// Looseness of sibling weight intervals in `0.0..1.0`: 0 is point
    /// weights, larger values open the weight polytope up.
    pub weight_tightness: f64,
    /// Probability that a performance cell is reported missing.
    pub missing_rate: f64,
    /// RNG seed; together with `family` it pins the model bit-for-bit.
    pub seed: u64,
}

impl GenConfig {
    /// Per-family default knobs at the given size and seed.
    pub fn preset(family: Family, alternatives: usize, attributes: usize, seed: u64) -> GenConfig {
        let (depth, band_half_width, weight_tightness, missing_rate) = match family {
            Family::Flat => (1, 0.08, 0.35, 0.05),
            Family::Deep => (3, 0.10, 0.45, 0.05),
            Family::Mixed => (2, 0.12, 0.50, 0.08),
            Family::NearDegenerate => (2, 0.25, 0.70, 0.0),
            Family::FrontrunnerHeavy => (2, 0.20, 0.60, 0.05),
        };
        GenConfig {
            family,
            alternatives,
            attributes,
            depth,
            band_half_width,
            weight_tightness,
            missing_rate,
            seed,
        }
    }

    /// Human-readable label also used as the generated model's name.
    pub fn label(&self) -> String {
        format!(
            "{}-n{}-m{}-s{}",
            self.family.key(),
            self.alternatives,
            self.attributes,
            self.seed
        )
    }

    /// Seed of the RNG stream: every shape knob is mixed in so distinct
    /// configs draw from distinct streams.
    fn stream_seed(&self) -> u64 {
        let mut s = splitmix(self.seed);
        s = splitmix(s ^ self.family.tag());
        s = splitmix(s ^ self.alternatives as u64);
        s = splitmix(s ^ (self.attributes as u64).rotate_left(17));
        splitmix(s ^ (self.depth as u64).rotate_left(41))
    }
}

/// SplitMix64 finalizer — enough mixing to decorrelate nearby seeds.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy)]
enum AttrKind {
    Discrete(usize),
    Continuous,
}

const CONTINUOUS_MAX: f64 = 100.0;

/// Generate the model described by `cfg`.
///
/// Deterministic: equal configs yield equal models, in any process.
/// Panics only on nonsensical knobs (fewer than 2 alternatives or
/// attributes, band half width outside `0.0..=0.5`, tightness outside
/// `0.0..1.0`) — never on any valid knob combination.
pub fn generate(cfg: &GenConfig) -> DecisionModel {
    assert!(cfg.alternatives >= 2, "need at least 2 alternatives");
    assert!(cfg.attributes >= 2, "need at least 2 attributes");
    assert!(
        (0.0..=0.5).contains(&cfg.band_half_width),
        "band half width must be in 0.0..=0.5"
    );
    assert!(
        (0.0..1.0).contains(&cfg.weight_tightness),
        "weight tightness must be in 0.0..1.0"
    );

    let mut rng = StdRng::seed_from_u64(cfg.stream_seed());
    let mut b = DecisionModelBuilder::new(cfg.label());

    let attrs = declare_attributes(&mut b, cfg, &mut rng);
    attach_hierarchy(&mut b, cfg, &mut rng, &attrs);
    for (i, row) in performance_rows(cfg, &mut rng, &attrs)
        .into_iter()
        .enumerate()
    {
        b.alternative(format!("alt-{i:04}"), row);
    }
    b.build().expect("generated model is valid by construction")
}

fn declare_attributes(
    b: &mut DecisionModelBuilder,
    cfg: &GenConfig,
    rng: &mut StdRng,
) -> Vec<(AttributeId, AttrKind)> {
    let mut attrs = Vec::with_capacity(cfg.attributes);
    for j in 0..cfg.attributes {
        // Mixed interleaves one continuous attribute per three; every
        // other family is fully discrete.
        if cfg.family == Family::Mixed && j % 3 == 2 {
            let id = b.continuous_attribute(
                format!("c{j}"),
                format!("Continuous {j}"),
                0.0,
                CONTINUOUS_MAX,
                Direction::Increasing,
            );
            b.set_utility(id, banded_pwl(cfg.band_half_width));
            attrs.push((id, AttrKind::Continuous));
        } else {
            let k = rng.random_range(3..=6);
            let levels: Vec<String> = (0..k).map(|l| format!("l{l}")).collect();
            let refs: Vec<&str> = levels.iter().map(String::as_str).collect();
            let id = b.discrete_attribute(format!("d{j}"), format!("Discrete {j}"), &refs);
            b.set_utility(
                id,
                UtilityFunction::Discrete(DiscreteUtility::banded(k, cfg.band_half_width)),
            );
            attrs.push((id, AttrKind::Discrete(k)));
        }
    }
    attrs
}

/// Piecewise-linear utility over `[0, CONTINUOUS_MAX]` with a symmetric
/// `± half_width` band at each knot — the continuous analogue of
/// [`DiscreteUtility::banded`].
fn banded_pwl(half_width: f64) -> UtilityFunction {
    const KNOTS: usize = 5;
    let xs: Vec<f64> = (0..KNOTS)
        .map(|k| CONTINUOUS_MAX * k as f64 / (KNOTS - 1) as f64)
        .collect();
    let us: Vec<Interval> = (0..KNOTS)
        .map(|k| {
            let mid = k as f64 / (KNOTS - 1) as f64;
            Interval::new((mid - half_width).max(0.0), (mid + half_width).min(1.0))
        })
        .collect();
    UtilityFunction::PiecewiseLinear(PiecewiseLinearUtility::new(xs, us))
}

/// A sibling weight interval that keeps every sibling group feasible:
/// centered on `1/k` with lows at most `1/k` (so the lows sum to ≤ 1)
/// and uppers at least `1/k` (so the uppers sum to ≥ 1).
fn sibling_interval(rng: &mut StdRng, siblings: usize, tightness: f64) -> Interval {
    let base = 1.0 / siblings as f64;
    let spread = if tightness == 0.0 {
        0.0
    } else {
        tightness * rng.random_range(0.5..1.0)
    };
    Interval::new(base * (1.0 - spread), (base * (1.0 + spread)).min(1.0))
}

fn attach_hierarchy(
    b: &mut DecisionModelBuilder,
    cfg: &GenConfig,
    rng: &mut StdRng,
    attrs: &[(AttributeId, AttrKind)],
) {
    let depth = cfg.depth.max(1);
    if depth == 1 || attrs.len() < 4 {
        let root = b.root();
        for (id, _) in attrs {
            let w = sibling_interval(rng, attrs.len(), cfg.weight_tightness);
            b.attach_attribute(root, *id, w);
        }
        return;
    }

    let n_groups = (attrs.len() / 3).clamp(2, 5);
    let chunks = split_even(attrs, n_groups);
    for (gi, chunk) in chunks.iter().enumerate() {
        let gw = sibling_interval(rng, chunks.len(), cfg.weight_tightness);
        let gid = b.objective_under_root(format!("g{gi}"), format!("Group {gi}"), gw);
        if depth >= 3 && chunk.len() >= 4 {
            let subs = split_even(chunk, 2);
            for (si, sub) in subs.iter().enumerate() {
                let sw = sibling_interval(rng, subs.len(), cfg.weight_tightness);
                let sid = b.objective(gid, format!("g{gi}s{si}"), format!("Group {gi}.{si}"), sw);
                for (id, _) in sub.iter() {
                    let w = sibling_interval(rng, sub.len(), cfg.weight_tightness);
                    b.attach_attribute(sid, *id, w);
                }
            }
        } else {
            for (id, _) in chunk.iter() {
                let w = sibling_interval(rng, chunk.len(), cfg.weight_tightness);
                b.attach_attribute(gid, *id, w);
            }
        }
    }
}

/// Split `items` into `n` contiguous chunks whose sizes differ by at most
/// one (every chunk non-empty as long as `items.len() >= n`).
fn split_even<T>(items: &[T], n: usize) -> Vec<&[T]> {
    let len = items.len();
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let end = len * (i + 1) / n;
        out.push(&items[start..end]);
        start = end;
    }
    out
}

fn performance_rows(
    cfg: &GenConfig,
    rng: &mut StdRng,
    attrs: &[(AttributeId, AttrKind)],
) -> Vec<Vec<Perf>> {
    match cfg.family {
        Family::NearDegenerate => near_degenerate_rows(cfg, rng, attrs),
        Family::FrontrunnerHeavy => frontrunner_rows(cfg, rng, attrs),
        _ => (0..cfg.alternatives)
            .map(|_| {
                attrs
                    .iter()
                    .map(|(_, kind)| random_cell(rng, *kind, cfg.missing_rate))
                    .collect()
            })
            .collect(),
    }
}

/// One shared base row; each alternative perturbs only one or two cells
/// by a single level (or a small value step). With wide bands the utility
/// intervals all overlap: the frontier is nearly degenerate.
fn near_degenerate_rows(
    cfg: &GenConfig,
    rng: &mut StdRng,
    attrs: &[(AttributeId, AttrKind)],
) -> Vec<Vec<Perf>> {
    let base: Vec<Perf> = attrs
        .iter()
        .map(|(_, kind)| random_cell(rng, *kind, 0.0))
        .collect();
    (0..cfg.alternatives)
        .map(|_| {
            let mut row = base.clone();
            let touches = rng.random_range(1..=2.min(attrs.len()));
            for _ in 0..touches {
                let j = rng.random_range(0..attrs.len());
                row[j] = perturb_cell(rng, &row[j], attrs[j].1);
            }
            row
        })
        .collect()
}

fn perturb_cell(rng: &mut StdRng, cell: &Perf, kind: AttrKind) -> Perf {
    match (cell, kind) {
        (Perf::Level(l), AttrKind::Discrete(k)) => {
            let up = rng.random_range(0..2) == 0;
            let l = if up {
                (l + 1).min(k - 1)
            } else {
                l.saturating_sub(1)
            };
            Perf::level(l)
        }
        (Perf::Value(v), AttrKind::Continuous) => {
            let delta = rng.random_range(-4.0..4.0);
            Perf::value((v + delta).clamp(0.0, CONTINUOUS_MAX))
        }
        _ => random_cell(rng, kind, 0.0),
    }
}

/// Alternative 0 holds top performances almost everywhere; the rest sit
/// mid-range under wide bands, so the frontrunner shows up in every
/// rival's LP working set.
fn frontrunner_rows(
    cfg: &GenConfig,
    rng: &mut StdRng,
    attrs: &[(AttributeId, AttrKind)],
) -> Vec<Vec<Perf>> {
    let mut rows = Vec::with_capacity(cfg.alternatives);
    let leader: Vec<Perf> = attrs
        .iter()
        .map(|(_, kind)| match kind {
            AttrKind::Discrete(k) => {
                let top = rng.random_range(0..10) < 8;
                Perf::level(if top { k - 1 } else { k.saturating_sub(2) })
            }
            AttrKind::Continuous => Perf::value(rng.random_range(90.0..CONTINUOUS_MAX)),
        })
        .collect();
    rows.push(leader);
    for _ in 1..cfg.alternatives {
        rows.push(
            attrs
                .iter()
                .map(|(_, kind)| {
                    if cfg.missing_rate > 0.0 && rng.random::<f64>() < cfg.missing_rate {
                        return Perf::Missing;
                    }
                    match kind {
                        AttrKind::Discrete(k) => {
                            let hi = k.saturating_sub(1).max(1);
                            Perf::level(rng.random_range(0..hi))
                        }
                        AttrKind::Continuous => Perf::value(rng.random_range(30.0..80.0)),
                    }
                })
                .collect(),
        );
    }
    rows
}

fn random_cell(rng: &mut StdRng, kind: AttrKind, missing_rate: f64) -> Perf {
    if missing_rate > 0.0 && rng.random::<f64>() < missing_rate {
        return Perf::Missing;
    }
    match kind {
        AttrKind::Discrete(k) => Perf::level(rng.random_range(0..k)),
        AttrKind::Continuous => {
            if rng.random_range(0..8) == 0 {
                let a: f64 = rng.random_range(0.0..90.0);
                let w: f64 = rng.random_range(0.0..10.0);
                Perf::range(a, a + w)
            } else {
                Perf::value(rng.random_range(0.0..CONTINUOUS_MAX))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_emits_a_valid_model() {
        for family in Family::ALL {
            for &(n, m) in &[(8usize, 4usize), (25, 9), (40, 12)] {
                let cfg = GenConfig::preset(family, n, m, 11);
                let model = generate(&cfg);
                assert_eq!(model.num_alternatives(), n, "{}", cfg.label());
                assert_eq!(model.num_attributes(), m, "{}", cfg.label());
                assert!(model.validate().is_ok(), "{}", cfg.label());
                // And the model must be evaluable, not merely well-formed.
                let mut ctx = maut::EvalContext::new(model).expect("evaluable");
                let ranking = ctx.evaluate().ranking();
                assert_eq!(ranking.len(), n);
            }
        }
    }

    #[test]
    fn same_config_is_deterministic_in_process() {
        for family in Family::ALL {
            let cfg = GenConfig::preset(family, 20, 7, 3);
            let a = serde_json::to_string(&generate(&cfg)).unwrap();
            let b = serde_json::to_string(&generate(&cfg)).unwrap();
            assert_eq!(a, b, "family {:?} not deterministic", family);
        }
    }

    #[test]
    fn different_seeds_differ() {
        for family in Family::ALL {
            let a = serde_json::to_string(&generate(&GenConfig::preset(family, 20, 7, 1))).unwrap();
            let b = serde_json::to_string(&generate(&GenConfig::preset(family, 20, 7, 2))).unwrap();
            assert_ne!(a, b, "family {:?} ignores its seed", family);
        }
    }

    #[test]
    fn families_differ_at_equal_seed() {
        let flat = serde_json::to_string(&generate(&GenConfig::preset(Family::Flat, 20, 7, 5)));
        let deep = serde_json::to_string(&generate(&GenConfig::preset(Family::Deep, 20, 7, 5)));
        assert_ne!(flat.unwrap(), deep.unwrap());
    }

    #[test]
    fn near_degenerate_rows_stay_close_to_base() {
        let cfg = GenConfig::preset(Family::NearDegenerate, 12, 8, 9);
        let model = generate(&cfg);
        // Rows may differ from each other in at most 4 cells (two rows,
        // each at most 2 perturbed cells away from the shared base).
        for i in 1..model.num_alternatives() {
            let diff = (0..model.num_attributes())
                .filter(|&j| {
                    format!("{:?}", model.perf.get(i, j)) != format!("{:?}", model.perf.get(0, j))
                })
                .count();
            assert!(diff <= 4, "row {i} differs in {diff} cells");
        }
    }

    #[test]
    fn frontrunner_leads_the_ranking() {
        let cfg = GenConfig::preset(Family::FrontrunnerHeavy, 15, 8, 4);
        let mut ctx = maut::EvalContext::new(generate(&cfg)).expect("valid model");
        let ranking = ctx.evaluate().ranking();
        let top = ranking.iter().find(|r| r.rank == 1).expect("non-empty");
        assert_eq!(top.name, "alt-0000");
    }

    #[test]
    fn tightness_zero_gives_point_weights() {
        let mut cfg = GenConfig::preset(Family::Flat, 6, 4, 2);
        cfg.weight_tightness = 0.0;
        let model = generate(&cfg);
        for w in model.local_weights.iter().flatten() {
            assert!(w.width() < 1e-12);
        }
    }
}
