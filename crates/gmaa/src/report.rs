//! ASCII report renderers — one per figure of the paper.
//!
//! Each renderer takes model/analysis data and returns a `String` laid out
//! like the corresponding GMAA display, so the examples and benches can
//! regenerate every figure as a text artifact.

use maut::{DecisionModel, EvalContext, Evaluation, ObjectiveId};
use maut_sense::{MonteCarloResult, StabilityReport};
use statlab::RankStats;
use std::fmt::Write as _;

/// Fig 1 — the objective hierarchy as an indented tree.
pub fn hierarchy(model: &DecisionModel) -> String {
    let mut out = String::new();
    fn rec(model: &DecisionModel, id: ObjectiveId, depth: usize, out: &mut String) {
        let node = model.tree.get(id);
        let indent = "  ".repeat(depth);
        match node.attribute {
            Some(attr) => {
                let a = model.attribute(attr);
                let _ = writeln!(out, "{indent}- {} [{}]", node.name, a.key);
            }
            None => {
                let _ = writeln!(out, "{indent}+ {}", node.name);
            }
        }
        for &c in &node.children {
            rec(model, c, depth + 1, out);
        }
    }
    rec(model, model.tree.root(), 0, &mut out);
    out
}

/// Fig 2 — alternative consequences (performances) table.
pub fn consequences(model: &DecisionModel) -> String {
    let mut out = String::new();
    let name_w = model
        .alternatives
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(4)
        .max(11);
    let _ = write!(out, "{:<name_w$}", "Alternative");
    for a in &model.attributes {
        let _ = write!(out, " {:>12}", truncate(&a.key, 12));
    }
    out.push('\n');
    for (i, name) in model.alternatives.iter().enumerate() {
        let _ = write!(out, "{:<name_w$}", name);
        for j in 0..model.num_attributes() {
            let cell = match model.perf.get(i, j) {
                maut::Perf::Level(l) => format!("{l}"),
                maut::Perf::Value(v) => format!("{v:.3}"),
                maut::Perf::Range(a, b) => format!("{a:.2}..{b:.2}"),
                maut::Perf::Missing => "?".to_string(),
            };
            let _ = write!(out, " {cell:>12}");
        }
        out.push('\n');
    }
    out
}

/// Figs 3–4 — component utility of one attribute, rendered per level (or at
/// sampled points for continuous attributes).
pub fn component_utility(model: &DecisionModel, key: &str) -> String {
    let Some(attr) = model.find_attribute(key) else {
        return format!("unknown attribute '{key}'\n");
    };
    let a = model.attribute(attr);
    let u = model.utility(attr);
    let mut out = format!("Component utility for {} ({key})\n", a.name);
    match (&a.scale, u) {
        (maut::Scale::Discrete(s), maut::UtilityFunction::Discrete(d)) => {
            for (k, level) in s.levels.iter().enumerate() {
                let band = d.utility_of(k);
                let _ = writeln!(
                    out,
                    "  {k} {level:<20} u in [{:.3}, {:.3}]  avg {:.3}",
                    band.lo(),
                    band.hi(),
                    band.mid()
                );
            }
        }
        (maut::Scale::Continuous(c), maut::UtilityFunction::PiecewiseLinear(p)) => {
            let steps = 6;
            for k in 0..=steps {
                let x = c.min + (c.max - c.min) * k as f64 / steps as f64;
                let band = p.eval(x);
                let _ = writeln!(
                    out,
                    "  x = {x:>7.3}  u in [{:.3}, {:.3}]  avg {:.3}",
                    band.lo(),
                    band.hi(),
                    band.mid()
                );
            }
        }
        _ => out.push_str("  (mismatched scale/utility)\n"),
    }
    out
}

/// Fig 5 — attribute weights (low / avg / upp) with a bar for the average,
/// straight from the context's cached triples.
pub fn weight_table_ctx(ctx: &EvalContext) -> String {
    weight_table_inner(ctx.model(), ctx.weights())
}

fn weight_table_inner(model: &DecisionModel, w: &maut::weights::AttributeWeights) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<42} {:>7} {:>7} {:>7}",
        "Attribute", "low.", "avg.", "upp."
    );
    for (attr, t) in w.attributes.iter().zip(&w.triples) {
        let a = model.attribute(*attr);
        let bar = "#".repeat((t.avg * 200.0).round() as usize);
        let _ = writeln!(
            out,
            "{:<42} {:>7.3} {:>7.3} {:>7.3}  {bar}",
            truncate(&a.name, 42),
            t.low,
            t.avg,
            t.upp
        );
    }
    out
}

/// Figs 6–7 — ranking with min/avg/max utilities and a bar chart.
pub fn ranking(model: &DecisionModel, eval: &Evaluation) -> String {
    let scope_name = &model.tree.get(eval.scope).name;
    let mut out = format!("Ranking by: {scope_name}\n");
    let name_w = model
        .alternatives
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(4)
        .max(11);
    let _ = writeln!(
        out,
        "{:>4} {:<name_w$} {:>8} {:>8} {:>8}",
        "Rank", "Alternative", "Min", "Avg", "Max"
    );
    for r in eval.ranking() {
        let bar = "=".repeat((r.bounds.avg.max(0.0) * 40.0).round() as usize);
        let _ = writeln!(
            out,
            "{:>4} {:<name_w$} {:>8.4} {:>8.4} {:>8.4}  {bar}",
            r.rank, r.name, r.bounds.min, r.bounds.avg, r.bounds.max
        );
    }
    out
}

/// Fig 8 — weight stability intervals for a set of objectives.
pub fn stability(model: &DecisionModel, reports: &[StabilityReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<42} {:>8} {:>18}",
        "Objective", "current", "stability interval"
    );
    for r in reports {
        let node = model.tree.get(r.objective);
        let label = if r.is_fully_stable(1e-4) {
            "[0.000, 1.000]".to_string()
        } else {
            format!("[{:.3}, {:.3}]", r.lo, r.hi)
        };
        let _ = writeln!(
            out,
            "{:<42} {:>8.3} {:>18}",
            truncate(&node.name, 42),
            r.current,
            label
        );
    }
    out
}

/// Fig 9 — the Monte Carlo multiple boxplot.
pub fn boxplot(result: &MonteCarloResult, width: usize) -> String {
    let mut out = format!("Rank distribution over {} trials\n", result.trials);
    out.push_str(&result.boxplots().render(width));
    out
}

/// Fig 10 — the Monte Carlo rank statistics table.
pub fn rank_statistics(stats: &[RankStats]) -> String {
    let name_w = stats
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(4)
        .max(11);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$} {:>5} {:>4} {:>6} {:>6} {:>6} {:>4} {:>7} {:>9}",
        "Alternative", "Mode", "Min", "25th", "50th", "75th", "Max", "Mean", "Std. Dev."
    );
    for s in stats {
        let _ = writeln!(
            out,
            "{:<name_w$} {:>5} {:>4} {:>6.2} {:>6.2} {:>6.2} {:>4} {:>7.3} {:>9.3}",
            s.label, s.mode, s.min, s.p25, s.median, s.p75, s.max, s.mean, s.std_dev
        );
    }
    out
}

/// Rank-acceptability table: for each alternative, the share of Monte Carlo
/// trials in which it took each of the first `k` ranks. (An SMAA-style view
/// the GMAA statistics window summarizes; complements Fig 10.)
pub fn acceptability(model: &DecisionModel, result: &MonteCarloResult, k: usize) -> String {
    let name_w = model
        .alternatives
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(4)
        .max(11);
    let mut out = String::new();
    let _ = write!(out, "{:<name_w$}", "Alternative");
    for rank in 1..=k {
        let _ = write!(out, " {:>7}", format!("b^{rank}"));
    }
    out.push('\n');
    for (i, name) in model.alternatives.iter().enumerate() {
        let _ = write!(out, "{:<name_w$}", name);
        for rank in 1..=k {
            let _ = write!(out, " {:>7.3}", result.acceptability(i, rank));
        }
        out.push('\n');
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(n - 1)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut_sense::{MonteCarlo, MonteCarloConfig, StabilityMode};
    use neon_reuse::paper_model;

    fn ctx() -> EvalContext {
        EvalContext::new(paper_model().model).expect("paper model is valid")
    }

    #[test]
    fn hierarchy_shows_all_nodes() {
        let model = paper_model().model;
        let text = hierarchy(&model);
        assert_eq!(text.lines().count(), model.tree.len());
        assert!(text.contains("Understandability"));
        assert!(text.contains("[funct_requir]"));
    }

    #[test]
    fn consequences_has_a_row_per_alternative() {
        let model = paper_model().model;
        let text = consequences(&model);
        assert_eq!(text.lines().count(), 24); // header + 23
        assert!(text.contains("COMM"));
        assert!(text.contains('?'), "missing cells render as ?");
    }

    #[test]
    fn component_utility_renders_both_kinds() {
        let model = paper_model().model;
        let d = component_utility(&model, "purpose_rel");
        assert!(d.contains("unknown"));
        assert!(d.contains("project"));
        let c = component_utility(&model, "funct_requir");
        assert!(c.contains("x ="));
        let u = component_utility(&model, "nope");
        assert!(u.contains("unknown attribute"));
    }

    #[test]
    fn weight_table_lists_14_attributes() {
        let text = weight_table_ctx(&ctx());
        assert_eq!(text.lines().count(), 15);
        assert!(text.contains("Financial cost"));
    }

    #[test]
    fn ranking_report_is_ordered() {
        let mut c = ctx();
        let eval = c.evaluate();
        let text = ranking(c.model(), &eval);
        let media = text.find("Media Ontology").unwrap();
        let kanzaki = text.find("Kanzaki Music").unwrap();
        assert!(media < kanzaki);
        assert!(text.starts_with("Ranking by:"));
    }

    #[test]
    fn stability_report_renders() {
        let model = paper_model().model;
        let target = model.tree.find("funct_requir").unwrap();
        let c = ctx();
        let r = maut_sense::stability_interval_ctx(&c, target, StabilityMode::BestAlternative);
        let text = stability(&model, &[r]);
        assert!(text.contains("functional requirements"));
    }

    #[test]
    fn montecarlo_reports_render() {
        let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 200, 1);
        let result = mc.run_ctx(&ctx());
        let b = boxplot(&result, 60);
        assert!(b.contains("200 trials"));
        let s = rank_statistics(&result.stats);
        assert!(s.contains("Mean"));
        assert_eq!(s.lines().count(), 24);
    }

    #[test]
    fn acceptability_table_rows_sum_below_one() {
        let model = paper_model().model;
        let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 300, 2).run_ctx(&ctx());
        let text = acceptability(&model, &mc, 3);
        assert_eq!(text.lines().count(), 24);
        assert!(text.contains("b^1"));
        // The best candidate's first-rank acceptability dominates.
        assert!(mc.acceptability(10, 1) > 0.5); // Media Ontology
    }

    #[test]
    fn truncate_handles_unicode() {
        assert_eq!(truncate("abc", 10), "abc");
        let t = truncate("abcdefghijk", 5);
        assert!(t.chars().count() <= 6);
    }
}
