//! `gmaa` — command-line front end to the decision-analysis system.
//!
//! The original GMAA is a GUI; this binary exposes the same views over a
//! JSON workspace (or the built-in paper case study when no workspace is
//! given).
//!
//! ```text
//! gmaa [--workspace DIR --model NAME] [--trials N] [--seed N] COMMAND
//!
//! COMMANDS
//!   hierarchy           print the objective hierarchy        (Fig 1)
//!   performances        print the consequences table         (Fig 2)
//!   utility KEY         print one component utility          (Figs 3-4)
//!   weights             print the attribute weight table     (Fig 5)
//!   ranking             evaluate and rank                    (Fig 6)
//!   rank-by KEY         rank by one objective subtree        (Fig 7)
//!   stability           weight stability intervals           (Fig 8)
//!   montecarlo          boxplot + rank statistics            (Figs 9-10)
//!   potential           dominance & potential optimality     (Section V)
//!   intensity           dominance-intensity ranking          (ref \[25\])
//!   analyze             run the full pipeline
//!   save-paper DIR      save the paper model into a workspace
//! ```

// A CLI's job is to print: exempt the terminal-output lints the library
// crates are held to under the strict clippy bar.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use gmaa::{report, AnalysisEngine, Workspace};
use maut_sense::{MonteCarloConfig, StabilityMode};
use std::process::ExitCode;

struct Args {
    workspace: Option<String>,
    model: String,
    trials: usize,
    seed: u64,
    command: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: None,
        model: "multimedia".to_string(),
        trials: 10_000,
        seed: 20120402,
        command: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => {
                args.workspace = Some(it.next().ok_or("--workspace needs a directory")?);
            }
            "--model" => args.model = it.next().ok_or("--model needs a name")?,
            "--trials" => {
                args.trials = it
                    .next()
                    .ok_or("--trials needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --trials: {e}"))?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => args.command.push(other.to_string()),
        }
    }
    if args.command.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

const USAGE: &str = "usage: gmaa [--workspace DIR --model NAME] [--trials N] [--seed N] COMMAND
commands: hierarchy | performances | utility KEY | weights | ranking |
          rank-by KEY | stability | montecarlo | potential | intensity |
          analyze | save-paper DIR";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gmaa: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let model = match &args.workspace {
        Some(dir) => {
            let ws = Workspace::open(dir.clone()).map_err(|e| e.to_string())?;
            ws.load(&args.model).map_err(|e| e.to_string())?
        }
        None => neon_reuse::paper_model().model,
    };
    let mut engine = AnalysisEngine::new(model).map_err(|e| e.to_string())?;
    engine
        .set_mc_trials(args.trials)
        .map_err(|e| format!("bad --trials: {e}"))?;
    engine.mc_seed = args.seed;

    let cmd: Vec<&str> = args.command.iter().map(|s| s.as_str()).collect();
    match cmd.as_slice() {
        ["hierarchy"] => print!("{}", report::hierarchy(engine.model())),
        ["performances"] => print!("{}", report::consequences(engine.model())),
        ["utility", key] => print!("{}", report::component_utility(engine.model(), key)),
        ["weights"] => print!("{}", report::weight_table_ctx(engine.context())),
        ["ranking"] => {
            let eval = engine.evaluate();
            print!("{}", report::ranking(engine.model(), &eval));
        }
        ["rank-by", key] => {
            let eval = engine
                .rank_by(key)
                .ok_or_else(|| format!("unknown objective '{key}'"))?;
            print!("{}", report::ranking(engine.model(), &eval));
        }
        ["stability"] => {
            let stab = engine.stability_all(StabilityMode::BestAlternative);
            print!("{}", report::stability(engine.model(), &stab));
        }
        ["montecarlo"] => {
            let mc = engine.monte_carlo(MonteCarloConfig::ElicitedIntervals);
            print!("{}", report::boxplot(&mc, 72));
            println!();
            print!("{}", report::rank_statistics(&mc.stats));
            print!("{}", report::acceptability(engine.model(), &mc, 5));
        }
        ["potential"] => {
            let nd = engine.non_dominated();
            println!(
                "Non-dominated: {} of {}",
                nd.len(),
                engine.model().num_alternatives()
            );
            for o in engine.potentially_optimal().map_err(|e| e.to_string())? {
                let name = &engine.model().alternatives[o.alternative];
                println!(
                    "{name:<24} potentially optimal: {:<5} slack {:+.4}",
                    o.potentially_optimal, o.slack
                );
            }
        }
        ["intensity"] => {
            for r in engine.intensity_ranking() {
                let name = &engine.model().alternatives[r.alternative];
                println!("{:>3}. {name:<24} intensity {:+.4}", r.rank, r.intensity);
            }
        }
        ["analyze"] => {
            let a = engine.analyze().map_err(|e| e.to_string())?;
            print!("{}", report::ranking(engine.model(), &a.evaluation));
            println!();
            print!("{}", report::stability(engine.model(), &a.stability));
            println!(
                "\nNon-dominated: {}; potentially optimal: {}; discarded: {:?}",
                a.non_dominated.len(),
                a.survivors().len(),
                a.discarded()
                    .iter()
                    .map(|&i| engine.model().alternatives[i].as_str())
                    .collect::<Vec<_>>()
            );
            println!();
            print!("{}", report::rank_statistics(&a.monte_carlo.stats));
        }
        ["save-paper", dir] => {
            let ws = Workspace::open(dir.to_string()).map_err(|e| e.to_string())?;
            ws.save("multimedia", engine.model())
                .map_err(|e| e.to_string())?;
            println!("saved model 'multimedia' into {dir}");
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    }
    Ok(())
}
