//! Regenerates the data series behind every figure of the paper's
//! evaluation (§4).
//!
//! ```text
//! cargo run --release -p avmem_bench --bin figures -- all
//! cargo run --release -p avmem_bench --bin figures -- fig9 fig10
//! cargo run --release -p avmem_bench --bin figures -- --small all
//! ```
//!
//! Experiment ids: `fig2 fig3 fig4 fig56 fig7 fig8 fig9 fig10 fig11`
//! (`fig5`/`fig6` alias `fig56`, `fig12`/`fig13` alias `fig11` — one run
//! produces all three CDFs), `discovery`, `theorems`.

use std::env;
use std::process::ExitCode;

use avmem_bench::{ablations, figures, paper};

const ALL: [&str; 11] = [
    "fig2", "fig3", "fig4", "fig56", "fig7", "fig8", "fig9", "fig10", "fig11", "discovery",
    "theorems",
];

const ABLATIONS: [&str; 5] = [
    "ablation-predicates",
    "ablation-cushion",
    "ablation-gossip",
    "ablation-workload",
    "ablation-aged",
];

fn usage() -> String {
    format!(
        "usage: figures [--small] <experiment-id>... | all | ablations\n\
         experiments: {}\n\
         ablations:   {}",
        ALL.join(" "),
        ABLATIONS.join(" ")
    )
}

/// The experiments `args` name, each once, in the order of first mention:
/// `all` and `ablations` expand to their lists, and an alias names the
/// experiment that prints its figure. Errs with the first unknown id.
fn resolve(args: &[String]) -> Result<Vec<&'static str>, String> {
    let mut experiments = Vec::new();
    for arg in args {
        let named: &[&'static str] = match arg.as_str() {
            "all" => &ALL,
            "ablations" => &ABLATIONS,
            "fig5" | "fig6" => &["fig56"],
            "fig12" | "fig13" => &["fig11"],
            other => {
                let known = ALL.iter().chain(&ABLATIONS).find(|&&id| id == other);
                std::slice::from_ref(known.ok_or_else(|| other.to_owned())?)
            }
        };
        for &id in named {
            if !experiments.contains(&id) {
                experiments.push(id);
            }
        }
    }
    Ok(experiments)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let small = args.iter().any(|a| a == "--small");
    args.retain(|a| a != "--small");
    let requested = match resolve(&args) {
        Ok(requested) if !requested.is_empty() => requested,
        Ok(_) => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
        Err(unknown) => {
            eprintln!("unknown experiment id {unknown:?}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    // "Each point … the average of 5 different protocol runs, each with
    // 50 messages"; the small scale runs in well under a second.
    let (hosts, days, runs, messages) = if small { (200, 2, 2, 20) } else { (1442, 7, 5, 50) };
    let base = paper::base(hosts, days, messages);
    println!(
        "# AVMEM figure harness: {hosts} hosts, {days} days, {runs} runs × {messages} messages{}",
        if small { " (small mode)" } else { "" }
    );
    println!();

    for experiment in requested {
        match experiment {
            "fig2" => println!("{}", figures::fig2(&base)),
            "fig3" => println!("{}", figures::fig3(&base)),
            "fig4" => println!("{}", figures::fig4(&base)),
            "fig56" => println!("{}", figures::fig56(&base)),
            "fig7" => println!("{}", figures::fig7(&base, runs)),
            "fig8" => println!("{}", figures::fig8(&base, runs)),
            "fig9" => println!("{}", figures::fig9(&base, runs)),
            "fig10" => {
                for sweep in figures::fig10(&base, runs) {
                    println!("{sweep}");
                }
            }
            "fig11" => println!("{}", figures::fig111213(&base, runs)),
            "discovery" => {
                let n = if small { 128 } else { 1024 };
                println!("{}", figures::discovery_micro(n, 30));
            }
            "theorems" => println!("{}", figures::theorem_checks(&base)),
            "ablation-predicates" => {
                println!("{}", ablations::ablation_predicates(&base, runs));
            }
            "ablation-cushion" => println!("{}", ablations::ablation_cushion(&base)),
            "ablation-gossip" => println!("{}", ablations::ablation_gossip(&base, runs)),
            "ablation-workload" => println!("{}", ablations::ablation_workload(&base, runs)),
            "ablation-aged" => println!("{}", ablations::ablation_aged(&base)),
            other => unreachable!("{other:?} resolved to no experiment"),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &str) -> Result<Vec<&'static str>, String> {
        resolve(&args.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn aliases_resolve_to_one_run_of_their_experiment() {
        assert_eq!(ids("fig5 fig6"), Ok(vec!["fig56"]));
        assert_eq!(ids("fig11 fig12 fig13 fig56 fig5"), Ok(vec!["fig11", "fig56"]));
        let all = ids("all").unwrap();
        assert_eq!(all, ALL);
        assert_eq!(ids("all fig2 theorems"), Ok(all.clone()));
        assert_eq!(ids("fig9 all").unwrap()[..3], ["fig9", "fig2", "fig3"]);
        let both = ids("ablations all ablations").unwrap();
        assert_eq!(both.len(), all.len() + ABLATIONS.len());
        assert_eq!((both[0], both[ABLATIONS.len()]), (ABLATIONS[0], "fig2"));
        assert_eq!(ids("fig2 bogus fig3"), Err("bogus".to_owned()));
    }
}
