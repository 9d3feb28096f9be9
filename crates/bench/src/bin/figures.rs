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
//! (`fig12`/`fig13` alias `fig11` — one run produces all three CDFs),
//! `discovery`, `theorems`.

use std::env;
use std::process::ExitCode;

use avmem_bench::{ablations, figures, paper};

const ALL: [&str; 10] = [
    "fig2", "fig3", "fig4", "fig56", "fig7", "fig8", "fig9", "fig10", "fig11", "discovery",
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
         experiments: {} theorems\n\
         ablations:   {}",
        ALL.join(" "),
        ABLATIONS.join(" ")
    )
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let small = args.iter().any(|a| a == "--small");
    args.retain(|a| a != "--small");
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    let mut requested: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "all" => {
                requested.extend(ALL.iter().map(|s| (*s).to_owned()));
                requested.push("theorems".to_owned());
            }
            "ablations" => requested.extend(ABLATIONS.iter().map(|s| (*s).to_owned())),
            other => requested.push(other.to_owned()),
        }
    }

    // "Each point … the average of 5 different protocol runs, each with
    // 50 messages"; the small scale runs in well under a second.
    let (hosts, days, runs, messages) = if small { (200, 2, 2, 20) } else { (1442, 7, 5, 50) };
    let base = paper::base(hosts, days, messages);
    println!(
        "# AVMEM figure harness: {hosts} hosts, {days} days, {runs} runs × {messages} messages{}",
        if small { " (small mode)" } else { "" }
    );
    println!();

    for experiment in &requested {
        match experiment.as_str() {
            "fig2" => println!("{}", figures::fig2(&base)),
            "fig3" => println!("{}", figures::fig3(&base)),
            "fig4" => println!("{}", figures::fig4(&base)),
            "fig5" | "fig6" | "fig56" => println!("{}", figures::fig56(&base)),
            "fig7" => println!("{}", figures::fig7(&base, runs)),
            "fig8" => println!("{}", figures::fig8(&base, runs)),
            "fig9" => println!("{}", figures::fig9(&base, runs)),
            "fig10" => {
                for sweep in figures::fig10(&base, runs) {
                    println!("{sweep}");
                }
            }
            "fig11" | "fig12" | "fig13" => println!("{}", figures::fig111213(&base, runs)),
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
            other => {
                eprintln!("unknown experiment id {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
