//! Regenerates the data series behind every figure of the paper's
//! evaluation (§4).
//!
//! ```text
//! cargo run --release -p avmem_bench --bin figures -- all
//! cargo run --release -p avmem_bench --bin figures -- fig9 fig10
//! cargo run --release -p avmem_bench --bin figures -- --small all
//! ```
//!
//! `--help` lists the experiment and ablation ids
//! ([`avmem_bench::experiments::resolve`] reads the same tables).
//!
//! At paper scale each experiment's claim rows follow its table, and the
//! binary exits 1 when any row is a miss or a stale expected miss. The
//! bands are stated for the paper's 1 442 hosts, so `--small` prints the
//! tables only.

use std::env;
use std::io::{self, Write};
use std::process::ExitCode;

use avmem_bench::experiments::{resolve, Harness, Run, ABLATIONS, FIGURES};

fn usage() -> String {
    format!(
        "usage: figures [--small] <experiment-id>... | all | ablations\n\
         experiments: {}\n\
         ablations:   {}",
        FIGURES.map(|(id, _)| id).join(" "),
        ABLATIONS.map(|(id, _)| id).join(" ")
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
    let requested = match resolve(args.iter().map(String::as_str)) {
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

    match report(&Harness::new(small), &requested, &mut io::stdout().lock()) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failing) => {
            eprintln!("{failing} claim rows miss or are stale");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `experiments` on `harness` and writes each one's table to `out`,
/// followed at paper scale by its claim rows, each expected miss's cause
/// under the first row that names it. Returns how many rows miss or are
/// stale.
fn report(harness: &Harness, experiments: &[(&str, Run)], out: &mut impl Write) -> io::Result<usize> {
    writeln!(out, "{}\n", harness.header())?;
    let mut failing = 0;
    for (_, run) in experiments {
        let experiment = run(harness);
        write!(out, "{experiment}")?;
        if harness.paper_scale() {
            let mut cause = None;
            for claim in experiment.claims() {
                writeln!(out, "{claim}")?;
                if let Some(why) = claim.expected_miss.filter(|&why| Some(why) != cause) {
                    writeln!(out, "        cause: {why}")?;
                    cause = Some(why);
                }
                failing += usize::from(claim.verdict().fails());
            }
        }
        writeln!(out)?;
    }
    Ok(failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_small_scale_prints_no_claim_row() {
        let mut out = Vec::new();
        let failing = report(&Harness::new(true), &resolve(["fig2", "theorems"]).unwrap(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Fig 2. snapshot") && text.contains("§2.2 theorem checks"), "{text}");
        assert!(!text.contains("claim"), "{text}");
        assert_eq!(failing, 0);
    }
}
