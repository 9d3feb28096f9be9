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
//!
//! At paper scale each experiment's claim rows follow its table, and the
//! binary exits 1 when any row is a miss or a stale expected miss. The
//! bands are stated for the paper's 1 442 hosts, so `--small` prints the
//! tables only.

use std::env;
use std::io::{self, Write};
use std::process::ExitCode;

use avmem_bench::experiments::{Harness, Run, ABLATIONS, FIGURES as ALL};

/// An experiment's id and how it runs.
type Entry = (&'static str, Run);

fn usage() -> String {
    format!(
        "usage: figures [--small] <experiment-id>... | all | ablations\n\
         experiments: {}\n\
         ablations:   {}",
        ALL.map(|(id, _)| id).join(" "),
        ABLATIONS.map(|(id, _)| id).join(" ")
    )
}

/// The experiments `args` name, each once, in the order of first mention:
/// `all` and `ablations` expand to their lists, and an alias names the
/// experiment that prints its figure. Errs with the first unknown id.
fn resolve(args: &[String]) -> Result<Vec<Entry>, String> {
    let mut experiments: Vec<Entry> = Vec::new();
    for arg in args {
        let named: &[Entry] = match arg.as_str() {
            "all" => &ALL,
            "ablations" => &ABLATIONS,
            arg => {
                let id = match arg { "fig5" | "fig6" => "fig56", "fig12" | "fig13" => "fig11", id => id };
                let known = ALL.iter().chain(&ABLATIONS).find(|&&(known, _)| known == id);
                std::slice::from_ref(known.ok_or_else(|| arg.to_owned())?)
            }
        };
        for &entry in named {
            if !experiments.iter().any(|&(id, _)| id == entry.0) {
                experiments.push(entry);
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
fn report(harness: &Harness, experiments: &[Entry], out: &mut impl Write) -> io::Result<usize> {
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

    fn ids(args: &str) -> Result<Vec<&'static str>, String> {
        let args: Vec<_> = args.split_whitespace().map(str::to_owned).collect();
        resolve(&args).map(|entries| entries.into_iter().map(|(id, _)| id).collect())
    }

    #[test]
    fn aliases_resolve_to_one_run_of_their_experiment() {
        assert_eq!(ids("fig5 fig6"), Ok(vec!["fig56"]));
        assert_eq!(ids("fig11 fig12 fig13 fig56 fig5"), Ok(vec!["fig11", "fig56"]));
        let all = ids("all").unwrap();
        assert_eq!(all, ALL.map(|(id, _)| id));
        assert_eq!(ids("all fig2 theorems"), Ok(all.clone()));
        assert_eq!(ids("fig9 all").unwrap()[..3], ["fig9", "fig2", "fig3"]);
        let both = ids("ablations all ablations").unwrap();
        assert_eq!(both.len(), all.len() + ABLATIONS.len());
        assert_eq!((both[0], both[ABLATIONS.len()]), (ABLATIONS[0].0, "fig2"));
        assert_eq!(ids("fig2 bogus fig3"), Err("bogus".to_owned()));
    }

    #[test]
    fn the_small_scale_prints_no_claim_row() {
        let mut out = Vec::new();
        let failing = report(&Harness::new(true), &resolve(&["fig2".into(), "theorems".into()]).unwrap(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Fig 2. snapshot") && text.contains("§2.2 theorem checks"), "{text}");
        assert!(!text.contains("claim"), "{text}");
        assert_eq!(failing, 0);
    }
}
