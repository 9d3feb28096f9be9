//! `perf`: AVMEM measured end to end and layer by layer, on six named
//! workloads. See `README.md` beside this package's manifest.

mod child;
mod compare;
mod json;
mod output;
mod probes;
mod runner;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use json::Json;
use runner::{Budget, Phase, WorkloadResult};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
usage:
  perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload, sampled for <s> seconds; the last line of output is
      {\"correct\", \"attempted\", \"failed\", \"metrics\"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1
  perf run [--seed <n>] [--workloads <a,b,...>] [--samples <k>] [--quick] [--out <file>]
      every workload: k end-to-end samples each (default 5; --quick = 1),
      taken round-robin, then min(k, 3) traced runs each; one JSON document
  perf compare <a.json> <b.json>
      applies each metric's bound to two `perf run` documents; exits 1
      on any worse row";

/// Exit code for a misuse of the command line or unreadable input.
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => single_main(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// `--flag value` pairs and bare switches, checked against what the
/// subcommand knows.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], valued: &[&str], switches: &[&str]) -> Result<Flags<'a>, String> {
        let mut i = 0;
        while i < args.len() {
            if valued.contains(&args[i].as_str()) {
                if i + 1 >= args.len() {
                    return Err(format!("{} needs a value\n{USAGE}", args[i]));
                }
                i += 2;
            } else if switches.contains(&args[i].as_str()) {
                i += 1;
            } else {
                return Err(format!("unknown argument {:?}\n{USAGE}", args[i]));
            }
        }
        Ok(Flags { args })
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.args.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.number(flag)?
            .ok_or_else(|| format!("{flag} is required\n{USAGE}"))
    }

    fn switch(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })
}

/// `perf child <mode> <workload> <seed>`: one sample's process.
fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let [mode, workload, seed] = args else {
        return Err("child: expected <mode> <workload> <seed>".to_string());
    };
    let mode = child::Mode::parse(mode).ok_or_else(|| format!("child: unknown mode {mode:?}"))?;
    let workload = workload_named(workload)?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("child: bad seed {seed:?}"))?;
    let line = child::run(mode, workload, seed)?;
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// The benchmark's declared command: one workload, one result line.
fn single_main(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let workload = workload_named(flags.value("--workload").ok_or("--workload is required")?)?;
    let seed: u64 = flags.required("--seed")?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 60]"));
    }
    let phase = match flags.required::<u8>("--trace")? {
        0 => Phase::EndToEnd,
        1 => Phase::PerLayer,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    let results = runner::collect(&[workload], Some(seed), phase, Budget::Seconds(seconds))?;
    let result = &results[0];
    print!("{}", output::text(result));
    println!("{}", output::result_line(result, phase).render());
    // `correct` in the line carries the verdict; the run itself worked.
    Ok(ExitCode::SUCCESS)
}

/// `perf run`: the whole matrix, one document.
fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--seed", "--workloads", "--samples", "--out"],
        &["--quick"],
    )?;
    let seed: Option<u64> = flags.number("--seed")?;
    let samples: usize = match flags.number("--samples")? {
        Some(0) => return Err("--samples: at least 1".to_string()),
        Some(k) => k,
        None if flags.switch("--quick") => 1,
        None => 5,
    };
    let selected: Vec<&'static Workload> = match flags.value("--workloads") {
        Some(list) => list
            .split(',')
            .map(workload_named)
            .collect::<Result<_, _>>()?,
        None => WORKLOADS.iter().collect(),
    };

    eprintln!(
        "perf run: {} workloads, {samples} end-to-end samples each, then traced runs",
        selected.len()
    );
    let end_to_end = runner::collect(&selected, seed, Phase::EndToEnd, Budget::Samples(samples))?;
    // Overheads are differences of timings a few percent apart: three
    // traced rounds unless the run is a quick one.
    let per_layer = runner::collect(
        &selected,
        seed,
        Phase::PerLayer,
        Budget::Samples(samples.min(3)),
    )?;
    let mut results: Vec<WorkloadResult> = end_to_end
        .into_iter()
        .zip(per_layer)
        .map(|(mut result, layers)| {
            result.absorb_per_layer(layers);
            result
        })
        .collect();
    // The fidelity floors must hold on a seed the workloads were not
    // sized on, too: one more run of each converged workload.
    for result in results.iter_mut().filter(|r| !r.workload.floors.is_empty()) {
        let next_seed = Some(result.seed.wrapping_add(1));
        for other in runner::collect(
            &[result.workload],
            next_seed,
            Phase::EndToEnd,
            Budget::Samples(1),
        )? {
            result.absorb_other_seed(other);
        }
    }

    for result in &results {
        eprint!("{}", output::text(result));
    }
    let document = output::document(&results, samples).render_pretty();
    match flags.value("--out") {
        Some(path) => std::fs::write(path, &document).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{document}"),
    }
    let all_correct = results.iter().all(WorkloadResult::correct);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare: expected two files\n{USAGE}"));
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(if compare::regressed(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
