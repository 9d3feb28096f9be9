//! Generates synthetic Overnet-like churn traces in `AVTRACE v1` format.
//!
//! ```text
//! cargo run --release -p avmem_trace --bin tracegen -- --hosts 1442 --days 7 --seed 1 > trace.avt
//! cargo run --release -p avmem_trace --bin tracegen -- --stats < trace.avt   # summarize a trace
//! ```
//!
//! The output format is the same one [`avmem_trace::ChurnTrace::read_from`]
//! parses, so generated traces are interchangeable with converted real
//! probe data.

use std::env;
use std::io::{self, Write};
use std::process::ExitCode;

use avmem_trace::{ChurnTrace, OvernetModel};

struct Options {
    hosts: usize,
    days: u64,
    slot_minutes: u64,
    seed: u64,
    diurnal: f64,
    stats_mode: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        hosts: 1442,
        days: 7,
        slot_minutes: 20,
        seed: 1,
        diurnal: 0.0,
        stats_mode: false,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--hosts" => options.hosts = value("--hosts")?.parse().map_err(|e| format!("--hosts: {e}"))?,
            "--days" => options.days = value("--days")?.parse().map_err(|e| format!("--days: {e}"))?,
            "--slot-minutes" => {
                options.slot_minutes = value("--slot-minutes")?
                    .parse()
                    .map_err(|e| format!("--slot-minutes: {e}"))?
            }
            "--seed" => options.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--diurnal" => {
                options.diurnal = value("--diurnal")?
                    .parse()
                    .map_err(|e| format!("--diurnal: {e}"))?
            }
            "--stats" => options.stats_mode = true,
            "--help" | "-h" => {
                return Err(
                    "usage: tracegen [--hosts N] [--days D] [--slot-minutes M] [--seed S] \
                     [--diurnal A]   # writes AVTRACE v1 to stdout\n       \
                     tracegen --stats   # reads AVTRACE v1 from stdin, prints a summary"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(options)
}

fn print_stats(trace: &ChurnTrace) {
    let stats = trace.stats();
    println!("nodes               {}", stats.num_nodes);
    println!("slots               {}", stats.num_slots);
    println!("slot width          {}", trace.slot_duration());
    println!("mean availability   {:.3}", stats.mean_availability);
    println!("transitions         {}", stats.transitions);
    println!(
        "online min/mean/max {} / {:.1} / {}",
        stats.min_online, stats.mean_online, stats.max_online
    );
    // Availability histogram, 10 buckets.
    let mut counts = [0usize; 10];
    for i in 0..trace.num_nodes() {
        counts[trace.long_term_availability(i).bucket(counts.len())] += 1;
    }
    println!("availability histogram (0.1 buckets):");
    for (b, count) in counts.iter().enumerate() {
        println!("  [{:.1},{:.1})  {count}", b as f64 / 10.0, (b + 1) as f64 / 10.0);
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if options.stats_mode {
        match ChurnTrace::read_from(io::stdin().lock()) {
            Ok(trace) => {
                print_stats(&trace);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to read trace from stdin: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let trace = OvernetModel::default()
            .hosts(options.hosts)
            .days(options.days)
            .slot_minutes(options.slot_minutes)
            .diurnal_amplitude(options.diurnal)
            .generate(options.seed);
        let stdout = io::stdout();
        let mut out = stdout.lock();
        if let Err(e) = trace.write_to(&mut out).and_then(|()| out.flush()) {
            eprintln!("failed to write trace: {e}");
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    }
}
