//! The `scenario` CLI: list, inspect, check, run, serve, and sweep
//! scenarios.
//!
//! ```text
//! scenario list                      # built-in scenarios
//! scenario show overnet-day          # print a built-in's spec text
//! scenario check my-experiment.scn   # parse + validate a spec file
//! scenario run overnet-day           # run a built-in
//! scenario run my-experiment.scn --seed 9 --engine serial --json
//! scenario serve serve-100k --metrics-addr 127.0.0.1:9464
//! scenario sweep smoke --seeds 1..8 --engines serial,sharded
//! ```
//!
//! `run`, `serve`, `sweep`, and `check` resolve their argument as a
//! built-in name first, then as a file path. Shared overrides:
//! `--seed N`, `--engine serial|sharded`, `--threads K` (one maintenance
//! shard per thread; 0 = all cores, at most 1024), `--warmup-mins N` /
//! `--duration-mins N` (truncated CI smokes of big scenarios), `--json`
//! for machine-readable output. `serve` adds the service-mode knobs
//! (rate, pacing, lag budget, metrics endpoint); `sweep` runs an
//! inclusive seed range and aggregates headline metrics.

use std::process::ExitCode;

use avmem::harness::MaintenanceEngine;
use avmem_scenario::{
    builtin, parse_engine, parse_spec, ScenarioRunner, ScenarioSpec, ServeOptions, SweepEngine,
    SweepOptions,
};
use avmem_util::parallel::MAX_THREADS;

fn usage() -> &'static str {
    "usage: scenario <command>\n\
     \n\
     commands:\n\
     \x20 list                        list built-in scenarios\n\
     \x20 show <name>                 print a built-in scenario's spec text\n\
     \x20 check <name|file>           parse and validate a built-in or spec file\n\
     \x20 run <name|file> [options]   run a scenario and print its report\n\
     \x20 serve <name|file> [options] run as a sustained-traffic service with live metrics\n\
     \x20 sweep <name|file> [options] run a seed sweep and aggregate headline metrics\n\
     \n\
     run/serve/sweep options:\n\
     \x20 --seed <n>                  override the spec's seed\n\
     \x20 --engine serial|sharded     override the maintenance engine\n\
     \x20 --threads <k>               worker threads, one shard each, for --engine sharded\n\
     \x20                             (0 = all cores, at most 1024)\n\
     \x20 --warmup-mins <n>           override the spec's warmup length\n\
     \x20 --duration-mins <n>         override the spec's measured duration\n\
     \x20 --json                      print the report as JSON\n\
     \n\
     run options:\n\
     \x20 --assert-peak-rss-mb <n>    exit non-zero if peak RSS exceeds n MiB (CI memory smoke)\n\
     \n\
     serve options:\n\
     \x20 --for-mins <n>              serve only the first n minutes of the window\n\
     \x20 --ops-per-day <r>           sustained rate in operations per simulated day\n\
     \x20 --pace <p>                  simulated seconds per wall second (0 = unpaced)\n\
     \x20 --lag-budget-ms <n>         shed operations when lag exceeds this budget\n\
     \x20 --metrics-addr <host:port>  expose /metrics on this address (port 0 = ephemeral)\n\
     \x20 --snapshot-secs <n>         heartbeat and registry publish every n wall seconds (0 = silent)\n\
     \x20 --max-wall-secs <n>         hard wall-clock cap for the serve loop\n\
     \x20 --scrape-once               print a final Prometheus scrape on exit\n\
     \n\
     sweep options:\n\
     \x20 --seeds <a..b>              inclusive seed range (or a single seed)\n\
     \x20 --engines <e1,e2,...>       engines to cross-check (serial, sharded)\n"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args)
}

/// Runs the command `args` names (the arguments after the program name).
fn dispatch(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let command = args.first().map(String::as_str);
    match command {
        Some("list") | Some("--list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("show") => match args.get(1) {
            Some(name) => show(name),
            None => fail("show needs a scenario name"),
        },
        Some("check") => match args.get(1) {
            Some(which) => check(which),
            None => fail("check needs a scenario name or spec file path"),
        },
        Some("run") => match args.get(1) {
            Some(which) => run(which, &args[2..]),
            None => fail("run needs a scenario name or spec file"),
        },
        Some("serve") => match args.get(1) {
            Some(which) => serve(which, &args[2..]),
            None => fail("serve needs a scenario name or spec file"),
        },
        Some("sweep") => match args.get(1) {
            Some(which) => sweep(which, &args[2..]),
            None => fail("sweep needs a scenario name or spec file"),
        },
        None => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown command {other:?}\n\n{}", usage())),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("scenario: {message}");
    ExitCode::from(2)
}

fn list() {
    println!("built-in scenarios:");
    for name in builtin::builtin_names() {
        let blurb = builtin::builtin_blurb(name).unwrap_or("");
        println!("  {name:<16} {blurb}");
    }
    println!("\nrun one with: scenario run <name>");
}

fn show(name: &str) -> ExitCode {
    match builtin::builtin_source(name) {
        Some(source) => {
            print!("{source}");
            ExitCode::SUCCESS
        }
        None => fail(&format!(
            "no built-in scenario {name:?} (see `scenario list`)"
        )),
    }
}

fn check(which: &str) -> ExitCode {
    match resolve(which) {
        Ok(spec) => {
            println!(
                "{which}: ok — scenario {:?}, {} min of operations",
                spec.name, spec.duration_mins
            );
            ExitCode::SUCCESS
        }
        Err(message) => fail(&message),
    }
}

/// Resolves `which` as a built-in name first, then as a spec file path.
/// Only a file that cannot be read is reported as neither; a spec that
/// does not parse or validate is reported as `<path>: <error>`.
fn resolve(which: &str) -> Result<ScenarioSpec, String> {
    let spec = match builtin::builtin(which) {
        // Built-ins are validated by their own tests, but re-check here
        // so `check <name>` means what it says.
        Some(spec) => spec,
        None => {
            let text = std::fs::read_to_string(which).map_err(|e| {
                format!(
                    "{which:?} is neither a built-in (see `scenario list`) nor a readable \
                     spec file: {e}"
                )
            })?;
            parse_spec(&text).map_err(|e| format!("{which}: {e}"))?
        }
    };
    spec.validate().map_err(|e| format!("{which}: {e}"))?;
    Ok(spec)
}

/// Overrides shared by `run`, `serve`, and `sweep`.
#[derive(Default)]
struct Common {
    engine: Option<MaintenanceEngine>,
    threads: Option<usize>,
    json: bool,
}

impl Common {
    /// Tries to consume `option` (and its value from `iter`) as a common
    /// override. `Ok(true)` = consumed, `Ok(false)` = not a common
    /// option, `Err` = recognized but malformed.
    fn consume(
        &mut self,
        spec: &mut ScenarioSpec,
        option: &str,
        iter: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match option {
            "--seed" => spec.seed = value(iter, option, "an integer")?,
            "--engine" => {
                let name = iter.next().ok_or("--engine needs an engine name")?;
                self.engine = Some(parse_engine(name).map_err(|e| format!("--engine: {e}"))?);
            }
            "--threads" => {
                let threads = value(iter, option, "an integer")?;
                if threads > MAX_THREADS {
                    return Err(format!("--threads must be at most {MAX_THREADS}, found {threads}"));
                }
                self.threads = Some(threads);
            }
            "--warmup-mins" => spec.warmup_mins = value(iter, option, "an integer")?,
            "--duration-mins" => spec.duration_mins = value(iter, option, "an integer")?,
            "--json" => self.json = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies the engine override to the spec: `--engine`'s, or the
    /// spec's own, refined by the thread count.
    fn apply_engine(&self, spec: &mut ScenarioSpec) -> Result<(), String> {
        spec.maintenance.engine = self.refine(self.engine.unwrap_or(spec.maintenance.engine))?;
        Ok(())
    }

    /// `engine` under `--threads` (`0` = auto): it refines a sharded
    /// engine and contradicts a serial one, which is one thread by
    /// definition.
    fn refine(&self, mut engine: MaintenanceEngine) -> Result<MaintenanceEngine, String> {
        match (&mut engine, self.threads) {
            (_, None) => {}
            (MaintenanceEngine::Sharded { threads }, Some(count)) => {
                *threads = (count > 0).then_some(count);
            }
            (MaintenanceEngine::Serial, Some(_)) => {
                return Err("--threads contradicts the serial engine (one thread); \
                            only the sharded engine takes a count"
                    .into())
            }
        }
        Ok(engine)
    }
}

/// The argument after `option`, parsed; `what` says what it has to be.
fn value<T: std::str::FromStr>(
    iter: &mut std::slice::Iter<'_, String>,
    option: &str,
    what: &str,
) -> Result<T, String> {
    let parsed = iter.next().and_then(|text| text.parse().ok());
    parsed.ok_or_else(|| format!("{option} needs {what}"))
}

/// Applies `run`'s options to `spec`; the peak-RSS ceiling, if asked for.
fn run_options(
    spec: &mut ScenarioSpec,
    common: &mut Common,
    options: &[String],
) -> Result<Option<u64>, String> {
    let mut rss_ceiling_mb = None;
    let mut iter = options.iter();
    while let Some(option) = iter.next() {
        if common.consume(spec, option, &mut iter)? {
            continue;
        }
        match option.as_str() {
            "--assert-peak-rss-mb" => {
                rss_ceiling_mb = Some(value(&mut iter, option, "an integer (MiB)")?)
            }
            other => return Err(format!("unknown run option {other:?}")),
        }
    }
    common.apply_engine(spec)?;
    Ok(rss_ceiling_mb)
}

fn run(which: &str, options: &[String]) -> ExitCode {
    let mut spec = match resolve(which) {
        Ok(spec) => spec,
        Err(message) => return fail(&message),
    };

    let mut common = Common::default();
    let rss_ceiling_mb = match run_options(&mut spec, &mut common, options) {
        Ok(ceiling) => ceiling,
        Err(message) => return fail(&message),
    };
    let json = common.json;

    let runner = match ScenarioRunner::new(spec) {
        Ok(runner) => runner,
        Err(e) => return fail(&e.to_string()),
    };
    if !json {
        eprintln!(
            "running scenario {:?} (seed {}) ...",
            runner.spec().name, runner.spec().seed
        );
    }
    match runner.run() {
        Ok(report) => {
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if let Some(ceiling) = rss_ceiling_mb {
                let Some(peak) = report.memory.peak_rss_bytes else {
                    return fail("--assert-peak-rss-mb: peak RSS not observable here");
                };
                let peak_mb = peak / (1024 * 1024);
                if peak_mb > ceiling {
                    return fail(&format!(
                        "peak RSS {peak_mb} MiB exceeds the asserted ceiling {ceiling} MiB"
                    ));
                }
                eprintln!("peak RSS {peak_mb} MiB within the {ceiling} MiB ceiling");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// Applies `serve`'s options to `spec` and `opts`.
fn serve_options(
    spec: &mut ScenarioSpec,
    common: &mut Common,
    opts: &mut ServeOptions,
    options: &[String],
) -> Result<(), String> {
    let integer = "an integer";
    let mut iter = options.iter();
    while let Some(option) = iter.next() {
        if common.consume(spec, option, &mut iter)? {
            continue;
        }
        match option.as_str() {
            "--for-mins" => opts.for_mins = Some(value(&mut iter, option, integer)?),
            "--ops-per-day" => opts.ops_per_day = Some(value(&mut iter, option, "a number")?),
            "--pace" => opts.pace = Some(value(&mut iter, option, "a number")?),
            "--lag-budget-ms" => opts.lag_budget_ms = Some(value(&mut iter, option, integer)?),
            "--metrics-addr" => opts.metrics_addr = Some(value(&mut iter, option, "a host:port")?),
            "--snapshot-secs" => opts.snapshot_every_secs = value(&mut iter, option, integer)?,
            "--max-wall-secs" => opts.max_wall_secs = Some(value(&mut iter, option, integer)?),
            "--scrape-once" => opts.scrape_on_exit = true,
            other => return Err(format!("unknown serve option {other:?}")),
        }
    }
    common.apply_engine(spec)
}

fn serve(which: &str, options: &[String]) -> ExitCode {
    let mut spec = match resolve(which) {
        Ok(spec) => spec,
        Err(message) => return fail(&message),
    };

    let mut common = Common::default();
    let mut opts = ServeOptions {
        snapshot_every_secs: 10,
        ..ServeOptions::default()
    };
    if let Err(message) = serve_options(&mut spec, &mut common, &mut opts, options) {
        return fail(&message);
    }
    if common.json {
        opts.snapshot_every_secs = 0;
    }

    let runner = match ScenarioRunner::new(spec) {
        Ok(runner) => runner,
        Err(e) => return fail(&e.to_string()),
    };
    if !common.json {
        eprintln!(
            "serving scenario {:?} (seed {}) ...",
            runner.spec().name, runner.spec().seed
        );
    }
    match runner.serve(&opts) {
        Ok(outcome) => {
            if common.json {
                println!(
                    "{{\"wall_secs\":{:.3},\"sim_mins\":{},\"ops_handled\":{},\
                     \"ops_per_sim_day\":{:.1},\"report\":{}}}",
                    outcome.wall_secs,
                    outcome.sim_mins,
                    outcome.ops_handled,
                    outcome.ops_per_sim_day,
                    outcome.report.render_json()
                );
            } else {
                println!(
                    "served {} sim-min in {:.1}s wall: {} arrivals handled \
                     ({:.0} ops per simulated day)",
                    outcome.sim_mins,
                    outcome.wall_secs,
                    outcome.ops_handled,
                    outcome.ops_per_sim_day
                );
                print!("{}", outcome.report.render_text());
                if let Some(text) = &outcome.metrics_text {
                    println!("--- final metrics scrape ---");
                    print!("{text}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// Parses `a..b` / `a..=b` (inclusive either way) or a single seed.
fn parse_seed_range(text: &str) -> Option<(u64, u64)> {
    if let Some((lo, hi)) = text.split_once("..") {
        let hi = hi.strip_prefix('=').unwrap_or(hi);
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    } else {
        let seed = text.trim().parse().ok()?;
        Some((seed, seed))
    }
}

/// Applies `sweep`'s options to `spec`; the seed range and the engines
/// to cross-check. Each `--engines` entry is refined by `--threads` as
/// `--engine` would be, so the two do not combine.
fn sweep_options(
    spec: &mut ScenarioSpec,
    common: &mut Common,
    options: &[String],
) -> Result<((u64, u64), Vec<SweepEngine>), String> {
    let mut seeds = None;
    let mut engines = Vec::new();
    let mut iter = options.iter();
    while let Some(option) = iter.next() {
        if common.consume(spec, option, &mut iter)? {
            continue;
        }
        match option.as_str() {
            "--seeds" => match iter.next().and_then(|v| parse_seed_range(v)) {
                Some(range) if range.0 <= range.1 => seeds = Some(range),
                _ => return Err("--seeds needs `a..b` with a <= b (or a single seed)".into()),
            },
            "--engines" => {
                let list = iter.next().ok_or("--engines needs a comma-separated list")?;
                for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                    let engine = parse_engine(name).map_err(|e| format!("--engines: {e}"))?;
                    engines.push((name.to_string(), engine));
                }
            }
            other => return Err(format!("unknown sweep option {other:?}")),
        }
    }
    if engines.is_empty() {
        common.apply_engine(spec)?;
    } else if common.engine.is_some() {
        return Err("--engine beside --engines would run nothing on it; list it in --engines".into());
    }
    let engines = engines
        .into_iter()
        .map(|(label, engine)| Ok(SweepEngine { label, engine: common.refine(engine)? }))
        .collect::<Result<_, String>>()?;
    let seeds = seeds.ok_or("sweep needs --seeds <a..b>")?;
    Ok((seeds, engines))
}

fn sweep(which: &str, options: &[String]) -> ExitCode {
    let mut spec = match resolve(which) {
        Ok(spec) => spec,
        Err(message) => return fail(&message),
    };

    let mut common = Common::default();
    let (seeds, engines) = match sweep_options(&mut spec, &mut common, options) {
        Ok(parsed) => parsed,
        Err(message) => return fail(&message),
    };

    let runner = match ScenarioRunner::new(spec) {
        Ok(runner) => runner,
        Err(e) => return fail(&e.to_string()),
    };
    if !common.json {
        eprintln!(
            "sweeping scenario {:?} over seeds {}..={} ...",
            runner.spec().name, seeds.0, seeds.1
        );
    }
    match runner.sweep(&SweepOptions { seeds, engines }) {
        Ok(summary) => {
            if common.json {
                println!("{}", summary.render_json());
            } else {
                print!("{}", summary.render_text());
            }
            if summary.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                // Engine divergence is a broken determinism contract.
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERIAL: MaintenanceEngine = MaintenanceEngine::Serial;

    fn sharded(threads: Option<usize>) -> MaintenanceEngine {
        MaintenanceEngine::Sharded { threads }
    }

    /// The engine of a spec whose own engine is `base`, after the
    /// `--engine` / `--threads` overrides.
    fn applied(
        base: MaintenanceEngine,
        engine: Option<MaintenanceEngine>,
        threads: Option<usize>,
    ) -> Result<MaintenanceEngine, String> {
        let mut spec = builtin::builtin("smoke").expect("smoke builtin");
        spec.maintenance.engine = base;
        let common = Common {
            engine,
            threads,
            json: false,
        };
        common.apply_engine(&mut spec)?;
        Ok(spec.maintenance.engine)
    }

    #[test]
    fn shard_and_thread_counts_contradict_the_serial_engine() {
        // `--engine serial --threads 4` and a bare `--threads 4` over a
        // serial spec used to be dropped, running one thread in silence.
        let two = sharded(Some(2));
        for (engine, base) in [(Some(SERIAL), two), (None, SERIAL)] {
            let err = applied(base, engine, Some(4)).unwrap_err();
            assert!(err.contains("--threads") && err.contains("serial"), "{err}");
        }
        assert_eq!(applied(two, Some(SERIAL), None), Ok(SERIAL));
        // The shard count is the thread count; no option sets it apart.
        let mut spec = builtin::builtin("smoke").expect("smoke builtin");
        let options = ["--shards", "2"].map(String::from);
        let err = run_options(&mut spec, &mut Common::default(), &options).unwrap_err();
        assert_eq!(err, "unknown run option \"--shards\"");
    }

    #[test]
    fn shard_and_thread_counts_refine_a_sharded_engine() {
        // The thread count is the shard count of the run.
        let base = sharded(Some(2));
        assert_eq!(applied(base, None, Some(8)).map(MaintenanceEngine::threads), Ok(8));
        // `0` is auto, as in the spec.
        assert_eq!(applied(base, None, Some(0)), Ok(sharded(None)));
        assert_eq!(applied(SERIAL, Some(sharded(None)), Some(4)), Ok(sharded(Some(4))));
        // The bound is the spec's, refused at the flag (parsed, never run).
        let mut spec = builtin::builtin("smoke").expect("smoke builtin");
        let mut threads = |count: &str| {
            let options = ["--threads", count].map(String::from);
            run_options(&mut spec, &mut Common::default(), &options)?;
            Ok::<_, String>(spec.maintenance.engine)
        };
        assert_eq!(threads("1024"), Ok(sharded(Some(1024))));
        assert_eq!(threads("1025"), Err("--threads must be at most 1024, found 1025".into()));
    }

    /// `sweep smoke` with `options`, after `--seeds 1..2`.
    fn swept(options: &[&str]) -> Result<Vec<SweepEngine>, String> {
        let mut spec = builtin::builtin("smoke").expect("smoke builtin");
        let options: Vec<String> =
            ["--seeds", "1..2"].iter().chain(options).map(|o| o.to_string()).collect();
        let (seeds, engines) = sweep_options(&mut spec, &mut Common::default(), &options)?;
        assert_eq!(seeds, (1, 2));
        Ok(engines)
    }

    /// Each `--engines` entry used to be a fixed engine that replaced the
    /// refined one: the counts and `--engine` were dropped in silence.
    #[test]
    fn sweep_engines_follow_the_engine_rule() {
        let engines = swept(&["--engines", "sharded", "--threads", "3"]).unwrap();
        let [entry] = &engines[..] else { panic!("one entry: {engines:?}") };
        assert_eq!((entry.label.as_str(), entry.engine), ("sharded", sharded(Some(3))));

        let err = swept(&["--engines", "serial,sharded", "--threads", "3"]).unwrap_err();
        assert!(err.contains("--threads") && err.contains("serial"), "{err}");

        let err = swept(&["--engine", "serial", "--engines", "sharded"]).unwrap_err();
        assert!(err.contains("--engine beside --engines"), "{err}");

        let err = swept(&["--engines", "serial,parallel"]).unwrap_err();
        assert!(err.contains("\"parallel\" (accepted: serial, sharded)"), "{err}");
        let engines = swept(&["--engines", "serial,sharded"]).unwrap();
        let got: Vec<_> = engines.iter().map(|e| e.engine).collect();
        assert_eq!(got, [SERIAL, sharded(None)]);
    }

    #[test]
    fn help_after_a_command_prints_the_usage() {
        for args in [&["run", "--help"][..], &["check", "-h"], &["run", "smoke", "--help"]] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(dispatch(&args), ExitCode::SUCCESS, "{args:?}");
        }
    }

    #[test]
    fn only_an_unreadable_file_is_neither_a_builtin_nor_a_spec() {
        let missing = std::env::temp_dir().join("avmem-scenario-bin-no-such-spec.scn");
        let err = resolve(missing.to_str().unwrap()).unwrap_err();
        assert!(err.contains("neither a built-in"), "{err}");

        // A readable spec with an unknown key is reported at its line.
        let source = builtin::builtin_source("smoke").expect("smoke builtin").trim_end();
        let line = source.lines().count() + 1;
        let path = std::env::temp_dir()
            .join(format!("avmem-scenario-bin-bogus-key-{}.scn", std::process::id()));
        std::fs::write(&path, format!("{source}\nbogus_key = 3\n")).unwrap();
        let path_text = path.to_str().unwrap();
        let err = resolve(path_text).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.starts_with(&format!("{path_text}: line {line}: ")), "{err}");
        assert!(err.contains("unknown key") && !err.contains("neither"), "{err}");
    }
}
