//! What the benchmark prints: the one-line result its caller reads, the
//! `perf run` document, and the lines a person reads.

use std::process::Command;

use crate::json::Json;
use crate::runner::{self, Phase, WorkloadResult};
use crate::schema::{EndToEnd, END_TO_END, FAILED_OPS_SHARE, PER_LAYER, SCHEMA};
use crate::stats;

fn host_metrics() -> impl Iterator<Item = (usize, &'static EndToEnd)> {
    END_TO_END.iter().filter(|m| m.is_host()).enumerate()
}

/// The last line of a single-workload run: `correct`, `attempted`,
/// `failed`, and the phase's metrics with their units — for the
/// end-to-end phase the run's estimates for an undisturbed machine
/// (`WorkloadResult::best`).
pub fn result_line(result: &WorkloadResult, phase: Phase) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(String, Json)> = match phase {
        Phase::EndToEnd => host_metrics()
            .map(|(i, m)| (m.name.to_string(), metric(result.best(i), m.unit)))
            .collect(),
        Phase::PerLayer => PER_LAYER
            .iter()
            .zip(result.per_layer.iter().flatten())
            .map(|(m, &value)| (m.name.to_string(), metric(value, m.unit)))
            .collect(),
    };
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Every metric of a result by name, with its unit, for a person.
pub fn text(result: &WorkloadResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    writeln!(
        w,
        "workload {} (seed {}, {} samples, fingerprint {})",
        result.workload.name,
        result.seed,
        result.runs(),
        result.fingerprint.as_deref().unwrap_or("-")
    )
    .expect("write to String");
    for (i, m) in host_metrics() {
        let series = result.series(i);
        if series.is_empty() {
            continue;
        }
        let (q1, q3) = stats::quartiles(&series);
        writeln!(
            w,
            "  {:<34} {:>14.6} {:<6} (best {:.6}, samples {:.6} .. {:.6}, quartiles {:.6} .. {:.6})",
            m.name,
            stats::median(&series),
            m.unit,
            result.best(i),
            stats::min(&series),
            stats::max(&series),
            q1,
            q3
        )
        .expect("write to String");
    }
    if result.per_layer.is_none() {
        for (name, value) in result.fidelity.iter().flatten() {
            writeln!(w, "  {name:<34} {value:>14.6} ratio").expect("write to String");
        }
    }
    for (m, value) in PER_LAYER.iter().zip(result.per_layer.iter().flatten()) {
        writeln!(
            w,
            "  {:<34} {:>14.6} {:<6} [{}]",
            m.name,
            value,
            m.unit,
            m.source.as_str()
        )
        .expect("write to String");
    }
    writeln!(
        w,
        "  {:<34} {:>14.6} ratio  ({} of {} operations)",
        FAILED_OPS_SHARE,
        result.failed_ops_share(),
        result.failed,
        result.attempted
    )
    .expect("write to String");
    for failure in &result.failures {
        writeln!(w, "  FAILED: {failure}").expect("write to String");
    }
    out
}

fn summary(metric: &EndToEnd, samples: &[f64], best: f64) -> Json {
    let (q1, q3) = stats::quartiles(samples);
    Json::obj([
        ("unit", Json::str(metric.unit)),
        ("better", Json::str(metric.better.as_str())),
        ("median", Json::Num(stats::median(samples))),
        ("best", Json::Num(best)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("samples", Json::nums(samples)),
    ])
}

fn workload_json(result: &WorkloadResult) -> Json {
    let mut host = host_metrics();
    let end_to_end: Vec<(String, Json)> = END_TO_END
        .iter()
        .map(|m| {
            let (samples, best) = if m.is_host() {
                let (i, _) = host.next().expect("one series per host metric");
                (result.series(i), result.best(i))
            } else {
                // Simulated results repeat exactly: one value.
                let value = if m.name == FAILED_OPS_SHARE {
                    Some(result.failed_ops_share())
                } else {
                    let mut fidelity = result.fidelity.iter().flatten();
                    fidelity.find(|(name, _)| *name == m.name).map(|&(_, v)| v)
                };
                (Vec::from_iter(value), value.unwrap_or(0.0))
            };
            (m.name.to_string(), summary(m, &samples, best))
        })
        .collect();
    let per_layer: Vec<(String, Json)> = PER_LAYER
        .iter()
        .zip(result.per_layer.iter().flatten())
        .map(|(m, &value)| {
            let entry = Json::obj([
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("source", Json::str(m.source.as_str())),
                ("value", Json::Num(value)),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let gaps: Vec<f64> = result.samples.iter().map(|s| s.start_gap_ms).collect();
    Json::obj([
        ("name", Json::str(result.workload.name)),
        ("why", Json::str(result.workload.why)),
        ("for_driver", Json::Bool(result.workload.for_driver)),
        ("seed", Json::Num(result.seed as f64)),
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "fingerprint",
            result.fingerprint.as_deref().map_or(Json::Null, Json::str),
        ),
        (
            "failures",
            Json::Arr(result.failures.iter().map(Json::str).collect()),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
        ("spans", result.spans.clone()),
        ("sample_start_gap_ms", Json::nums(&gaps)),
    ])
}

/// First line of a command's output, or "unknown" when it cannot run
/// (no git checkout, no compiler on the path).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `perf run` document: a manifest of what produced the numbers,
/// then one entry per workload.
pub fn document(results: &[WorkloadResult], samples: usize) -> Json {
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs() as f64);
    let manifest = Json::obj([
        (
            "git_rev",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        ("nproc", Json::Num(runner::nproc() as f64)),
        ("avmem_threads", Json::Num(runner::THREADS as f64)),
        (
            "heap_stats",
            Json::Bool(results.iter().any(|r| r.heap_stats)),
        ),
        ("samples", Json::Num(samples as f64)),
        ("started_unix_s", Json::Num(unix_s)),
    ]);
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("manifest", manifest),
        (
            "workloads",
            Json::Arr(results.iter().map(workload_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Sample;
    use crate::workloads;

    fn result_with_samples() -> WorkloadResult {
        let mut result = WorkloadResult::new(workloads::find("ops-storm").unwrap(), 11);
        // wall_s, setup_s, sim_s_per_wall_s, cpu_s, peak_rss_mib; then
        // the seconds of `session()`, of the window's first span, and of
        // what the child did not clock (the other pieces take no time).
        for (gap, values, [session, span, outside]) in [
            (0.0, [2.30, 0.0021, 1600.0, 2.28, 16.9], [0.5, 1.5, 0.3]),
            (0.4, [2.20, 0.0019, 1920.0, 2.19, 16.7], [0.6, 1.25, 0.35]),
            (0.3, [2.45, 0.0020, 1600.0, 2.41, 16.8], [0.7, 1.5, 0.25]),
        ] {
            let mut pieces = vec![0.0; crate::child::PIECES];
            pieces[0] = session;
            pieces[1] = span;
            pieces[crate::child::PIECES - 1] = outside;
            result.samples.push(Sample {
                start_gap_ms: gap,
                values: values.to_vec(),
                piece_wall_s: pieces.clone(),
                piece_cpu_s: pieces,
            });
        }
        result.attempted = 17_700;
        result.fingerprint = Some("00ff00ff00ff00ff".to_string());
        result.fidelity = Some([
            ("anycast_delivery_rate", 0.99),
            ("multicast_reliability", 0.96),
            ("overlay_lcc_min", 0.95),
            ("estimator_mae", 0.0),
        ]);
        result
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_the_best_estimates() {
        let line = result_line(&result_with_samples(), Phase::EndToEnd);
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.num_at(&["attempted"]), 17_700.0);
        let metrics = line.get("metrics").unwrap();
        let names: Vec<&str> = metrics.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "wall_s",
                "setup_s",
                "sim_s_per_wall_s",
                "cpu_s",
                "peak_rss_mib"
            ]
        );
        // The lowest of each piece, summed: 0.5 + 1.25 + 0.25 s, and the
        // 40 simulated minutes over the lowest 1.25 s of stepping.
        assert_eq!(metrics.num_at(&["wall_s", "value"]), 2.0);
        assert_eq!(metrics.num_at(&["cpu_s", "value"]), 2.0);
        assert_eq!(metrics.num_at(&["sim_s_per_wall_s", "value"]), 1920.0);
        // The lowest sample where a child of its own gives one number.
        assert_eq!(metrics.num_at(&["setup_s", "value"]), 0.0019);
        assert_eq!(metrics.num_at(&["peak_rss_mib", "value"]), 16.7);
        assert_eq!(
            metrics.path(&["sim_s_per_wall_s", "unit"]),
            Some(&Json::str("s/s"))
        );
        // One line, and it parses back to itself.
        assert!(!line.render().contains('\n'));
        assert_eq!(Json::parse(&line.render()).unwrap(), line);
    }

    #[test]
    fn a_run_without_a_completed_sample_still_reports_one_attempt() {
        let mut result = WorkloadResult::new(workloads::find("ops-storm").unwrap(), 11);
        result.failures.push("full child: timed out".to_string());
        let line = result_line(&result, Phase::EndToEnd);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.num_at(&["attempted"]), 1.0);
        assert_eq!(line.num_at(&["metrics", "wall_s", "value"]), 0.0);
    }

    #[test]
    fn the_document_round_trips_and_carries_the_schema() {
        let results = [result_with_samples()];
        let document = document(&results, 3);
        assert_eq!(Json::parse(&document.render_pretty()).unwrap(), document);
        assert_eq!(document.get("schema"), Some(&Json::str(SCHEMA)));
        for key in [
            "git_rev",
            "rustc",
            "nproc",
            "avmem_threads",
            "heap_stats",
            "samples",
            "started_unix_s",
        ] {
            assert!(
                document.path(&["manifest", key]).is_some(),
                "manifest lacks {key}"
            );
        }
        let workload = &document.get("workloads").unwrap().as_arr()[0];
        assert_eq!(workload.get("name"), Some(&Json::str("ops-storm")));
        assert_eq!(workload.num_at(&["seed"]), 11.0);
        // Every end-to-end metric is there, with its raw samples.
        for metric in &END_TO_END {
            let entry = workload.path(&["end_to_end", metric.name]).unwrap();
            let samples = entry.get("samples").unwrap().as_arr().len();
            assert_eq!(
                samples,
                if metric.is_host() { 3 } else { 1 },
                "{}",
                metric.name
            );
            assert_eq!(entry.get("unit"), Some(&Json::str(metric.unit)));
        }
        assert_eq!(workload.num_at(&["end_to_end", "wall_s", "median"]), 2.30);
        assert_eq!(workload.num_at(&["end_to_end", "wall_s", "best"]), 2.0);
        assert_eq!(
            workload.get("sample_start_gap_ms"),
            Some(&Json::nums(&[0.0, 0.4, 0.3]))
        );
        // A document compares against itself without a worse row.
        let rows = crate::compare::compare(&document, &document).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(!crate::compare::regressed(&rows));
    }

    #[test]
    fn text_names_every_metric_with_its_unit() {
        let text = text(&result_with_samples());
        for (_, metric) in host_metrics() {
            assert!(
                text.contains(metric.name) && text.contains(metric.unit),
                "{}",
                metric.name
            );
        }
        assert!(text.contains("anycast_delivery_rate") && text.contains(FAILED_OPS_SHARE));
    }
}
