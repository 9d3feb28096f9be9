//! `perf compare <a.json> <b.json>`: applies each end-to-end metric's
//! bound, per workload, to two `perf run` documents — a baseline `a`
//! and a candidate `b`, or two sets of runs of one commit.

use crate::json::Json;
use crate::schema::{Better, Bound, EndToEnd, END_TO_END, SCHEMA};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is better than `a`'s by more than the runs spread.
    Better,
    /// Within the bound, and the runs are steady enough to say so.
    Same,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so it decides nothing.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// The worsening the bound allows, in the metric's unit.
    pub tolerance: f64,
    /// The wider of the two interquartile ranges.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges one metric on one workload from the samples of both sides.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let tolerance = match metric.bound {
        Bound::Relative { share, floor } => (share * median_a.abs()).max(floor),
        Bound::Absolute(bound) => bound,
    };
    let spread = stats::iqr(a).max(stats::iqr(b));
    // Positive when `b` is worse, whichever way the metric points.
    let worsening = match metric.better {
        Better::Lower => median_b - median_a,
        Better::Higher => median_a - median_b,
    };
    let apart = |worse_side: &[f64], better_side: &[f64]| match metric.better {
        Better::Lower => stats::min(worse_side) > stats::max(better_side),
        Better::Higher => stats::max(worse_side) < stats::min(better_side),
    };
    // One or two samples of a host-timed metric have no spread to speak
    // of, so a difference beyond the bound may be the box and not the
    // program: it cannot be called either way.
    let too_few = metric.is_host() && a.len().min(b.len()) < 3;
    let verdict = if too_few && worsening.abs() > tolerance {
        Verdict::Unresolved
    } else if spread > tolerance {
        // Too noisy for the bound: only runs that do not overlap at all
        // still decide.
        if apart(a, b) {
            Verdict::Better
        } else if apart(b, a) && worsening > tolerance {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worsening > tolerance {
        Verdict::Worse
    } else if -worsening > spread {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (tolerance, spread, verdict)
}

fn samples_of(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    let samples = workload.path(&["end_to_end", metric, "samples"])?.as_arr();
    let values: Vec<f64> = samples.iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

/// Compares every workload of `a` that `b` also has, metric by metric.
///
/// # Errors
///
/// When either document is not a `perf run` document of this schema,
/// or they share no workload.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (side, doc) in [("first", a), ("second", b)] {
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!(
                "the {side} file is not a {SCHEMA} document (schema: {schema:?})"
            ));
        }
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map_or(Vec::new(), |w| w.as_arr().to_vec())
    };
    let theirs = workloads(b);
    let mut rows = Vec::new();
    for ours in workloads(a) {
        let name = ours.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(other) = theirs
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                samples_of(&ours, metric.name),
                samples_of(other, metric.name),
            ) else {
                continue;
            };
            let (tolerance, spread, verdict) = judge(metric, &sa, &sb);
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.name,
                unit: metric.unit,
                a: stats::median(&sa),
                b: stats::median(&sb),
                tolerance,
                spread,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end samples".to_string());
    }
    Ok(rows)
}

/// The comparison as a table, one row per (workload, metric).
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:<22} {:>14} {:>14} {:>11} {:>11} {:<6} verdict",
        "workload", "metric", "a (median)", "b (median)", "tolerance", "spread", "unit"
    )
    .expect("write to String");
    for row in rows {
        writeln!(
            out,
            "{:<18} {:<22} {:>14.6} {:>14.6} {:>11.6} {:>11.6} {:<6} {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.tolerance,
            row.spread,
            row.unit,
            row.verdict.as_str()
        )
        .expect("write to String");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    writeln!(
        out,
        "{} better, {} same, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::Same),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    )
    .expect("write to String");
    out
}

/// Whether the comparison fails: any row worse (a higher share of
/// failed operations is a worse row: its bound is 0).
pub fn regressed(rows: &[Row]) -> bool {
    rows.iter().any(|row| row.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FAILED_OPS_SHARE;

    fn verdict(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let metric = END_TO_END.iter().find(|m| m.name == metric).unwrap();
        judge(metric, a, b).2
    }

    #[test]
    fn steady_runs_are_judged_by_the_relative_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict("wall_s", &a, &[10.5, 10.6, 10.4, 10.5, 10.55]),
            Verdict::Same
        );
        assert_eq!(
            verdict("wall_s", &a, &[11.2, 11.3, 11.1, 11.2, 11.25]),
            Verdict::Worse
        );
        assert_eq!(
            verdict("wall_s", &a, &[9.0, 9.1, 8.9, 9.0, 9.05]),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            verdict("sim_s_per_wall_s", &a, &[11.2, 11.3, 11.1, 11.2, 11.25]),
            Verdict::Better
        );
        assert_eq!(
            verdict("sim_s_per_wall_s", &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Worse
        );
    }

    #[test]
    fn the_floor_keeps_tiny_baselines_from_tiny_tolerances() {
        // 20 ms set-up: 10 % would be 2 ms, the floor makes it 50 ms.
        let a = [0.020, 0.021, 0.019];
        assert_eq!(
            verdict("setup_s", &a, &[0.060, 0.061, 0.059]),
            Verdict::Same
        );
        assert_eq!(
            verdict("setup_s", &a, &[0.080, 0.081, 0.079]),
            Verdict::Worse
        );
        // 24 MiB resident: 5 % would be 1.2 MiB, the floor makes it 2.
        assert_eq!(
            verdict("peak_rss_mib", &[24.0; 3], &[25.9; 3]),
            Verdict::Same
        );
        assert_eq!(
            verdict("peak_rss_mib", &[24.0; 3], &[26.1; 3]),
            Verdict::Worse
        );
    }

    #[test]
    fn fidelity_is_judged_by_an_absolute_bound() {
        assert_eq!(
            verdict("anycast_delivery_rate", &[0.961], &[0.955]),
            Verdict::Same
        );
        assert_eq!(
            verdict("anycast_delivery_rate", &[0.961], &[0.940]),
            Verdict::Worse
        );
        assert_eq!(
            verdict("anycast_delivery_rate", &[0.961], &[0.975]),
            Verdict::Better
        );
        assert_eq!(verdict("estimator_mae", &[0.020], &[0.035]), Verdict::Worse);
        assert_eq!(verdict("estimator_mae", &[0.0], &[0.0]), Verdict::Same);
    }

    #[test]
    fn any_rise_in_failed_operations_is_worse() {
        assert_eq!(verdict(FAILED_OPS_SHARE, &[0.0], &[0.0]), Verdict::Same);
        assert_eq!(verdict(FAILED_OPS_SHARE, &[0.0], &[0.0001]), Verdict::Worse);
        assert_eq!(verdict(FAILED_OPS_SHARE, &[0.01], &[0.0]), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_do_not_overlap() {
        let noisy = [10.0, 12.5, 8.0, 11.5, 9.0];
        assert_eq!(
            verdict("wall_s", &noisy, &[10.5, 12.0, 8.5, 11.0, 9.5]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("wall_s", &noisy, &[11.5, 13.0, 9.5, 12.0, 10.5]),
            Verdict::Unresolved
        );
        // Every run of b better than every run of a still decides …
        assert_eq!(
            verdict("wall_s", &noisy, &[5.0, 7.5, 4.0, 6.5, 5.5]),
            Verdict::Better
        );
        // … and so does every run worse, by more than the bound.
        assert_eq!(
            verdict("wall_s", &noisy, &[15.0, 17.5, 14.0, 16.5, 15.5]),
            Verdict::Worse
        );
    }

    #[test]
    fn too_few_samples_of_a_timing_decide_nothing_beyond_the_bound() {
        // `--quick` documents: one sample a side.
        assert_eq!(verdict("wall_s", &[2.0], &[2.1]), Verdict::Same);
        assert_eq!(verdict("wall_s", &[2.0], &[2.6]), Verdict::Unresolved);
        assert_eq!(verdict("wall_s", &[2.0], &[1.4]), Verdict::Unresolved);
        assert_eq!(
            verdict("wall_s", &[2.0, 2.0], &[2.6, 2.6, 2.6]),
            Verdict::Unresolved
        );
        // Simulated results repeat exactly: one value is all there is.
        assert_eq!(verdict("overlay_lcc_min", &[0.96], &[0.90]), Verdict::Worse);
    }

    fn doc(wall: &[f64], failed_share: f64) -> Json {
        let entry = |samples: &[f64]| Json::obj([("samples", Json::nums(samples))]);
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("overnet-day")),
                    (
                        "end_to_end",
                        Json::obj([
                            ("wall_s", entry(wall)),
                            (FAILED_OPS_SHARE, entry(&[failed_share])),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn documents_compare_row_by_row_and_regress_on_any_worse_row() {
        let base = doc(&[2.0, 2.02, 1.98], 0.0);
        let rows = compare(&base, &doc(&[2.01, 2.03, 1.99], 0.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
        assert!(!regressed(&rows));
        assert!(render(&rows).contains("0 worse"));

        let slower = compare(&base, &doc(&[2.5, 2.52, 2.48], 0.0)).unwrap();
        assert!(regressed(&slower));
        let failing = compare(&base, &doc(&[2.0, 2.02, 1.98], 0.002)).unwrap();
        assert!(regressed(&failing));
        assert_eq!(failing[1].metric, FAILED_OPS_SHARE);
    }

    #[test]
    fn foreign_documents_are_refused() {
        let base = doc(&[2.0], 0.0);
        assert!(compare(&base, &Json::obj([("schema", Json::str("other/9"))])).is_err());
        assert!(compare(&Json::Null, &base).is_err());
        let empty = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("workloads", Json::Arr(vec![])),
        ]);
        assert!(compare(&base, &empty).is_err());
    }
}
