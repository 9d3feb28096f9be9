//! Property-based tests for churn traces and availability PDFs.

use proptest::prelude::*;

use avmem_sim::{SimDuration, SimTime};
use avmem_trace::{AvailabilityPdf, ChurnStats, ChurnTrace, OnlineIndex, OvernetModel};
use avmem_util::{Availability, Rng, SplitMix64};

fn arbitrary_rows() -> impl Strategy<Value = Vec<Vec<bool>>> {
    (1usize..12, 1usize..48).prop_flat_map(|(nodes, slots)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), slots..=slots), nodes..=nodes)
    })
}

/// Lines a mutation may splice into a trace file: counts no memory could
/// hold, a zero width, a sign, a repeated magic, a blank line, a bare row.
const HOSTILE_LINES: [&str; 8] = [
    "nodes 18446744073709551615",
    "slots 18446744073709551615",
    "slot_millis 18446744073709551615",
    "slot_millis 0",
    "nodes -1",
    "AVTRACE v1",
    "",
    "1",
];

/// `file` after each edit `(kind, position, byte)`: a byte overwritten,
/// inserted or deleted, a line deleted or doubled, or a line — any line,
/// or one of the four header lines — replaced by one of
/// [`HOSTILE_LINES`].
fn mutate(mut file: Vec<u8>, edits: &[(u8, u64, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let at = at as usize;
        match kind % 7 {
            0 if !file.is_empty() => {
                let i = at % file.len();
                file[i] = byte;
            }
            1 => file.insert(at % (file.len() + 1), byte),
            2 if !file.is_empty() => {
                file.remove(at % file.len());
            }
            line_edit @ 3..=6 => {
                let mut lines: Vec<Vec<u8>> =
                    file.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let reach = if line_edit == 6 { lines.len().min(4) } else { lines.len() };
                let i = at % reach;
                match line_edit {
                    3 => drop(lines.remove(i)),
                    4 => lines.insert(i, lines[i].clone()),
                    _ => lines[i] = HOSTILE_LINES[byte as usize % HOSTILE_LINES.len()].into(),
                }
                file = lines.join(&b'\n');
            }
            _ => {}
        }
    }
    file
}

/// Node counts on either side of the 64-bit word boundaries, or any.
fn node_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63),
        Just(64),
        Just(65),
        Just(129),
        1usize..300
    ]
}

/// `nodes` rows of `slots` slots, each node up with its own probability
/// (never, always, or anything between), from `seed`.
fn model_rows(nodes: usize, slots: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut r = SplitMix64::new(seed);
    (0..nodes)
        .map(|_| {
            let p = match r.index(5) {
                0 => 0.0,
                1 => 1.0,
                _ => r.next_f64(),
            };
            (0..slots).map(|_| r.chance(p)).collect()
        })
        .collect()
}

/// [`ChurnTrace::stats`] as the row-by-row scan of `rows`.
fn model_stats(rows: &[Vec<bool>]) -> ChurnStats {
    let slots = rows[0].len();
    let up = |row: &Vec<bool>| row.iter().filter(|&&b| b).count();
    let mean_availability = rows
        .iter()
        .map(|row| Availability::saturating(up(row) as f64 / slots as f64).value())
        .sum::<f64>()
        / rows.len() as f64;
    let transitions = rows
        .iter()
        .map(|row| row.windows(2).filter(|w| w[0] != w[1]).count() as u64)
        .sum();
    let counts: Vec<usize> = (0..slots)
        .map(|s| rows.iter().filter(|row| row[s]).count())
        .collect();
    ChurnStats {
        num_nodes: rows.len(),
        num_slots: slots,
        mean_availability,
        transitions,
        min_online: *counts.iter().min().unwrap(),
        max_online: *counts.iter().max().unwrap(),
        mean_online: counts.iter().sum::<usize>() as f64 / slots as f64,
    }
}

proptest! {
    /// The bit-packed trace against its rows: every accessor, the text
    /// round trip, the online index refreshed at every slot and the
    /// changed-node list of every boundary, each against a scan of
    /// `Vec<Vec<bool>>`.
    #[test]
    fn packed_trace_answers_like_its_rows(
        nodes in node_count(),
        days in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let slots = 72 * days;
        let rows = model_rows(nodes, slots, seed);
        let trace = ChurnTrace::from_rows(SimDuration::from_mins(20), rows.clone());
        let slot_ms = trace.slot_duration().as_millis();
        let at = |s: usize, offset: u64| SimTime::from_millis(s as u64 * slot_ms + offset);
        let fraction = |up: usize, of: usize| Availability::saturating(up as f64 / of as f64);
        prop_assert_eq!(trace.num_nodes(), nodes);
        prop_assert_eq!(trace.num_slots(), slots);

        let mut r = SplitMix64::new(!seed);
        let mut index = OnlineIndex::new();
        for s in 0..slots {
            let column: Vec<usize> = (0..nodes).filter(|&i| rows[i][s]).collect();
            let now = at(s, r.range_u64(slot_ms));
            prop_assert_eq!(trace.online_at(now), column.clone(), "slot {}", s);
            prop_assert_eq!(trace.online_count_at(now), column.len());
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(trace.is_online_in_slot(i, s), row[s]);
                prop_assert_eq!(trace.is_online(i, now), row[s]);
            }
            index.refresh(&trace, now);
            let listed: Vec<usize> = index.online().iter().map(|&i| i as usize).collect();
            prop_assert_eq!(listed, column);
            for i in 0..nodes + 64 {
                prop_assert_eq!(index.contains(i), rows.get(i).is_some_and(|row| row[s]));
            }
            if s > 0 {
                let moved: Vec<usize> = (0..nodes).filter(|&i| rows[i][s] != rows[i][s - 1]).collect();
                prop_assert_eq!(trace.changed_in(s).collect::<Vec<_>>(), moved, "slot {}", s);
            }
        }

        for (i, row) in rows.iter().enumerate() {
            let up = |range: std::ops::Range<usize>| row[range].iter().filter(|&&b| b).count();
            prop_assert_eq!(trace.long_term_availability(i), fraction(up(0..slots), slots));
            for s in [0, slots - 1, r.index(slots), r.index(slots)] {
                let now = at(s, r.range_u64(slot_ms));
                prop_assert_eq!(trace.availability_up_to(i, now), fraction(up(0..s + 1), s + 1));
            }
            let (a, b) = (r.index(slots), r.index(slots));
            let (first, last) = (a.min(b), a.max(b));
            let window = trace.availability_between(i, at(first, r.range_u64(slot_ms)), at(last, slot_ms - 1));
            prop_assert_eq!(window, fraction(up(first..last + 1), last + 1 - first));
        }
        // Past the end the last slot holds.
        let beyond = at(slots + 3, 0);
        prop_assert_eq!(trace.online_at(beyond), trace.online_at(at(slots - 1, 0)));

        prop_assert_eq!(trace.stats(), model_stats(&rows));
        let mut file = Vec::new();
        trace.write_to(&mut file).unwrap();
        prop_assert_eq!(ChurnTrace::read_from(file.as_slice()).unwrap(), trace);
    }

    #[test]
    fn mutated_trace_files_parse_or_fail_typed(
        rows in arbitrary_rows(),
        edits in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..6),
    ) {
        let mut file = Vec::new();
        ChurnTrace::from_rows(SimDuration::from_mins(20), rows).write_to(&mut file).unwrap();
        // `Ok` or a typed error — a panic fails the case. What does parse
        // is a trace like any other: it survives its own round trip.
        match ChurnTrace::read_from(mutate(file, &edits).as_slice()) {
            Ok(trace) => {
                let mut again = Vec::new();
                trace.write_to(&mut again).unwrap();
                prop_assert_eq!(ChurnTrace::read_from(again.as_slice()).unwrap(), trace);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn trace_round_trips_through_io(rows in arbitrary_rows()) {
        let trace = ChurnTrace::from_rows(SimDuration::from_mins(20), rows);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let read = ChurnTrace::read_from(buf.as_slice()).unwrap();
        prop_assert_eq!(trace, read);
    }

    #[test]
    fn long_term_availability_matches_row_fraction(rows in arbitrary_rows()) {
        let trace = ChurnTrace::from_rows(SimDuration::from_mins(20), rows.clone());
        for (i, row) in rows.iter().enumerate() {
            let up = row.iter().filter(|&&b| b).count();
            let expected = up as f64 / row.len() as f64;
            prop_assert_eq!(trace.long_term_availability(i).value(), expected);
        }
    }

    #[test]
    fn availability_prefix_converges_to_long_term(rows in arbitrary_rows()) {
        let trace = ChurnTrace::from_rows(SimDuration::from_mins(20), rows);
        let end = SimTime::from_millis(trace.duration().as_millis().saturating_sub(1));
        for i in 0..trace.num_nodes() {
            prop_assert_eq!(
                trace.availability_up_to(i, end),
                trace.long_term_availability(i)
            );
        }
    }

    #[test]
    fn online_counts_are_bounded(rows in arbitrary_rows()) {
        let trace = ChurnTrace::from_rows(SimDuration::from_mins(20), rows);
        let stats = trace.stats();
        prop_assert!(stats.min_online <= stats.max_online);
        prop_assert!(stats.mean_online <= stats.num_nodes as f64);
        prop_assert!(stats.max_online <= stats.num_nodes);
        for s in 0..trace.num_slots() {
            let t = SimTime::from_millis(s as u64 * trace.slot_duration().as_millis());
            let count = trace.online_count_at(t);
            prop_assert!(count >= stats.min_online && count <= stats.max_online);
        }
    }

    #[test]
    fn overnet_trace_is_deterministic_and_valid(seed in any::<u64>(), hosts in 2usize..40) {
        let a = OvernetModel::default().hosts(hosts).days(1).generate(seed);
        let b = OvernetModel::default().hosts(hosts).days(1).generate(seed);
        prop_assert_eq!(&a, &b);
        for i in 0..a.num_nodes() {
            let av = a.long_term_availability(i).value();
            prop_assert!((0.0..=1.0).contains(&av));
        }
    }

    #[test]
    fn pdf_total_mass_is_one(masses in proptest::collection::vec(0.01f64..10.0, 1..24)) {
        let pdf = AvailabilityPdf::from_bucket_mass(masses);
        prop_assert!((pdf.mass_between(0.0, 1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pdf_mass_is_additive(
        masses in proptest::collection::vec(0.01f64..10.0, 1..24),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        c in 0.0f64..1.0,
    ) {
        let pdf = AvailabilityPdf::from_bucket_mass(masses);
        let mut points = [a, b, c];
        points.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let [lo, mid, hi] = points;
        let split = pdf.mass_between(lo, mid) + pdf.mass_between(mid, hi);
        let whole = pdf.mass_between(lo, hi);
        prop_assert!((split - whole).abs() < 1e-9, "split {split} vs whole {whole}");
    }

    #[test]
    fn pdf_mass_is_monotone_in_interval(
        masses in proptest::collection::vec(0.01f64..10.0, 1..24),
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0,
        wider in 0.0f64..0.5,
    ) {
        let pdf = AvailabilityPdf::from_bucket_mass(masses);
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let narrow = pdf.mass_between(lo, hi);
        let wide = pdf.mass_between((lo - wider).max(0.0), (hi + wider).min(1.0));
        prop_assert!(wide + 1e-12 >= narrow);
    }

    #[test]
    fn min_window_is_at_most_any_window(
        masses in proptest::collection::vec(0.01f64..10.0, 4..16),
        center in 0.0f64..1.0,
        offset in -0.1f64..0.1,
    ) {
        let pdf = AvailabilityPdf::from_bucket_mass(masses);
        let epsilon = 0.1;
        let center_av = Availability::saturating(center);
        let min = pdf.min_window_mass(1.0, center_av, epsilon);
        // Any ε-window within the clamped band has at least `min` mass.
        let band_lo = (center - epsilon).max(0.0);
        let band_hi = (center + epsilon).min(1.0);
        if band_hi - band_lo > epsilon {
            let v = (band_lo + offset.abs()).min(band_hi - epsilon);
            let window = pdf.mass_between(v, v + epsilon);
            prop_assert!(window + 1e-9 >= min, "window {window} below min {min}");
        }
    }

    #[test]
    fn density_integrates_to_bucket_mass(
        masses in proptest::collection::vec(0.01f64..10.0, 1..16),
        bucket in 0usize..16,
    ) {
        let pdf = AvailabilityPdf::from_bucket_mass(masses);
        let b = bucket % pdf.buckets();
        let w = pdf.bucket_width();
        let lo = b as f64 * w;
        // Piecewise-constant density: mass = density × width.
        let mid = Availability::saturating(lo + w / 2.0);
        let integral = pdf.density(mid) * w;
        prop_assert!((integral - pdf.bucket_mass(b)).abs() < 1e-9);
    }

    #[test]
    fn weighted_pdf_total_is_one(
        sample in proptest::collection::vec((0.0f64..=1.0, 0.0f64..5.0), 1..64),
        buckets in 1usize..16,
    ) {
        let weighted: Vec<(Availability, f64)> = sample
            .into_iter()
            .map(|(a, w)| (Availability::saturating(a), w))
            .collect();
        let pdf = AvailabilityPdf::from_weighted_sample(&weighted, buckets);
        prop_assert!((pdf.mass_between(0.0, 1.0) - 1.0).abs() < 1e-9);
    }
}
