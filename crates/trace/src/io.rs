//! Plain-text trace serialization.
//!
//! The on-disk format is deliberately trivial so that real availability
//! traces (e.g. the actual Overnet probe data, or PlanetLab all-pairs
//! pings) can be converted with a few lines of awk:
//!
//! ```text
//! AVTRACE v1
//! slot_millis 1200000
//! nodes 3
//! slots 4
//! 1111
//! 0110
//! 0000
//! ```
//!
//! One row per node; `1` = online in that slot. Blank lines may follow
//! the last row, and nothing else may.

use std::io::{self, BufRead, BufReader, Read, Write};

use avmem_sim::SimDuration;

use crate::churn::{ChurnTrace, TraceBuilder};

/// Error parsing a trace file.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file deviates from the `AVTRACE v1` format; the message names
    /// the offending line.
    Format(String),
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            ParseTraceError::Format(msg) => write!(f, "invalid trace format: {msg}"),
        }
    }
}

impl std::error::Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            ParseTraceError::Format(_) => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

impl ChurnTrace {
    /// Writes the trace in `AVTRACE v1` format.
    ///
    /// A `&mut` reference can be passed as the writer.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "AVTRACE v1")?;
        writeln!(w, "slot_millis {}", self.slot_duration().as_millis())?;
        writeln!(w, "nodes {}", self.num_nodes())?;
        writeln!(w, "slots {}", self.num_slots())?;
        let mut row = String::with_capacity(self.num_slots());
        for i in 0..self.num_nodes() {
            row.clear();
            for s in 0..self.num_slots() {
                row.push(if self.is_online_in_slot(i, s) { '1' } else { '0' });
            }
            writeln!(w, "{row}")?;
        }
        Ok(())
    }

    /// Reads a trace in `AVTRACE v1` format.
    ///
    /// A `&mut` reference can be passed as the reader.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError::Io`] on reader failure and
    /// [`ParseTraceError::Format`] on any structural problem (bad header,
    /// wrong row count or width, characters other than `0`/`1`). A
    /// non-blank line after the header's last row is a row too many.
    pub fn read_from<R: Read>(r: R) -> Result<ChurnTrace, ParseTraceError> {
        let mut lines = BufReader::new(r).lines();
        let mut next_line = |what: &str| -> Result<String, ParseTraceError> {
            lines
                .next()
                .ok_or_else(|| ParseTraceError::Format(format!("missing {what}")))?
                .map_err(ParseTraceError::from)
        };

        let magic = next_line("magic header")?;
        if magic.trim() != "AVTRACE v1" {
            return Err(ParseTraceError::Format(format!(
                "bad magic line {magic:?}, expected \"AVTRACE v1\""
            )));
        }
        let slot_millis: u64 = parse_header_field(&next_line("slot_millis header")?, "slot_millis")?;
        if slot_millis == 0 {
            return Err(ParseTraceError::Format("slot_millis must be positive".into()));
        }
        let nodes: usize = parse_header_field(&next_line("nodes header")?, "nodes")?;
        let slots: usize = parse_header_field(&next_line("slots header")?, "slots")?;
        if nodes == 0 || slots == 0 {
            return Err(ParseTraceError::Format(
                "nodes and slots must be positive".into(),
            ));
        }

        // The header's counts are claims until the rows arrive: the
        // builder's columns widen with them, so no header can size an
        // allocation.
        let mut trace = TraceBuilder::new(SimDuration::from_millis(slot_millis), slots, 0);
        let mut row = Vec::new();
        for i in 0..nodes {
            let line = next_line(&format!("row {i}"))?;
            let line = line.trim();
            if line.len() != slots {
                return Err(ParseTraceError::Format(format!(
                    "row {i} has {} slots, expected {slots}",
                    line.len()
                )));
            }
            row.clear();
            for ch in line.chars() {
                match ch {
                    '0' => row.push(false),
                    '1' => row.push(true),
                    other => {
                        return Err(ParseTraceError::Format(format!(
                            "row {i} contains invalid character {other:?}"
                        )))
                    }
                }
            }
            trace.push_row(&row);
        }
        // Blank lines may trail the rows; anything else is a row the
        // header does not count.
        for line in lines {
            if !line?.trim().is_empty() {
                return Err(ParseTraceError::Format(format!(
                    "row {nodes} is beyond the {nodes} the nodes header declares"
                )));
            }
        }
        Ok(trace.finish())
    }
}

fn parse_header_field<T: std::str::FromStr>(
    line: &str,
    key: &str,
) -> Result<T, ParseTraceError> {
    let mut parts = line.split_whitespace();
    let found_key = parts
        .next()
        .ok_or_else(|| ParseTraceError::Format(format!("empty line where {key} expected")))?;
    if found_key != key {
        return Err(ParseTraceError::Format(format!(
            "expected header {key:?}, found {found_key:?}"
        )));
    }
    let value = parts
        .next()
        .ok_or_else(|| ParseTraceError::Format(format!("header {key} missing a value")))?;
    value
        .parse()
        .map_err(|_| ParseTraceError::Format(format!("header {key} has invalid value {value:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overnet::OvernetModel;

    #[test]
    fn round_trip_preserves_trace() {
        let trace = OvernetModel::default().hosts(20).days(1).generate(17);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let read = ChurnTrace::read_from(buf.as_slice()).unwrap();
        assert_eq!(trace, read);
    }

    #[test]
    fn format_is_human_readable() {
        let trace = ChurnTrace::from_rows(
            SimDuration::from_mins(20),
            vec![vec![true, false], vec![false, true]],
        );
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("AVTRACE v1\n"));
        assert!(text.contains("slot_millis 1200000"));
        assert!(text.contains("\n10\n"));
        assert!(text.contains("\n01\n"));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = ChurnTrace::read_from("NOPE\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseTraceError::Format(_)));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_wrong_row_width() {
        let text = "AVTRACE v1\nslot_millis 1000\nnodes 1\nslots 3\n10\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("row 0"));
    }

    #[test]
    fn rejects_invalid_characters() {
        let text = "AVTRACE v1\nslot_millis 1000\nnodes 1\nslots 3\n1x0\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("invalid character"));
    }

    #[test]
    fn rejects_missing_rows() {
        let text = "AVTRACE v1\nslot_millis 1000\nnodes 2\nslots 2\n10\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("row 1"));
    }

    #[test]
    fn rejects_zero_slot_width() {
        let text = "AVTRACE v1\nslot_millis 0\nnodes 1\nslots 1\n1\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("slot_millis"));
    }

    #[test]
    fn a_node_count_no_memory_could_hold_is_a_missing_row() {
        let text = "AVTRACE v1\nslot_millis 1000\nnodes 18446744073709551615\nslots 1\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(matches!(&err, ParseTraceError::Format(m) if m == "missing row 0"), "{err}");
    }

    #[test]
    fn rows_beyond_the_header_count_are_refused() {
        // Two rows declared, three given: the third is named, not dropped.
        let text = "AVTRACE v1\nslot_millis 1000\nnodes 2\nslots 2\n10\n01\n11\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Format(m) if m.contains("row 2")),
            "{err}"
        );
        // The same after blank lines.
        let text = "AVTRACE v1\nslot_millis 1000\nnodes 2\nslots 2\n10\n01\n\n  \n11\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Format(m) if m.contains("row 2")),
            "{err}"
        );
        // Blank lines alone may trail the rows.
        let text = "AVTRACE v1\nslot_millis 1000\nnodes 2\nslots 2\n10\n01\n\n \t\n";
        let trace = ChurnTrace::read_from(text.as_bytes()).unwrap();
        assert_eq!(trace.num_nodes(), 2);
        assert!(trace.is_online_in_slot(0, 0) && trace.is_online_in_slot(1, 1));
    }

    #[test]
    fn rejects_swapped_headers() {
        let text = "AVTRACE v1\nnodes 1\nslot_millis 1000\nslots 1\n1\n";
        let err = ChurnTrace::read_from(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected header"));
    }
}
