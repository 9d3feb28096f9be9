//! The scenario text format: a hand-rolled TOML subset.
//!
//! It supports exactly what scenarios need:
//!
//! * `key = value` pairs, with integer, float and double-quoted-string
//!   values;
//! * `[section]` tables (at most one each) and `[[section]]`
//!   array-of-tables entries (any number, order preserved);
//! * `#` comments and blank lines.
//!
//! Which sections and keys exist, what each accepts and what an absent
//! one means is `schema.rs`; this file turns lines into raw sections and
//! walks that table, to read a spec ([`parse_spec`]) and to print one
//! ([`ScenarioSpec::render`]).
//!
//! Every error carries the 1-based line number it was detected on.
//! Unknown sections and keys, a key the spec's own choices leave without
//! meaning and a value outside its key's range are all rejected: typos
//! and leftovers fail loudly instead of silently running a different
//! experiment. `render` produces canonical text that parses back to an
//! equal spec — the proptest round-trip in `tests/spec_parser.rs` pins
//! that down.

use avmem::harness::MaintenanceEngine;
use avmem::AvailabilityTarget;

use crate::schema::{self, Section, Slot, Tagged, SECTIONS};
use crate::spec::{ScenarioSpec, TargetMix};

/// A parse failure, located at a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the problem was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One `key = value` occurrence.
struct Entry<'a> {
    key: &'a str,
    text: &'a str,
    line: usize,
}

/// One section body: the keys before any header, or those under one
/// `[section]` / `[[section]]` header.
struct RawSection<'a> {
    /// Index into [`SECTIONS`].
    section: usize,
    /// The header's line; 0 for the top level and for an absent section.
    line: usize,
    entries: Vec<Entry<'a>>,
}

/// First pass: lines → section bodies of raw key/value pairs, in file
/// order, the top level first.
fn split_raw(input: &str) -> Result<Vec<RawSection<'_>>, ParseError> {
    let mut doc = Vec::new();
    let mut current = RawSection { section: 0, line: 0, entries: Vec::new() };
    for (idx, raw_line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let repeats = line.starts_with("[[");
            let (open, close) = if repeats { ("[[", "]]") } else { ("[", "]") };
            let Some(name) = line.strip_prefix(open).and_then(|rest| rest.strip_suffix(close))
            else {
                let message = format!("unterminated {open}...{close}: {line:?}");
                return Err(ParseError::new(lineno, message));
            };
            let name = name.trim();
            let found =
                SECTIONS.iter().enumerate().find(|(_, s)| s.name == name && !name.is_empty());
            let index = match found {
                Some((index, section)) if section.repeats == repeats => index,
                _ => {
                    let mut message = format!("unknown section {open}{name}{close}");
                    if let Some((_, section)) = found {
                        message.push_str(&format!(" (write {})", section.header()));
                    }
                    return Err(ParseError::new(lineno, message));
                }
            };
            if !repeats && doc.iter().chain([&current]).any(|raw| raw.section == index) {
                return Err(ParseError::new(lineno, format!("duplicate section [{name}]")));
            }
            let next = RawSection { section: index, line: lineno, entries: Vec::new() };
            doc.push(std::mem::replace(&mut current, next));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError::new(
                lineno,
                format!("expected `key = value` or a [section] header, found {line:?}"),
            ));
        };
        let (key, text) = (key.trim(), value.trim());
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(ParseError::new(lineno, format!("invalid key {key:?}")));
        }
        if text.is_empty() {
            return Err(ParseError::new(lineno, format!("key {key:?} has no value")));
        }
        if current.entries.iter().any(|entry| entry.key == key) {
            return Err(ParseError::new(lineno, format!("duplicate key {key:?}")));
        }
        current.entries.push(Entry { key, text, line: lineno });
    }
    doc.push(current);
    Ok(doc)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let hash = line.find(|c: char| {
        in_string ^= c == '"';
        c == '#' && !in_string
    });
    hash.and_then(|at| line.split_at_checked(at)).map_or(line, |(code, _comment)| code)
}

/// Second pass, one section body: walks the section's rows in order,
/// reading each live one from the text, else from its default.
fn fill(
    spec: &mut ScenarioSpec,
    section: &Section,
    instance: usize,
    raw: &RawSection<'_>,
) -> Result<(), ParseError> {
    // The top level has no header line, an absent section neither.
    let header_line = raw.line.max(1);
    // The nearest choice read so far: what a key without a field here
    // was ruled out by.
    let mut choice = None;
    for key in section.keys {
        let entry = raw.entries.iter().find(|entry| entry.key == key.name);
        let Some(mut slot) = (key.at)(spec, instance) else {
            let Some(entry) = entry else { continue };
            let why = choice.map_or("here".to_string(), |(k, v)| format!("with {k} = \"{v}\""));
            let message = format!("key {:?} has no meaning {why}", key.name);
            return Err(ParseError::new(entry.line, message));
        };
        let given = entry.map(|entry| (entry.text, entry.line));
        match given.or(key.default.map(|text| (text, header_line))) {
            Some((text, line)) => slot.read(text, &key.bound).map_err(|problem| {
                ParseError::new(line, format!("key {:?} {problem}", key.name))
            })?,
            None if slot.unset() => {}
            None => {
                let message = format!("section {} is missing key {:?}", section.header(), key.name);
                return Err(ParseError::new(header_line, message));
            }
        }
        if let Slot::Tag(chosen) = &slot {
            choice = Some((key.name, chosen.tag()));
        }
    }
    match raw.entries.iter().find(|entry| section.keys.iter().all(|key| key.name != entry.key)) {
        Some(stray) => {
            let message = format!("unknown key {:?} in section {}", stray.key, section.header());
            Err(ParseError::new(stray.line, message))
        }
        None => Ok(()),
    }
}

/// Parses scenario text into a [`ScenarioSpec`].
///
/// Every value has been checked against its own key's range; what only
/// several keys together decide — `lo ≤ hi`, whether the generated trace
/// covers the run — is [`ScenarioSpec::validate`]'s. Call
/// it before running the spec.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending 1-based line for any
/// structural problem: bad headers, missing or unknown sections/keys,
/// duplicate keys, a key its section's choices give no meaning, or a
/// value of the wrong type or outside its range.
///
/// # Examples
///
/// ```
/// let spec = avmem_scenario::parse_spec(r#"
/// name = "tiny"
/// seed = 7
/// duration_mins = 60
///
/// [churn]
/// model = "overnet"
/// hosts = 50
/// days = 1
///
/// [workload]
/// ops_per_hour = 30.0
///
/// [[target]]
/// weight = 1.0
/// kind = "range"
/// lo = 0.85
/// hi = 0.95
/// "#).unwrap();
/// assert_eq!(spec.name, "tiny");
/// assert!(spec.validate().is_ok());
/// ```
pub fn parse_spec(input: &str) -> Result<ScenarioSpec, ParseError> {
    let doc = split_raw(input)?;
    let mut spec = schema::placeholder();
    for (index, section) in SECTIONS.iter().enumerate() {
        let mut bodies = doc.iter().filter(|raw| raw.section == index).peekable();
        if bodies.peek().is_none() {
            // An absent section reads as an empty one: every row that is
            // live without `open` takes its default, and one that has
            // none is what makes its section required.
            let absent = RawSection { section: index, line: 0, entries: Vec::new() };
            fill(&mut spec, section, 0, &absent)?;
        }
        for (instance, raw) in bodies.enumerate() {
            (section.open)(&mut spec);
            fill(&mut spec, section, instance, raw)?;
        }
    }
    if spec.workload.targets.is_empty() {
        let target = AvailabilityTarget::Range { lo: 0.85, hi: 0.95 };
        spec.workload.targets.push(TargetMix { weight: 1.0, target });
    }
    Ok(spec)
}

/// The engine the `engine` key reads `name` as — `sharded` with its
/// thread count on auto. The CLI's `--engine` and `--engines` read their
/// names here, so the format and the CLI accept the same ones.
///
/// # Errors
///
/// Returns a message listing the accepted names when `name` is not one.
pub fn parse_engine(name: &str) -> Result<MaintenanceEngine, String> {
    let mut engine = MaintenanceEngine::Serial;
    if engine.select(name) {
        return Ok(engine);
    }
    Err(format!("unknown engine {name:?} (accepted: {})", engine.names().join(", ")))
}

impl ScenarioSpec {
    /// Renders the spec as canonical scenario text.
    ///
    /// Round-trip guarantee: `parse_spec(&spec.render()) == Ok(spec)` for
    /// every valid spec (floats print with Rust's shortest round-trip
    /// formatting).
    pub fn render(&self) -> String {
        // The lenses hand out places, so they take the spec mutably.
        let mut spec = self.clone();
        let mut out = String::new();
        for section in SECTIONS {
            for instance in 0..(section.count)(&spec) {
                if !section.name.is_empty() {
                    out.push_str(&format!("\n{}\n", section.header()));
                }
                for key in section.keys {
                    let slot = (key.at)(&mut spec, instance);
                    if let Some(text) = slot.and_then(|slot| slot.text()) {
                        out.push_str(&format!("{} = {text}\n", key.name));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    #[test]
    fn builtins_round_trip() {
        for name in builtin::builtin_names() {
            let spec = builtin::builtin(name).unwrap();
            let rendered = spec.render();
            let reparsed = parse_spec(&rendered)
                .unwrap_or_else(|e| panic!("{name}: render did not parse: {e}\n{rendered}"));
            assert_eq!(spec, reparsed, "{name} did not round-trip");
        }
    }

    /// A minimal event-driven spec with `maintenance` appended to its
    /// `[maintenance]` section, whose first key sits on line 8.
    fn spec_with_maintenance(maintenance: &str) -> String {
        format!(
            "name = \"m\"\n[churn]\nmodel = \"overnet\"\nhosts = 10\ndays = 1\n\
             [maintenance]\nmode = \"event-driven\"\n{maintenance}\
             [workload]\nops_per_hour = 5.0\n"
        )
    }

    #[test]
    fn parallel_is_an_unknown_engine_with_its_line() {
        let err = parse_spec(&spec_with_maintenance("engine = \"parallel\"\nthreads = 4\n"))
            .unwrap_err();
        assert_eq!(err.line, 8);
        assert!(
            err.message.contains("has unknown value \"parallel\" (accepted: serial, sharded)"),
            "{err}"
        );
    }

    #[test]
    fn serial_engine_rejects_shard_and_thread_counts() {
        // Serial means one thread; a count beside it used to parse and
        // silently run one. No engine takes a shard count: the shards are
        // the threads.
        for (key, why) in [("shards", "unknown key"), ("threads", "engine = \"serial\"")] {
            let src = spec_with_maintenance(&format!("engine = \"serial\"\n{key} = 4\n"));
            let err = parse_spec(&src).unwrap_err();
            assert_eq!(err.line, 9, "{err}");
            assert!(err.message.contains(key) && err.message.contains(why), "{err}");
        }
        // The key may come first: the error still points at it.
        let src = spec_with_maintenance("threads = 2\nengine = \"serial\"\n");
        assert_eq!(parse_spec(&src).unwrap_err().line, 8);
        let spec = parse_spec(&spec_with_maintenance("engine = \"serial\"\n")).unwrap();
        assert_eq!(spec.maintenance.engine, MaintenanceEngine::Serial);
    }

    #[test]
    fn sharded_engine_parses_both_knobs() {
        let spec = parse_spec(
            "name = \"s\"\n[churn]\nmodel = \"overnet\"\nhosts = 10\ndays = 1\n\
             [maintenance]\nmode = \"event-driven\"\nengine = \"sharded\"\n\
             threads = 2\n[workload]\nops_per_hour = 5.0\n",
        )
        .unwrap();
        assert_eq!(spec.maintenance.engine, MaintenanceEngine::Sharded { threads: Some(2) });
        // `0` is "auto"; the bound is the schema walk's to pin.
        let auto = spec_with_maintenance("engine = \"sharded\"\nthreads = 0\n");
        let auto = parse_spec(&auto).unwrap().maintenance.engine;
        assert_eq!(auto, MaintenanceEngine::Sharded { threads: None });
        assert_eq!(parse_engine("sharded"), Ok(auto));
        assert_eq!(parse_engine("serial"), Ok(MaintenanceEngine::Serial));
        let unknown = parse_engine("parallel").unwrap_err();
        assert_eq!(unknown, "unknown engine \"parallel\" (accepted: serial, sharded)");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_spec("name = \"x\"\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2:"));

        let err = parse_spec("name = \"x\"\n\n[nonsense]\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown section"));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let src = "name = \"x\"\n[churn]\nmodel = \"overnet\"\nhosts = 10\ndays = 1\n\
                   hostz = 10\n[workload]\nops_per_hour = 1.0\n";
        let err = parse_spec(src).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("unknown key \"hostz\""), "{err}");
        // The shard count is the thread count; it has no key of its own.
        let err = parse_spec(&spec_with_maintenance("shards = 2\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.message.contains("unknown key \"shards\" in section [maintenance]"), "{err}");
    }

    #[test]
    fn duplicate_keys_and_sections_are_rejected() {
        let err = parse_spec("name = \"a\"\nname = \"b\"\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate key"));

        let err =
            parse_spec("name = \"a\"\n[churn]\nmodel = \"overnet\"\nhosts = 1\ndays = 1\n[churn]\n")
                .unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("duplicate section"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = parse_spec(
            "# a scenario\nname = \"c\" # trailing comment\n\n[churn]\nmodel = \"overnet\"\n\
             hosts = 10\ndays = 1\n[workload]\nops_per_hour = 5.0\n",
        )
        .unwrap();
        assert_eq!(spec.name, "c");
        assert_eq!(spec.workload.targets.len(), 1, "default target applies");
    }

    #[test]
    fn strings_may_contain_hashes() {
        let spec = parse_spec(
            "name = \"run#7\"\n[churn]\nmodel = \"overnet\"\nhosts = 10\ndays = 1\n\
             [workload]\nops_per_hour = 5.0\n",
        )
        .unwrap();
        assert_eq!(spec.name, "run#7");
    }

    #[test]
    fn missing_required_sections_are_reported() {
        let err = parse_spec("name = \"x\"\n").unwrap_err();
        assert!(err.message.contains("[churn]"));
        let err = parse_spec("name = \"x\"\n[churn]\nmodel = \"overnet\"\nhosts = 5\ndays = 1\n")
            .unwrap_err();
        assert!(err.message.contains("[workload]"));
    }

    #[test]
    fn wrong_value_types_are_reported_at_their_line() {
        let err = parse_spec(
            "name = \"x\"\nseed = \"not a number\"\n[churn]\nmodel = \"overnet\"\nhosts = 5\n\
             days = 1\n[workload]\nops_per_hour = 1.0\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("integer"));
    }
}
