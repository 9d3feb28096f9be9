//! The scenario text format: a hand-rolled TOML subset.
//!
//! The vendored `serde` is a derive-only no-op, so the format is parsed
//! by hand. It supports exactly what scenarios need:
//!
//! * `key = value` pairs, with integer, float, boolean and
//!   double-quoted-string values;
//! * `[section]` tables (at most one each) and `[[target]]`
//!   array-of-tables entries (any number, order preserved);
//! * `#` comments and blank lines.
//!
//! Every error carries the 1-based line number it was detected on, and
//! unknown sections or keys are rejected (typos fail loudly instead of
//! silently running a different experiment). [`ScenarioSpec::render`]
//! produces canonical text that parses back to an equal spec — the
//! proptest round-trip in `tests/spec_parser.rs` pins that down.

use std::collections::BTreeMap;

use crate::spec::{
    AdversarySpec, AssignmentSpec, BandSpec, ChurnSpec, EngineSpec, MaintenanceModeSpec,
    MaintenanceSpec, MulticastSpec, OracleSpec, PolicySpec, PredicateSpec, ReportSpec,
    ScenarioSpec, ScopeSpec, ServeSpec, TargetMix, TargetSpec, WorkloadSpec,
};

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
#[derive(Debug, Clone)]
struct RawValue {
    text: String,
    line: usize,
}

/// One `[section]` / `[[section]]` body.
#[derive(Debug)]
struct RawSection {
    line: usize,
    entries: BTreeMap<String, RawValue>,
}

impl RawSection {
    fn empty(line: usize) -> Self {
        RawSection {
            line,
            entries: BTreeMap::new(),
        }
    }
}

/// First pass: lines → sections of raw key/value pairs.
struct RawDoc {
    /// Keys before any `[section]` header.
    top: RawSection,
    /// Single `[section]` tables by name.
    sections: BTreeMap<String, RawSection>,
    /// `[[target]]` occurrences, in order.
    targets: Vec<RawSection>,
}

fn split_raw(input: &str) -> Result<RawDoc, ParseError> {
    let mut doc = RawDoc {
        top: RawSection::empty(0),
        sections: BTreeMap::new(),
        targets: Vec::new(),
    };
    // Which section new keys land in: None = top, Some(name) = table,
    // targets are always the last element of doc.targets.
    enum Cursor {
        Top,
        Table(String),
        Target,
    }
    let mut cursor = Cursor::Top;
    for (idx, raw_line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return Err(ParseError::new(lineno, format!("unterminated [[...]]: {line:?}")));
            };
            let name = name.trim();
            if name != "target" {
                return Err(ParseError::new(
                    lineno,
                    format!("unknown array section [[{name}]] (only [[target]] repeats)"),
                ));
            }
            doc.targets.push(RawSection::empty(lineno));
            cursor = Cursor::Target;
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ParseError::new(lineno, format!("unterminated [...]: {line:?}")));
            };
            let name = name.trim().to_string();
            const KNOWN: [&str; 8] = [
                "churn",
                "predicate",
                "oracle",
                "maintenance",
                "workload",
                "adversary",
                "serve",
                "report",
            ];
            if !KNOWN.contains(&name.as_str()) {
                return Err(ParseError::new(lineno, format!("unknown section [{name}]")));
            }
            if doc.sections.contains_key(&name) {
                return Err(ParseError::new(lineno, format!("duplicate section [{name}]")));
            }
            doc.sections.insert(name.clone(), RawSection::empty(lineno));
            cursor = Cursor::Table(name);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError::new(
                lineno,
                format!("expected `key = value` or a [section] header, found {line:?}"),
            ));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(ParseError::new(lineno, format!("invalid key {key:?}")));
        }
        let value = RawValue {
            text: value.trim().to_string(),
            line: lineno,
        };
        if value.text.is_empty() {
            return Err(ParseError::new(lineno, format!("key {key:?} has no value")));
        }
        let entries = match &cursor {
            Cursor::Top => &mut doc.top.entries,
            Cursor::Table(name) => {
                &mut doc.sections.get_mut(name).expect("cursor section exists").entries
            }
            Cursor::Target => {
                &mut doc.targets.last_mut().expect("cursor target exists").entries
            }
        };
        if entries.insert(key.to_string(), value).is_some() {
            return Err(ParseError::new(lineno, format!("duplicate key {key:?}")));
        }
    }
    Ok(doc)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Typed, consumption-tracking view of one raw section.
struct Section<'a> {
    name: &'a str,
    raw: &'a RawSection,
    taken: Vec<&'a str>,
}

impl<'a> Section<'a> {
    fn new(name: &'a str, raw: &'a RawSection) -> Self {
        Section {
            name,
            raw,
            taken: Vec::new(),
        }
    }

    fn raw_value(&mut self, key: &'a str) -> Option<&'a RawValue> {
        self.taken.push(key);
        self.raw.entries.get(key)
    }

    fn require(&mut self, key: &'a str) -> Result<&'a RawValue, ParseError> {
        self.raw_value(key).ok_or_else(|| {
            ParseError::new(
                // The top-level pseudo-section has no header line.
                self.raw.line.max(1),
                format!("section [{}] is missing key {key:?}", self.name),
            )
        })
    }

    fn str_of(&self, value: &RawValue, key: &str) -> Result<String, ParseError> {
        let text = &value.text;
        let inner = text
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .ok_or_else(|| {
                ParseError::new(
                    value.line,
                    format!("key {key:?} needs a double-quoted string, found {text}"),
                )
            })?;
        if inner.contains('"') {
            return Err(ParseError::new(
                value.line,
                format!("key {key:?} has a stray quote inside its string"),
            ));
        }
        Ok(inner.to_string())
    }

    fn string(&mut self, key: &'a str) -> Result<String, ParseError> {
        let value = self.require(key)?;
        self.str_of(value, key)
    }

    fn u64_of(value: &RawValue, key: &str) -> Result<u64, ParseError> {
        value.text.parse().map_err(|_| {
            ParseError::new(
                value.line,
                format!("key {key:?} needs a non-negative integer, found {}", value.text),
            )
        })
    }

    fn u64_or(&mut self, key: &'a str, default: u64) -> Result<u64, ParseError> {
        match self.raw_value(key) {
            None => Ok(default),
            Some(value) => Self::u64_of(value, key),
        }
    }

    fn u64(&mut self, key: &'a str) -> Result<u64, ParseError> {
        let value = self.require(key)?;
        Self::u64_of(value, key)
    }

    /// An integer for a field narrower than `u64`: a value the field
    /// cannot hold is an error at its line naming the bound — never an
    /// `as` that wraps it into a different experiment.
    fn narrow_of<T>(value: &RawValue, key: &str, max: T) -> Result<T, ParseError>
    where
        T: TryFrom<u64> + std::fmt::Display,
    {
        let wide = Self::u64_of(value, key)?;
        T::try_from(wide).map_err(|_| {
            ParseError::new(
                value.line,
                format!("key {key:?} must be at most {max}, found {}", value.text),
            )
        })
    }

    fn narrow_or<T>(&mut self, key: &'a str, default: T, max: T) -> Result<T, ParseError>
    where
        T: TryFrom<u64> + std::fmt::Display,
    {
        match self.raw_value(key) {
            None => Ok(default),
            Some(value) => Self::narrow_of(value, key, max),
        }
    }

    fn u32_or(&mut self, key: &'a str, default: u32) -> Result<u32, ParseError> {
        self.narrow_or(key, default, u32::MAX)
    }

    fn usize_or(&mut self, key: &'a str, default: usize) -> Result<usize, ParseError> {
        self.narrow_or(key, default, usize::MAX)
    }

    fn usize(&mut self, key: &'a str) -> Result<usize, ParseError> {
        let value = self.require(key)?;
        Self::narrow_of(value, key, usize::MAX)
    }

    fn f64_of(&self, value: &RawValue, key: &str) -> Result<f64, ParseError> {
        let parsed: f64 = value.text.parse().map_err(|_| {
            ParseError::new(
                value.line,
                format!("key {key:?} needs a number, found {}", value.text),
            )
        })?;
        if !parsed.is_finite() {
            return Err(ParseError::new(
                value.line,
                format!("key {key:?} must be finite, found {}", value.text),
            ));
        }
        Ok(parsed)
    }

    fn f64(&mut self, key: &'a str) -> Result<f64, ParseError> {
        let value = self.require(key)?;
        self.f64_of(value, key)
    }

    fn f64_or(&mut self, key: &'a str, default: f64) -> Result<f64, ParseError> {
        match self.raw_value(key) {
            None => Ok(default),
            Some(value) => self.f64_of(value, key),
        }
    }

    /// Rejects keys nothing consumed — the typo guard.
    fn finish(self) -> Result<(), ParseError> {
        for (key, value) in &self.raw.entries {
            if !self.taken.contains(&key.as_str()) {
                return Err(ParseError::new(
                    value.line,
                    format!("unknown key {key:?} in section [{}]", self.name),
                ));
            }
        }
        Ok(())
    }
}

/// Maps an enum-like string value through `options`, erroring with the
/// accepted set on no match.
fn pick<T: Copy>(
    value: &str,
    line: usize,
    key: &str,
    options: &[(&str, T)],
) -> Result<T, ParseError> {
    options
        .iter()
        .find(|(name, _)| *name == value)
        .map(|&(_, v)| v)
        .ok_or_else(|| {
            let accepted: Vec<&str> = options.iter().map(|&(n, _)| n).collect();
            ParseError::new(
                line,
                format!("key {key:?}: unknown value {value:?} (accepted: {})", accepted.join(", ")),
            )
        })
}

/// Parses scenario text into a [`ScenarioSpec`].
///
/// The result is syntactically well-formed but not yet semantically
/// checked — call [`ScenarioSpec::validate`] before running it.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending 1-based line for any
/// structural problem: bad headers, missing or unknown sections/keys,
/// duplicate keys, or values of the wrong type.
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

    let mut top = Section::new("top level", &doc.top);
    let name = top.string("name")?;
    let seed = top.u64_or("seed", 1)?;
    let duration_mins = top.u64_or("duration_mins", 60)?;
    let warmup_mins = top.u64_or("warmup_mins", 0)?;
    let health_every_mins = top.u64_or("health_every_mins", 60)?;
    top.finish()?;

    let churn_raw = doc
        .sections
        .get("churn")
        .ok_or_else(|| ParseError::new(1, "missing required section [churn]"))?;
    let mut churn = Section::new("churn", churn_raw);
    let model_value = churn.require("model")?;
    let model_line = model_value.line;
    let model = churn.str_of(model_value, "model")?;
    let churn_spec = match model.as_str() {
        "overnet" => ChurnSpec::Overnet {
            hosts: churn.usize("hosts")?,
            days: churn.u64("days")?,
        },
        "grid" => ChurnSpec::Grid {
            machines: churn.usize("machines")?,
            days: churn.u64("days")?,
        },
        "flash-crowd" => ChurnSpec::FlashCrowd {
            hosts: churn.usize("hosts")?,
            days: churn.u64("days")?,
            fraction: churn.f64("fraction")?,
            switch_at: churn.f64("switch_at")?,
        },
        "mass-departure" => ChurnSpec::MassDeparture {
            hosts: churn.usize("hosts")?,
            days: churn.u64("days")?,
            fraction: churn.f64("fraction")?,
            switch_at: churn.f64("switch_at")?,
        },
        "trace-file" => ChurnSpec::TraceFile {
            path: churn.string("path")?,
        },
        other => {
            return Err(ParseError::new(
                model_line,
                format!(
                    "unknown churn model {other:?} (accepted: overnet, grid, flash-crowd, \
                     mass-departure, trace-file)"
                ),
            ))
        }
    };
    churn.finish()?;

    let predicate = match doc.sections.get("predicate") {
        None => PredicateSpec::Avmem {
            epsilon: 0.1,
            c1: avmem::predicate::DEFAULT_C1,
            c2: avmem::predicate::DEFAULT_C2,
        },
        Some(raw) => {
            let mut section = Section::new("predicate", raw);
            let kind_value = section.require("kind")?;
            let kind_line = kind_value.line;
            let kind = section.str_of(kind_value, "kind")?;
            let spec = match kind.as_str() {
                "avmem" => PredicateSpec::Avmem {
                    epsilon: section.f64_or("epsilon", 0.1)?,
                    c1: section.f64_or("c1", avmem::predicate::DEFAULT_C1)?,
                    c2: section.f64_or("c2", avmem::predicate::DEFAULT_C2)?,
                },
                "random" => PredicateSpec::Random {
                    degree: section.f64("degree")?,
                },
                other => {
                    return Err(ParseError::new(
                        kind_line,
                        format!("unknown predicate kind {other:?} (accepted: avmem, random)"),
                    ))
                }
            };
            section.finish()?;
            spec
        }
    };

    let oracle = match doc.sections.get("oracle") {
        None => OracleSpec::Exact,
        Some(raw) => {
            let mut section = Section::new("oracle", raw);
            let kind_value = section.require("kind")?;
            let kind_line = kind_value.line;
            let kind = section.str_of(kind_value, "kind")?;
            let spec = match kind.as_str() {
                "exact" => OracleSpec::Exact,
                "noisy" => OracleSpec::Noisy {
                    error: section.f64_or("error", 0.05)?,
                    staleness_mins: section.u64_or("staleness_mins", 20)?,
                },
                "noisy-shared" => OracleSpec::NoisyShared {
                    error: section.f64_or("error", 0.05)?,
                    staleness_mins: section.u64_or("staleness_mins", 20)?,
                },
                "avmon" => {
                    let assignment = match section.raw_value("assignment") {
                        None => AssignmentSpec::AllPairs,
                        Some(value) => {
                            let line = value.line;
                            let name = section.str_of(value, "assignment")?;
                            let ring = pick(
                                &name,
                                line,
                                "assignment",
                                &[("all-pairs", false), ("ring", true)],
                            )?;
                            if ring {
                                AssignmentSpec::Ring {
                                    vnodes: section.u32_or("vnodes", 8)?,
                                    monitors: section.u32_or("monitors", 8)?,
                                }
                            } else {
                                AssignmentSpec::AllPairs
                            }
                        }
                    };
                    // `vnodes`/`monitors` without `assignment = "ring"`
                    // would dangle.
                    let _ = section.u64_or("vnodes", 0)?;
                    let _ = section.u64_or("monitors", 0)?;
                    OracleSpec::Avmon { assignment }
                }
                other => {
                    return Err(ParseError::new(
                        kind_line,
                        format!(
                            "unknown oracle kind {other:?} (accepted: exact, noisy, \
                             noisy-shared, avmon)"
                        ),
                    ))
                }
            };
            section.finish()?;
            spec
        }
    };

    let maintenance = match doc.sections.get("maintenance") {
        None => MaintenanceSpec {
            mode: MaintenanceModeSpec::EventDriven {
                protocol_secs: 60,
                refresh_mins: 20,
            },
            engine: EngineSpec::Sharded { shards: 0, threads: 0 },
        },
        Some(raw) => {
            let mut section = Section::new("maintenance", raw);
            let mode_value = section.require("mode")?;
            let mode_line = mode_value.line;
            let mode_name = section.str_of(mode_value, "mode")?;
            let mode = match mode_name.as_str() {
                "event-driven" => MaintenanceModeSpec::EventDriven {
                    protocol_secs: section.u64_or("protocol_secs", 60)?,
                    refresh_mins: section.u64_or("refresh_mins", 20)?,
                },
                "converged" => MaintenanceModeSpec::Converged {
                    rebuild_every_mins: section.u64_or("rebuild_every_mins", 60)?,
                },
                other => {
                    return Err(ParseError::new(
                        mode_line,
                        format!(
                            "unknown maintenance mode {other:?} (accepted: event-driven, \
                             converged)"
                        ),
                    ))
                }
            };
            let engine = match section.raw_value("engine") {
                None => EngineSpec::Sharded {
                    shards: section.usize_or("shards", 0)?,
                    threads: section.usize_or("threads", 0)?,
                },
                Some(value) => {
                    let engine_name = section.str_of(value, "engine")?;
                    match engine_name.as_str() {
                        "serial" => {
                            // Serial *is* one shard on one thread: a
                            // count beside it contradicts it.
                            for key in ["shards", "threads"] {
                                if let Some(count) = section.raw_value(key) {
                                    return Err(ParseError::new(
                                        count.line,
                                        format!(
                                            "key {key:?} contradicts engine = \"serial\" (one \
                                             shard, one thread); use engine = \"sharded\""
                                        ),
                                    ));
                                }
                            }
                            EngineSpec::Serial
                        }
                        "sharded" => EngineSpec::Sharded {
                            shards: section.usize_or("shards", 0)?,
                            threads: section.usize_or("threads", 0)?,
                        },
                        other => {
                            return Err(ParseError::new(
                                value.line,
                                format!("unknown engine {other:?} (accepted: serial, sharded)"),
                            ))
                        }
                    }
                }
            };
            section.finish()?;
            MaintenanceSpec { mode, engine }
        }
    };

    let workload_raw = doc
        .sections
        .get("workload")
        .ok_or_else(|| ParseError::new(1, "missing required section [workload]"))?;
    let mut workload = Section::new("workload", workload_raw);
    let ops_per_hour = workload.f64("ops_per_hour")?;
    let anycast_fraction = workload.f64_or("anycast_fraction", 1.0)?;
    let policy = match workload.raw_value("policy") {
        None => PolicySpec::Greedy,
        Some(value) => {
            let name = workload.str_of(value, "policy")?;
            match name.as_str() {
                "greedy" => PolicySpec::Greedy,
                "retried-greedy" => PolicySpec::RetriedGreedy {
                    retries: workload.u32_or("retries", 8)?,
                },
                "annealing" => PolicySpec::Annealing,
                other => {
                    return Err(ParseError::new(
                        value.line,
                        format!(
                            "unknown policy {other:?} (accepted: greedy, retried-greedy, \
                             annealing)"
                        ),
                    ))
                }
            }
        }
    };
    if !matches!(policy, PolicySpec::RetriedGreedy { .. }) {
        let _ = workload.u64_or("retries", 0)?;
    }
    let scope = match workload.raw_value("scope") {
        None => ScopeSpec::Both,
        Some(value) => {
            let name = workload.str_of(value, "scope")?;
            pick(
                &name,
                value.line,
                "scope",
                &[("hs", ScopeSpec::Hs), ("vs", ScopeSpec::Vs), ("both", ScopeSpec::Both)],
            )?
        }
    };
    let ttl = workload.u32_or("ttl", 6)?;
    let initiators = match workload.raw_value("initiators") {
        None => BandSpec::Any,
        Some(value) => {
            let name = workload.str_of(value, "initiators")?;
            pick(
                &name,
                value.line,
                "initiators",
                &[
                    ("low", BandSpec::Low),
                    ("mid", BandSpec::Mid),
                    ("high", BandSpec::High),
                    ("any", BandSpec::Any),
                ],
            )?
        }
    };
    let multicast = match workload.raw_value("multicast") {
        None => MulticastSpec::Flood,
        Some(value) => {
            let name = workload.str_of(value, "multicast")?;
            match name.as_str() {
                "flood" => MulticastSpec::Flood,
                "gossip" => MulticastSpec::Gossip {
                    fanout: workload.u32_or("fanout", 5)?,
                    rounds: workload.u32_or("rounds", 2)?,
                    period_secs: workload.u64_or("gossip_period_secs", 1)?,
                },
                other => {
                    return Err(ParseError::new(
                        value.line,
                        format!("unknown multicast {other:?} (accepted: flood, gossip)"),
                    ))
                }
            }
        }
    };
    if !matches!(multicast, MulticastSpec::Gossip { .. }) {
        let _ = workload.u64_or("fanout", 0)?;
        let _ = workload.u64_or("rounds", 0)?;
        let _ = workload.u64_or("gossip_period_secs", 0)?;
    }
    workload.finish()?;

    let mut targets = Vec::with_capacity(doc.targets.len());
    for raw in &doc.targets {
        let mut section = Section::new("target", raw);
        let weight = section.f64_or("weight", 1.0)?;
        let kind_value = section.require("kind")?;
        let kind_line = kind_value.line;
        let kind = section.str_of(kind_value, "kind")?;
        let target = match kind.as_str() {
            "range" => TargetSpec::Range {
                lo: section.f64("lo")?,
                hi: section.f64("hi")?,
            },
            "threshold" => TargetSpec::Threshold {
                min: section.f64("min")?,
            },
            other => {
                return Err(ParseError::new(
                    kind_line,
                    format!("unknown target kind {other:?} (accepted: range, threshold)"),
                ))
            }
        };
        section.finish()?;
        targets.push(TargetMix { weight, target });
    }
    if targets.is_empty() {
        targets.push(TargetMix {
            weight: 1.0,
            target: TargetSpec::Range { lo: 0.85, hi: 0.95 },
        });
    }

    let adversary = match doc.sections.get("adversary") {
        None => None,
        Some(raw) => {
            let mut section = Section::new("adversary", raw);
            let spec = AdversarySpec {
                flooder_fraction: section.f64("flooder_fraction")?,
                cushion: section.f64_or("cushion", 0.0)?,
                probes: section.u32_or("probes", 30)?,
            };
            section.finish()?;
            Some(spec)
        }
    };

    let serve = match doc.sections.get("serve") {
        None => None,
        Some(raw) => {
            let mut section = Section::new("serve", raw);
            let ops_per_day = match section.raw_value("ops_per_day") {
                None => None,
                Some(value) => Some(section.f64_of(value, "ops_per_day")?),
            };
            let spec = ServeSpec {
                ops_per_day,
                pace: section.f64_or("pace", 0.0)?,
                lag_budget_ms: section.u64_or("lag_budget_ms", 2_000)?,
            };
            section.finish()?;
            Some(spec)
        }
    };

    let report = match doc.sections.get("report") {
        None => ReportSpec::default(),
        Some(raw) => {
            let mut section = Section::new("report", raw);
            let defaults = ReportSpec::default();
            let spec = ReportSpec {
                estimator_samples: section
                    .u64_or("estimator_samples", defaults.estimator_samples)?,
            };
            section.finish()?;
            spec
        }
    };

    Ok(ScenarioSpec {
        name,
        seed,
        duration_mins,
        warmup_mins,
        health_every_mins,
        churn: churn_spec,
        predicate,
        oracle,
        maintenance,
        workload: WorkloadSpec {
            ops_per_hour,
            anycast_fraction,
            policy,
            scope,
            ttl,
            initiators,
            multicast,
            targets,
        },
        adversary,
        serve,
        report,
    })
}

impl ScenarioSpec {
    /// Renders the spec as canonical scenario text.
    ///
    /// Round-trip guarantee: `parse_spec(&spec.render()) == Ok(spec)` for
    /// every valid spec (floats print with Rust's shortest round-trip
    /// formatting).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let w = &mut out;
        writeln!(w, "name = \"{}\"", self.name).unwrap();
        writeln!(w, "seed = {}", self.seed).unwrap();
        writeln!(w, "duration_mins = {}", self.duration_mins).unwrap();
        writeln!(w, "warmup_mins = {}", self.warmup_mins).unwrap();
        writeln!(w, "health_every_mins = {}", self.health_every_mins).unwrap();

        writeln!(w, "\n[churn]").unwrap();
        match &self.churn {
            ChurnSpec::Overnet { hosts, days } => {
                writeln!(w, "model = \"overnet\"\nhosts = {hosts}\ndays = {days}").unwrap();
            }
            ChurnSpec::Grid { machines, days } => {
                writeln!(w, "model = \"grid\"\nmachines = {machines}\ndays = {days}").unwrap();
            }
            ChurnSpec::FlashCrowd { hosts, days, fraction, switch_at } => {
                writeln!(
                    w,
                    "model = \"flash-crowd\"\nhosts = {hosts}\ndays = {days}\n\
                     fraction = {fraction:?}\nswitch_at = {switch_at:?}"
                )
                .unwrap();
            }
            ChurnSpec::MassDeparture { hosts, days, fraction, switch_at } => {
                writeln!(
                    w,
                    "model = \"mass-departure\"\nhosts = {hosts}\ndays = {days}\n\
                     fraction = {fraction:?}\nswitch_at = {switch_at:?}"
                )
                .unwrap();
            }
            ChurnSpec::TraceFile { path } => {
                writeln!(w, "model = \"trace-file\"\npath = \"{path}\"").unwrap();
            }
        }

        writeln!(w, "\n[predicate]").unwrap();
        match &self.predicate {
            PredicateSpec::Avmem { epsilon, c1, c2 } => {
                writeln!(
                    w,
                    "kind = \"avmem\"\nepsilon = {epsilon:?}\nc1 = {c1:?}\nc2 = {c2:?}"
                )
                .unwrap();
            }
            PredicateSpec::Random { degree } => {
                writeln!(w, "kind = \"random\"\ndegree = {degree:?}").unwrap();
            }
        }

        writeln!(w, "\n[oracle]").unwrap();
        match &self.oracle {
            OracleSpec::Exact => writeln!(w, "kind = \"exact\"").unwrap(),
            OracleSpec::Noisy { error, staleness_mins } => {
                writeln!(
                    w,
                    "kind = \"noisy\"\nerror = {error:?}\nstaleness_mins = {staleness_mins}"
                )
                .unwrap();
            }
            OracleSpec::NoisyShared { error, staleness_mins } => {
                writeln!(
                    w,
                    "kind = \"noisy-shared\"\nerror = {error:?}\n\
                     staleness_mins = {staleness_mins}"
                )
                .unwrap();
            }
            OracleSpec::Avmon { assignment } => {
                writeln!(w, "kind = \"avmon\"").unwrap();
                match assignment {
                    AssignmentSpec::AllPairs => {
                        writeln!(w, "assignment = \"all-pairs\"").unwrap();
                    }
                    AssignmentSpec::Ring { vnodes, monitors } => {
                        writeln!(
                            w,
                            "assignment = \"ring\"\nvnodes = {vnodes}\nmonitors = {monitors}"
                        )
                        .unwrap();
                    }
                }
            }
        }

        writeln!(w, "\n[maintenance]").unwrap();
        match self.maintenance.mode {
            MaintenanceModeSpec::EventDriven { protocol_secs, refresh_mins } => {
                writeln!(
                    w,
                    "mode = \"event-driven\"\nprotocol_secs = {protocol_secs}\n\
                     refresh_mins = {refresh_mins}"
                )
                .unwrap();
            }
            MaintenanceModeSpec::Converged { rebuild_every_mins } => {
                writeln!(
                    w,
                    "mode = \"converged\"\nrebuild_every_mins = {rebuild_every_mins}"
                )
                .unwrap();
            }
        }
        match self.maintenance.engine {
            EngineSpec::Serial => writeln!(w, "engine = \"serial\"").unwrap(),
            EngineSpec::Sharded { shards, threads } => {
                writeln!(w, "engine = \"sharded\"\nshards = {shards}\nthreads = {threads}")
                    .unwrap();
            }
        }

        let wl = &self.workload;
        writeln!(w, "\n[workload]").unwrap();
        writeln!(w, "ops_per_hour = {:?}", wl.ops_per_hour).unwrap();
        writeln!(w, "anycast_fraction = {:?}", wl.anycast_fraction).unwrap();
        match wl.policy {
            PolicySpec::Greedy => writeln!(w, "policy = \"greedy\"").unwrap(),
            PolicySpec::RetriedGreedy { retries } => {
                writeln!(w, "policy = \"retried-greedy\"\nretries = {retries}").unwrap();
            }
            PolicySpec::Annealing => writeln!(w, "policy = \"annealing\"").unwrap(),
        }
        let scope = match wl.scope {
            ScopeSpec::Hs => "hs",
            ScopeSpec::Vs => "vs",
            ScopeSpec::Both => "both",
        };
        writeln!(w, "scope = \"{scope}\"").unwrap();
        writeln!(w, "ttl = {}", wl.ttl).unwrap();
        let band = match wl.initiators {
            BandSpec::Low => "low",
            BandSpec::Mid => "mid",
            BandSpec::High => "high",
            BandSpec::Any => "any",
        };
        writeln!(w, "initiators = \"{band}\"").unwrap();
        match wl.multicast {
            MulticastSpec::Flood => writeln!(w, "multicast = \"flood\"").unwrap(),
            MulticastSpec::Gossip { fanout, rounds, period_secs } => {
                writeln!(
                    w,
                    "multicast = \"gossip\"\nfanout = {fanout}\nrounds = {rounds}\n\
                     gossip_period_secs = {period_secs}"
                )
                .unwrap();
            }
        }

        for mix in &wl.targets {
            writeln!(w, "\n[[target]]").unwrap();
            writeln!(w, "weight = {:?}", mix.weight).unwrap();
            match mix.target {
                TargetSpec::Range { lo, hi } => {
                    writeln!(w, "kind = \"range\"\nlo = {lo:?}\nhi = {hi:?}").unwrap();
                }
                TargetSpec::Threshold { min } => {
                    writeln!(w, "kind = \"threshold\"\nmin = {min:?}").unwrap();
                }
            }
        }

        if let Some(adv) = &self.adversary {
            writeln!(w, "\n[adversary]").unwrap();
            writeln!(w, "flooder_fraction = {:?}", adv.flooder_fraction).unwrap();
            writeln!(w, "cushion = {:?}", adv.cushion).unwrap();
            writeln!(w, "probes = {}", adv.probes).unwrap();
        }
        if let Some(serve) = &self.serve {
            writeln!(w, "\n[serve]").unwrap();
            if let Some(rate) = serve.ops_per_day {
                writeln!(w, "ops_per_day = {rate:?}").unwrap();
            }
            writeln!(w, "pace = {:?}", serve.pace).unwrap();
            writeln!(w, "lag_budget_ms = {}", serve.lag_budget_ms).unwrap();
        }
        // All-defaults report settings render as nothing: old spec files
        // stay canonical and the section only appears when it matters.
        if self.report != ReportSpec::default() {
            writeln!(w, "\n[report]").unwrap();
            writeln!(w, "estimator_samples = {}", self.report.estimator_samples).unwrap();
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
            err.message.contains("unknown engine \"parallel\" (accepted: serial, sharded)"),
            "{err}"
        );
    }

    #[test]
    fn serial_engine_rejects_shard_and_thread_counts() {
        // Serial means one shard on one thread; these used to parse and
        // silently run one shard.
        for key in ["shards", "threads"] {
            let src = spec_with_maintenance(&format!("engine = \"serial\"\n{key} = 4\n"));
            let err = parse_spec(&src).unwrap_err();
            assert_eq!(err.line, 9, "{err}");
            assert!(err.message.contains(key) && err.message.contains("serial"), "{err}");
        }
        // The key may come first: the error still points at it.
        let src = spec_with_maintenance("threads = 2\nengine = \"serial\"\n");
        assert_eq!(parse_spec(&src).unwrap_err().line, 8);
        let spec = parse_spec(&spec_with_maintenance("engine = \"serial\"\n")).unwrap();
        assert_eq!(spec.maintenance.engine, EngineSpec::Serial);
    }

    #[test]
    fn sharded_engine_parses_both_knobs() {
        let spec = parse_spec(
            "name = \"s\"\n[churn]\nmodel = \"overnet\"\nhosts = 10\ndays = 1\n\
             [maintenance]\nmode = \"event-driven\"\nengine = \"sharded\"\nshards = 8\n\
             threads = 2\n[workload]\nops_per_hour = 5.0\n",
        )
        .unwrap();
        assert_eq!(
            spec.maintenance.engine,
            EngineSpec::Sharded { shards: 8, threads: 2 }
        );
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
