//! The scenario format's schema: every section and every key, once.
//!
//! [`SECTIONS`] lists the sections in canonical order and, per section,
//! its [`Key`] rows in canonical order: name, [`Bound`], default *as the
//! text a user would have written* (`None` = required) and a lens onto
//! the field that holds the value — `None` when the choices made so far
//! leave the spec no such field (`retries` under `policy = "greedy"`).
//! Nothing else in the crate names a key. Three walks read the table:
//!
//! * `parse::parse_spec` fills a placeholder spec row by row — the text's
//!   value, else the default, else "missing key" — checking each value
//!   against its bound as it is read, so a range error carries its line.
//!   A key the text carries but the lens refuses is an error naming the
//!   choice that rules it out; a key no row names is unknown.
//! * `ScenarioSpec::render` prints every live row's [`Slot::text`].
//! * `ScenarioSpec::validate` re-checks every live row's bound (a spec
//!   built in code never met the parser), then its cross-key rules.
//!
//! One ordering rule keeps the refusal exact: a key that exists only
//! under some choice follows the key making that choice, with no other
//! live choice key between them.
//!
//! # Adding a key
//!
//! 1. Add the field to its type: a spec type in `spec.rs`, or the
//!    harness type the spec holds (in an enum variant: also to the
//!    variant's prototype in the `tagged!` list below). A choice whose
//!    harness type has no `tagged!` entry gets one, naming its variants.
//! 2. Add one `key(..)` row to its section, where it should render. Its
//!    slot kind says how the text is written: a `SimDuration` as whole
//!    units of the key's suffix, an `Option<usize>` count as `0` for
//!    auto. A harness field no row writes (AVMON's `cms`) must be held at
//!    its default by `ScenarioSpec::validate`, or the round trip breaks.
//! 3. Add it to the hand-written generators of `tests/spec_parser.rs`,
//!    the round trip's oracle, on purpose not derived from this table.
//!
//! The tests at the end of this file walk the table, so they cover the
//! new row as it is. A new `[[section]]` is one more [`Section`] with
//! `repeats: true`, a `count`, and an `open` that pushes an instance.

use std::fmt::Display;

use avmem::harness::{MaintenanceEngine, OracleChoice, PredicateChoice};
use avmem::ops::{ForwardPolicy, MulticastStrategy};
use avmem::predicate::{HorizontalRule, VerticalRule};
use avmem::{AvailabilityTarget, SliverScope};
use avmem_avmon::{AssignmentChoice, AvmonConfig};
use avmem_sim::SimDuration;

use crate::spec::{
    AdversarySpec, BandSpec, ChurnSpec, MaintenanceModeSpec, MaintenanceSpec, ReportSpec,
    ScenarioSpec, ServeSpec, TargetMix, WorkloadSpec,
};

/// The values a key accepts, beyond what its slot's type can hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Bound {
    /// Whatever the slot holds.
    Any,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A finite number in the interval; an open end excludes its bound.
    Num { lo: f64, lo_open: bool, hi: f64, hi_open: bool },
}

const ANY: Bound = Bound::Any;
const POSITIVE_INT: Bound = Bound::Int(1, u64::MAX);
/// A population: hosts are `u32` ids, and `u32::MAX` is the id the
/// harness and the monitor rows reserve for "none".
const POPULATION: Bound = Bound::Int(1, u32::MAX as u64 - 1);
/// Ring points per monitor, or monitors per target: set-up lays out
/// `hosts × vnodes` points and `hosts × monitors` row slots, so a value no
/// experiment needs would be an allocation no machine makes.
const RING_WIDTH: Bound = Bound::Int(1, 1_024);
/// Worker threads, `0` for the machine's count: each thread owns one
/// maintenance shard, and the cohort barriers walk `O(threads²)`
/// mailboxes, so a count past any machine's cores only sizes those.
const THREAD_COUNT: Bound = Bound::Int(0, avmem_util::parallel::MAX_THREADS as u64);
/// `[0, 1]`.
const UNIT: Bound = Bound::Num { lo: 0.0, lo_open: false, hi: 1.0, hi_open: false };
/// `(0, ∞)`.
const POSITIVE: Bound = Bound::Num { lo: 0.0, lo_open: true, hi: f64::INFINITY, hi_open: true };
/// `[0, ∞)`.
const NON_NEGATIVE: Bound =
    Bound::Num { lo: 0.0, lo_open: false, hi: f64::INFINITY, hi_open: true };
/// `(0, 0.5)`: a horizontal band's half-width.
const HALF_WIDTH: Bound = Bound::Num { lo: 0.0, lo_open: true, hi: 0.5, hi_open: true };
/// `[0, 1)`.
const BELOW_ONE: Bound = Bound::Num { lo: 0.0, lo_open: false, hi: 1.0, hi_open: true };

/// A choice enum as the format sees it: a closed list of names, each
/// selecting one variant.
pub(crate) trait Tagged {
    /// Every accepted name, in documentation order.
    fn names(&self) -> &'static [&'static str];
    /// The name of the current variant.
    fn tag(&self) -> &'static str;
    /// Switches to the variant `name` names — its fields are placeholders
    /// until their own rows are read; `false` for a name not in the list.
    fn select(&mut self, name: &str) -> bool;
}

/// Implements [`Tagged`] from one `name => prototype` list per enum. The
/// `match` in `tag` is exhaustive: a variant without a name does not
/// compile.
macro_rules! tagged {
    ($($ty:ident {
        $($name:literal => $variant:ident { $($field:ident: $value:expr),* }),+ $(,)?
    })+) => {$(
        impl Tagged for $ty {
            fn names(&self) -> &'static [&'static str] {
                &[$($name),+]
            }
            fn tag(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name,)+
                }
            }
            fn select(&mut self, name: &str) -> bool {
                *self = match name {
                    $($name => $ty::$variant { $($field: $value),* },)+
                    _ => return false,
                };
                true
            }
        }
    )+};
}

tagged! {
    ChurnSpec {
        "overnet" => Overnet { hosts: 0, days: 0 },
        "grid" => Grid { machines: 0, days: 0 },
        "flash-crowd" => FlashCrowd { hosts: 0, days: 0, fraction: 0.0, switch_at: 0.0 },
        "mass-departure" => MassDeparture { hosts: 0, days: 0, fraction: 0.0, switch_at: 0.0 },
        "trace-file" => TraceFile { path: String::new() },
    }
    PredicateChoice {
        "avmem" => Avmem {
            epsilon: 0.0,
            vertical: VerticalRule::Logarithmic { c1: 0.0 },
            horizontal: HorizontalRule::LogarithmicConstant { c2: 0.0 }
        },
        "random" => Random { expected_degree: 0.0 },
    }
    VerticalRule {
        "I.A" => Constant { d1: 0.0 },
        "I.B" => Logarithmic { c1: 0.0 },
        "I.C" => LogarithmicDecreasing { c1: 0.0 },
    }
    HorizontalRule {
        "II.A" => Constant { d2: 0.0 },
        "II.B" => LogarithmicConstant { c2: 0.0 },
    }
    OracleChoice {
        "exact" => Exact {},
        "noisy" => Noisy { error: 0.0, staleness: SimDuration::ZERO },
        "noisy-shared" => NoisyShared { error: 0.0, staleness: SimDuration::ZERO },
        "avmon" => Avmon { config: AvmonConfig::default() },
    }
    AssignmentChoice {
        "all-pairs" => AllPairs {},
        "ring" => Ring { vnodes: 0, k: 0 },
    }
    MaintenanceModeSpec {
        "event-driven" => EventDriven { protocol_secs: 0, refresh_mins: 0 },
        "converged" => Converged { rebuild_every_mins: 0 },
    }
    MaintenanceEngine {
        "serial" => Serial {},
        "sharded" => Sharded { threads: None },
    }
    ForwardPolicy {
        "greedy" => Greedy {},
        "retried-greedy" => RetriedGreedy { retries: 0 },
        "annealing" => SimulatedAnnealing {},
    }
    SliverScope { "hs" => HsOnly {}, "vs" => VsOnly {}, "both" => Both {} }
    BandSpec { "low" => Low {}, "mid" => Mid {}, "high" => High {}, "any" => Any {} }
    MulticastStrategy {
        "flood" => Flood {},
        "gossip" => Gossip { fanout: 0, rounds: 0, period: SimDuration::ZERO },
    }
    AvailabilityTarget {
        "range" => Range { lo: 0.0, hi: 0.0 },
        "threshold" => Threshold { min: 0.0 },
    }
}

/// The place a key's value lives in a spec.
pub(crate) enum Slot<'a> {
    Str(&'a mut String),
    U64(&'a mut u64),
    U32(&'a mut u32),
    Usize(&'a mut usize),
    F64(&'a mut f64),
    /// A number that may be left out (it has no default to print).
    OptF64(&'a mut Option<f64>),
    /// A count written `0` for "auto" (`None`).
    Auto(&'a mut Option<usize>),
    /// A duration written as a whole number of its key's unit.
    Duration(&'a mut SimDuration, Unit),
    Tag(&'a mut dyn Tagged),
}

/// The unit a [`Slot::Duration`] is written in.
#[derive(Clone, Copy)]
pub(crate) struct Unit {
    millis: u64,
    name: &'static str,
}

const SECS: Unit = Unit { millis: 1_000, name: "seconds" };
const MINS: Unit = Unit { millis: 60_000, name: "minutes" };

/// A double-quoted string's contents.
fn unquote(text: &str) -> Result<&str, String> {
    let inner = text
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("needs a double-quoted string, found {text}"))?;
    if inner.contains('"') {
        return Err("has a stray quote inside its string".into());
    }
    Ok(inner)
}

/// An integer no wider than `T`: one the field cannot hold is an error
/// naming the width, never an `as` that wraps it into another experiment.
fn integer<T: TryFrom<u64> + Display>(text: &str, max: T) -> Result<T, String> {
    let wide: u64 =
        text.parse().map_err(|_| format!("needs a non-negative integer, found {text}"))?;
    T::try_from(wide).map_err(|_| format!("must be at most {max}, found {text}"))
}

fn number(text: &str) -> Result<f64, String> {
    let parsed: f64 = text.parse().map_err(|_| format!("needs a number, found {text}"))?;
    if !parsed.is_finite() {
        return Err(format!("must be finite, found {text}"));
    }
    Ok(parsed)
}

impl Slot<'_> {
    /// Parses `text` into the place and checks it against `bound`. An
    /// error is the rest of a sentence that starts `key "k"`.
    pub(crate) fn read(&mut self, text: &str, bound: &Bound) -> Result<(), String> {
        match self {
            Slot::Str(place) => **place = unquote(text)?.to_string(),
            Slot::U64(place) => **place = integer(text, u64::MAX)?,
            Slot::U32(place) => **place = integer(text, u32::MAX)?,
            Slot::Usize(place) => **place = integer(text, usize::MAX)?,
            Slot::F64(place) => **place = number(text)?,
            Slot::OptF64(place) => **place = Some(number(text)?),
            Slot::Auto(place) => **place = Some(integer(text, usize::MAX)?).filter(|&n| n > 0),
            Slot::Duration(place, unit) => {
                let count = integer(text, u64::MAX)?;
                let millis = count.checked_mul(unit.millis).ok_or_else(|| {
                    format!("must be at most {}, found {text}", u64::MAX / unit.millis)
                })?;
                **place = SimDuration::from_millis(millis);
            }
            Slot::Tag(place) => {
                let name = unquote(text)?;
                if !place.select(name) {
                    let accepted = place.names().join(", ");
                    return Err(format!("has unknown value {name:?} (accepted: {accepted})"));
                }
            }
        }
        self.check(bound)
    }

    /// Leaves an optional value out; `false` when the slot must hold one.
    pub(crate) fn unset(&mut self) -> bool {
        let Slot::OptF64(place) = self else { return false };
        **place = None;
        true
    }

    /// Checks the value in place against `bound`, and a string against
    /// what the format can carry. Errors read as [`Slot::read`]'s.
    pub(crate) fn check(&self, bound: &Bound) -> Result<(), String> {
        let (integer, number) = match self {
            Slot::Str(text) if text.is_empty() => return Err("must be non-empty".into()),
            // The text format cannot escape a quote, and a control
            // character would make an ill-formed JSON string.
            Slot::Str(text) if text.contains('"') || text.chars().any(char::is_control) => {
                return Err("must not contain quotes or control characters".into());
            }
            // The text writes `None` as 0 and a duration in whole units.
            Slot::Auto(Some(0)) => return Err("must not be Some(0)".into()),
            Slot::Duration(v, unit) if v.as_millis() % unit.millis != 0 => {
                return Err(format!("must be whole {}, found {v}", unit.name));
            }
            Slot::Str(_) | Slot::Tag(_) => (None, None),
            Slot::U64(v) => (Some(**v), None),
            Slot::U32(v) => (Some(u64::from(**v)), None),
            Slot::Usize(v) => (u64::try_from(**v).ok(), None),
            Slot::F64(v) => (None, Some(**v)),
            Slot::OptF64(v) => (None, **v),
            Slot::Auto(v) => (u64::try_from(v.unwrap_or(0)).ok(), None),
            Slot::Duration(v, unit) => (Some(v.as_millis() / unit.millis), None),
        };
        match (*bound, integer, number) {
            (Bound::Int(min, max), Some(v), _) if v < min || v > max => {
                let (side, end) = if v < min { ("least", min) } else { ("most", max) };
                Err(format!("must be at {side} {end}, found {v}"))
            }
            (Bound::Num { lo, lo_open, hi, hi_open }, _, Some(v)) => {
                let above = v > lo || (!lo_open && v == lo);
                let below = v < hi || (!hi_open && v == hi);
                if v.is_finite() && above && below {
                    return Ok(());
                }
                let left = if lo_open { '(' } else { '[' };
                let right = if hi_open { ')' } else { ']' };
                Err(format!("must be in {left}{lo}, {hi}{right}, found {v:?}"))
            }
            _ => Ok(()),
        }
    }

    /// The value as canonical text (floats in Rust's shortest
    /// round-trip form); `None` for an optional value left out.
    pub(crate) fn text(&self) -> Option<String> {
        Some(match self {
            Slot::Str(text) => format!("\"{text}\""),
            Slot::U64(v) => v.to_string(),
            Slot::U32(v) => v.to_string(),
            Slot::Usize(v) => v.to_string(),
            Slot::F64(v) => format!("{v:?}"),
            Slot::OptF64(v) => format!("{:?}", (**v)?),
            Slot::Auto(v) => v.unwrap_or(0).to_string(),
            Slot::Duration(v, unit) => (v.as_millis() / unit.millis).to_string(),
            Slot::Tag(choice) => format!("\"{}\"", choice.tag()),
        })
    }
}

/// The slot in instance `usize` of the key's section, or `None` when
/// the spec's current choices have no such field.
pub(crate) type Lens = for<'a> fn(&'a mut ScenarioSpec, usize) -> Option<Slot<'a>>;

/// One key of the format.
pub(crate) struct Key {
    pub name: &'static str,
    pub bound: Bound,
    /// What an absent key reads as, in the text a user would have
    /// written; `None` = required (an optional slot: left out).
    pub default: Option<&'static str>,
    pub at: Lens,
}

const fn key(name: &'static str, bound: Bound, default: Option<&'static str>, at: Lens) -> Key {
    Key { name, bound, default, at }
}

/// One `[section]` (or the keys before any header). None is declared
/// required: an absent section reads as an empty one, which is an error
/// exactly when one of its live keys has no default.
pub(crate) struct Section {
    /// The header's name; empty for the top level.
    pub name: &'static str,
    /// Written `[[name]]`, any number of times, order kept.
    pub repeats: bool,
    /// How many instances the renderer prints.
    pub count: fn(&ScenarioSpec) -> usize,
    /// Makes room for one more instance before its keys are read.
    pub open: fn(&mut ScenarioSpec),
    pub keys: &'static [Key],
}

/// A section every spec holds exactly once.
const fn table(name: &'static str, keys: &'static [Key]) -> Section {
    Section { name, repeats: false, count: |_| 1, open: |_| {}, keys }
}

impl Section {
    /// The header as a user writes it.
    pub(crate) fn header(&self) -> String {
        match (self.name, self.repeats) {
            ("", _) => "[top level]".into(),
            (name, false) => format!("[{name}]"),
            (name, true) => format!("[[{name}]]"),
        }
    }
}

/// `Some(slot)` when the enum at `$at` is in one of the variants.
macro_rules! variant {
    ($at:expr, $($pattern:pat_param)|+ => $slot:ident($($arg:expr),+)) => {
        match &mut $at {
            $($pattern)|+ => Some(Slot::$slot($($arg),+)),
            _ => None,
        }
    };
}

/// The `i`-th `[[target]]`, once `open` made room for it.
fn target(spec: &mut ScenarioSpec, i: usize) -> Option<&mut TargetMix> {
    spec.workload.targets.get_mut(i)
}

pub(crate) const SECTIONS: &[Section] = &[
    table("", &[
        key("name", ANY, None, |s, _| Some(Slot::Str(&mut s.name))),
        key("seed", ANY, Some("1"), |s, _| Some(Slot::U64(&mut s.seed))),
        key("duration_mins", POSITIVE_INT, Some("60"), |s, _| {
            Some(Slot::U64(&mut s.duration_mins))
        }),
        key("warmup_mins", ANY, Some("0"), |s, _| Some(Slot::U64(&mut s.warmup_mins))),
        key("health_every_mins", POSITIVE_INT, Some("60"), |s, _| {
            Some(Slot::U64(&mut s.health_every_mins))
        }),
    ]),
    table("churn", &[
        key("model", ANY, None, |s, _| Some(Slot::Tag(&mut s.churn))),
        key("hosts", POPULATION, None, |s, _| {
            variant!(s.churn, ChurnSpec::Overnet { hosts, .. }
                | ChurnSpec::FlashCrowd { hosts, .. }
                | ChurnSpec::MassDeparture { hosts, .. } => Usize(hosts))
        }),
        key("machines", POPULATION, None, |s, _| {
            variant!(s.churn, ChurnSpec::Grid { machines, .. } => Usize(machines))
        }),
        // A generated trace holds `days × 72` slots per host in memory,
        // and a run may cover all of them (`validate` checks that warm-up
        // plus duration fits the trace). Ten years is far past any
        // experiment and far below the day count that overflows the
        // generators' allocation.
        key("days", Bound::Int(1, 3_650), None, |s, _| {
            variant!(s.churn, ChurnSpec::Overnet { days, .. }
                | ChurnSpec::Grid { days, .. }
                | ChurnSpec::FlashCrowd { days, .. }
                | ChurnSpec::MassDeparture { days, .. } => U64(days))
        }),
        key("fraction", UNIT, None, |s, _| {
            variant!(s.churn, ChurnSpec::FlashCrowd { fraction, .. }
                | ChurnSpec::MassDeparture { fraction, .. } => F64(fraction))
        }),
        key("switch_at", UNIT, None, |s, _| {
            variant!(s.churn, ChurnSpec::FlashCrowd { switch_at, .. }
                | ChurnSpec::MassDeparture { switch_at, .. } => F64(switch_at))
        }),
        key("path", ANY, None, |s, _| {
            variant!(s.churn, ChurnSpec::TraceFile { path } => Str(path))
        }),
    ]),
    table("predicate", &[
        key("kind", ANY, Some("\"avmem\""), |s, _| Some(Slot::Tag(&mut s.predicate))),
        // Before the rule choices, so that a `degree` beside `kind =
        // "avmem"` is refused by naming `kind`.
        key("degree", POSITIVE, None, |s, _| {
            variant!(s.predicate,
                PredicateChoice::Random { expected_degree } => F64(expected_degree))
        }),
        key("epsilon", HALF_WIDTH, Some("0.1"), |s, _| {
            variant!(s.predicate, PredicateChoice::Avmem { epsilon, .. } => F64(epsilon))
        }),
        key("vertical", ANY, Some("\"I.B\""), |s, _| {
            variant!(s.predicate, PredicateChoice::Avmem { vertical, .. } => Tag(vertical))
        }),
        key("d1", UNIT, None, |s, _| {
            variant!(s.predicate, PredicateChoice::Avmem {
                vertical: VerticalRule::Constant { d1 },
                ..
            } => F64(d1))
        }),
        // `avmem::predicate::DEFAULT_C1` and `DEFAULT_C2`.
        key("c1", POSITIVE, Some("2.5"), |s, _| {
            variant!(s.predicate, PredicateChoice::Avmem {
                vertical: VerticalRule::Logarithmic { c1 }
                    | VerticalRule::LogarithmicDecreasing { c1 },
                ..
            } => F64(c1))
        }),
        key("horizontal", ANY, Some("\"II.B\""), |s, _| {
            variant!(s.predicate, PredicateChoice::Avmem { horizontal, .. } => Tag(horizontal))
        }),
        key("d2", UNIT, None, |s, _| {
            variant!(s.predicate, PredicateChoice::Avmem {
                horizontal: HorizontalRule::Constant { d2 },
                ..
            } => F64(d2))
        }),
        key("c2", POSITIVE, Some("2.0"), |s, _| {
            variant!(s.predicate, PredicateChoice::Avmem {
                horizontal: HorizontalRule::LogarithmicConstant { c2 },
                ..
            } => F64(c2))
        }),
    ]),
    table("oracle", &[
        key("kind", ANY, Some("\"exact\""), |s, _| Some(Slot::Tag(&mut s.oracle))),
        key("error", UNIT, Some("0.05"), |s, _| {
            variant!(s.oracle, OracleChoice::Noisy { error, .. }
                | OracleChoice::NoisyShared { error, .. } => F64(error))
        }),
        key("staleness_mins", POSITIVE_INT, Some("20"), |s, _| {
            variant!(s.oracle, OracleChoice::Noisy { staleness, .. }
                | OracleChoice::NoisyShared { staleness, .. } => Duration(staleness, MINS))
        }),
        // The rest of an AVMON config has no key: `validate` holds it at
        // its default.
        key("assignment", ANY, Some("\"all-pairs\""), |s, _| {
            variant!(s.oracle, OracleChoice::Avmon {
                config: AvmonConfig { assignment, .. },
            } => Tag(assignment))
        }),
        key("vnodes", RING_WIDTH, Some("8"), |s, _| {
            variant!(s.oracle, OracleChoice::Avmon {
                config: AvmonConfig { assignment: AssignmentChoice::Ring { vnodes, .. }, .. },
            } => U32(vnodes))
        }),
        key("monitors", RING_WIDTH, Some("8"), |s, _| {
            variant!(s.oracle, OracleChoice::Avmon {
                config: AvmonConfig { assignment: AssignmentChoice::Ring { k, .. }, .. },
            } => U32(k))
        }),
    ]),
    table("maintenance", &[
        key("mode", ANY, Some("\"event-driven\""), |s, _| Some(Slot::Tag(&mut s.maintenance.mode))),
        key("protocol_secs", POSITIVE_INT, Some("60"), |s, _| {
            variant!(s.maintenance.mode,
                MaintenanceModeSpec::EventDriven { protocol_secs, .. } => U64(protocol_secs))
        }),
        key("refresh_mins", POSITIVE_INT, Some("20"), |s, _| {
            variant!(s.maintenance.mode,
                MaintenanceModeSpec::EventDriven { refresh_mins, .. } => U64(refresh_mins))
        }),
        key("rebuild_every_mins", POSITIVE_INT, Some("60"), |s, _| {
            variant!(s.maintenance.mode,
                MaintenanceModeSpec::Converged { rebuild_every_mins } => U64(rebuild_every_mins))
        }),
        // Serial *is* one thread, so a count beside it has no field to
        // land in; `0` sizes a sharded engine to the machine.
        key("engine", ANY, Some("\"sharded\""), |s, _| Some(Slot::Tag(&mut s.maintenance.engine))),
        key("threads", THREAD_COUNT, Some("0"), |s, _| {
            variant!(s.maintenance.engine, MaintenanceEngine::Sharded { threads } => Auto(threads))
        }),
    ]),
    table("workload", &[
        key("ops_per_hour", NON_NEGATIVE, None, |s, _| {
            Some(Slot::F64(&mut s.workload.ops_per_hour))
        }),
        key("anycast_fraction", UNIT, Some("1.0"), |s, _| {
            Some(Slot::F64(&mut s.workload.anycast_fraction))
        }),
        key("policy", ANY, Some("\"greedy\""), |s, _| Some(Slot::Tag(&mut s.workload.policy))),
        key("retries", ANY, Some("8"), |s, _| {
            variant!(s.workload.policy, ForwardPolicy::RetriedGreedy { retries } => U32(retries))
        }),
        key("scope", ANY, Some("\"both\""), |s, _| Some(Slot::Tag(&mut s.workload.scope))),
        key("ttl", POSITIVE_INT, Some("6"), |s, _| Some(Slot::U32(&mut s.workload.ttl))),
        key("initiators", ANY, Some("\"any\""), |s, _| Some(Slot::Tag(&mut s.workload.initiators))),
        key("multicast", ANY, Some("\"flood\""), |s, _| Some(Slot::Tag(&mut s.workload.multicast))),
        key("fanout", POSITIVE_INT, Some("5"), |s, _| {
            variant!(s.workload.multicast,
                MulticastStrategy::Gossip { fanout, .. } => U32(fanout))
        }),
        key("rounds", POSITIVE_INT, Some("2"), |s, _| {
            variant!(s.workload.multicast,
                MulticastStrategy::Gossip { rounds, .. } => U32(rounds))
        }),
        key("gossip_period_secs", POSITIVE_INT, Some("1"), |s, _| {
            variant!(s.workload.multicast,
                MulticastStrategy::Gossip { period, .. } => Duration(period, SECS))
        }),
    ]),
    Section {
        name: "target",
        repeats: true,
        count: |s| s.workload.targets.len(),
        open: |s| {
            let target = AvailabilityTarget::Range { lo: 0.0, hi: 0.0 };
            s.workload.targets.push(TargetMix { weight: 0.0, target });
        },
        keys: &[
            key("weight", POSITIVE, Some("1.0"), |s, i| Some(Slot::F64(&mut target(s, i)?.weight))),
            key("kind", ANY, None, |s, i| Some(Slot::Tag(&mut target(s, i)?.target))),
            key("lo", UNIT, None, |s, i| {
                variant!(target(s, i)?.target, AvailabilityTarget::Range { lo, .. } => F64(lo))
            }),
            key("hi", UNIT, None, |s, i| {
                variant!(target(s, i)?.target, AvailabilityTarget::Range { hi, .. } => F64(hi))
            }),
            key("min", BELOW_ONE, None, |s, i| {
                variant!(target(s, i)?.target, AvailabilityTarget::Threshold { min } => F64(min))
            }),
        ],
    },
    Section {
        name: "adversary",
        count: |s| usize::from(s.adversary.is_some()),
        open: |s| {
            s.adversary = Some(AdversarySpec { flooder_fraction: 0.0, cushion: 0.0, probes: 0 });
        },
        keys: &[
            key("flooder_fraction", UNIT, None, |s, _| {
                Some(Slot::F64(&mut s.adversary.as_mut()?.flooder_fraction))
            }),
            key("cushion", NON_NEGATIVE, Some("0.0"), |s, _| {
                Some(Slot::F64(&mut s.adversary.as_mut()?.cushion))
            }),
            key("probes", POSITIVE_INT, Some("30"), |s, _| {
                Some(Slot::U32(&mut s.adversary.as_mut()?.probes))
            }),
        ],
        ..table("", &[])
    },
    Section {
        name: "serve",
        count: |s| usize::from(s.serve.is_some()),
        open: |s| s.serve = Some(ServeSpec::default()),
        keys: &[
            key("ops_per_day", POSITIVE, None, |s, _| {
                Some(Slot::OptF64(&mut s.serve.as_mut()?.ops_per_day))
            }),
            key("pace", NON_NEGATIVE, Some("0.0"), |s, _| {
                Some(Slot::F64(&mut s.serve.as_mut()?.pace))
            }),
            key("lag_budget_ms", ANY, Some("2000"), |s, _| {
                Some(Slot::U64(&mut s.serve.as_mut()?.lag_budget_ms))
            }),
        ],
        ..table("", &[])
    },
    Section {
        // All-defaults report settings render as nothing: old spec files
        // stay canonical and the section only appears when it matters.
        count: |s| usize::from(s.report != ReportSpec::default()),
        ..table("report", &[key("estimator_samples", ANY, Some("512"), |s, _| {
            Some(Slot::U64(&mut s.report.estimator_samples))
        })])
    },
];

/// The spec the parser starts from: every choice at some variant, no
/// target, no optional section. Every field a parse leaves in the result
/// has been written by its row.
pub(crate) fn placeholder() -> ScenarioSpec {
    ScenarioSpec {
        name: String::new(),
        seed: 0,
        duration_mins: 0,
        warmup_mins: 0,
        health_every_mins: 0,
        churn: ChurnSpec::TraceFile { path: String::new() },
        predicate: PredicateChoice::Random { expected_degree: 0.0 },
        oracle: OracleChoice::Exact,
        maintenance: MaintenanceSpec {
            mode: MaintenanceModeSpec::Converged { rebuild_every_mins: 0 },
            engine: MaintenanceEngine::Serial,
        },
        workload: WorkloadSpec {
            ops_per_hour: 0.0,
            anycast_fraction: 0.0,
            policy: ForwardPolicy::Greedy,
            scope: SliverScope::Both,
            ttl: 0,
            initiators: BandSpec::Any,
            multicast: MulticastStrategy::Flood,
            targets: Vec::new(),
        },
        adversary: None,
        serve: None,
        report: ReportSpec::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_spec;

    /// A valid spec with every section present once, all else default.
    fn base() -> ScenarioSpec {
        parse_spec(
            "name = \"walk\"\n[churn]\nmodel = \"overnet\"\nhosts = 9\ndays = 1\n\
             [workload]\nops_per_hour = 1.0\n[[target]]\nkind = \"threshold\"\nmin = 0.5\n\
             [adversary]\nflooder_fraction = 0.5\n[serve]\n[report]\n",
        )
        .expect("the base spec parses")
    }

    /// Some text `slot` reads within `bound`.
    fn sample(bound: &Bound, slot: &Slot<'_>) -> String {
        match (*bound, slot) {
            (Bound::Int(min, _), _) => min.to_string(),
            (Bound::Num { lo, hi, .. }, _) if hi.is_finite() => format!("{:?}", (lo + hi) / 2.0),
            (Bound::Num { lo, .. }, _) => format!("{:?}", lo + 1.0),
            (Bound::Any, Slot::Str(_)) => "\"x\"".into(),
            (Bound::Any, _) => "0".into(),
        }
    }

    /// Every combination of choices `SECTIONS[index]` allows, each as a
    /// full spec whose other sections are [`base`]'s.
    fn worlds(index: usize) -> Vec<ScenarioSpec> {
        let section = &SECTIONS[index];
        let mut done = Vec::new();
        let mut open = vec![(base(), 0)];
        while let Some((mut spec, row)) = open.pop() {
            let Some(key) = section.keys.get(row) else {
                done.push(spec);
                continue;
            };
            let names = match (key.at)(&mut spec, 0) {
                None => Vec::new(),
                Some(Slot::Tag(choice)) => choice.names().to_vec(),
                Some(mut slot) => {
                    // Not the default: `[report]` renders only off its
                    // defaults, and a deleted line should change something.
                    let text = sample(&key.bound, &slot);
                    slot.read(&text, &key.bound).unwrap_or_else(|e| panic!("{} {e}", key.name));
                    Vec::new()
                }
            };
            for name in &names {
                let mut chosen = spec.clone();
                let Some(Slot::Tag(choice)) = (key.at)(&mut chosen, 0) else { unreachable!() };
                assert!(choice.select(name), "{name}");
                open.push((chosen, row + 1));
            }
            if names.is_empty() {
                open.push((spec, row + 1));
            }
        }
        done
    }

    /// The 0-based line of `key` in the first instance of `section` in
    /// rendered `lines`, and the line the section's keys start at.
    fn locate(lines: &[String], section: &Section, key: &str) -> (Option<usize>, usize) {
        let start = match section.name {
            "" => 0,
            _ => lines.iter().position(|l| *l == section.header()).expect("section rendered") + 1,
        };
        let body = lines[start..].iter().take_while(|l| !l.starts_with('['));
        let prefix = format!("{key} = ");
        (body.into_iter().position(|l| l.starts_with(&prefix)).map(|at| start + at), start)
    }

    fn parsed(lines: &[String]) -> Result<ScenarioSpec, String> {
        parse_spec(&(lines.join("\n") + "\n")).map_err(|e| e.to_string())
    }

    /// `lines` with line `at` replaced by `with` (none: deleted), parsed.
    fn edited(lines: &[String], at: usize, with: Option<String>) -> Result<ScenarioSpec, String> {
        let mut lines = lines.to_vec();
        lines.splice(at..=at, with);
        parsed(&lines)
    }

    /// A code span in the docs that opens with a `[section]` header names
    /// a section of the table, and the key after it, if any, one of that
    /// section's keys. Spans whose header is no lowercase name (`[HS |
    /// VS]`, a Cargo table) are not spec text.
    #[test]
    fn docs_name_only_spec_keys() {
        for (doc, text) in crate::DOCS {
            let prose: Vec<&str> = text.lines().filter(|l| !l.trim_start().starts_with("```")).collect();
            let prose = prose.join("\n");
            let pieces: Vec<&str> = prose.split('`').collect();
            assert!(pieces.len() % 2 == 1, "{doc}: a code span is not closed");
            for span in pieces.iter().skip(1).step_by(2) {
                let Some(rest) = span.strip_prefix('[') else { continue };
                let repeats = rest.starts_with('[');
                let Some((name, rest)) = rest.trim_start_matches('[').split_once(']') else { continue };
                if name.is_empty() || !name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
                    continue;
                }
                let key = rest.trim_start_matches(']').split([' ', '\n', '=']).find(|w| !w.is_empty());
                let section = SECTIONS.iter().find(|s| s.name == name && s.repeats == repeats);
                let Some(section) = section else { panic!("{doc}: `{span}` names no section") };
                if let Some(key) = key {
                    assert!(section.keys.iter().any(|k| k.name == key), "{doc}: `{span}` names no key of {}", section.header());
                }
            }
        }
    }

    #[test]
    fn every_key_is_declared_once_and_every_choice_list_is_closed() {
        let mut seen = Vec::new();
        for section in SECTIONS {
            assert_eq!(SECTIONS.iter().filter(|s| s.name == section.name).count(), 1);
            for key in section.keys {
                assert!(!seen.contains(&(section.name, key.name)), "{} twice", key.name);
                seen.push((section.name, key.name));
            }
        }
        assert_eq!(seen.len(), 56);

        let mut choices = 0;
        for (index, section) in SECTIONS.iter().enumerate() {
            for mut world in worlds(index) {
                for key in section.keys {
                    let Some(Slot::Tag(choice)) = (key.at)(&mut world, 0) else { continue };
                    let names = choice.names();
                    assert!(names.contains(&choice.tag()), "{}", key.name);
                    for (i, name) in names.iter().enumerate() {
                        assert!(!names[..i].contains(name), "{name} twice");
                        assert!(choice.select(name) && choice.tag() == *name, "{name}");
                        choices += 1;
                    }
                    assert!(!choice.select("no-such-name") && names.last() == Some(&choice.tag()));
                }
            }
        }
        assert!(choices >= 31, "{choices}");
    }

    #[test]
    fn defaults_read_into_their_own_slots_within_their_own_bounds() {
        let mut live = Vec::new();
        for (index, section) in SECTIONS.iter().enumerate() {
            for world in worlds(index) {
                for key in section.keys {
                    // On a copy: reading a choice's default changes the world.
                    let mut world = world.clone();
                    let Some(mut slot) = (key.at)(&mut world, 0) else { continue };
                    live.push((section.name, key.name));
                    // A bound of the other kind would never be checked.
                    let fits = matches!(
                        (&slot, key.bound),
                        (_, Bound::Any)
                            | (Slot::U64(_) | Slot::U32(_) | Slot::Usize(_), Bound::Int(..))
                            | (Slot::Auto(_) | Slot::Duration(..), Bound::Int(..))
                            | (Slot::F64(_) | Slot::OptF64(_), Bound::Num { .. })
                    );
                    assert!(fits, "{}: {:?} cannot bound its slot", key.name, key.bound);
                    let Some(default) = key.default else { continue };
                    slot.read(default, &key.bound)
                        .unwrap_or_else(|e| panic!("default of {:?} {e}", key.name));
                    let canonical = slot.text().expect("a default is a value");
                    assert_eq!(canonical, default, "{}: the renderer would rewrite it", key.name);
                }
            }
        }
        for section in SECTIONS {
            for key in section.keys {
                assert!(live.contains(&(section.name, key.name)), "{} is never live", key.name);
            }
        }

        let default_of = |section: &str, name: &str| -> f64 {
            let section = SECTIONS.iter().find(|s| s.name == section).expect("section");
            let key = section.keys.iter().find(|k| k.name == name).expect("key");
            key.default.expect("has a default").parse().expect("a number")
        };
        assert_eq!(default_of("predicate", "c1"), avmem::predicate::DEFAULT_C1);
        assert_eq!(default_of("predicate", "c2"), avmem::predicate::DEFAULT_C2);
        // The `Default` impls the CLI and the renderer use say the same.
        assert_eq!(base().serve, Some(ServeSpec::default()));
        assert_eq!(base().report, ReportSpec::default());
    }

    /// Per row, in every combination of its section's choices: absent ⇒
    /// its default (or "missing key"); a step outside a closed end and
    /// the value of an open end ⇒ an error at that line naming the key,
    /// the closed end itself accepted; present without a field ⇒ the "no
    /// meaning" error naming the nearest choice. A future row is covered
    /// by being in the table.
    #[test]
    fn every_row_defaults_bounds_and_refuses_under_every_choice() {
        for (index, section) in SECTIONS.iter().enumerate() {
            for mut world in worlds(index) {
                let text = world.render();
                assert_eq!(parse_spec(&text).as_ref(), Ok(&world), "{text}");
                let lines: Vec<String> = text.lines().map(String::from).collect();
                let mut choice = None;
                for key in section.keys {
                    let name = key.name;
                    let (at, start) = locate(&lines, section, name);
                    let Some(slot) = (key.at)(&mut world, 0) else {
                        assert_eq!(at, None, "{name} rendered without a field");
                        let mut lines = lines.clone();
                        lines.insert(start, format!("{name} = 1"));
                        let (by, value) = choice.expect("a dead row follows a choice");
                        let refusal = format!("has no meaning with {by} = \"{value}\"");
                        let refusal = format!("line {}: key {name:?} {refusal}", start + 1);
                        assert_eq!(parsed(&lines), Err(refusal));
                        continue;
                    };
                    if let Slot::Tag(chosen) = &slot {
                        choice = Some((name, chosen.tag()));
                    }
                    let Some(at) = at else {
                        assert!(matches!(slot, Slot::OptF64(None)), "{name} not rendered");
                        continue;
                    };
                    let here = format!("line {}: key {name:?} ", at + 1);

                    // Without its line a choice falls to its default, and
                    // the rows after it are another world's.
                    let is_choice = matches!(slot, Slot::Tag(_));
                    match (edited(&lines, at, None), key.default) {
                        (_, Some(_)) if is_choice && slot.text().as_deref() != key.default => {}
                        (Ok(mut spec), Some(default)) => {
                            let slot = (key.at)(&mut spec, 0).expect("still live");
                            assert_eq!(slot.text().as_deref(), Some(default), "{name}");
                        }
                        (Ok(mut spec), None) => {
                            let slot = (key.at)(&mut spec, 0).expect("still live");
                            assert_eq!(slot.text(), None, "{name} is optional, so left out");
                        }
                        (Err(err), default) => {
                            assert_eq!(default, None, "{name}: {err}");
                            let missing = format!("{} is missing key {name:?}", section.header());
                            assert!(err.ends_with(&missing), "{err}");
                            assert!(err.starts_with(&format!("line {}:", start.max(1))), "{err}");
                        }
                    }

                    let refused = |value: String| {
                        let err = edited(&lines, at, Some(format!("{name} = {value}")))
                            .expect_err(&format!("{name} = {value} must be refused"));
                        assert!(err.starts_with(&here), "{name} = {value}: {err}");
                    };
                    let accepted = |value: String| {
                        let parsed = edited(&lines, at, Some(format!("{name} = {value}")));
                        assert!(parsed.is_ok(), "{name} = {value}: {parsed:?}");
                    };
                    // An integer's range is its bound within its slot's width.
                    let widest = match slot {
                        Slot::U64(_) => Some(u64::MAX),
                        Slot::U32(_) => Some(u64::from(u32::MAX)),
                        Slot::Usize(_) | Slot::Auto(_) => {
                            Some(u64::try_from(usize::MAX).unwrap_or(u64::MAX))
                        }
                        Slot::Duration(_, unit) => Some(u64::MAX / unit.millis),
                        _ => None,
                    };
                    match key.bound {
                        Bound::Any | Bound::Int(..) => {
                            let Some(widest) = widest else { continue };
                            let (min, max) = match key.bound {
                                Bound::Int(min, max) => (min, max.min(widest)),
                                _ => (0, widest),
                            };
                            accepted(min.to_string());
                            accepted(max.to_string());
                            if let Some(below) = min.checked_sub(1) {
                                refused(below.to_string());
                            }
                            if let Some(above) = max.checked_add(1) {
                                refused(above.to_string());
                            }
                        }
                        Bound::Num { lo, lo_open, hi, hi_open } => {
                            for (end, open, outside) in
                                [(lo, lo_open, lo.next_down()), (hi, hi_open, hi.next_up())]
                            {
                                if !end.is_finite() {
                                    refused("inf".into());
                                } else if open {
                                    refused(format!("{end:?}"));
                                } else {
                                    accepted(format!("{end:?}"));
                                    refused(format!("{outside:?}"));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
