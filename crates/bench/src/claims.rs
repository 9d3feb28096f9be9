//! The paper's claims as rows with a band and a verdict.
//!
//! Every experiment's result has a `claims(&self)` method that turns what
//! the paper (or an ablation's conclusion) says about it into [`Claim`]
//! rows: the figure, the words, the statistic that reads them, the
//! measured value and the inclusive band it must fall in. The bands are
//! the paper's, stated for its 1 442 hosts, so `figures` prints and
//! checks them at paper scale only. One set of rules turns words into
//! bands, and every row follows it:
//!
//! - An upper bound on a CDF ("≤ ~300 ms", "spam ≤ ~8 %", "within ~1
//!   hop") is checked at p90, a lower bound ("reliability > 90 %") at
//!   p10, and "≈ x" of a distribution at p50. A bound on every bucket of
//!   a series ("below ~0.10 across all attacker availabilities") is
//!   checked at the series' maximum.
//! - "≈ x" means x ± 0.10 for a fraction (or a difference of two) and
//!   x ± 10 % for any other quantity.
//! - An ordering claim ("HS+VS best", "AVMEM beats the random overlay",
//!   "degrades toward low-availability targets", "increasing") is a
//!   margin, the smallest over the pairs it orders, with band ≥ 0.
//! - "Uncorrelated" and "~0" correlations are `|r| ≤ 0.3`, whatever the
//!   number of points: the claim is about the size of the effect, and a
//!   significance test would accept `|r|` up to 0.63 over ten deciles.
//! - "Largely uniform" is a coefficient of variation ≈ 0, a spread as a
//!   fraction of the mean.
//! - An O(f) claim is an upper bound: at the constant the rule itself
//!   sets where it sets one, else on the fitted exponent of f's argument.
//!
//! A row the reproduction is known to miss carries its measured cause as
//! `expected_miss`; a band is never widened to make a row hold. Such a
//! row that holds after all is `stale`, and a row that measured nothing
//! is a `miss`.

use std::fmt;

/// An inclusive band: a measured value holds when `lo ≤ value ≤ hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower edge, `-∞` for an upper bound.
    pub lo: f64,
    /// Upper edge, `+∞` for a lower bound.
    pub hi: f64,
}

impl Band {
    /// The margin of an ordering claim: at least 0.
    pub const ORDERED: Band = Band::at_least(0.0);
    /// An uncorrelated pair: `|r| ≤ 0.3`.
    pub const UNCORRELATED: Band = Band { lo: -0.3, hi: 0.3 };

    /// At least `lo`.
    pub const fn at_least(lo: f64) -> Band {
        Band { lo, hi: f64::INFINITY }
    }

    /// At most `hi`.
    pub const fn at_most(hi: f64) -> Band {
        Band { lo: f64::NEG_INFINITY, hi }
    }

    /// "≈ x" for a fraction: `x ± 0.10`.
    pub fn about(x: f64) -> Band {
        Band { lo: x - 0.1, hi: x + 0.1 }
    }

    /// "≈ x" for any other quantity: `x ± 10 %`.
    pub fn near(x: f64) -> Band {
        Band { lo: x - 0.1 * x.abs(), hi: x + 0.1 * x.abs() }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (false, _) => write!(f, "≤ {}", number(self.hi)),
            (_, false) => write!(f, "≥ {}", number(self.lo)),
            _ => write!(f, "[{}, {}]", number(self.lo), number(self.hi)),
        }
    }
}

/// `value` to three decimals below 10, one below 1 000 and none above.
fn number(value: f64) -> String {
    let digits = [(10.0, 3), (1000.0, 1)].iter().find(|(below, _)| value.abs() < *below);
    format!("{value:.*}", digits.map_or(0, |&(_, digits)| digits))
}

/// `a - b`, `None` if either was not measured.
pub fn gap(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    a.zip(b).map(|(a, b)| a - b)
}

/// The smallest of `values`, `None` if there are none or one was not
/// measured.
pub fn least(values: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    values.into_iter().try_fold(f64::INFINITY, |least, v| Some(least.min(v?))).filter(|v| v.is_finite())
}

/// The largest of `values`, `None` as for [`least`].
pub fn most(values: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    least(values.into_iter().map(|v| v.map(|v| -v))).map(|v| -v)
}

/// An experiment's result: a table to print, and the claims it reads.
pub trait Experiment: fmt::Display {
    /// What the paper (or the ablation's conclusion) says about the
    /// result, one row a claim.
    fn claims(&self) -> Vec<Claim>;
}

/// What a claim's measurement says about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// In the band.
    Pass,
    /// Outside the band, or nothing measured, with no named cause.
    Miss,
    /// Outside the band for the cause the row names.
    ExpectedMiss,
    /// Named as an expected miss, but in the band.
    Stale,
}

impl Verdict {
    /// Whether the verdict fails a run: a miss, or a stale expectation.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Miss | Verdict::Stale)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = ["pass", "MISS", "expected miss", "STALE"][*self as usize];
        f.pad(name)
    }
}

/// One claim of the paper (or of an ablation's conclusion), measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Where the claim is made: "Fig 7", "Thm 2", "§3.1", an ablation.
    pub figure: &'static str,
    /// The claim in the paper's words.
    pub paper: &'static str,
    /// The statistic that reads it.
    pub statistic: String,
    /// The statistic's value, `None` when nothing was measured.
    pub measured: Option<f64>,
    /// The inclusive band the value must fall in.
    pub band: Band,
    /// Why the reproduction is known to miss the band, if it is.
    pub expected_miss: Option<&'static str>,
}

impl Claim {
    /// A claim with no known miss.
    pub fn new(
        figure: &'static str,
        paper: &'static str,
        statistic: impl Into<String>,
        measured: Option<f64>,
        band: Band,
    ) -> Claim {
        let statistic = statistic.into();
        Claim { figure, paper, statistic, measured, band, expected_miss: None }
    }

    /// The claim, known to miss for `cause`.
    pub fn expected_miss(self, cause: &'static str) -> Claim {
        Claim { expected_miss: Some(cause), ..self }
    }

    /// The verdict; a `None` measurement is a miss whatever the row
    /// expects.
    pub fn verdict(&self) -> Verdict {
        let Some(value) = self.measured else { return Verdict::Miss };
        let holds = self.band.lo <= value && value <= self.band.hi;
        match (holds, self.expected_miss.is_some()) {
            (true, false) => Verdict::Pass,
            (false, false) => Verdict::Miss,
            (false, true) => Verdict::ExpectedMiss,
            (true, true) => Verdict::Stale,
        }
    }
}

/// The row on one line; the cause of an expected miss is the caller's to
/// print.
impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let measured = self.measured.map_or_else(|| "-".to_owned(), number);
        let (verdict, figure, paper) = (self.verdict(), self.figure, self.paper);
        let (statistic, band) = (&self.statistic, self.band);
        write!(f, "  claim {verdict:<13}  {figure} \"{paper}\": {statistic} = {measured}, band {band}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(measured: Option<f64>, band: Band, cause: Option<&'static str>) -> Verdict {
        Claim { expected_miss: cause, ..Claim::new("Fig 0", "words", "x", measured, band) }.verdict()
    }

    #[test]
    fn verdicts_follow_the_band_and_the_named_cause() {
        let (band, known) = (Band { lo: 0.2, hi: 0.4 }, Some("known"));
        assert_eq!(verdict(Some(0.3), band, None), Verdict::Pass);
        assert_eq!(verdict(Some(0.5), band, None), Verdict::Miss);
        assert_eq!(verdict(Some(0.5), band, known), Verdict::ExpectedMiss);
        assert_eq!(verdict(Some(0.3), band, known), Verdict::Stale);
        let all = [Verdict::Pass, Verdict::Miss, Verdict::ExpectedMiss, Verdict::Stale];
        assert_eq!(all.map(Verdict::fails), [false, true, false, true]);
    }

    #[test]
    fn nothing_measured_is_a_miss() {
        assert_eq!(verdict(None, Band::ORDERED, None), Verdict::Miss);
        assert_eq!(verdict(None, Band::ORDERED, Some("known")), Verdict::Miss);
        assert_eq!(verdict(Some(f64::NAN), Band::ORDERED, None), Verdict::Miss);
    }

    #[test]
    fn band_edges_are_inclusive() {
        let (band, r) = (Band { lo: 0.2, hi: 0.4 }, Band::UNCORRELATED);
        let edges = [(0.2, band), (0.4, band), (-0.3, r), (0.3, r), (0.0, Band::ORDERED)];
        for (value, band) in edges.into_iter().chain([(300.0, Band::at_most(300.0))]) {
            assert_eq!(verdict(Some(value), band, None), Verdict::Pass, "{value} in {band}");
        }
    }

    #[test]
    fn margins_and_rows_read_as_printed() {
        assert_eq!((gap(Some(1.0), Some(0.25)), gap(None, Some(0.25))), (Some(0.75), None));
        let none: [Option<f64>; 0] = [];
        assert_eq!([least([Some(2.0), Some(1.0)]), least([Some(1.0), None]), least(none)], [Some(1.0), None, None]);
        assert_eq!(most([Some(1.0), Some(3.0)]), Some(3.0));
        let bands = [Band::about(1.0), Band::near(20.0), Band::at_most(300.0), Band::ORDERED];
        assert_eq!(bands.map(|b| b.to_string()), ["[0.900, 1.100]", "[18.0, 22.0]", "≤ 300.0", "≥ 0.000"]);
        let row = Claim::new("Fig 0", "words", "x", Some(0.86), Band::about(1.0)).expected_miss("cause");
        let shown = "  claim expected miss  Fig 0 \"words\": x = 0.860, band [0.900, 1.100]";
        assert_eq!(row.to_string(), shown);
    }
}
