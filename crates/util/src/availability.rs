//! Availability values.
//!
//! Availability in the paper is "fraction uptime" — a real number in
//! `[0, 1]` reported by the availability monitoring service. [`Availability`]
//! is a validated newtype so that predicate code can rely on the range
//! invariant instead of re-checking it everywhere.

use core::fmt;

use serde::{Deserialize, Serialize};

/// A node availability: fraction of time the node is up, in `[0, 1]`.
///
/// The type upholds the invariant that the wrapped value is a finite float
/// inside the unit interval, which lets predicate evaluation (Eq. 1) and
/// range queries (`[b, b+δ] ⊆ [0,1]`) avoid defensive checks.
///
/// Laid out exactly as the `f64` it wraps, so a column of availabilities
/// is a column of `f64`s (membership lists share one allocation between
/// it and their ids).
///
/// # Examples
///
/// ```
/// use avmem_util::Availability;
///
/// let a = Availability::new(0.25)?;
/// let b = Availability::new(0.75)?;
/// assert!(a < b);
/// assert_eq!(a.distance(b), 0.5);
/// # Ok::<(), avmem_util::AvailabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
#[repr(transparent)]
pub struct Availability(f64);

/// Error returned when constructing an [`Availability`] outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityError {
    value: f64,
}

impl fmt::Display for AvailabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "availability must be a finite value in [0, 1], got {}",
            self.value
        )
    }
}

impl std::error::Error for AvailabilityError {}

impl Availability {
    /// The lowest possible availability (never up).
    pub const ZERO: Availability = Availability(0.0);
    /// The highest possible availability (always up).
    pub const ONE: Availability = Availability(1.0);

    /// Creates an availability, validating that `value ∈ [0, 1]` and is
    /// finite.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError`] if `value` is NaN, infinite, negative
    /// or greater than one.
    pub fn new(value: f64) -> Result<Self, AvailabilityError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Availability(value))
        } else {
            Err(AvailabilityError { value })
        }
    }

    /// Creates an availability, clamping out-of-range finite values into
    /// `[0, 1]`. NaN becomes `0`.
    ///
    /// Useful when deriving availabilities from noisy estimators (e.g. the
    /// monitoring service adding error to a true value).
    #[inline]
    pub fn saturating(value: f64) -> Self {
        if value.is_nan() {
            Availability(0.0)
        } else {
            Availability(value.clamp(0.0, 1.0))
        }
    }

    /// Returns the wrapped fraction-uptime value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Absolute distance in availability space, `|av(x) − av(y)|`.
    ///
    /// This is the metric the horizontal-sliver band `±ε` and the
    /// simulated-annealing forwarding rule use.
    pub fn distance(self, other: Availability) -> f64 {
        (self.0 - other.0).abs()
    }
}

impl Default for Availability {
    fn default() -> Self {
        Availability::ZERO
    }
}

impl fmt::Display for Availability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl TryFrom<f64> for Availability {
    type Error = AvailabilityError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Availability::new(value)
    }
}

impl From<Availability> for f64 {
    fn from(av: Availability) -> Self {
        av.0
    }
}

impl Eq for Availability {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Availability {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: the invariant forbids NaN.
        self.0.partial_cmp(&other.0).expect("availability is never NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_unit_interval() {
        assert!(Availability::new(0.0).is_ok());
        assert!(Availability::new(1.0).is_ok());
        assert!(Availability::new(0.5).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Availability::new(-0.01).is_err());
        assert!(Availability::new(1.01).is_err());
        assert!(Availability::new(f64::NAN).is_err());
        assert!(Availability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Availability::saturating(-2.0), Availability::ZERO);
        assert_eq!(Availability::saturating(7.0), Availability::ONE);
        assert_eq!(Availability::saturating(f64::NAN), Availability::ZERO);
        assert_eq!(Availability::saturating(0.4).value(), 0.4);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Availability::new(0.2).unwrap();
        let b = Availability::new(0.9).unwrap();
        assert!((a.distance(b) - 0.7).abs() < 1e-12);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn total_order_matches_value_order() {
        let mut avs = vec![
            Availability::new(0.9).unwrap(),
            Availability::new(0.1).unwrap(),
            Availability::new(0.5).unwrap(),
        ];
        avs.sort();
        let values: Vec<f64> = avs.into_iter().map(Availability::value).collect();
        assert_eq!(values, vec![0.1, 0.5, 0.9]);
    }

    #[test]
    fn error_message_names_the_offender() {
        let err = Availability::new(1.5).unwrap_err();
        assert!(err.to_string().contains("1.5"));
    }
}
