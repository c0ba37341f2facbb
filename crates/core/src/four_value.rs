//! The paper's four-value propagation probability tuple.
//!
//! For an on-path signal `U` during EPP computation the paper tracks
//! four exhaustive, mutually exclusive cases:
//!
//! - `Pa(U)` — the erroneous value reached `U` with an **even** number
//!   of inversions (U carries `a`),
//! - `Pā(U)` — it reached `U` with an **odd** number of inversions
//!   (`ā`),
//! - `P0(U)` / `P1(U)` — the error was blocked and `U` holds a correct
//!   constant 0 / 1.
//!
//! For an on-path signal the four sum to 1; for an off-path signal only
//! `P0 + P1 = 1` (its value is described by the signal probability).

use std::fmt;
use std::ops::{Add, Mul};

/// Tolerance used by invariant checks: probabilities are accumulated
/// products of f64s, so exact-1 sums are not achievable.
const SUM_TOLERANCE: f64 = 1e-9;

/// A four-value propagation probability `(Pa, Pā, P0, P1)`.
///
/// # Examples
///
/// ```
/// use ser_epp::FourValue;
///
/// // An off-path signal with signal probability 0.3.
/// let off = FourValue::from_signal_probability(0.3);
/// assert_eq!(off.p1(), 0.3);
/// assert_eq!(off.p_arrival(), 0.0);
///
/// // The error site itself: carries `a` with certainty.
/// let site = FourValue::error_site();
/// assert_eq!(site.pa(), 1.0);
/// assert_eq!(site.p_arrival(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourValue {
    pa: f64,
    pa_bar: f64,
    p0: f64,
    p1: f64,
}

impl FourValue {
    /// Builds a tuple from the four probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any component is outside `[0, 1]` (beyond tolerance) or
    /// the components do not sum to 1 (beyond a `1e-9` tolerance).
    #[must_use]
    pub fn new(pa: f64, pa_bar: f64, p0: f64, p1: f64) -> Self {
        let v = FourValue { pa, pa_bar, p0, p1 };
        v.check();
        v
    }

    /// Builds a tuple without the sum check, clamping each component
    /// into `[0, 1]` and normalizing tiny negative dust. Used where
    /// rounding can drift by a few ULPs: the propagation rules' products
    /// and the exact oracles' weighted sums.
    #[must_use]
    pub fn new_clamped(pa: f64, pa_bar: f64, p0: f64, p1: f64) -> Self {
        let clamp = |x: f64| x.clamp(0.0, 1.0);
        let v = FourValue {
            pa: clamp(pa),
            pa_bar: clamp(pa_bar),
            p0: clamp(p0),
            p1: clamp(p1),
        };
        debug_assert!(
            (v.sum() - 1.0).abs() < 1e-6,
            "four-value drifted badly: {v:?} sums to {}",
            v.sum()
        );
        v
    }

    /// The tuple as a 4-wide lane array `[Pa, Pā, P0, P1]` — the shape
    /// the fused rule cores compute in and the sweep planes store.
    /// Bit-exact.
    #[inline]
    #[must_use]
    pub(crate) const fn lanes(self) -> [f64; 4] {
        [self.pa, self.pa_bar, self.p0, self.p1]
    }

    /// Inverse of [`lanes`](Self::lanes): no checks, no clamping,
    /// bit-exact.
    #[inline]
    #[must_use]
    pub(crate) const fn from_lanes([pa, pa_bar, p0, p1]: [f64; 4]) -> Self {
        FourValue { pa, pa_bar, p0, p1 }
    }

    fn check(&self) {
        for (name, x) in [
            ("pa", self.pa),
            ("pa_bar", self.pa_bar),
            ("p0", self.p0),
            ("p1", self.p1),
        ] {
            assert!(
                x.is_finite() && (-SUM_TOLERANCE..=1.0 + SUM_TOLERANCE).contains(&x),
                "{name} = {x} outside [0,1]"
            );
        }
        assert!(
            (self.sum() - 1.0).abs() <= SUM_TOLERANCE,
            "components sum to {}, expected 1",
            self.sum()
        );
    }

    /// The error site's own value: `P(a) = 1` (the SEU forces the
    /// erroneous value with certainty, zero inversions so far).
    #[must_use]
    pub fn error_site() -> Self {
        FourValue {
            pa: 1.0,
            pa_bar: 0.0,
            p0: 0.0,
            p1: 0.0,
        }
    }

    /// An off-path signal: never carries the error; it is 1 with the
    /// given signal probability.
    ///
    /// # Panics
    ///
    /// Panics if `sp` is outside `[0, 1]` or not finite.
    #[must_use]
    pub fn from_signal_probability(sp: f64) -> Self {
        assert!(
            sp.is_finite() && (0.0..=1.0).contains(&sp),
            "signal probability {sp} outside [0,1]"
        );
        FourValue::from_lanes(FourValue::off_path_lanes(sp))
    }

    /// The lanes of [`from_signal_probability`](Self::from_signal_probability)
    /// without its range check: `[0, 0, 1 − sp, sp]`, bit for bit. For
    /// callers that checked `sp` once already (the sweep kernel's
    /// position-plane restore).
    #[inline]
    #[must_use]
    pub(crate) fn off_path_lanes(sp: f64) -> [f64; 4] {
        [0.0, 0.0, 1.0 - sp, sp]
    }

    /// Probability the signal carries the erroneous value `a`
    /// (even inversion parity).
    #[must_use]
    pub fn pa(&self) -> f64 {
        self.pa
    }

    /// Probability the signal carries `ā` (odd inversion parity).
    #[must_use]
    pub fn pa_bar(&self) -> f64 {
        self.pa_bar
    }

    /// Probability the error is blocked and the signal is 0.
    #[must_use]
    pub fn p0(&self) -> f64 {
        self.p0
    }

    /// Probability the error is blocked and the signal is 1.
    #[must_use]
    pub fn p1(&self) -> f64 {
        self.p1
    }

    /// `Pa + Pā`: the probability the erroneous value (either polarity)
    /// is present on this signal — the per-output quantity inside the
    /// paper's `P_sensitized` product.
    #[must_use]
    pub fn p_arrival(&self) -> f64 {
        self.pa + self.pa_bar
    }

    /// Sum of all four components (1 for on-path tuples).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.pa + self.pa_bar + self.p0 + self.p1
    }

    /// The tuple seen through an inverter (the paper's NOT rule):
    /// swaps `Pa ↔ Pā` and `P0 ↔ P1`.
    #[must_use]
    pub fn invert(&self) -> Self {
        FourValue {
            pa: self.pa_bar,
            pa_bar: self.pa,
            p0: self.p1,
            p1: self.p0,
        }
    }

    /// Largest absolute component difference against `other`.
    #[must_use]
    pub fn max_abs_diff(&self, other: &FourValue) -> f64 {
        (self.pa - other.pa)
            .abs()
            .max((self.pa_bar - other.pa_bar).abs())
            .max((self.p0 - other.p0).abs())
            .max((self.p1 - other.p1).abs())
    }
}

impl fmt::Display for FourValue {
    /// Renders in the paper's notation, omitting zero terms:
    /// `0.042(a) + 0.392(ā) + 0.168(0) + 0.398(1)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut terms: Vec<String> = Vec::with_capacity(4);
        if self.pa != 0.0 {
            terms.push(format!("{:.3}(a)", self.pa));
        }
        if self.pa_bar != 0.0 {
            terms.push(format!("{:.3}(ā)", self.pa_bar));
        }
        if self.p0 != 0.0 {
            terms.push(format!("{:.3}(0)", self.p0));
        }
        if self.p1 != 0.0 {
            terms.push(format!("{:.3}(1)", self.p1));
        }
        if terms.is_empty() {
            return f.write_str("0");
        }
        f.write_str(&terms.join(" + "))
    }
}

/// Component-wise sum (used when accumulating expectations; the result
/// is generally *not* a probability tuple until rescaled).
impl Add for FourValue {
    type Output = FourValue;

    fn add(self, rhs: FourValue) -> FourValue {
        FourValue {
            pa: self.pa + rhs.pa,
            pa_bar: self.pa_bar + rhs.pa_bar,
            p0: self.p0 + rhs.p0,
            p1: self.p1 + rhs.p1,
        }
    }
}

/// Scalar scaling (see [`Add`]).
impl Mul<f64> for FourValue {
    type Output = FourValue;

    fn mul(self, rhs: f64) -> FourValue {
        FourValue {
            pa: self.pa * rhs,
            pa_bar: self.pa_bar * rhs,
            p0: self.p0 * rhs,
            p1: self.p1 * rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_getters() {
        let v = FourValue::new(0.1, 0.2, 0.3, 0.4);
        assert_eq!(v.pa(), 0.1);
        assert_eq!(v.pa_bar(), 0.2);
        assert_eq!(v.p0(), 0.3);
        assert_eq!(v.p1(), 0.4);
        assert!((v.p_arrival() - 0.3).abs() < 1e-15);
        assert!((v.sum() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn rejects_bad_sum() {
        let _ = FourValue::new(0.5, 0.5, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_negative() {
        let _ = FourValue::new(-0.5, 0.5, 0.5, 0.5);
    }

    #[test]
    fn error_site_is_pure_a() {
        let v = FourValue::error_site();
        assert_eq!(v.pa(), 1.0);
        assert_eq!(v.p_arrival(), 1.0);
        assert_eq!(v.p0(), 0.0);
    }

    #[test]
    fn off_path_from_sp() {
        let v = FourValue::from_signal_probability(0.7);
        assert_eq!(v.p1(), 0.7);
        assert!((v.p0() - 0.3).abs() < 1e-15);
        assert_eq!(v.p_arrival(), 0.0);
    }

    #[test]
    fn invert_swaps_pairs() {
        let v = FourValue::new(0.1, 0.2, 0.3, 0.4);
        let w = v.invert();
        assert_eq!(w.pa(), 0.2);
        assert_eq!(w.pa_bar(), 0.1);
        assert_eq!(w.p0(), 0.4);
        assert_eq!(w.p1(), 0.3);
        // Involution.
        assert_eq!(w.invert(), v);
    }

    #[test]
    fn display_matches_paper_notation() {
        let v = FourValue::new(0.042, 0.392, 0.168, 0.398);
        assert_eq!(v.to_string(), "0.042(a) + 0.392(ā) + 0.168(0) + 0.398(1)");
        let site = FourValue::error_site();
        assert_eq!(site.to_string(), "1.000(a)");
    }

    #[test]
    fn arithmetic_for_expectations() {
        let a = FourValue::error_site() * 0.25;
        let b = FourValue::from_signal_probability(0.5) * 0.75;
        let mix = a + b;
        assert!((mix.pa() - 0.25).abs() < 1e-15);
        assert!((mix.p1() - 0.375).abs() < 1e-15);
        assert!((mix.sum() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_diff_is_a_metric_ish() {
        let a = FourValue::new(0.1, 0.2, 0.3, 0.4);
        let b = FourValue::new(0.4, 0.3, 0.2, 0.1);
        assert!((a.max_abs_diff(&b) - 0.3).abs() < 1e-15);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
