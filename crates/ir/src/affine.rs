use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::loop_nest::LoopId;

/// An affine function of loop index variables: `c0 + c1*i1 + c2*i2 + ...`.
///
/// Subscripts of array references in the paper's program class are affine functions of
/// the enclosing loop indices.  The representation is sparse: only loops with a non-zero
/// coefficient are stored, so an `AffineExpr` is independent of the depth of the nest it
/// is eventually used in.
///
/// # Example
///
/// ```
/// use srra_ir::{AffineExpr, LoopId};
///
/// // 2*i + j + 3
/// let e = AffineExpr::constant(3)
///     .with_term(LoopId::new(0), 2)
///     .with_term(LoopId::new(1), 1);
/// assert_eq!(e.coefficient(LoopId::new(0)), 2);
/// assert_eq!(e.eval(&[5, 7]), 2 * 5 + 7 + 3);
/// assert!(e.uses_loop(LoopId::new(1)));
/// assert!(!e.uses_loop(LoopId::new(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AffineExpr {
    /// Non-zero coefficients keyed by loop.
    terms: BTreeMap<LoopId, i64>,
    /// Constant offset.
    constant: i64,
}

impl AffineExpr {
    /// Creates the zero affine expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Creates a constant affine expression.
    pub fn constant(value: i64) -> Self {
        Self {
            terms: BTreeMap::new(),
            constant: value,
        }
    }

    /// Creates the expression consisting of a single loop index (coefficient one).
    pub fn index(loop_id: LoopId) -> Self {
        Self::zero().with_term(loop_id, 1)
    }

    /// Returns a copy of `self` with the coefficient of `loop_id` set to `coefficient`.
    ///
    /// A zero coefficient removes the term entirely, keeping the representation
    /// canonical so that structural equality matches semantic equality.
    #[must_use]
    pub fn with_term(mut self, loop_id: LoopId, coefficient: i64) -> Self {
        self.set_term(loop_id, coefficient);
        self
    }

    /// Returns a copy of `self` with the constant offset replaced by `constant`.
    #[must_use]
    pub fn with_constant(mut self, constant: i64) -> Self {
        self.constant = constant;
        self
    }

    /// Sets the coefficient of `loop_id` in place.
    pub fn set_term(&mut self, loop_id: LoopId, coefficient: i64) {
        if coefficient == 0 {
            self.terms.remove(&loop_id);
        } else {
            self.terms.insert(loop_id, coefficient);
        }
    }

    /// Returns the coefficient of `loop_id` (zero if absent).
    pub fn coefficient(&self, loop_id: LoopId) -> i64 {
        self.terms.get(&loop_id).copied().unwrap_or(0)
    }

    /// Returns the constant offset.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Returns `true` if the expression has no index terms at all.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` if the coefficient of `loop_id` is non-zero.
    pub fn uses_loop(&self, loop_id: LoopId) -> bool {
        self.terms.contains_key(&loop_id)
    }

    /// Iterates over `(loop, coefficient)` pairs with non-zero coefficients, in loop order.
    pub fn terms(&self) -> impl Iterator<Item = (LoopId, i64)> + '_ {
        self.terms.iter().map(|(l, c)| (*l, *c))
    }

    /// Returns the set of loops with a non-zero coefficient, in loop order.
    pub fn used_loops(&self) -> Vec<LoopId> {
        self.terms.keys().copied().collect()
    }

    /// Evaluates the expression at the given iteration point.
    ///
    /// `point[d]` is the value of the loop at depth `d`; loops beyond the end of `point`
    /// are treated as zero, which is convenient when evaluating partial iteration
    /// vectors.
    pub fn eval(&self, point: &[i64]) -> i64 {
        let mut acc = self.constant;
        for (loop_id, coeff) in &self.terms {
            let value = point.get(loop_id.index()).copied().unwrap_or(0);
            acc += coeff * value;
        }
        acc
    }

    /// Adds another affine expression term-wise.
    #[must_use]
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        out.constant += other.constant;
        for (loop_id, coeff) in &other.terms {
            let new = out.coefficient(*loop_id) + coeff;
            out.set_term(*loop_id, new);
        }
        out
    }

    /// Subtracts another affine expression term-wise.
    #[must_use]
    pub fn sub(&self, other: &AffineExpr) -> AffineExpr {
        self.add(&other.scale(-1))
    }

    /// Multiplies every coefficient and the constant by `factor`.
    #[must_use]
    pub fn scale(&self, factor: i64) -> AffineExpr {
        if factor == 0 {
            return AffineExpr::zero();
        }
        let mut out = AffineExpr::constant(self.constant * factor);
        for (loop_id, coeff) in &self.terms {
            out.set_term(*loop_id, coeff * factor);
        }
        out
    }

    /// Returns the minimum and maximum value the expression can take when each loop `d`
    /// ranges over `0..trip_counts[d]` (inclusive of `trip_counts[d] - 1`).
    ///
    /// Loops not covered by `trip_counts` are assumed to be fixed at zero.  Returns the
    /// constant twice when the expression is constant.
    pub fn range(&self, trip_counts: &[u64]) -> (i64, i64) {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for (loop_id, coeff) in &self.terms {
            let trip = trip_counts.get(loop_id.index()).copied().unwrap_or(1);
            let max_index = trip.saturating_sub(1) as i64;
            let extreme = coeff * max_index;
            if extreme >= 0 {
                hi += extreme;
            } else {
                lo += extreme;
            }
        }
        (lo, hi)
    }

    /// Renders the expression using the supplied loop names (`names[d]` for depth `d`).
    ///
    /// Loops without a supplied name are rendered as `i<depth>`.
    pub fn render(&self, names: &[&str]) -> String {
        let mut out = String::new();
        self.render_into(names, &mut out);
        out
    }

    /// Appends [`AffineExpr::render`]'s text to `out`.
    ///
    /// Each term is written as `name`, `-name` or `c*name`, then the constant when it
    /// is non-zero or stands alone; every part after the first is joined with ` + `,
    /// or with ` - ` in place of its leading minus sign.
    pub(crate) fn render_into(&self, names: &[&str], out: &mut String) {
        let mut first = true;
        for (loop_id, &coeff) in &self.terms {
            let name = LoopName(names.get(loop_id.index()).copied(), loop_id.index());
            match coeff {
                1 => push_part(out, first, format_args!("{name}")),
                -1 => push_part(out, first, format_args!("-{name}")),
                c => push_part(out, first, format_args!("{c}*{name}")),
            }
            first = false;
        }
        if self.constant != 0 || first {
            push_part(out, first, format_args!("{}", self.constant));
        }
    }
}

/// A loop's name in a rendering: the supplied one, or `i<depth>`.
struct LoopName<'a>(Option<&'a str>, usize);

impl fmt::Display for LoopName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(name) => f.write_str(name),
            None => write!(f, "i{}", self.1),
        }
    }
}

/// Appends one part of a rendering: the first as written, a later one after ` + `, or
/// after ` - ` in place of its leading minus sign.
fn push_part(out: &mut String, first: bool, part: fmt::Arguments<'_>) {
    let mark = out.len();
    // Writing into a `String` cannot fail.
    let _ = fmt::Write::write_fmt(out, part);
    if !first {
        if out[mark..].starts_with('-') {
            out.replace_range(mark..=mark, " - ");
        } else {
            out.insert_str(mark, " + ");
        }
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&[]))
    }
}

impl From<i64> for AffineExpr {
    fn from(value: i64) -> Self {
        AffineExpr::constant(value)
    }
}

impl From<LoopId> for AffineExpr {
    fn from(value: LoopId) -> Self {
        AffineExpr::index(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> LoopId {
        LoopId::new(i)
    }

    #[test]
    fn constant_expression_roundtrip() {
        let e = AffineExpr::constant(7);
        assert!(e.is_constant());
        assert_eq!(e.constant_term(), 7);
        assert_eq!(e.eval(&[1, 2, 3]), 7);
        assert_eq!(e.used_loops(), Vec::<LoopId>::new());
    }

    #[test]
    fn index_expression_uses_loop() {
        let e = AffineExpr::index(l(2));
        assert!(e.uses_loop(l(2)));
        assert!(!e.uses_loop(l(0)));
        assert_eq!(e.eval(&[0, 0, 9]), 9);
    }

    #[test]
    fn zero_coefficient_is_removed() {
        let e = AffineExpr::index(l(1)).with_term(l(1), 0);
        assert!(e.is_constant());
        assert_eq!(e, AffineExpr::zero());
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = AffineExpr::constant(3)
            .with_term(l(0), 2)
            .with_term(l(1), -1);
        let b = AffineExpr::constant(-5)
            .with_term(l(1), 4)
            .with_term(l(2), 1);
        let sum = a.add(&b);
        assert_eq!(sum.coefficient(l(0)), 2);
        assert_eq!(sum.coefficient(l(1)), 3);
        assert_eq!(sum.coefficient(l(2)), 1);
        assert_eq!(sum.constant_term(), -2);
        let back = sum.sub(&b);
        assert_eq!(back, a);
    }

    #[test]
    fn scale_by_zero_gives_zero() {
        let a = AffineExpr::constant(3).with_term(l(0), 2);
        assert_eq!(a.scale(0), AffineExpr::zero());
    }

    #[test]
    fn eval_matches_manual_computation() {
        // 3 + 2*i - j
        let e = AffineExpr::constant(3)
            .with_term(l(0), 2)
            .with_term(l(1), -1);
        assert_eq!(e.eval(&[4, 5]), 3 + 8 - 5);
        // missing dimensions are treated as zero
        assert_eq!(e.eval(&[4]), 3 + 8);
    }

    #[test]
    fn range_covers_negative_coefficients() {
        // i - j with 0<=i<10, 0<=j<4  ->  min = -3, max = 9
        let e = AffineExpr::index(l(0)).with_term(l(1), -1);
        assert_eq!(e.range(&[10, 4]), (-3, 9));
    }

    #[test]
    fn range_of_constant_is_degenerate() {
        let e = AffineExpr::constant(42);
        assert_eq!(e.range(&[8, 8]), (42, 42));
    }

    #[test]
    fn render_uses_names_and_falls_back() {
        let e = AffineExpr::constant(1)
            .with_term(l(0), 1)
            .with_term(l(2), -2);
        assert_eq!(e.render(&["i", "j", "k"]), "i - 2*k + 1");
        assert_eq!(e.render(&["i"]), "i - 2*i2 + 1");
        assert_eq!(AffineExpr::zero().render(&[]), "0");
        assert_eq!(AffineExpr::zero().render(&["i", "j"]), "0");
        let names = ["i", "j", "k"];
        // Negative and scaled coefficients, first and later.
        let e = AffineExpr::zero().with_term(l(0), -1).with_term(l(1), 4);
        assert_eq!(e.render(&names), "-i + 4*j");
        let e = AffineExpr::zero().with_term(l(0), -3).with_term(l(2), -1);
        assert_eq!(e.render(&names), "-3*i - k");
        let e = AffineExpr::constant(1)
            .with_term(l(0), 1)
            .with_term(l(1), i64::MIN);
        assert_eq!(e.render(&names), "i - 9223372036854775808*j + 1");
        // A negative constant, alone and after terms.
        assert_eq!(AffineExpr::constant(-7).render(&names), "-7");
        let e = AffineExpr::constant(-3).with_term(l(1), 2);
        assert_eq!(e.render(&names), "2*j - 3");
        // Missing loop names fall back to the loop's depth.
        let e = AffineExpr::constant(5)
            .with_term(l(3), -1)
            .with_term(l(5), 2);
        assert_eq!(e.render(&names), "-i3 + 2*i5 + 5");
        assert_eq!(e.render(&[]), e.to_string());
    }

    #[test]
    fn display_matches_render_without_names() {
        let e = AffineExpr::index(l(1)).with_constant(4);
        assert_eq!(e.to_string(), e.render(&[]));
    }

    #[test]
    fn conversion_from_primitives() {
        assert_eq!(AffineExpr::from(9), AffineExpr::constant(9));
        assert_eq!(AffineExpr::from(l(3)), AffineExpr::index(l(3)));
    }
}
