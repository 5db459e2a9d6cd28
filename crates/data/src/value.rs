//! Totally ordered attribute values.
//!
//! Attribute values in the original data are integer-valued (as in the
//! forest covertype benchmark the paper evaluates on), but transformed
//! values are arbitrary reals (log, sqrt-log, permutation targets...).
//! We therefore represent every attribute value as an `f64` and wrap it
//! in [`Value`] to get a total order (`f64::total_cmp`) usable as a
//! `BTreeMap`/sort key. NaN values are rejected at construction.

use std::cmp::Ordering;
use std::fmt;

use ppdt_error::PpdtError;
use serde::{Deserialize, Serialize};

/// A finite, totally ordered attribute value.
///
/// Invariant: the wrapped `f64` is never NaN (construction panics on
/// NaN; infinities are allowed because transformed domains may be
/// unbounded in principle, although the shipped function families only
/// produce finite values).
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Value(f64);

impl Value {
    /// Wraps a raw `f64`.
    ///
    /// # Panics
    /// Panics if `v` is NaN — a NaN attribute value has no place in a
    /// linearly ordered active domain (Section 3.1 of the paper).
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "attribute values must not be NaN");
        Value(v)
    }

    /// Returns the wrapped `f64`.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for Value {
    #[inline]
    fn from(v: f64) -> Self {
        Value::new(v)
    }
}

impl From<Value> for f64 {
    #[inline]
    fn from(v: Value) -> f64 {
        v.0
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Compares two raw `f64` attribute values with the same total order
/// used by [`Value`].
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Fills `out` with the indices `0..items.len()` sorted so that
/// `key(items[out[0]]) <= key(items[out[1]]) <= ...` under the same
/// total order as [`Value`] (`f64::total_cmp`).
///
/// This is the one order-building primitive shared by the tree
/// builders' per-attribute scans and the attack fitter, replacing the
/// hand-rolled `sort_by(total_cmp)` sites that each re-derived it. The
/// sort is **stable** (equal keys keep their input order — enforced by
/// an index tie-break rather than an allocating stable sort), because
/// `fit_crack` sums duplicate-key values in input order and float
/// addition is not associative.
///
/// `out` is a reusable buffer: it is cleared and refilled, so callers
/// in hot loops amortize the allocation across calls.
///
/// # Errors
/// Returns [`PpdtError::InvalidConfig`] if `items.len()` exceeds
/// `u32::MAX` — the `u32` row indices used throughout the mining layer
/// would silently truncate beyond that.
pub fn sorted_order_by_value<T, K>(items: &[T], key: K, out: &mut Vec<u32>) -> Result<(), PpdtError>
where
    K: Fn(&T) -> f64,
{
    if items.len() > u32::MAX as usize {
        return Err(PpdtError::InvalidConfig {
            param: "items.len()".into(),
            detail: format!(
                "{} rows exceed the u32 index space ({} max) used for sorted orders",
                items.len(),
                u32::MAX
            ),
        });
    }
    out.clear();
    out.extend(0..items.len() as u32);
    out.sort_unstable_by(|&i, &j| {
        key(&items[i as usize]).total_cmp(&key(&items[j as usize])).then(i.cmp(&j))
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_handles_negative_zero_and_infinity() {
        let mut vs = [
            Value::new(1.0),
            Value::new(f64::NEG_INFINITY),
            Value::new(-0.0),
            Value::new(0.0),
            Value::new(f64::INFINITY),
            Value::new(-3.5),
        ];
        vs.sort();
        let raw: Vec<f64> = vs.iter().map(|v| v.get()).collect();
        assert_eq!(raw[0], f64::NEG_INFINITY);
        assert_eq!(raw[1], -3.5);
        assert!(raw[2] == 0.0 && raw[2].is_sign_negative());
        assert!(raw[3] == 0.0 && raw[3].is_sign_positive());
        assert_eq!(raw[4], 1.0);
        assert_eq!(raw[5], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Value::new(f64::NAN);
    }

    #[test]
    fn sorted_order_is_ascending_and_stable() {
        let items = [(3.0, 'a'), (1.0, 'b'), (3.0, 'c'), (-0.0, 'd'), (0.0, 'e')];
        let mut out = Vec::new();
        sorted_order_by_value(&items, |p| p.0, &mut out).expect("fits u32");
        // -0.0 sorts before +0.0 under total_cmp; duplicate 3.0 keys
        // keep input order (index 0 before index 2).
        assert_eq!(out, vec![3, 4, 1, 0, 2]);

        // The buffer is reusable: refilling replaces, not appends.
        sorted_order_by_value(&items[..2], |p| p.0, &mut out).expect("fits u32");
        assert_eq!(out, vec![1, 0]);

        out.clear();
        sorted_order_by_value::<f64, _>(&[], |&x| x, &mut out).expect("fits u32");
        assert!(out.is_empty());
    }

    #[test]
    fn value_roundtrip() {
        let v = Value::new(42.5);
        assert_eq!(f64::from(v), 42.5);
        assert_eq!(Value::from(42.5), v);
        assert_eq!(format!("{v}"), "42.5");
    }
}
