//! The per-attribute piecewise transform.
//!
//! An attribute's active domain is cut into pieces; each piece carries
//! its own transformation (a strictly monotone function for
//! non-monochromatic pieces, an arbitrary bijection — here a random
//! permutation — for monochromatic pieces) and its own *output
//! interval*. Output intervals are pairwise disjoint and ordered
//! consistently with the input order — ascending for a globally
//! monotone attribute, descending for a globally anti-monotone one —
//! which is exactly the **global-(anti-)monotone invariant** of
//! Definition 8. Together with direction-consistent per-piece
//! functions this preserves the class string (globally monotone) or
//! reverses it (globally anti-monotone), so by Lemma 1 / Theorem 1 the
//! decision tree's outcome is unchanged.
//!
//! ## Hostile inputs
//!
//! Keys cross the paper's untrusted custodian/miner boundary, so every
//! transform operation here is **fallible**: an out-of-domain value, a
//! truncated permutation table, or an empty piece list yields a typed
//! [`PpdtError`] (never a panic). Structural invariants are checked
//! wholesale by [`PiecewiseTransform::validate`] / the
//! [`crate::audit`] subsystem before a loaded key is trusted.

use ppdt_error::PpdtError;
use serde::{Deserialize, Serialize};

use crate::func::MonoFunc;

/// The transformation applied inside one piece.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PieceKind {
    /// A strictly monotone function followed by an affine
    /// renormalization `y = s·f(x) + t` (with `s > 0`) into the
    /// piece's output interval. Used for non-monochromatic pieces;
    /// direction must match the attribute's global direction.
    Monotone {
        /// The sampled shape function.
        f: MonoFunc,
        /// Positive renormalization scale.
        s: f64,
        /// Renormalization offset.
        t: f64,
    },
    /// An explicit bijection on the piece's distinct values — a random
    /// permutation onto jittered grid positions in the output interval.
    /// Only sound for monochromatic pieces, where any bijection
    /// preserves the (constant) class substring; this is what defeats
    /// sorting attacks (Section 5.4).
    Permutation {
        /// `(original value, transformed value)` pairs, sorted by
        /// original value.
        map: Vec<(f64, f64)>,
    },
}

/// One piece of a [`PiecewiseTransform`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Piece {
    /// Smallest original value belonging to the piece (inclusive).
    pub input_lo: f64,
    /// Largest original value belonging to the piece (inclusive).
    pub input_hi: f64,
    /// Lower end of the piece's output interval.
    pub output_lo: f64,
    /// Upper end of the piece's output interval.
    pub output_hi: f64,
    /// The piece's transformation.
    pub kind: PieceKind,
}

impl Piece {
    /// Transforms an original value belonging to this piece.
    ///
    /// For permutation pieces, returns
    /// [`PpdtError::DomainViolation`] when `x` is not one of the
    /// piece's recorded distinct values (encode is only defined on the
    /// active domain).
    pub fn encode(&self, x: f64) -> Result<f64, PpdtError> {
        match &self.kind {
            PieceKind::Monotone { f, s, t } => Ok(s * f.eval(x) + t),
            PieceKind::Permutation { map } => map
                .binary_search_by(|&(v, _)| v.total_cmp(&x))
                .map(|i| map[i].1)
                .map_err(|_| PpdtError::DomainViolation { attr: None, piece: None, value: x }),
        }
    }

    /// Inverts a transformed value belonging to this piece's output
    /// interval. Exact for permutation pieces; analytic (subject to
    /// floating-point rounding) for monotone pieces. An empty
    /// permutation table yields [`PpdtError::KeyCorrupt`].
    pub fn decode(&self, y: f64) -> Result<f64, PpdtError> {
        match &self.kind {
            PieceKind::Monotone { f, s, t } => Ok(f.inverse((y - t) / s)),
            PieceKind::Permutation { map } => {
                // Exact match first; otherwise the nearest recorded
                // output (thresholds decoded through a permutation
                // piece are always exact data values).
                let mut best: Option<(usize, f64)> = None;
                for (i, &(_, out)) in map.iter().enumerate() {
                    let d = (out - y).abs();
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
                match best {
                    Some((i, _)) => Ok(map[i].0),
                    None => Err(PpdtError::key_corrupt("empty permutation table")),
                }
            }
        }
    }
}

/// Where a transformed value lands among a transform's output
/// intervals (see [`PiecewiseTransform::locate_output`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputLocation {
    /// Inside the output interval of the piece at this index.
    Inside(usize),
    /// In an inter-piece gap; the index names the nearest piece by
    /// output distance.
    Gap(usize),
}

impl OutputLocation {
    /// The piece index, regardless of inside/gap.
    pub fn piece(self) -> usize {
        match self {
            OutputLocation::Inside(i) | OutputLocation::Gap(i) => i,
        }
    }
}

/// The complete piecewise transformation `f_A` of one attribute,
/// together with everything the custodian needs to decode: this is the
/// per-attribute portion of the custodian's key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseTransform {
    /// Pieces in ascending input order. Output intervals are strictly
    /// ascending when `increasing`, strictly descending otherwise.
    pub pieces: Vec<Piece>,
    /// Global direction: `true` = globally monotone, `false` =
    /// globally anti-monotone.
    pub increasing: bool,
    /// The attribute's original active domain (sorted distinct
    /// values), used for exact threshold snapping during decode. The
    /// custodian derives this from `D`, which it owns.
    pub orig_domain: Vec<f64>,
}

impl PiecewiseTransform {
    /// Index of the piece whose input range contains `x`, or
    /// [`PpdtError::DomainViolation`] when `x` is outside every piece.
    pub fn piece_for_input(&self, x: f64) -> Result<usize, PpdtError> {
        let i = self.pieces.partition_point(|p| p.input_hi < x);
        if i < self.pieces.len() && self.pieces[i].input_lo <= x {
            Ok(i)
        } else {
            Err(PpdtError::DomainViolation { attr: None, piece: None, value: x })
        }
    }

    /// Locates `y` among the output intervals: inside a piece's
    /// interval, or in an inter-piece gap (nearest piece reported).
    /// A transform with no pieces yields [`PpdtError::KeyCorrupt`].
    pub fn locate_output(&self, y: f64) -> Result<OutputLocation, PpdtError> {
        // Pieces are ordered by output ascending or descending
        // depending on the global direction; normalize the search.
        let n = self.pieces.len();
        if n == 0 {
            return Err(PpdtError::key_corrupt("transform has no pieces"));
        }
        let idx_at = |rank: usize| if self.increasing { rank } else { n - 1 - rank };
        // Binary search over output-ascending ranks.
        let mut lo = 0usize;
        let mut hi = n; // exclusive
        while lo < hi {
            let mid = (lo + hi) / 2;
            let p = &self.pieces[idx_at(mid)];
            if y < p.output_lo {
                hi = mid;
            } else if y > p.output_hi {
                lo = mid + 1;
            } else {
                return Ok(OutputLocation::Inside(idx_at(mid)));
            }
        }
        // In a gap: pick the nearer neighbour by output distance.
        let below = lo.checked_sub(1).map(idx_at);
        let above = (lo < n).then(|| idx_at(lo));
        match (below, above) {
            (Some(b), Some(a)) => {
                let db =
                    (y - self.pieces[b].output_hi).abs().min((y - self.pieces[b].output_lo).abs());
                let da =
                    (y - self.pieces[a].output_lo).abs().min((y - self.pieces[a].output_hi).abs());
                Ok(OutputLocation::Gap(if db <= da { b } else { a }))
            }
            (Some(i), None) | (None, Some(i)) => Ok(OutputLocation::Gap(i)),
            (None, None) => Err(PpdtError::key_corrupt("transform has no pieces")),
        }
    }

    /// Transforms an original value (must lie in the active domain for
    /// permutation pieces). Out-of-domain values yield
    /// [`PpdtError::DomainViolation`] with the piece context; a
    /// corrupt piece that produces a non-finite output yields
    /// [`PpdtError::KeyCorrupt`].
    pub fn encode(&self, x: f64) -> Result<f64, PpdtError> {
        let i = self.piece_for_input(x)?;
        let y = self.pieces[i].encode(x).map_err(|e| e.with_piece(i))?;
        if y.is_finite() {
            Ok(y)
        } else {
            Err(PpdtError::KeyCorrupt {
                attr: None,
                piece: Some(i),
                detail: format!("value {x} encodes to non-finite {y}"),
            })
        }
    }

    /// Checked variant of [`Self::encode`] returning `None` on any
    /// failure: use this when encoding data that may contain values
    /// unseen at key-creation time (new tuples cannot, in general, be
    /// encoded consistently — a fresh value inside a monochromatic
    /// piece has no defined image under the recorded bijection).
    pub fn try_encode(&self, x: f64) -> Option<f64> {
        self.encode(x).ok()
    }

    /// Inverts a transformed value. Exact for values produced by
    /// [`Self::encode`] on permutation pieces; analytic for monotone
    /// pieces. Values in inter-piece output gaps are inverted through
    /// the nearest piece. The result is clamped to the decoding
    /// piece's input range (the analytic inverse can shoot far outside
    /// it for gap values under strongly nonlinear functions).
    pub fn decode(&self, y: f64) -> Result<f64, PpdtError> {
        let i = self.locate_output(y)?.piece();
        let p = &self.pieces[i];
        let x = p.decode(y).map_err(|e| e.with_piece(i))?;
        Ok(x.clamp(p.input_lo, p.input_hi))
    }

    /// Inverts a transformed value and snaps the result to the nearest
    /// value of the original active domain. For thresholds produced
    /// under `ThresholdPolicy::DataValue` this recovers the original
    /// data value **bit-exactly** (the analytic inverse lands within
    /// half a domain gap of it). An empty recorded domain yields
    /// [`PpdtError::KeyCorrupt`].
    pub fn decode_snapped(&self, y: f64) -> Result<f64, PpdtError> {
        let raw = self.decode(y)?;
        nearest(&self.orig_domain, raw)
            .ok_or_else(|| PpdtError::key_corrupt("empty recorded original domain"))
    }

    /// The `(transformed, original)` pairs of the active domain,
    /// sorted by transformed value. Precompute once per attribute when
    /// decoding many thresholds. Fails when a recorded domain value is
    /// not encodable under the (corrupt) transform.
    pub fn transformed_domain_map(&self) -> Result<Vec<(f64, f64)>, PpdtError> {
        let mut ty = Vec::with_capacity(self.orig_domain.len());
        for &x in &self.orig_domain {
            ty.push((self.encode(x)?, x));
        }
        ty.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(ty)
    }

    /// Validates the invariants: pieces cover ascending input ranges;
    /// output intervals are disjoint and ordered by the global
    /// direction; non-monochromatic (monotone) pieces move in the
    /// global direction; permutation tables are bijections within
    /// their interval; every original domain value encodes into its
    /// piece's output interval, and the full map over the active
    /// domain is injective.
    ///
    /// This is the boundary check: validate once when a key is drawn
    /// or loaded, then trust the transform on the hot paths. The
    /// [`crate::audit`] subsystem runs the same checks but reports
    /// *all* violations as a structured [`crate::audit::AuditReport`]
    /// instead of the first one.
    pub fn validate(&self) -> Result<(), PpdtError> {
        crate::audit::transform_first_error(self)
    }
}

/// Data-aware decode of a split threshold (Theorem 2's workhorse)
/// against a precomputed
/// [`PiecewiseTransform::transformed_domain_map`]: the mined node
/// `A' ≤ y` partitions the active domain into `S = {v : f(v) ≤ y}` and
/// its complement. For any threshold a tree builder can produce, `S`
/// and its complement are separated intervals in *original* space (one
/// entirely below the other; under a globally anti-monotone transform
/// `S` is the upper one, and the caller swaps the node's children).
/// The decoded `≤`-threshold is the largest value of the lower interval
/// (`midpoint = false`, matching `ThresholdPolicy::DataValue`) or the
/// midpoint across the separation (`midpoint = true`, matching
/// `ThresholdPolicy::Midpoint`). An empty map yields
/// [`PpdtError::EmptyInput`].
pub fn decode_le_split(map: &[(f64, f64)], y: f64, midpoint: bool) -> Result<f64, PpdtError> {
    if map.is_empty() {
        return Err(PpdtError::EmptyInput { what: "transformed domain map".into() });
    }
    let i = map.partition_point(|&(t, _)| t <= y);
    if i == 0 {
        // Degenerate: nothing on the transformed-low side. No real
        // split produces this; answer "below everything".
        return Ok(map.iter().map(|&(_, x)| x).fold(f64::INFINITY, f64::min) - 1.0);
    }
    if i == map.len() {
        return Ok(map.iter().map(|&(_, x)| x).fold(f64::NEG_INFINITY, f64::max));
    }
    let a_max = map[..i].iter().map(|&(_, x)| x).fold(f64::NEG_INFINITY, f64::max);
    let a_min = map[..i].iter().map(|&(_, x)| x).fold(f64::INFINITY, f64::min);
    let b_max = map[i..].iter().map(|&(_, x)| x).fold(f64::NEG_INFINITY, f64::max);
    let b_min = map[i..].iter().map(|&(_, x)| x).fold(f64::INFINITY, f64::min);
    Ok(if a_max < b_min {
        // S is the lower interval (globally monotone transform).
        if midpoint {
            0.5 * (a_max + b_min)
        } else {
            a_max
        }
    } else {
        // S is the upper interval (globally anti-monotone transform);
        // the caller swaps children, so the `≤` side is the complement.
        if midpoint {
            0.5 * (b_max + a_min)
        } else {
            b_max
        }
    })
}

/// Nearest element of a sorted slice; `None` when empty. Shared with
/// the compiled path (`crate::compiled`) so snapping stays
/// bit-identical between the two.
pub(crate) fn nearest(sorted: &[f64], x: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = sorted.partition_point(|&v| v < x);
    Some(if i == 0 {
        sorted[0]
    } else if i == sorted.len() {
        sorted[sorted.len() - 1]
    } else {
        let (a, b) = (sorted[i - 1], sorted[i]);
        if (x - a).abs() <= (b - x).abs() {
            a
        } else {
            b
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-piece transform: monotone log piece on [1, 15],
    /// permutation piece on {27, 28} (monochromatic in the paper's
    /// running example).
    fn sample_transform() -> PiecewiseTransform {
        let f = MonoFunc::Log { a: 1.0, c: 0.0, b: 0.0 };
        // Raw range on [1, 15]: [0, ln 15]; normalize into [10, 20].
        let s = 10.0 / 15f64.ln();
        let t = 10.0;
        PiecewiseTransform {
            pieces: vec![
                Piece {
                    input_lo: 1.0,
                    input_hi: 15.0,
                    output_lo: 10.0,
                    output_hi: 20.0,
                    kind: PieceKind::Monotone { f, s, t },
                },
                Piece {
                    input_lo: 27.0,
                    input_hi: 28.0,
                    output_lo: 30.0,
                    output_hi: 40.0,
                    kind: PieceKind::Permutation { map: vec![(27.0, 38.0), (28.0, 31.0)] },
                },
            ],
            increasing: true,
            orig_domain: vec![1.0, 2.0, 15.0, 27.0, 28.0],
        }
    }

    fn enc(tr: &PiecewiseTransform, x: f64) -> f64 {
        tr.encode(x).unwrap()
    }

    #[test]
    fn validate_accepts_sample() {
        sample_transform().validate().unwrap();
    }

    #[test]
    fn encode_decode_roundtrip_on_domain() {
        let tr = sample_transform();
        for &x in &tr.orig_domain {
            let y = enc(&tr, x);
            assert_eq!(tr.decode_snapped(y).unwrap(), x, "roundtrip of {x}");
        }
    }

    #[test]
    fn permutation_blocks_order_but_stays_in_interval() {
        let tr = sample_transform();
        let y27 = enc(&tr, 27.0);
        let y28 = enc(&tr, 28.0);
        assert!(y27 > y28, "within-piece order scrambled");
        assert!((30.0..=40.0).contains(&y27));
        assert!((30.0..=40.0).contains(&y28));
        // But the global invariant holds: everything in piece 2 is
        // above everything in piece 1.
        assert!(y28 > enc(&tr, 15.0));
    }

    #[test]
    fn gap_outputs_decode_via_nearest_piece() {
        let tr = sample_transform();
        // 25.0 sits in the output gap (20, 30).
        let x = tr.decode_snapped(25.0).unwrap();
        assert!(x == 15.0 || x == 27.0);
    }

    #[test]
    fn decode_midpoint_brackets_correctly() {
        let tr = sample_transform();
        // Midpoint of the transformed values of 15 (=20.0) and the
        // smallest transformed value in piece 2 (28 -> 31.0): y=25.5
        // must decode to the original midpoint (15+27)/2 = 21.
        let y = 0.5 * (enc(&tr, 15.0) + enc(&tr, 28.0));
        assert_eq!(decode_le_split(&tr.transformed_domain_map().unwrap(), y, true).unwrap(), 21.0);
    }

    #[test]
    fn validate_rejects_overlapping_outputs() {
        let mut tr = sample_transform();
        tr.pieces[1].output_lo = 15.0; // overlaps piece 1's [10, 20]
        assert!(tr.validate().is_err());
    }

    #[test]
    fn validate_rejects_wrong_direction() {
        let mut tr = sample_transform();
        tr.increasing = false; // outputs ascend, so this must fail
        assert!(tr.validate().is_err());
    }

    #[test]
    fn validate_rejects_direction_inconsistent_piece() {
        let mut tr = sample_transform();
        if let PieceKind::Monotone { f, .. } = &mut tr.pieces[0].kind {
            *f = MonoFunc::Log { a: -1.0, c: 0.0, b: 0.0 };
        }
        assert!(tr.validate().is_err());
    }

    #[test]
    fn anti_monotone_transform_validates() {
        // Mirror of the sample: descending outputs, decreasing piece fn.
        let f = MonoFunc::Linear { a: -1.0, b: 0.0 };
        // raw on [1,15]: [-15,-1]; map into [30,40]: s=10/14, t=40+15*s.
        let s = 10.0 / 14.0;
        let t = 30.0 + 15.0 * s;
        let tr = PiecewiseTransform {
            pieces: vec![
                Piece {
                    input_lo: 1.0,
                    input_hi: 15.0,
                    output_lo: 30.0,
                    output_hi: 40.0,
                    kind: PieceKind::Monotone { f, s, t },
                },
                Piece {
                    input_lo: 27.0,
                    input_hi: 28.0,
                    output_lo: 10.0,
                    output_hi: 20.0,
                    kind: PieceKind::Permutation { map: vec![(27.0, 12.0), (28.0, 17.0)] },
                },
            ],
            increasing: false,
            orig_domain: vec![1.0, 2.0, 15.0, 27.0, 28.0],
        };
        tr.validate().unwrap();
        // Global anti-monotone: later inputs map strictly below.
        assert!(enc(&tr, 27.0) < enc(&tr, 15.0));
        assert!(enc(&tr, 1.0) > enc(&tr, 15.0));
        for &x in &tr.orig_domain {
            assert_eq!(tr.decode_snapped(enc(&tr, x)).unwrap(), x);
        }
    }

    #[test]
    fn nearest_picks_closest() {
        let dom = [1.0, 5.0, 9.0];
        assert_eq!(nearest(&dom, -3.0), Some(1.0));
        assert_eq!(nearest(&dom, 2.9), Some(1.0));
        assert_eq!(nearest(&dom, 3.1), Some(5.0));
        assert_eq!(nearest(&dom, 42.0), Some(9.0));
        assert_eq!(nearest(&dom, 5.0), Some(5.0));
        assert_eq!(nearest(&[], 5.0), None);
    }

    #[test]
    fn encode_outside_domain_is_typed_error() {
        let tr = sample_transform();
        match tr.encode(100.0) {
            Err(PpdtError::DomainViolation { value, .. }) => assert_eq!(value, 100.0),
            other => panic!("expected DomainViolation, got {other:?}"),
        }
        // Inside a permutation piece's range but not a recorded value.
        match tr.encode(27.5) {
            Err(PpdtError::DomainViolation { value, piece, .. }) => {
                assert_eq!(value, 27.5);
                assert_eq!(piece, Some(1));
            }
            other => panic!("expected DomainViolation, got {other:?}"),
        }
    }

    #[test]
    fn empty_transform_is_typed_error_everywhere() {
        let tr = PiecewiseTransform { pieces: vec![], increasing: true, orig_domain: vec![] };
        assert!(matches!(tr.encode(1.0), Err(PpdtError::DomainViolation { .. })));
        assert!(matches!(tr.decode(1.0), Err(PpdtError::KeyCorrupt { .. })));
        assert!(matches!(tr.decode_snapped(1.0), Err(PpdtError::KeyCorrupt { .. })));
        assert!(matches!(tr.validate(), Err(PpdtError::KeyCorrupt { .. })));
        assert!(matches!(decode_le_split(&[], 0.0, false), Err(PpdtError::EmptyInput { .. })));
    }

    #[test]
    fn serde_roundtrip() {
        let tr = sample_transform();
        let s = serde_json::to_string(&tr).unwrap();
        let tr2: PiecewiseTransform = serde_json::from_str(&s).unwrap();
        assert_eq!(tr, tr2);
    }
}
