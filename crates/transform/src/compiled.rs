//! Compiled encode/decode plans: a flat, cache-friendly lowering of a
//! validated [`TransformKey`].
//!
//! The interpreted path ([`PiecewiseTransform`]) walks a `Vec<Piece>`
//! of enum variants and, for composed functions, a `Box` tree — fine
//! for one-shot CLI runs, wasteful inside a daemon encoding millions
//! of cells against the same key. [`CompiledKey::compile`] lowers each
//! attribute into struct-of-arrays form:
//!
//! * one sorted breakpoint array (`input_hi`) per attribute, so piece
//!   lookup is a branch-predictable `partition_point` over a flat
//!   `&[f64]`,
//! * per-piece function parameters unpacked out of the
//!   [`MonoFunc`] enum into a flat opcode
//!   program pool (compositions are flattened inner-first, so
//!   evaluation is a sequential scan instead of pointer-chasing),
//! * permutation tables for monochromatic pieces packed into shared
//!   lookup pools (`perm_orig` / `perm_out`) indexed by per-piece
//!   ranges.
//!
//! The compiled methods are **bit-identical** to the interpreted path
//! (every floating-point operation happens in the same order — see the
//! `compiled_matches_interpreted` proptest) but allocation-free and
//! dispatch-free per value. Compilation audits the key first: a
//! [`CompiledKey`] is always a *trusted* artifact, which is what lets
//! a server skip per-request auditing entirely.
//!
//! On top of the per-value methods sit the batched column paths
//! ([`CompiledKey::encode_column`] / [`CompiledKey::decode_column`]).
//! Encode *buckets* the column: one lookup pass assigns every value
//! its piece (through the branch-free direct-index table when the
//! density heuristic built one — see `LookupTable` — by binary search
//! otherwise), a counting sort gathers each piece's values into one
//! contiguous scratch slice, each opcode of the piece's program runs
//! once over that whole slice, and the results scatter back into row
//! order. Piece dispatch is paid once per *piece* instead of once per
//! *cell*, and the opcode inner loops are plain slice passes the
//! compiler unrolls and vectorizes — regardless of how values are
//! ordered in the column. Decode carves the column into maximal
//! same-piece runs instead (output-interval membership pins the
//! piece), which is cheaper than bucketing for its snap-dominated
//! cost profile. Every one of these paths returns bit-identical
//! results — and bit-identical *errors*, at the same row — as the
//! per-value methods, because no floating-point operation is
//! reordered within any single value's computation.

use ppdt_data::AttrId;
use ppdt_error::PpdtError;

use crate::encoder::TransformKey;
use crate::func::MonoFunc;
use crate::piecewise::{nearest, PieceKind, PiecewiseTransform};

/// One primitive of a flattened monotone-function program. Mirrors the
/// non-composed [`MonoFunc`] variants with the
/// exact same formulas; [`MonoFunc::Composed`](crate::func::MonoFunc)
/// lowers to a sequence of these.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `a·x + b`.
    Linear { a: f64, b: f64 },
    /// `a·sgn(x−c)·|x−c|^p + b`.
    Power { a: f64, c: f64, p: f64, b: f64 },
    /// `a·ln(x − c) + b`.
    Log { a: f64, c: f64, b: f64 },
    /// `a·√(ln(x − c)) + b`.
    SqrtLog { a: f64, c: f64, b: f64 },
    /// `a·e^{k(x−c)} + b`.
    Exp { a: f64, k: f64, c: f64, b: f64 },
}

impl Op {
    /// Same expression, same operation order as
    /// [`MonoFunc::eval`](crate::func::MonoFunc::eval).
    #[inline]
    fn eval(self, x: f64) -> f64 {
        match self {
            Op::Linear { a, b } => a * x + b,
            Op::Power { a, c, p, b } => {
                let d = x - c;
                a * d.signum() * d.abs().powf(p) + b
            }
            Op::Log { a, c, b } => a * (x - c).ln() + b,
            Op::SqrtLog { a, c, b } => a * (x - c).ln().sqrt() + b,
            Op::Exp { a, k, c, b } => a * (k * (x - c)).exp() + b,
        }
    }

    /// Same expression, same operation order as
    /// [`MonoFunc::inverse`](crate::func::MonoFunc::inverse).
    #[inline]
    fn inverse(self, y: f64) -> f64 {
        match self {
            Op::Linear { a, b } => (y - b) / a,
            Op::Power { a, c, p, b } => {
                let u = (y - b) / a;
                c + u.signum() * u.abs().powf(1.0 / p)
            }
            Op::Log { a, c, b } => c + ((y - b) / a).exp(),
            Op::SqrtLog { a, c, b } => {
                let s = (y - b) / a;
                c + (s * s).exp()
            }
            Op::Exp { a, k, c, b } => c + ((y - b) / a).ln() / k,
        }
    }
}

/// Flattens a function tree into a sequential program, inner-first, so
/// `eval` = apply ops left-to-right and `inverse` = apply inverses
/// right-to-left. Bit-identical to the recursive evaluation because
/// `Composed::eval(x)` *is* `outer.eval(inner.eval(x))` — each
/// primitive sees exactly the same scalar input either way.
fn flatten(f: &MonoFunc, out: &mut Vec<Op>) {
    match f {
        MonoFunc::Linear { a, b } => out.push(Op::Linear { a: *a, b: *b }),
        MonoFunc::Power { a, c, p, b } => out.push(Op::Power { a: *a, c: *c, p: *p, b: *b }),
        MonoFunc::Log { a, c, b } => out.push(Op::Log { a: *a, c: *c, b: *b }),
        MonoFunc::SqrtLog { a, c, b } => out.push(Op::SqrtLog { a: *a, c: *c, b: *b }),
        MonoFunc::Exp { a, k, c, b } => out.push(Op::Exp { a: *a, k: *k, c: *c, b: *b }),
        MonoFunc::Composed { outer, inner } => {
            flatten(inner, out);
            flatten(outer, out);
        }
    }
}

/// Per-piece program descriptor: either an affine-renormalized op
/// range, or a range into the permutation pools.
#[derive(Clone, Copy, Debug)]
enum PieceProgram {
    /// `y = s·(ops applied to x) + t`; `ops` is `(start, len)` into
    /// [`CompiledTransform::ops`].
    Monotone { s: f64, t: f64, ops: (u32, u32) },
    /// `(start, len)` into `perm_orig` / `perm_out` (sorted by
    /// original value, mirroring the interpreted map). `grid` is the
    /// `(first, 1/step)` of an exact arithmetic progression when the
    /// piece's originals form one — integer-coded attributes almost
    /// always do — letting lookup guess the index in O(1). The guess
    /// is verified bit-wise and falls back to binary search on any
    /// mismatch, so the accelerator is unobservable in results.
    Permutation { perm: (u32, u32), grid: Option<(f64, f64)> },
}

/// Detects an exact arithmetic progression in a sorted permutation
/// domain: returns `(first, 1/step)` only when every element is
/// *bit-identical* to `first + j·step`, so an index recomputed from a
/// member value can be trusted after one bitwise compare.
fn perm_grid(orig: &[f64]) -> Option<(f64, f64)> {
    if orig.len() < 2 {
        return None;
    }
    let first = orig[0];
    let step = orig[1] - first;
    if !(step.is_finite() && step > 0.0) {
        return None;
    }
    let exact =
        orig.iter().enumerate().all(|(j, &v)| (first + j as f64 * step).to_bits() == v.to_bits());
    exact.then(|| (first, 1.0 / step))
}

/// Direct-index acceleration for `partition_point` over `input_hi`:
/// maps a probe value to a bucket of the transform's input span and
/// scans forward from a precomputed per-bucket floor. Built at lower
/// time only when the breakpoints are dense enough that the scan is
/// provably short (see [`LookupTable::build`]); lookups through it are
/// index-identical to binary search for **every** `f64`, including
/// NaN and infinities, so callers never observe which path ran.
#[derive(Clone, Debug)]
struct LookupTable {
    /// Left edge of the bucketed span (`input_lo[0]`).
    lo: f64,
    /// `buckets / span` — one multiply turns a value into a bucket.
    inv_width: f64,
    /// `first[b]` = number of pieces whose `input_hi` lands in a
    /// bucket strictly below `b`. Because bucketing is monotone, this
    /// never overshoots the true partition point of any probe landing
    /// in bucket `b`, so a forward scan from it is always correct.
    first: Vec<u32>,
}

impl LookupTable {
    /// Density heuristic: the longest forward scan a table is allowed
    /// to cost (max breakpoints sharing one bucket). With 4 buckets
    /// per piece the expected occupancy is 0.25, so only pathological
    /// clustering rejects the table.
    const MAX_BUCKET_OCCUPANCY: u32 = 8;

    /// Builds a bucket table over sorted `breaks` spanning `[lo,
    /// breaks.last()]`. `per_entry` buckets are allocated per break
    /// (rounded up to a power of two, capped at `max_buckets`); the
    /// build refuses when any bucket would exceed
    /// [`Self::MAX_BUCKET_OCCUPANCY`], keeping every forward scan
    /// provably short.
    fn build(lo: f64, breaks: &[f64], per_entry: usize, max_buckets: usize) -> Option<LookupTable> {
        let n = breaks.len();
        if n < 2 {
            // Zero or one entry: binary search is already branch-free.
            return None;
        }
        let span = breaks[n - 1] - lo;
        if !(span.is_finite() && span > 0.0) || breaks.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let buckets = (per_entry * n).next_power_of_two().min(max_buckets);
        let inv_width = buckets as f64 / span;
        if !(inv_width.is_finite() && inv_width > 0.0) {
            return None;
        }
        let bucket_of = |v: f64| (((v - lo) * inv_width) as usize).min(buckets - 1);
        // counts[b + 1] = occupancy of bucket b, then prefix-summed so
        // counts[b] = breakpoints strictly below bucket b.
        let mut counts = vec![0u32; buckets + 1];
        for &v in breaks {
            counts[bucket_of(v) + 1] += 1;
        }
        if counts.iter().any(|&c| c > Self::MAX_BUCKET_OCCUPANCY) {
            return None;
        }
        for b in 1..=buckets {
            counts[b] += counts[b - 1];
        }
        Some(LookupTable { lo, inv_width, first: counts })
    }

    /// Bucket of `v`. The `as usize` cast saturates (NaN and negative
    /// products land in bucket 0, overflow clamps high), which is
    /// exactly what keeps out-of-span probes correct.
    #[inline]
    fn bucket_of(&self, v: f64) -> usize {
        (((v - self.lo) * self.inv_width) as usize).min(self.first.len() - 2)
    }
}

/// One attribute's transform in compiled (struct-of-arrays) form.
#[derive(Clone, Debug)]
pub struct CompiledTransform {
    increasing: bool,
    /// Per-piece input range bounds; `input_hi` doubles as the sorted
    /// breakpoint array for piece lookup.
    input_lo: Vec<f64>,
    input_hi: Vec<f64>,
    /// Per-piece output interval bounds (ascending when `increasing`,
    /// descending otherwise — same layout as the interpreted key).
    output_lo: Vec<f64>,
    output_hi: Vec<f64>,
    prog: Vec<PieceProgram>,
    /// Shared flattened function-program pool.
    ops: Vec<Op>,
    /// Shared permutation pools: original values (sorted within each
    /// piece's range) and their transformed images.
    perm_orig: Vec<f64>,
    perm_out: Vec<f64>,
    /// The attribute's recorded active domain, for threshold snapping.
    orig_domain: Vec<f64>,
    /// Direct-index piece lookup, when the density heuristic admits
    /// one; `None` falls back to binary search.
    table: Option<LookupTable>,
    /// Direct-index lookup over the whole `perm_orig` pool, which is
    /// globally sorted because pieces lower in domain order and each
    /// map is sorted within its range. Used by the batched encode to
    /// turn the per-value binary search inside permutation pieces into
    /// a bucket probe plus a short scan; `None` (sparse pool or the
    /// density heuristic refused) falls back to binary search.
    perm_table: Option<LookupTable>,
}

impl CompiledTransform {
    /// Lowers one transform without auditing it. Results match the
    /// interpreted transform for every key, audited or not: the lookup
    /// tables are only built over sorted arrays, where they are
    /// index-identical to the interpreted binary search.
    pub(crate) fn lower(tr: &PiecewiseTransform) -> CompiledTransform {
        let n = tr.pieces.len();
        let mut out = CompiledTransform {
            increasing: tr.increasing,
            input_lo: Vec::with_capacity(n),
            input_hi: Vec::with_capacity(n),
            output_lo: Vec::with_capacity(n),
            output_hi: Vec::with_capacity(n),
            prog: Vec::with_capacity(n),
            ops: Vec::new(),
            perm_orig: Vec::new(),
            perm_out: Vec::new(),
            orig_domain: tr.orig_domain.clone(),
            table: None,
            perm_table: None,
        };
        for p in &tr.pieces {
            out.input_lo.push(p.input_lo);
            out.input_hi.push(p.input_hi);
            out.output_lo.push(p.output_lo);
            out.output_hi.push(p.output_hi);
            match &p.kind {
                PieceKind::Monotone { f, s, t } => {
                    let start = out.ops.len() as u32;
                    flatten(f, &mut out.ops);
                    let len = out.ops.len() as u32 - start;
                    out.prog.push(PieceProgram::Monotone { s: *s, t: *t, ops: (start, len) });
                }
                PieceKind::Permutation { map } => {
                    let start = out.perm_orig.len() as u32;
                    for &(orig, image) in map {
                        out.perm_orig.push(orig);
                        out.perm_out.push(image);
                    }
                    let grid = perm_grid(&out.perm_orig[start as usize..]);
                    out.prog
                        .push(PieceProgram::Permutation { perm: (start, map.len() as u32), grid });
                }
            }
        }
        if out.input_hi.windows(2).all(|w| w[0] <= w[1]) {
            let lo = out.input_lo.first().copied().unwrap_or(f64::NAN);
            out.table = LookupTable::build(lo, &out.input_hi, 4, 4096);
        }
        // The pool is sorted by construction; the `total_cmp` check is
        // a cheap compile-time guard so a violated invariant degrades
        // to binary search instead of wrong lookups. Permutation maps
        // are integer-dense in practice, so 8 buckets per entry keeps
        // occupancy (and thus scan length) low even on value grids.
        if out.perm_orig.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()) {
            let lo = out.perm_orig.first().copied().unwrap_or(f64::NAN);
            out.perm_table = LookupTable::build(lo, &out.perm_orig, 8, 1 << 17);
        }
        out
    }

    /// `partition_point(|&hi| hi < x)` over the breakpoint array — via
    /// the direct-index table when one was built, by binary search
    /// otherwise. Both paths return the same index for every `f64`.
    #[inline]
    fn piece_index(&self, x: f64) -> usize {
        match &self.table {
            Some(t) => {
                let mut i = t.first[t.bucket_of(x)] as usize;
                // `first` undershoots by at most the bucket occupancy
                // the density heuristic admitted, so this stays short.
                while i < self.input_hi.len() && self.input_hi[i] < x {
                    i += 1;
                }
                i
            }
            None => self.input_hi.partition_point(|&hi| hi < x),
        }
    }

    /// Exact-match position of `x` within one piece's slice
    /// `perm_orig[start..start + len]` — the batched twin of
    /// `binary_search_by(total_cmp)` over that slice, and
    /// index-identical to it for every `f64`. Through `perm_table` the
    /// probe becomes one bucket index into the *global* pool plus a
    /// short forward scan (bounded by the build's occupancy cap);
    /// because the pool is strictly ascending under `total_cmp`, the
    /// slice's partition point is the global one clamped into the
    /// slice, and a strictly-sorted slice matches at its partition
    /// point or not at all.
    #[inline]
    fn perm_position(&self, start: usize, len: usize, x: f64) -> Option<usize> {
        match &self.perm_table {
            Some(t) => {
                let mut j = t.first[t.bucket_of(x)] as usize;
                while j < self.perm_orig.len() && self.perm_orig[j].total_cmp(&x).is_lt() {
                    j += 1;
                }
                let p = j.saturating_sub(start).min(len);
                (p < len && self.perm_orig[start + p].total_cmp(&x).is_eq()).then_some(p)
            }
            None => self.perm_orig[start..start + len].binary_search_by(|o| o.total_cmp(&x)).ok(),
        }
    }

    /// Piece lookup over the flat breakpoint array — the compiled twin
    /// of [`PiecewiseTransform::piece_for_input`]. Stays on binary
    /// search: the direct-index table's `first` array is cache-cold
    /// for a one-off probe, so it only pays when a whole column's
    /// lookups share it (the batched paths).
    #[inline]
    fn piece_for_input(&self, x: f64) -> Result<usize, PpdtError> {
        let i = self.input_hi.partition_point(|&hi| hi < x);
        if i < self.input_hi.len() && self.input_lo[i] <= x {
            Ok(i)
        } else {
            Err(PpdtError::DomainViolation { attr: None, piece: None, value: x })
        }
    }

    /// The compiled twin of `Piece::encode`.
    #[inline]
    fn encode_piece(&self, i: usize, x: f64) -> Result<f64, PpdtError> {
        match self.prog[i] {
            PieceProgram::Monotone { s, t, ops: (start, len) } => {
                let mut v = x;
                for op in &self.ops[start as usize..(start + len) as usize] {
                    v = op.eval(v);
                }
                Ok(s * v + t)
            }
            PieceProgram::Permutation { perm: (start, len), .. } => {
                let orig = &self.perm_orig[start as usize..(start + len) as usize];
                orig.binary_search_by(|v| v.total_cmp(&x))
                    .map(|j| self.perm_out[start as usize + j])
                    .map_err(|_| PpdtError::DomainViolation { attr: None, piece: None, value: x })
            }
        }
    }

    /// The compiled twin of `Piece::decode`.
    #[inline]
    fn decode_piece(&self, i: usize, y: f64) -> Result<f64, PpdtError> {
        match self.prog[i] {
            PieceProgram::Monotone { s, t, ops: (start, len) } => {
                let mut v = (y - t) / s;
                for op in self.ops[start as usize..(start + len) as usize].iter().rev() {
                    v = op.inverse(v);
                }
                Ok(v)
            }
            PieceProgram::Permutation { perm: (start, len), .. } => {
                // Nearest recorded output, earliest index on exact
                // ties — same scan as the interpreted path.
                let outs = &self.perm_out[start as usize..(start + len) as usize];
                let mut best: Option<(usize, f64)> = None;
                for (j, &out) in outs.iter().enumerate() {
                    let d = (out - y).abs();
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((j, d));
                    }
                }
                match best {
                    Some((j, _)) => Ok(self.perm_orig[start as usize + j]),
                    None => Err(PpdtError::key_corrupt("empty permutation table")),
                }
            }
        }
    }

    /// The compiled twin of [`PiecewiseTransform::locate_output`]:
    /// returns the owning (or, for gap values, nearest) piece index.
    fn locate_output(&self, y: f64) -> Result<usize, PpdtError> {
        let n = self.prog.len();
        if n == 0 {
            return Err(PpdtError::key_corrupt("transform has no pieces"));
        }
        let idx_at = |rank: usize| if self.increasing { rank } else { n - 1 - rank };
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let i = idx_at(mid);
            if y < self.output_lo[i] {
                hi = mid;
            } else if y > self.output_hi[i] {
                lo = mid + 1;
            } else {
                return Ok(i);
            }
        }
        let below = lo.checked_sub(1).map(idx_at);
        let above = (lo < n).then(|| idx_at(lo));
        match (below, above) {
            (Some(b), Some(a)) => {
                let db = (y - self.output_hi[b]).abs().min((y - self.output_lo[b]).abs());
                let da = (y - self.output_lo[a]).abs().min((y - self.output_hi[a]).abs());
                Ok(if db <= da { b } else { a })
            }
            (Some(i), None) | (None, Some(i)) => Ok(i),
            (None, None) => Err(PpdtError::key_corrupt("transform has no pieces")),
        }
    }

    /// Compiled encode of one value — bit-identical to
    /// [`PiecewiseTransform::encode`].
    pub fn encode(&self, x: f64) -> Result<f64, PpdtError> {
        let i = self.piece_for_input(x)?;
        let y = self.encode_piece(i, x).map_err(|e| e.with_piece(i))?;
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

    /// Compiled decode of one value — bit-identical to
    /// [`PiecewiseTransform::decode`].
    pub fn decode(&self, y: f64) -> Result<f64, PpdtError> {
        let i = self.locate_output(y)?;
        let x = self.decode_piece(i, y).map_err(|e| e.with_piece(i))?;
        Ok(x.clamp(self.input_lo[i], self.input_hi[i]))
    }

    /// Compiled decode snapped to the recorded active domain —
    /// bit-identical to [`PiecewiseTransform::decode_snapped`].
    pub fn decode_snapped(&self, y: f64) -> Result<f64, PpdtError> {
        let raw = self.decode(y)?;
        self.snap(raw)
    }

    /// Snaps a raw decode to the recorded active domain — the tail of
    /// [`PiecewiseTransform::decode_snapped`].
    #[inline]
    fn snap(&self, raw: f64) -> Result<f64, PpdtError> {
        nearest(&self.orig_domain, raw)
            .ok_or_else(|| PpdtError::key_corrupt("empty recorded original domain"))
    }

    /// The attribute's global direction.
    pub fn increasing(&self) -> bool {
        self.increasing
    }

    /// Batched encode of a contiguous slice: identical outputs (and
    /// identical errors, at the same first failing row) as pushing
    /// `self.encode(x)` per value, but executed piece-bucketed — one
    /// lookup pass, a counting sort grouping same-piece values into
    /// contiguous scratch, one pass per opcode over each group, and a
    /// row-order scatter back. Encoded values are appended to `dst`;
    /// on error `dst` holds exactly the rows that preceded the
    /// failure.
    pub(crate) fn encode_slice(&self, src: &[f64], dst: &mut Vec<f64>) -> Result<(), PpdtError> {
        let mut lookups = 0u64;
        let res = self.encode_bucketed(src, dst, &mut lookups);
        ppdt_obs::add(ppdt_obs::Counter::BatchedValues, dst.len() as u64);
        let lookup_counter = if self.table.is_some() {
            ppdt_obs::Counter::PieceLookupDirect
        } else {
            ppdt_obs::Counter::PieceLookupBsearch
        };
        ppdt_obs::add(lookup_counter, lookups);
        res
    }

    fn encode_bucketed(
        &self,
        src: &[f64],
        dst: &mut Vec<f64>,
        lookups: &mut u64,
    ) -> Result<(), PpdtError> {
        let np = self.prog.len();
        // Pass 1 — piece lookup per row (histogramming as it goes),
        // stopping at the first value no piece owns (NaN lands here
        // too: every range comparison is false). Rows past that point
        // can never reach `dst` — the per-value loop would have
        // stopped — so they are not encoded.
        let mut piece_of = vec![0u32; src.len()];
        let mut starts = vec![0u32; np + 1];
        let mut bad_lookup = None;
        let mut rows = src.len();
        for (r, (&x, slot)) in src.iter().zip(piece_of.iter_mut()).enumerate() {
            let i = self.piece_index(x);
            if i < np && self.input_lo[i] <= x {
                *slot = i as u32;
                starts[i + 1] += 1;
            } else {
                bad_lookup = Some(x);
                rows = r;
                break;
            }
        }
        piece_of.truncate(rows);
        *lookups += rows as u64 + u64::from(bad_lookup.is_some());

        // Pass 2 — stable counting sort: gather each piece's values
        // into one contiguous scratch range (`starts[i]..starts[i+1]`),
        // remembering every value's source row for the scatter back.
        for b in 1..=np {
            starts[b] += starts[b - 1];
        }
        let mut gathered = vec![0f64; rows];
        let mut row_of = vec![0u32; rows];
        let mut cursor: Vec<u32> = starts[..np].to_vec();
        for (r, &p) in piece_of.iter().enumerate() {
            let c = cursor[p as usize] as usize;
            gathered[c] = src[r];
            row_of[c] = r as u32;
            cursor[p as usize] = c as u32 + 1;
        }

        // Pass 3 — run each piece's program over its gathered group,
        // opcode-outer, value-inner: each value still sees the exact
        // per-value operation sequence (no data flows between values),
        // so results stay bit-identical while dispatch amortizes and
        // the inner loops vectorize. A permutation miss is *recorded*,
        // not returned — an earlier row may still fail the finiteness
        // scan, and the per-value contract is first-failing-row-wins.
        let mut perm_miss: Option<(u32, PpdtError)> = None;
        for i in 0..np {
            let (g0, g1) = (starts[i] as usize, starts[i + 1] as usize);
            if g0 == g1 {
                continue;
            }
            let vals = &mut gathered[g0..g1];
            match self.prog[i] {
                PieceProgram::Monotone { s, t, ops: (start, len) } => {
                    for op in &self.ops[start as usize..(start + len) as usize] {
                        match *op {
                            // Specialized so the pure-FMA pass
                            // vectorizes; the formula is exactly
                            // `Op::Linear`'s eval. The transcendental
                            // ops stay scalar libm calls either way.
                            Op::Linear { a, b } => {
                                for v in vals.iter_mut() {
                                    *v = a * *v + b;
                                }
                            }
                            op => {
                                for v in vals.iter_mut() {
                                    *v = op.eval(*v);
                                }
                            }
                        }
                    }
                    for v in vals.iter_mut() {
                        *v = s * *v + t;
                    }
                }
                PieceProgram::Permutation { perm: (start, len), grid } => {
                    let orig = &self.perm_orig[start as usize..(start + len) as usize];
                    let outs = &self.perm_out[start as usize..(start + len) as usize];
                    for (g, v) in vals.iter_mut().enumerate() {
                        // Grid guess first: O(1), branch-predictable,
                        // verified bit-wise — any mismatch (including
                        // inexact arithmetic on hostile floats) falls
                        // back to the binary search, so results are
                        // indistinguishable from the per-value path.
                        if let Some((first, inv_step)) = grid {
                            let j = ((*v - first) * inv_step).round() as usize;
                            if j < orig.len() && orig[j].to_bits() == v.to_bits() {
                                *v = outs[j];
                                continue;
                            }
                        }
                        match self.perm_position(start as usize, len as usize, *v) {
                            Some(p) => *v = outs[p],
                            None => {
                                let r = row_of[g0 + g];
                                if perm_miss.as_ref().is_none_or(|&(br, _)| r < br) {
                                    let e = PpdtError::DomainViolation {
                                        attr: None,
                                        piece: None,
                                        value: *v,
                                    };
                                    perm_miss = Some((r, e.with_piece(i)));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Pass 4 — scatter back into row order, then the in-order
        // finiteness scan over exactly the rows the per-value loop
        // would have reached before its first error.
        let base = dst.len();
        dst.resize(base + rows, 0.0);
        let out = &mut dst[base..];
        for (g, &r) in row_of.iter().enumerate() {
            out[r as usize] = gathered[g];
        }
        let limit = perm_miss.as_ref().map_or(rows, |&(r, _)| r as usize);
        if let Some(r) = dst[base..base + limit].iter().position(|y| !y.is_finite()) {
            let (x, y) = (src[r], dst[base + r]);
            let i = piece_of[r] as usize;
            dst.truncate(base + r);
            return Err(PpdtError::KeyCorrupt {
                attr: None,
                piece: Some(i),
                detail: format!("value {x} encodes to non-finite {y}"),
            });
        }
        if let Some((r, e)) = perm_miss {
            dst.truncate(base + r as usize);
            return Err(e);
        }
        if let Some(x) = bad_lookup {
            return Err(PpdtError::DomainViolation { attr: None, piece: None, value: x });
        }
        Ok(())
    }

    /// Batched snapped decode of a contiguous slice: identical outputs
    /// and errors as pushing `self.decode_snapped(y)` per value. Runs
    /// are carved by output-interval membership (audited keys have
    /// disjoint intervals, so membership pins the same piece
    /// `locate_output` would return); gap values — outside every
    /// interval — snap to a nearest piece that says nothing about
    /// their neighbours, so they decode singly.
    pub(crate) fn decode_slice(&self, src: &[f64], dst: &mut Vec<f64>) -> Result<(), PpdtError> {
        let res = self.decode_runs(src, dst);
        ppdt_obs::add(ppdt_obs::Counter::BatchedValues, dst.len() as u64);
        res
    }

    fn decode_runs(&self, src: &[f64], dst: &mut Vec<f64>) -> Result<(), PpdtError> {
        let mut k = 0;
        while k < src.len() {
            let y0 = src[k];
            let i = self.locate_output(y0)?;
            if !(self.output_lo[i] <= y0 && y0 <= self.output_hi[i]) {
                // Gap or NaN probe: exactly the per-value path.
                let x = self.decode_piece(i, y0).map_err(|e| e.with_piece(i))?;
                dst.push(self.snap(x.clamp(self.input_lo[i], self.input_hi[i]))?);
                k += 1;
                continue;
            }
            let (olo, ohi) = (self.output_lo[i], self.output_hi[i]);
            let mut j = k + 1;
            while j < src.len() && olo <= src[j] && src[j] <= ohi {
                j += 1;
            }
            let run = &src[k..j];
            match self.prog[i] {
                PieceProgram::Monotone { s, t, ops: (start, len) } => {
                    let base = dst.len();
                    dst.extend_from_slice(run);
                    let out = &mut dst[base..];
                    for v in out.iter_mut() {
                        *v = (*v - t) / s;
                    }
                    for op in self.ops[start as usize..(start + len) as usize].iter().rev() {
                        for v in out.iter_mut() {
                            *v = op.inverse(*v);
                        }
                    }
                    let (ilo, ihi) = (self.input_lo[i], self.input_hi[i]);
                    for v in out.iter_mut() {
                        *v = v.clamp(ilo, ihi);
                    }
                    for m in base..dst.len() {
                        match nearest(&self.orig_domain, dst[m]) {
                            Some(snapped) => dst[m] = snapped,
                            None => {
                                dst.truncate(m);
                                return Err(PpdtError::key_corrupt(
                                    "empty recorded original domain",
                                ));
                            }
                        }
                    }
                }
                PieceProgram::Permutation { .. } => {
                    for &y in run {
                        let x = self.decode_piece(i, y).map_err(|e| e.with_piece(i))?;
                        dst.push(self.snap(x.clamp(self.input_lo[i], self.input_hi[i]))?);
                    }
                }
            }
            k = j;
        }
        Ok(())
    }
}

/// A [`TransformKey`] lowered into flat per-attribute
/// [`CompiledTransform`]s. Construction audits the key, so holding a
/// `CompiledKey` certifies the key passed its structural audit — hot
/// paths can encode without re-validating.
#[derive(Clone, Debug)]
pub struct CompiledKey {
    attrs: Vec<CompiledTransform>,
}

impl CompiledKey {
    /// Audits `key` ([`crate::audit::audit_key`]) and lowers it.
    /// Returns the audit's first error when the key is corrupt.
    pub fn compile(key: &TransformKey) -> Result<CompiledKey, PpdtError> {
        if let Some(e) = crate::audit::audit_key(key).first_error() {
            return Err(e);
        }
        Ok(Self::compile_trusted(key))
    }

    /// Lowers a key **without** auditing it. Only for callers that
    /// just audited the same bytes themselves (e.g. a key store whose
    /// load path always audits); everyone else wants
    /// [`CompiledKey::compile`].
    pub fn compile_trusted(key: &TransformKey) -> CompiledKey {
        CompiledKey { attrs: key.transforms.iter().map(CompiledTransform::lower).collect() }
    }

    /// Number of attributes the key covers.
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// The compiled transform of attribute `a`, or
    /// [`PpdtError::SchemaMismatch`] — same contract (and message) as
    /// [`TransformKey::try_transform`].
    pub fn try_transform(&self, a: AttrId) -> Result<&CompiledTransform, PpdtError> {
        self.attrs.get(a.index()).ok_or_else(|| PpdtError::SchemaMismatch {
            detail: format!(
                "attribute {a} out of range for a key with {} transform(s)",
                self.attrs.len()
            ),
        })
    }

    /// Compiled twin of [`TransformKey::encode_value`].
    pub fn encode_value(&self, a: AttrId, x: f64) -> Result<f64, PpdtError> {
        self.try_transform(a)?.encode(x).map_err(|e| e.with_attr(a.index()))
    }

    /// Compiled twin of [`TransformKey::decode_value`] (snapped).
    pub fn decode_value(&self, a: AttrId, y: f64) -> Result<f64, PpdtError> {
        self.try_transform(a)?.decode_snapped(y).map_err(|e| e.with_attr(a.index()))
    }

    /// Compiled twin of [`TransformKey::decode_value_raw`].
    pub fn decode_value_raw(&self, a: AttrId, y: f64) -> Result<f64, PpdtError> {
        self.try_transform(a)?.decode(y).map_err(|e| e.with_attr(a.index()))
    }

    /// Encodes a whole column into `dst` (cleared first). One
    /// reservation up front, then the batched run engine: piece lookup
    /// and opcode dispatch are amortized over same-piece runs, with
    /// results — and errors, at the same row — bit-identical to
    /// calling [`CompiledKey::encode_value`] per value.
    pub fn encode_column(
        &self,
        a: AttrId,
        src: &[f64],
        dst: &mut Vec<f64>,
    ) -> Result<(), PpdtError> {
        let tr = self.try_transform(a)?;
        dst.clear();
        dst.reserve(src.len());
        tr.encode_slice(src, dst).map_err(|e| e.with_attr(a.index()))
    }

    /// Decodes a whole column (snapped to the recorded active domain)
    /// into `dst` (cleared first) — the batched twin of calling
    /// [`CompiledKey::decode_value`] per value, bit-identical
    /// including error positions.
    pub fn decode_column(
        &self,
        a: AttrId,
        src: &[f64],
        dst: &mut Vec<f64>,
    ) -> Result<(), PpdtError> {
        let tr = self.try_transform(a)?;
        dst.clear();
        dst.reserve(src.len());
        tr.decode_slice(src, dst).map_err(|e| e.with_attr(a.index()))
    }

    /// Compiled twin of [`TransformKey::decode_dataset`]: inverts a
    /// whole encoded dataset through the batched column engine. Same
    /// schema-mismatch contract, same per-attribute error context,
    /// bit-identical cells.
    pub fn decode_dataset(
        &self,
        d_prime: &ppdt_data::Dataset,
    ) -> Result<ppdt_data::Dataset, PpdtError> {
        if self.attrs.len() != d_prime.num_attrs() {
            return Err(PpdtError::SchemaMismatch {
                detail: format!(
                    "key has {} transform(s) but the dataset has {} attribute(s)",
                    self.attrs.len(),
                    d_prime.num_attrs()
                ),
            });
        }
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(self.attrs.len());
        for a in d_prime.schema().attrs() {
            let mut col = Vec::new();
            self.decode_column(a, d_prime.column(a), &mut col)?;
            columns.push(col);
        }
        Ok(d_prime.with_columns(columns))
    }

    /// Drops every attribute's direct-index lookup table, forcing the
    /// binary-search piece-lookup path. Exists so equivalence tests
    /// can pin direct-vs-bsearch bit-identity from outside the crate;
    /// not part of the supported API.
    #[doc(hidden)]
    pub fn without_lookup_tables(mut self) -> CompiledKey {
        for tr in &mut self.attrs {
            tr.table = None;
            tr.perm_table = None;
        }
        self
    }

    /// Whether attribute `a` compiled with a direct-index table over
    /// its permutation pool. Test-only observability.
    #[doc(hidden)]
    pub fn has_perm_table(&self, a: AttrId) -> bool {
        self.attrs.get(a.index()).is_some_and(|tr| tr.perm_table.is_some())
    }

    /// Whether attribute `a` compiled with a direct-index lookup
    /// table. Test-only observability for the density heuristic.
    #[doc(hidden)]
    pub fn has_lookup_table(&self, a: AttrId) -> bool {
        self.attrs.get(a.index()).is_some_and(|tr| tr.table.is_some())
    }
}

/// A fused decode∘encode plan for online key rotation: re-encodes
/// data already encoded under a *source* key so it reads as if it had
/// been encoded under a *target* key, one column at a time.
///
/// The fusion is at the column level: each attribute is decoded
/// through the source plan's batched engine into a single reused
/// scratch buffer and immediately re-encoded through the target
/// plan's, so the only plaintext ever materialized is one column's
/// worth inside this plan — no decoded `Dataset` is ever built, which
/// is what lets a custodian daemon rotate keys without the cleartext
/// relation crossing its boundary.
///
/// Because both halves *are* the batched column paths
/// ([`CompiledKey::decode_column`] / [`CompiledKey::encode_column`]),
/// the output is **bit-identical** to the unfused decode-then-encode
/// sequence — same bits, and the same error at the same row — which
/// the `rekey` proptest in `tests/compiled_equivalence.rs` pins.
#[derive(Debug)]
pub struct RekeyPlan<'k> {
    src: &'k CompiledKey,
    dst: &'k CompiledKey,
    /// Reused per-column plaintext scratch; cleared by every decode.
    scratch: Vec<f64>,
}

impl<'k> RekeyPlan<'k> {
    /// Builds a rotation plan from key `src` to key `dst`. The keys
    /// must cover the same number of attributes
    /// ([`PpdtError::SchemaMismatch`] otherwise).
    pub fn new(src: &'k CompiledKey, dst: &'k CompiledKey) -> Result<RekeyPlan<'k>, PpdtError> {
        if src.num_attrs() != dst.num_attrs() {
            return Err(PpdtError::SchemaMismatch {
                detail: format!(
                    "cannot rekey: source key has {} transform(s) but target has {}",
                    src.num_attrs(),
                    dst.num_attrs()
                ),
            });
        }
        Ok(RekeyPlan { src, dst, scratch: Vec::new() })
    }

    /// Number of attributes both keys cover.
    pub fn num_attrs(&self) -> usize {
        self.src.num_attrs()
    }

    /// Rotates one column: snapped decode under the source key into
    /// the internal scratch, then encode under the target key into
    /// `dst_col` (cleared first). Bit-identical — including the error
    /// and the row it surfaces at — to calling
    /// [`CompiledKey::decode_column`] then
    /// [`CompiledKey::encode_column`] with a caller-held buffer.
    pub fn rekey_column(
        &mut self,
        a: AttrId,
        src_col: &[f64],
        dst_col: &mut Vec<f64>,
    ) -> Result<(), PpdtError> {
        let (src, dst) = (self.src, self.dst);
        src.decode_column(a, src_col, &mut self.scratch)?;
        dst.encode_column(a, &self.scratch, dst_col)
    }

    /// Rotates a whole encoded dataset: every column through
    /// [`RekeyPlan::rekey_column`], schema and labels untouched. Same
    /// arity contract as [`CompiledKey::decode_dataset`].
    pub fn rekey_dataset(
        &mut self,
        d_prime: &ppdt_data::Dataset,
    ) -> Result<ppdt_data::Dataset, PpdtError> {
        if self.num_attrs() != d_prime.num_attrs() {
            return Err(PpdtError::SchemaMismatch {
                detail: format!(
                    "rekey plan covers {} attribute(s) but the dataset has {}",
                    self.num_attrs(),
                    d_prime.num_attrs()
                ),
            });
        }
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(self.num_attrs());
        for a in d_prime.schema().attrs() {
            let mut col = Vec::new();
            self.rekey_column(a, d_prime.column(a), &mut col)?;
            columns.push(col);
        }
        Ok(d_prime.with_columns(columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::BreakpointStrategy;
    use crate::encoder::{EncodeConfig, Encoder};
    use crate::family::FnFamily;
    use ppdt_data::gen::{random_dataset, RandomDatasetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_key(
        seed: u64,
        anti: f64,
        family: FnFamily,
    ) -> (crate::TransformKey, ppdt_data::Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg =
            RandomDatasetConfig { num_rows: 120, num_attrs: 3, num_classes: 3, value_range: 18 };
        let d = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig {
            strategy: BreakpointStrategy::ChooseMaxMP { w: 4, min_piece_len: 1 },
            family,
            anti_monotone_prob: anti,
            ..Default::default()
        };
        let (key, _) = Encoder::new(config).encode(&mut rng, &d).unwrap().into_parts();
        (key, d)
    }

    #[test]
    fn compiled_encode_decode_bit_identical_on_domain() {
        for (seed, anti, family) in
            [(1, 0.0, FnFamily::Mixed), (2, 1.0, FnFamily::Mixed), (3, 0.5, FnFamily::Composed)]
        {
            let (key, d) = sample_key(seed, anti, family);
            let compiled = CompiledKey::compile(&key).unwrap();
            for a in d.schema().attrs() {
                for &x in &d.active_domain(a) {
                    let y_i = key.encode_value(a, x).unwrap();
                    let y_c = compiled.encode_value(a, x).unwrap();
                    assert_eq!(y_i.to_bits(), y_c.to_bits(), "encode attr {a} value {x}");
                    let x_i = key.decode_value(a, y_i).unwrap();
                    let x_c = compiled.decode_value(a, y_c).unwrap();
                    assert_eq!(x_i.to_bits(), x_c.to_bits(), "decode attr {a} value {x}");
                }
            }
        }
    }

    #[test]
    fn compiled_errors_match_interpreted() {
        let (key, _) = sample_key(7, 0.0, FnFamily::Mixed);
        let compiled = CompiledKey::compile(&key).unwrap();
        // Out-of-range attribute: same SchemaMismatch.
        assert_eq!(
            key.encode_value(AttrId(99), 1.0).unwrap_err(),
            compiled.encode_value(AttrId(99), 1.0).unwrap_err(),
        );
        // Out-of-domain value: same DomainViolation with attr context.
        assert_eq!(
            key.encode_value(AttrId(0), 1e12).unwrap_err(),
            compiled.encode_value(AttrId(0), 1e12).unwrap_err(),
        );
    }

    #[test]
    fn compile_rejects_corrupt_keys() {
        let (mut key, _) = sample_key(9, 0.0, FnFamily::Mixed);
        key.transforms[0].pieces.clear();
        assert!(CompiledKey::compile(&key).is_err());
    }

    #[test]
    fn encode_column_matches_per_value() {
        let (key, d) = sample_key(11, 1.0, FnFamily::Mixed);
        let compiled = CompiledKey::compile(&key).unwrap();
        let mut out = Vec::new();
        for a in d.schema().attrs() {
            compiled.encode_column(a, d.column(a), &mut out).unwrap();
            for (&x, &y) in d.column(a).iter().zip(&out) {
                assert_eq!(key.encode_value(a, x).unwrap().to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn decode_column_matches_per_value() {
        let (key, d) = sample_key(13, 0.5, FnFamily::Composed);
        let compiled = CompiledKey::compile(&key).unwrap();
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        for a in d.schema().attrs() {
            compiled.encode_column(a, d.column(a), &mut enc).unwrap();
            // Mix in gap probes between real codes so the single-value
            // fallback path runs too.
            let mut probes = enc.clone();
            probes.push(f64::NAN);
            probes.push(1e9);
            probes.push(-1e9);
            compiled.decode_column(a, &probes, &mut dec).unwrap();
            for (&y, &x) in probes.iter().zip(&dec) {
                assert_eq!(key.decode_value(a, y).unwrap().to_bits(), x.to_bits(), "attr {a}");
            }
        }
    }

    #[test]
    fn decode_dataset_matches_interpreted() {
        let mut rng = StdRng::seed_from_u64(17);
        let cfg =
            RandomDatasetConfig { num_rows: 120, num_attrs: 3, num_classes: 3, value_range: 18 };
        let d = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig {
            strategy: BreakpointStrategy::ChooseMaxMP { w: 4, min_piece_len: 1 },
            family: FnFamily::Mixed,
            anti_monotone_prob: 0.5,
            ..Default::default()
        };
        let (key, d2) = Encoder::new(config).encode(&mut rng, &d).unwrap().into_parts();
        let compiled = CompiledKey::compile(&key).unwrap();
        assert_eq!(key.decode_dataset(&d2).unwrap(), compiled.decode_dataset(&d2).unwrap());
        // Same schema-mismatch contract on an arity mismatch.
        let narrow_cfg = RandomDatasetConfig { num_attrs: 2, ..cfg };
        let narrow = random_dataset(&mut rng, &narrow_cfg);
        assert_eq!(
            key.decode_dataset(&narrow).unwrap_err(),
            compiled.decode_dataset(&narrow).unwrap_err(),
        );
    }

    #[test]
    fn lookup_table_and_bsearch_agree() {
        let (key, d) = sample_key(19, 0.5, FnFamily::Mixed);
        let tabled = CompiledKey::compile(&key).unwrap();
        let plain = tabled.clone().without_lookup_tables();
        assert!(
            d.schema().attrs().any(|a| tabled.has_lookup_table(a)),
            "sample keys should be dense enough to build at least one table"
        );
        let (mut a_out, mut b_out) = (Vec::new(), Vec::new());
        for a in d.schema().attrs() {
            // Domain values, shifted off-domain probes, and hostile
            // floats all resolve to the same piece either way.
            let mut probes = d.column(a).to_vec();
            probes.extend(probes.clone().iter().map(|x| x + 0.5));
            probes.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e300, 1e300, 0.0]);
            for &x in &probes {
                let ya = tabled.encode_value(a, x);
                let yb = plain.encode_value(a, x);
                match (ya, yb) {
                    (Ok(ya), Ok(yb)) => assert_eq!(ya.to_bits(), yb.to_bits(), "attr {a} x {x}"),
                    // Debug strings, because PartialEq on a
                    // DomainViolation carrying NaN is always false.
                    (ya, yb) => assert_eq!(format!("{ya:?}"), format!("{yb:?}"), "attr {a} x {x}"),
                }
            }
            let ra = tabled.encode_column(a, &probes, &mut a_out);
            let rb = plain.encode_column(a, &probes, &mut b_out);
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "attr {a}");
            assert_eq!(
                a_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "attr {a}"
            );
        }
    }

    #[test]
    fn perm_pool_table_matches_binary_search() {
        // Hand-built pool: gappy spacing (no grid), a -0.0/0.0
        // adjacency (IEEE `<` says they're equal, total_cmp orders
        // them), and enough spread that the density heuristic accepts.
        let pool = vec![-3.5, -0.0, 0.0, 1.0, 2.5, 4.0, 7.25, 9.0, 12.0, 100.0];
        let tr = CompiledTransform {
            increasing: true,
            input_lo: Vec::new(),
            input_hi: Vec::new(),
            output_lo: Vec::new(),
            output_hi: Vec::new(),
            prog: Vec::new(),
            ops: Vec::new(),
            perm_orig: pool.clone(),
            perm_out: vec![0.0; pool.len()],
            orig_domain: Vec::new(),
            table: None,
            perm_table: LookupTable::build(pool[0], &pool, 8, 1 << 17),
        };
        assert!(tr.perm_table.is_some(), "spread-out pool should build a table");
        let mut probes = pool.clone();
        probes.extend([
            -0.0,
            0.0,
            0.5,
            3.0,
            -1.0,
            -100.0,
            50.0,
            1e3,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e300,
            1e300,
        ]);
        // Every sub-slice a piece could own, including empty ones.
        for start in 0..pool.len() {
            for len in 0..=(pool.len() - start) {
                for &x in &probes {
                    assert_eq!(
                        tr.perm_position(start, len, x),
                        pool[start..start + len].binary_search_by(|o| o.total_cmp(&x)).ok(),
                        "start {start} len {len} probe {x}",
                    );
                }
            }
        }
    }

    #[test]
    fn rekey_matches_unfused_and_direct_target_encode() {
        // Two independent keys over the same dataset: rotating D'_A
        // through the fused plan must equal (a) the unfused
        // decode-then-encode sequence bit-for-bit and (b) a direct
        // encode of the original data under key B, because snapped
        // decode is exact on genuine codes.
        let (key_a, d) = sample_key(31, 0.5, FnFamily::Mixed);
        let mut rng = StdRng::seed_from_u64(32);
        let config = EncodeConfig {
            strategy: BreakpointStrategy::ChooseMaxMP { w: 4, min_piece_len: 1 },
            family: FnFamily::Mixed,
            anti_monotone_prob: 0.5,
            ..Default::default()
        };
        let (key_b, d_b) = Encoder::new(config).encode(&mut rng, &d).unwrap().into_parts();
        let (plan_a, plan_b) =
            (CompiledKey::compile(&key_a).unwrap(), CompiledKey::compile(&key_b).unwrap());
        let mut rekey = RekeyPlan::new(&plan_a, &plan_b).unwrap();
        for a in d.schema().attrs() {
            let mut src_col = Vec::new();
            plan_a.encode_column(a, d.column(a), &mut src_col).unwrap();
            let mut fused = Vec::new();
            rekey.rekey_column(a, &src_col, &mut fused).unwrap();
            let (mut plain, mut unfused) = (Vec::new(), Vec::new());
            plan_a.decode_column(a, &src_col, &mut plain).unwrap();
            plan_b.encode_column(a, &plain, &mut unfused).unwrap();
            assert_eq!(
                fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                unfused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "attr {a}: fused and unfused rekey diverged"
            );
            assert_eq!(
                fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                d_b.column(a).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "attr {a}: rekeyed column must equal the direct key-B encode"
            );
        }
        // Whole-dataset rotation reproduces the key-B encode exactly.
        let d_a = d.with_columns(
            d.schema()
                .attrs()
                .map(|a| {
                    let mut col = Vec::new();
                    plan_a.encode_column(a, d.column(a), &mut col).unwrap();
                    col
                })
                .collect(),
        );
        assert_eq!(rekey.rekey_dataset(&d_a).unwrap(), d_b);
    }

    #[test]
    fn rekey_arity_mismatch_is_schema_error() {
        let (key_a, _) = sample_key(33, 0.0, FnFamily::Mixed);
        let plan_a = CompiledKey::compile(&key_a).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        let cfg =
            RandomDatasetConfig { num_rows: 60, num_attrs: 2, num_classes: 2, value_range: 12 };
        let narrow = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig {
            strategy: BreakpointStrategy::ChooseMaxMP { w: 4, min_piece_len: 1 },
            family: FnFamily::Mixed,
            ..Default::default()
        };
        let (key_b, _) = Encoder::new(config).encode(&mut rng, &narrow).unwrap().into_parts();
        let plan_b = CompiledKey::compile(&key_b).unwrap();
        assert!(matches!(RekeyPlan::new(&plan_a, &plan_b), Err(PpdtError::SchemaMismatch { .. })));
        // Dataset arity is checked too.
        let mut same = RekeyPlan::new(&plan_a, &plan_a).unwrap();
        assert!(matches!(same.rekey_dataset(&narrow), Err(PpdtError::SchemaMismatch { .. })));
    }

    #[test]
    fn batched_errors_match_per_value_mid_column() {
        let (key, d) = sample_key(23, 0.5, FnFamily::Mixed);
        let compiled = CompiledKey::compile(&key).unwrap();
        let a = AttrId(0);
        // A poisoned value mid-column errors identically to the
        // per-value loop, and rows before it survive in `dst`.
        let mut col = d.column(a).to_vec();
        let poison_at = col.len() / 2;
        col[poison_at] = 1e12;
        let per_value_err = key.encode_value(a, 1e12).unwrap_err();
        let mut out = Vec::new();
        let batched_err = compiled.encode_column(a, &col, &mut out).unwrap_err();
        assert_eq!(batched_err, per_value_err);
        assert_eq!(out.len(), poison_at, "rows before the failure are kept");
        for (&x, &y) in col[..poison_at].iter().zip(&out) {
            assert_eq!(key.encode_value(a, x).unwrap().to_bits(), y.to_bits());
        }
    }
}
