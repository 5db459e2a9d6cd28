//! Property test: the compiled plan ([`CompiledKey`]) is
//! **bit-identical** to the interpreted [`TransformKey`] path — for
//! encode, snapped decode, and raw decode — over random keys covering
//! every breakpoint strategy, anti-monotone directions, and
//! permutation pieces. The compiled layer exists purely for speed; any
//! observable difference, down to the last mantissa bit, is a bug.
//!
//! The batched column paths (`encode_column` / `decode_column`) and
//! the direct-index piece-lookup table are held to the same bar: same
//! bits, and the same error at the same row when a column fails
//! mid-way, whether lookup ran through the table or binary search.
//!
//! `Encoder::encode` applies every drawn key through the same batched
//! engine, so its `D'` is held to the interpreted per-value oracle too.

use ppdt_data::gen::{census_like, random_dataset, RandomDatasetConfig};
use ppdt_data::AttrId;
use ppdt_transform::{
    BreakpointStrategy, CompiledKey, EncodeConfig, Encoder, PieceKind, RekeyPlan,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts every observable of the compiled plan matches the
/// interpreted key on `probe` values for attribute `a`.
fn assert_equivalent(
    key: &ppdt_transform::TransformKey,
    plan: &CompiledKey,
    a: AttrId,
    probes: &[f64],
) {
    for &x in probes {
        let interp = key.encode_value(a, x);
        let compiled = plan.encode_value(a, x);
        match (interp, compiled) {
            (Ok(yi), Ok(yc)) => {
                assert_eq!(
                    yi.to_bits(),
                    yc.to_bits(),
                    "attr {}: encode({x}) diverged: {yi} vs {yc}",
                    a.index()
                );
                // Decode the encoded value back through both paths.
                let di = key.decode_value(a, yi).expect("interpreted decode");
                let dc = plan.decode_value(a, yc).expect("compiled decode");
                assert_eq!(
                    di.to_bits(),
                    dc.to_bits(),
                    "attr {}: decode({yi}) diverged: {di} vs {dc}",
                    a.index()
                );
                let ri = key.decode_value_raw(a, yi).expect("interpreted raw decode");
                let rc = plan.decode_value_raw(a, yc).expect("compiled raw decode");
                assert_eq!(
                    ri.to_bits(),
                    rc.to_bits(),
                    "attr {}: raw decode({yi}) diverged: {ri} vs {rc}",
                    a.index()
                );
            }
            (Err(ei), Err(ec)) => {
                // Both reject: the rejections must be the *same* error.
                // Debug strings, because PartialEq on an error carrying
                // NaN is always false.
                assert_eq!(
                    format!("{ei:?}"),
                    format!("{ec:?}"),
                    "attr {}: paths reject {x} differently",
                    a.index()
                );
            }
            (i, c) => panic!(
                "attr {}: paths disagree on whether {x} encodes: interpreted {i:?}, compiled {c:?}",
                a.index()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn prop_compiled_plan_is_bit_identical_to_interpreted(
        seed in 0u64..u64::from(u32::MAX),
        rows in 40usize..140,
        anti in 0.0f64..1.0,
        force_anti in any::<bool>(),
        strategy_pick in 0usize..3,
    ) {
        let anti = if force_anti { 1.0 } else { anti };
        let strategy = match strategy_pick {
            0 => BreakpointStrategy::None,
            1 => BreakpointStrategy::ChooseBP { w: 6 },
            _ => BreakpointStrategy::ChooseMaxMP { w: 8, min_piece_len: 3 },
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let d = census_like(&mut rng, rows);
        let cfg = EncodeConfig { strategy, anti_monotone_prob: anti, ..Default::default() };
        let (key, d_prime) =
            Encoder::new(cfg).encode(&mut rng, &d).expect("encode clean data").into_parts();
        let plan = CompiledKey::compile(&key).expect("audited key must compile");
        prop_assert!(plan.num_attrs() == key.transforms.len());
        // Same plan with every direct-index lookup table dropped: the
        // binary-search fallback must be indistinguishable.
        let plain = plan.clone().without_lookup_tables();

        for (i, t) in key.transforms.iter().enumerate() {
            let a = AttrId(i);
            // Probe every recorded domain value plus off-grid points:
            // midpoints between neighbors and values outside the
            // domain hull (which both paths must reject identically).
            let mut probes = t.orig_domain.clone();
            for w in t.orig_domain.windows(2) {
                probes.push((w[0] + w[1]) / 2.0);
            }
            if let (Some(&lo), Some(&hi)) = (t.orig_domain.first(), t.orig_domain.last()) {
                probes.push(lo - 1.0);
                probes.push(hi + 1.0);
            }
            probes.push(rng.gen_range(-1e6..1e6));
            probes.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
            assert_equivalent(&key, &plan, a, &probes);
            // The bsearch-only plan passes the exact same battery.
            assert_equivalent(&key, &plain, a, &probes);

            // Column encode agrees with the interpreted per-value loop.
            let src = d.column(a);
            let mut dst = Vec::new();
            plan.encode_column(a, src, &mut dst).expect("column encode");
            prop_assert!(dst.len() == src.len());
            for (j, (&x, &y)) in src.iter().zip(&dst).enumerate() {
                let yi = key.encode_value(a, x).expect("interpreted encode");
                prop_assert!(
                    yi.to_bits() == y.to_bits(),
                    "attr {i} row {j}: column encode diverged: {yi} vs {y}"
                );
            }
            let mut dst_plain = Vec::new();
            plain.encode_column(a, src, &mut dst_plain).expect("column encode (bsearch)");
            prop_assert!(
                dst.iter().zip(&dst_plain).all(|(x, y)| x.to_bits() == y.to_bits()),
                "attr {i}: table and bsearch column encodes diverged"
            );

            // Batched snapped decode agrees with the interpreted
            // per-value loop, gap probes included.
            let mut codes = dst.clone();
            codes.push(1e9);
            codes.push(-1e9);
            let mut dec = Vec::new();
            plan.decode_column(a, &codes, &mut dec).expect("column decode");
            prop_assert!(dec.len() == codes.len());
            for (j, (&y, &x)) in codes.iter().zip(&dec).enumerate() {
                let xi = key.decode_value(a, y).expect("interpreted decode");
                prop_assert!(
                    xi.to_bits() == x.to_bits(),
                    "attr {i} row {j}: column decode diverged: {xi} vs {x}"
                );
            }

            // Errors surface at the same row as the per-value loop:
            // poison a value mid-column and compare error + prefix.
            if !src.is_empty() {
                let mut poisoned = src.to_vec();
                let at = poisoned.len() / 2;
                poisoned[at] = f64::MAX; // outside every recorded hull
                let want = key.encode_value(a, f64::MAX).unwrap_err();
                for p in [&plan, &plain] {
                    let mut out = Vec::new();
                    let got = p.encode_column(a, &poisoned, &mut out).unwrap_err();
                    prop_assert!(got == want, "attr {i}: mid-column error diverged: {got:?}");
                    prop_assert!(out.len() == at, "attr {i}: error surfaced at the wrong row");
                }
            }
        }

        // Whole-dataset check: the compiled columns reproduce D'.
        for (i, t) in key.transforms.iter().enumerate() {
            let a = AttrId(i);
            let mut dst = Vec::new();
            plan.encode_column(a, d.column(a), &mut dst).expect("column encode");
            prop_assert!(
                dst.iter().zip(d_prime.column(a)).all(|(x, y)| x.to_bits() == y.to_bits()),
                "attr {i}: compiled columns must reproduce the encoder's D'"
            );
            let _ = t;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    /// The fused rotation plan ([`RekeyPlan`]) is bit-identical to the
    /// unfused decode-then-encode sequence — same bits on success, the
    /// same error on failure — and, when both keys were mined on the
    /// same relation, the rotated columns equal a direct encode under
    /// the target key (snapped decode is exact on genuine codes).
    #[test]
    fn prop_fused_rekey_is_bit_identical_to_unfused(
        seed in 0u64..u64::from(u32::MAX),
        rows in 40usize..120,
        anti_a in 0.0f64..1.0,
        anti_b in 0.0f64..1.0,
        foreign_target in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = census_like(&mut rng, rows);
        let cfg_a = EncodeConfig {
            strategy: BreakpointStrategy::ChooseBP { w: 6 },
            anti_monotone_prob: anti_a,
            ..Default::default()
        };
        let cfg_b = EncodeConfig {
            strategy: BreakpointStrategy::ChooseMaxMP { w: 8, min_piece_len: 3 },
            anti_monotone_prob: anti_b,
            ..Default::default()
        };
        let (key_a, d_a) =
            Encoder::new(cfg_a).encode(&mut rng, &d).expect("encode A").into_parts();
        // A "foreign" target key is mined on a different relation with
        // the same arity, so decoded source values may fall outside its
        // domain — exercising the error path, which must also match.
        let target_data =
            if foreign_target { census_like(&mut rng, rows) } else { d.clone() };
        let (key_b, d_b) =
            Encoder::new(cfg_b).encode(&mut rng, &target_data).expect("encode B").into_parts();
        let plan_a = CompiledKey::compile(&key_a).expect("compile A");
        let plan_b = CompiledKey::compile(&key_b).expect("compile B");
        let mut rekey = RekeyPlan::new(&plan_a, &plan_b).expect("same arity");

        for a in d.schema().attrs() {
            let src_col = d_a.column(a);
            let mut fused = Vec::new();
            let fused_res = rekey.rekey_column(a, src_col, &mut fused);
            let (mut plain, mut unfused) = (Vec::new(), Vec::new());
            let unfused_res = plan_a
                .decode_column(a, src_col, &mut plain)
                .and_then(|()| plan_b.encode_column(a, &plain, &mut unfused));
            // Same outcome (Debug strings: errors can carry NaN)...
            prop_assert!(
                format!("{fused_res:?}") == format!("{unfused_res:?}"),
                "attr {a}: fused {fused_res:?} vs unfused {unfused_res:?}"
            );
            // ...and the same bits up to the same row.
            prop_assert!(
                fused.iter().zip(&unfused).all(|(x, y)| x.to_bits() == y.to_bits())
                    && fused.len() == unfused.len(),
                "attr {a}: fused and unfused outputs diverged"
            );
            if !foreign_target {
                prop_assert!(fused_res.is_ok(), "attr {a}: same-relation rekey must succeed");
                prop_assert!(
                    fused.iter().zip(d_b.column(a)).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "attr {a}: rekeyed column must equal the direct key-B encode"
                );
            }
        }
        if !foreign_target {
            prop_assert!(rekey.rekey_dataset(&d_a).expect("rekey dataset") == d_b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    /// Every column of the `D'` that `Encoder::encode` returns is
    /// bit-equal to mapping the interpreted
    /// [`PiecewiseTransform::encode`](ppdt_transform::PiecewiseTransform::encode)
    /// over the original column — for each breakpoint strategy, both
    /// global directions, and serial or threaded encoding.
    #[test]
    fn prop_encoder_output_matches_interpreted_encode(
        seed in 0u64..u64::from(u32::MAX),
        rows in 20usize..160,
        attrs in 1usize..5,
        classes in 2usize..4,
        value_range in 3u64..60,
        strategy_pick in 0usize..3,
        anti in any::<bool>(),
        threads in 1usize..3,
    ) {
        let strategy = match strategy_pick {
            0 => BreakpointStrategy::None,
            1 => BreakpointStrategy::ChooseBP { w: 6 },
            _ => BreakpointStrategy::ChooseMaxMP { w: 8, min_piece_len: 2 },
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = RandomDatasetConfig {
            num_rows: rows,
            num_attrs: attrs,
            num_classes: classes,
            value_range,
        };
        let d = random_dataset(&mut rng, &shape);
        let cfg = EncodeConfig {
            strategy,
            anti_monotone_prob: if anti { 1.0 } else { 0.0 },
            ..Default::default()
        };
        let (key, d_prime) = Encoder::new(cfg)
            .threads(threads)
            .encode(&mut rng, &d)
            .expect("encode clean data")
            .into_parts();
        for a in d.schema().attrs() {
            let tr = key.transform(a);
            prop_assert!(tr.increasing != anti, "attr {a}: direction must follow the config");
            prop_assert!(d_prime.column(a).len() == d.column(a).len());
            for (j, (&x, &y)) in d.column(a).iter().zip(d_prime.column(a)).enumerate() {
                let want = tr.encode(x).expect("interpreted encode of a domain value");
                prop_assert!(
                    want.to_bits() == y.to_bits(),
                    "attr {a} row {j}: encoder wrote {y}, interpreted encode gives {want}"
                );
            }
        }
    }
}

/// Deterministic companion pinning the hard cases — permutation
/// pieces and fully anti-monotone keys — so the property above cannot
/// silently lose coverage if the generators drift.
#[test]
fn compiled_matches_interpreted_on_permutation_and_anti_monotone_key() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let d = census_like(&mut rng, 200);
    let cfg = EncodeConfig {
        strategy: BreakpointStrategy::ChooseMaxMP { w: 10, min_piece_len: 3 },
        anti_monotone_prob: 1.0,
        ..Default::default()
    };
    let (key, _) = Encoder::new(cfg).encode(&mut rng, &d).expect("encode").into_parts();
    assert!(key.transforms.iter().all(|t| !t.increasing));
    assert!(
        key.transforms
            .iter()
            .flat_map(|t| &t.pieces)
            .any(|p| matches!(p.kind, PieceKind::Permutation { .. })),
        "fixture must contain permutation pieces"
    );
    let plan = CompiledKey::compile(&key).expect("compiles");
    for (i, t) in key.transforms.iter().enumerate() {
        assert_equivalent(&key, &plan, AttrId(i), &t.orig_domain);
    }
}

/// Guards the proptest's direct-vs-bsearch coverage: if the density
/// heuristic ever stopped building tables for ordinary multi-piece
/// keys, the "table and bsearch agree" assertions above would pass
/// vacuously. Pin that at least one attribute actually compiles with
/// a direct-index table on a representative key.
#[test]
fn dense_keys_build_direct_index_tables() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let d = census_like(&mut rng, 200);
    let cfg = EncodeConfig {
        strategy: BreakpointStrategy::ChooseMaxMP { w: 8, min_piece_len: 3 },
        ..Default::default()
    };
    let (key, _) = Encoder::new(cfg).encode(&mut rng, &d).expect("encode").into_parts();
    let plan = CompiledKey::compile(&key).expect("compiles");
    assert!(
        (0..key.transforms.len()).any(|i| plan.has_lookup_table(AttrId(i))),
        "no attribute built a direct-index table; the heuristic regressed"
    );
}
