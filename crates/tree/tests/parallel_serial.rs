//! Cross-validation: parallel split search must be bit-identical to
//! serial — same nodes, same thresholds, same scores — for every
//! criterion and every threshold policy, because each
//! worker scans a contiguous ascending attribute range and the serial
//! reduction re-applies the attr-major first-wins tie-break with the
//! same strict `<`. Mirror of `crates/transform/tests/parallel_serial.rs`.

use ppdt_data::gen::{census_like, random_dataset, RandomDatasetConfig};
use ppdt_data::Dataset;
use ppdt_tree::{tree_diff, trees_equal, SplitCriterion, ThresholdPolicy, TreeBuilder, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread counts under test: serial, the smallest genuine fan-out, and
/// more workers than most datasets have attributes (exercises range
/// clamping).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_thread_count_invariant(d: &Dataset, params: TreeParams, label: &str) {
    let serial = TreeBuilder::new(params).with_threads(Some(1)).fit(d);
    for threads in THREAD_COUNTS {
        let fit = TreeBuilder::new(params).with_threads(Some(threads)).fit(d);
        assert!(
            trees_equal(&serial, &fit),
            "{label}: fit at {threads} threads differs: {:?}",
            tree_diff(&serial, &fit, 0.0)
        );
    }
}

#[test]
fn parallel_matches_serial_on_seeded_random_datasets() {
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..6 {
        let cfg = RandomDatasetConfig {
            num_rows: 300 + trial * 150,
            num_attrs: 2 + trial % 5,
            num_classes: 2 + trial % 3,
            value_range: 5 + (trial as u64 * 7) % 30,
        };
        let d = random_dataset(&mut rng, &cfg);
        for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
            for policy in [ThresholdPolicy::DataValue, ThresholdPolicy::Midpoint] {
                let params = TreeParams {
                    criterion,
                    threshold_policy: policy,
                    min_samples_leaf: 1 + (trial as u32) % 3,
                    ..Default::default()
                };
                assert_thread_count_invariant(
                    &d,
                    params,
                    &format!("trial {trial} {criterion:?} {policy:?}"),
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_above_the_fanout_gate() {
    // Large enough (rows × attrs ≥ the internal parallel gate) that
    // multi-thread runs actually take the scoped-thread path rather
    // than falling back to the serial loop.
    let mut rng = StdRng::seed_from_u64(21);
    let d = census_like(&mut rng, 4_000);
    for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
        let params = TreeParams::with_criterion(criterion);
        assert_thread_count_invariant(&d, params, &format!("census {criterion:?}"));
    }
}

#[test]
fn parallel_matches_serial_with_stopping_rules() {
    let mut rng = StdRng::seed_from_u64(31);
    let d = census_like(&mut rng, 2_500);
    for params in [
        TreeParams { max_depth: 4, ..Default::default() },
        TreeParams { min_samples_split: 40, ..Default::default() },
        TreeParams { min_impurity_decrease: 0.02, ..Default::default() },
        TreeParams { min_samples_leaf: 20, ..Default::default() },
    ] {
        assert_thread_count_invariant(&d, params, &format!("{params:?}"));
    }
}

#[test]
fn ppdt_threads_env_override_does_not_change_the_tree() {
    // PPDT_THREADS is process-global; this is safe to run alongside
    // the other tests because thread count never changes any output —
    // which is exactly what this test demonstrates.
    let mut rng = StdRng::seed_from_u64(41);
    let d = census_like(&mut rng, 1_500);
    let baseline = TreeBuilder::default().with_threads(Some(1)).fit(&d);
    std::env::set_var("PPDT_THREADS", "3");
    let under_env = TreeBuilder::default().fit(&d);
    std::env::remove_var("PPDT_THREADS");
    let default = TreeBuilder::default().fit(&d);
    for (t, label) in [(&under_env, "PPDT_THREADS=3 fit"), (&default, "default fit")] {
        assert!(trees_equal(&baseline, t), "{label}: {:?}", tree_diff(&baseline, t, 0.0));
    }
}
