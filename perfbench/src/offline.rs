//! `offline_pipeline`: the custodian's offline path as library calls in
//! this process. Every iteration gets a fresh table derived from the
//! seed, alternating a covertype-like table (~29k rows, 10 attributes)
//! and a census-like one (20k rows, wide integer domains), and runs
//! `Encoder::encode` → `TreeBuilder::fit(D')` →
//! `TransformKey::decode_tree` → domain-risk `run_trials`.
//!
//! The decoded tree must equal the tree mined on the plaintext
//! (Theorem 2) and every risk median must be a fraction; that oracle
//! work runs outside the timed iteration.

use std::time::Instant;

use ppdt_attack::HackerProfile;
use ppdt_data::gen::{census_like, covertype_like, CovertypeConfig};
use ppdt_data::Dataset;
use ppdt_obs::Counter;
use ppdt_risk::{domain_risk_trial, run_trials, DomainScenario};
use ppdt_transform::{EncodeConfig, Encoder};
use ppdt_tree::{trees_equal, ThresholdPolicy, TreeBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, round_percentile, Tally};
use crate::trace::Tracer;
use crate::{derive_seed, Metrics, Opts, Outcome, ROUNDS};

const COVERTYPE_ROWS: usize = 29_000;
const CENSUS_ROWS: usize = 20_000;
/// Domain-risk trials per attribute and iteration.
const RISK_TRIALS: usize = 5;
/// Warm-up pairs (one table of each kind) run before timing; their
/// median is `setup_s`.
const WARMUP_PAIRS: usize = 5;

/// Iteration `i`'s table: even iterations covertype-like, odd ones
/// census-like.
fn table(seed: u64, i: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7ab1e, i));
    if i.is_multiple_of(2) {
        covertype_like(
            &mut rng,
            &CovertypeConfig { num_rows: COVERTYPE_ROWS, ..Default::default() },
        )
    } else {
        census_like(&mut rng, CENSUS_ROWS)
    }
}

/// The iterations that started in one round of the run.
#[derive(Default)]
struct Round {
    census_ms: Vec<f64>,
    covertype_ms: Vec<f64>,
    rows: usize,
    seconds: f64,
    iterations: usize,
}

/// What one iteration produced, for the oracle.
struct Iteration {
    seconds: f64,
    rows: usize,
    right: bool,
}

fn iterate(t: &Tracer, seed: u64, i: u64, d: &Dataset) -> Iteration {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xe0c0de, i));
    let builder = TreeBuilder::default();
    let scenario = DomainScenario::polyline(HackerProfile::Expert);
    let config = EncodeConfig::default();
    let start = Instant::now();
    let (decoded, risks) = t.span("iteration", || {
        let encoded = t.span("transform.encode", || Encoder::new(config).encode(&mut rng, d));
        let (key, d_prime) = encoded.expect("encode a generated table").into_parts();
        let mined = t.span("tree.fit", || builder.fit(&d_prime));
        let decoded = t.span("transform.decode_tree", || {
            key.decode_tree(&mined, ThresholdPolicy::DataValue, d)
        });
        let risks: Vec<f64> = t.span("risk.trials", || {
            d.schema()
                .attrs()
                .map(|a| {
                    run_trials(
                        RISK_TRIALS,
                        derive_seed(seed, 0x415c, i * 64 + a.index() as u64),
                        |rng| domain_risk_trial(rng, d, a, &config, &scenario).unwrap_or(f64::NAN),
                    )
                    .median
                })
                .collect()
        });
        (decoded, risks)
    });
    let seconds = start.elapsed().as_secs_f64();
    // Oracle, untimed: Theorem 2 and well-formed risk fractions.
    let theorem2 = decoded.is_ok_and(|s| trees_equal(&s, &builder.fit(d)));
    let risks_ok = risks.iter().all(|r| (0.0..=1.0).contains(r));
    Iteration { seconds, rows: d.num_rows(), right: theorem2 && risks_ok }
}

pub fn run(opts: &Opts) -> Outcome {
    let t = Tracer::new(opts.trace);
    ppdt_obs::set_enabled(opts.trace);
    // Warm-up: untimed by the run, its pair times are the set-up cost.
    let mut warmup = Vec::new();
    let mut tally = Tally::default();
    let untraced = Tracer::new(false);
    for p in 0..WARMUP_PAIRS as u64 {
        let pair: f64 = (0..2)
            .map(|k| {
                let it = iterate(
                    &untraced,
                    opts.seed,
                    1_000_000 + 2 * p + k,
                    &table(opts.seed, 1_000_000 + 2 * p + k),
                );
                tally.record(it.right);
                it.seconds
            })
            .sum();
        warmup.push(pair);
    }

    let scans0 = ppdt_obs::counter(Counter::SplitScanRows);
    let retries0 = ppdt_obs::counter(Counter::DrawRetries);
    let mut rounds: Vec<Round> = (0..ROUNDS).map(|_| Round::default()).collect();
    let mut pairs = Vec::new();
    let round_len = opts.seconds / ROUNDS as f64;
    let start = Instant::now();
    let mut i = 0u64;
    // Whole pairs only, so both table kinds weigh the same in every run.
    while i < 4 || i % 2 == 1 || start.elapsed().as_secs_f64() < opts.seconds {
        let r = ((start.elapsed().as_secs_f64() / round_len) as usize).min(ROUNDS - 1);
        let d = table(opts.seed, i);
        let it = iterate(&t, opts.seed, i, &d);
        tally.record(it.right);
        let round = &mut rounds[r];
        round.rows += it.rows;
        round.seconds += it.seconds;
        round.iterations += 1;
        if i.is_multiple_of(2) {
            round.covertype_ms.push(it.seconds * 1e3);
        } else {
            round.census_ms.push(it.seconds * 1e3);
            let cov = rounds
                .iter()
                .rev()
                .find_map(|r| r.covertype_ms.last())
                .expect("pairs start with covertype");
            pairs.push(cov / 1e3 + it.seconds);
        }
        i += 1;
    }
    let census: Vec<Vec<f64>> = rounds.iter().map(|r| r.census_ms.clone()).collect();
    let covertype: Vec<Vec<f64>> = rounds.iter().map(|r| r.covertype_ms.clone()).collect();
    let (light, busy) = (census.concat(), covertype.concat());
    eprintln!(
        "offline_pipeline: {i} iterations; census-like p50 {:.1} ms (n={}), covertype-like p50 {:.1} ms (n={})",
        median(&light),
        light.len(),
        median(&busy),
        busy.len()
    );
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&rounds.iter().filter(|r| r.iterations > 0).map(f).collect::<Vec<_>>())
    };

    let mut e2e = Metrics::new();
    e2e.insert("setup_s", median(&warmup));
    e2e.insert("peak_rss_mb", crate::sys::peak_rss_mb(std::process::id()));
    e2e.insert("rows_per_s", per_round(&|r| r.rows as f64 / r.seconds));
    e2e.insert("job_p50_s", median(&pairs));
    e2e.insert("light.p50_ms", round_percentile(&census, 0.5));
    e2e.insert("busy.p50_ms", round_percentile(&covertype, 0.5));
    e2e.insert("capacity_rps", per_round(&|r| r.iterations as f64 / r.seconds));

    let mut layers = Metrics::new();
    if opts.trace {
        // Means per iteration: the two table kinds weigh the same.
        let per_iter = |c: Counter, before: u64| (ppdt_obs::counter(c) - before) as f64 / i as f64;
        let mean_ms = |name: &str| t.durations_ms(name).iter().sum::<f64>() / i as f64;
        layers.insert("tree.fit_ms", mean_ms("tree.fit"));
        layers.insert("tree.split_scan_rows", per_iter(Counter::SplitScanRows, scans0));
        layers.insert("transform.encode_ms", mean_ms("transform.encode"));
        layers.insert("transform.decode_tree_ms", mean_ms("transform.decode_tree"));
        layers.insert("transform.draw_retries", per_iter(Counter::DrawRetries, retries0));
        layers.insert("risk.trials_ms", mean_ms("risk.trials"));
        let (children, iterations) = t.child_coverage_ms("iteration");
        layers.insert("trace.span_coverage_frac", children / iterations);
        crate::write_trace(opts, "offline_pipeline", &t);
    }
    Outcome { tally, e2e, layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tables() {
        assert_eq!(table(3, 1), table(3, 1));
        assert_ne!(table(3, 1), table(4, 1));
        assert_eq!(table(3, 0).num_attrs(), 10);
        assert_eq!((table(3, 0).num_rows(), table(3, 1).num_rows()), (COVERTYPE_ROWS, CENSUS_ROWS));
    }
}
