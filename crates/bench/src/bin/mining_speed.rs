//! `mining_speed` — the committed mining benchmark trajectory.
//!
//! Times the miner ([`TreeBuilder::fit`]) at several dataset shapes
//! and thread counts, verifies every thread count produces a
//! bit-identical tree, and emits a machine-readable trajectory report
//! (its own schema, versioned independently of `BenchReport` — see
//! `BENCHMARKS.md` §Trajectory). `scripts/bench_trajectory.sh` wraps
//! this binary and `scripts/bench_compare.py` diffs two reports.
//!
//! Usage: `mining_speed [--smoke] [--seed N] [--json PATH]`
//!
//! `--smoke` shrinks datasets and repetitions for CI; `--json` writes
//! the report (stdout always gets the human-readable table).

use std::time::Instant;

use ppdt_data::gen::{
    census_like, covertype_like, random_dataset, CovertypeConfig, RandomDatasetConfig,
};
use ppdt_data::{AttrId, Dataset};
use ppdt_transform::{CompiledKey, EncodeConfig, Encoder};
use ppdt_tree::{trees_equal, TreeBuilder, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Version of the trajectory report layout; independent of
/// `ppdt_bench::report::SCHEMA_VERSION` (a different artifact).
const TRAJECTORY_SCHEMA_VERSION: u64 = 1;

/// One timed (builder, thread-count) measurement within a case.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Timing {
    /// Mining cases: `"presorted"`, the algorithm `fit` runs, under the
    /// name earlier reports gave it so their timings stay comparable.
    /// Encode cases: the encode path.
    builder: String,
    /// Worker threads requested via `TreeBuilder::with_threads`.
    threads: u64,
    /// Best-of-`reps` wall-clock milliseconds.
    millis: f64,
}

/// One dataset shape with its full measurement grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Case {
    /// Stable case name (`dataset@shape`), the comparison key.
    dataset: String,
    rows: u64,
    attrs: u64,
    timings: Vec<Timing>,
    /// Mining cases: the same value as `speedup_presorted`, kept so
    /// the report layout stays unchanged.
    speedup_recursive: f64,
    /// Mining cases: serial-ms / best-parallel-ms for `fit`.
    speedup_presorted: f64,
    /// Every thread count's tree was bit-identical to the serial one
    /// (the run aborts if not, so a written report is `true`).
    trees_equal: bool,
}

/// The whole trajectory report (`BENCH_PR3.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Trajectory {
    trajectory_schema_version: u64,
    generated_by: String,
    seed: u64,
    /// `std::thread::available_parallelism()` on the machine that ran
    /// the benchmark — speedups are only meaningful relative to this.
    cores: u64,
    smoke: bool,
    cases: Vec<Case>,
}

fn time_fit(
    build: impl Fn() -> ppdt_tree::DecisionTree,
    reps: usize,
) -> (ppdt_tree::DecisionTree, f64) {
    let mut best = f64::INFINITY;
    let mut tree = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let t = build();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        tree = Some(t);
    }
    (tree.expect("reps >= 1"), best)
}

fn run_case(name: &str, d: &Dataset, thread_counts: &[usize], reps: usize) -> Case {
    let params = TreeParams::default();
    let fit = |threads: usize| TreeBuilder::new(params).with_threads(Some(threads)).fit(d);
    let timing = |threads: usize, millis: f64| Timing {
        builder: "presorted".into(),
        threads: threads as u64,
        millis,
    };

    let (baseline, serial_ms) = time_fit(|| fit(1), reps);
    let mut timings = vec![timing(1, serial_ms)];
    let mut equal = true;
    let mut best_par = f64::INFINITY;
    for &t in thread_counts.iter().filter(|&&t| t > 1) {
        let (tree, ms) = time_fit(|| fit(t), reps);
        equal &= trees_equal(&baseline, &tree);
        best_par = best_par.min(ms);
        timings.push(timing(t, ms));
    }

    let speedup = if best_par.is_finite() { serial_ms / best_par } else { 1.0 };
    Case {
        dataset: name.to_string(),
        rows: d.num_rows() as u64,
        attrs: d.num_attrs() as u64,
        timings,
        speedup_recursive: speedup,
        speedup_presorted: speedup,
        trees_equal: equal,
    }
}

/// Times the custodian's cell-level encode hot path three ways — the
/// interpreted [`ppdt_transform::TransformKey`] (per-value piece
/// lookup + enum dispatch), the lowered [`CompiledKey`] driven one
/// value at a time (`encode_value`: flat arrays, but a piece lookup
/// and opcode walk per cell), and the batched `encode_column` path
/// (run bucketing + opcode-outer loops + direct-index lookup) —
/// reusing the `Case`/`Timing` grid so `scripts/bench_compare.py`
/// gates all three series. `trees_equal` here records that the paths
/// produced bit-identical columns (the run aborts if not, mirroring
/// the mining cases).
fn run_encode_case(name: &str, d: &Dataset, config: EncodeConfig, seed: u64, reps: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let (key, d_prime) = Encoder::new(config)
        .encode(&mut rng, d)
        .expect("encode for compiled-plan case")
        .into_parts();
    let plan = CompiledKey::compile(&key).expect("audited key compiles");

    let attrs: Vec<AttrId> = d.schema().attrs().collect();
    let time_once = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };

    // The three paths are timed interleaved, one round each, taking
    // every path's best round: the gated quantity is their *ratio*,
    // and interleaving keeps a slow scheduling window from landing on
    // one path's whole block and skewing it.
    let mut interp_cols: Vec<Vec<f64>> = Vec::new();
    let mut per_value_cols: Vec<Vec<f64>> = Vec::new();
    let mut compiled_cols: Vec<Vec<f64>> = vec![Vec::new(); attrs.len()];
    let (mut interp_ms, mut per_value_ms, mut compiled_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        interp_ms = interp_ms.min(time_once(&mut || {
            interp_cols = attrs
                .iter()
                .map(|&a| {
                    d.column(a)
                        .iter()
                        .map(|&x| key.encode_value(a, x).expect("in-domain value"))
                        .collect()
                })
                .collect();
        }));
        per_value_ms = per_value_ms.min(time_once(&mut || {
            per_value_cols = attrs
                .iter()
                .map(|&a| {
                    d.column(a)
                        .iter()
                        .map(|&x| plan.encode_value(a, x).expect("in-domain value"))
                        .collect()
                })
                .collect();
        }));
        compiled_ms = compiled_ms.min(time_once(&mut || {
            for (buf, &a) in compiled_cols.iter_mut().zip(&attrs) {
                plan.encode_column(a, d.column(a), buf).expect("in-domain column");
            }
        }));
    }

    let identical = attrs.iter().enumerate().all(|(i, &a)| {
        interp_cols[i].iter().zip(&compiled_cols[i]).all(|(x, y)| x.to_bits() == y.to_bits())
            && per_value_cols[i]
                .iter()
                .zip(&compiled_cols[i])
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && compiled_cols[i]
                .iter()
                .zip(d_prime.column(a))
                .all(|(x, y)| x.to_bits() == y.to_bits())
    });

    // `speedup_recursive` carries interpreted/batched, `speedup_presorted`
    // per-value-compiled/batched — the headline batching win.
    Case {
        dataset: name.to_string(),
        rows: d.num_rows() as u64,
        attrs: d.num_attrs() as u64,
        timings: vec![
            Timing { builder: "encode_interpreted".into(), threads: 1, millis: interp_ms },
            Timing {
                builder: "encode_compiled_per_value".into(),
                threads: 1,
                millis: per_value_ms,
            },
            Timing { builder: "encode_compiled_batched".into(), threads: 1, millis: compiled_ms },
        ],
        speedup_recursive: interp_ms / compiled_ms,
        speedup_presorted: per_value_ms / compiled_ms,
        trees_equal: identical,
    }
}

fn main() {
    let mut smoke = false;
    let mut seed = 7u64;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a u64 value"))
            }
            "--json" => json = Some(args.next().unwrap_or_else(|| usage("--json needs a path"))),
            "--help" | "-h" => {
                eprintln!("usage: mining_speed [--smoke] [--seed N] [--json PATH]");
                return;
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Serial, two workers, and everything the machine has; deduped.
    let mut thread_counts = vec![1usize, 2, cores];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let reps = if smoke { 1 } else { 3 };
    let scale = if smoke { 0.005 } else { 0.02 };
    let census_rows = if smoke { 1_500 } else { 8_000 };
    let wide = RandomDatasetConfig {
        num_rows: if smoke { 1_000 } else { 4_000 },
        num_attrs: 24,
        num_classes: 4,
        value_range: 64,
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let cases_in: Vec<(String, Dataset)> = vec![
        (format!("covertype@{scale}"), covertype_like(&mut rng, &CovertypeConfig::at_scale(scale))),
        (format!("census@{census_rows}"), census_like(&mut rng, census_rows)),
        (
            format!("random_wide@{}x{}", wide.num_rows, wide.num_attrs),
            random_dataset(&mut rng, &wide),
        ),
    ];

    println!("mining_speed: {} cores, threads {:?}, reps {}", cores, thread_counts, reps);
    let mut cases = Vec::new();
    for (name, d) in &cases_in {
        let case = run_case(name, d, &thread_counts, reps);
        assert!(case.trees_equal, "{name}: a parallel run diverged from the serial tree");
        for t in &case.timings {
            println!(
                "  {:<28} {:>9} threads={} {:>9.2} ms",
                case.dataset, t.builder, t.threads, t.millis
            );
        }
        println!("  {:<28} speedup {:.2}x", case.dataset, case.speedup_presorted);
        cases.push(case);
    }

    // The custodian-side encode hot path: interpreted key vs. the
    // compiled plan the serve daemon caches, per-value vs. batched.
    // Covertype and census under the default mixed family (the
    // realistic profile — part of every value's cost is a scalar libm
    // call no batching can amortize). The census dataset here is
    // larger than the tree-building one: its wide integer domains only
    // compile to the hundreds of pieces that stress piece lookup once
    // enough rows populate them.
    let census_encode_rows = if smoke { 1_500 } else { 20_000 };
    let census_encode = census_like(&mut rng, census_encode_rows);
    let encode_cases = [
        (format!("encode@covertype@{scale}"), &cases_in[0].1, EncodeConfig::default()),
        (format!("encode@census@{census_encode_rows}"), &census_encode, EncodeConfig::default()),
    ];
    // Encode reps run hotter than the mining cases: a single encode
    // pass is milliseconds, so best-of-10 costs little and keeps the
    // gated batched/per-value ratio stable against scheduler noise.
    let encode_reps = if smoke { 1 } else { 10 };
    for (name, d, config) in encode_cases {
        let encode_case = run_encode_case(&name, d, config, seed, encode_reps);
        assert!(
            encode_case.trees_equal,
            "compiled encode diverged bit-wise from the interpreted path"
        );
        for t in &encode_case.timings {
            println!(
                "  {:<28} {:>25} threads={} {:>9.2} ms",
                encode_case.dataset, t.builder, t.threads, t.millis
            );
        }
        println!(
            "  {:<28} batched vs interpreted {:.2}x, batched vs per-value compiled {:.2}x",
            encode_case.dataset, encode_case.speedup_recursive, encode_case.speedup_presorted
        );
        cases.push(encode_case);
    }

    let report = Trajectory {
        trajectory_schema_version: TRAJECTORY_SCHEMA_VERSION,
        generated_by: "mining_speed".into(),
        seed,
        cores: cores as u64,
        smoke,
        cases,
    };
    if let Some(path) = json {
        let text = serde_json::to_string_pretty(&report).expect("trajectory serializes");
        std::fs::write(&path, text).expect("trajectory report written");
        eprintln!("trajectory report -> {path}");
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}; usage: mining_speed [--smoke] [--seed N] [--json PATH]");
    std::process::exit(2);
}
