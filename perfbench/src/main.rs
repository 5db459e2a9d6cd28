//! The repository benchmark. One command runs one named workload:
//!
//! ```text
//! perfbench --workload <offline_pipeline|serve_bulk> --seed N
//!           --seconds S --trace <0|1> --ppdt <path to ppdt> --work-dir <dir>
//! ```
//!
//! (`perfbench/run.py` builds both binaries and fills in the last two
//! flags.) Every answer is checked against an in-process oracle. The
//! last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The traced run also reports
//! its own end-to-end numbers as `traced.*`, so the tracing overhead is
//! the difference from an untraced run. A failed operation (a wrong
//! answer, a non-2xx status or a transport error) or a metric that is
//! not a finite number makes `correct` false and the exit code 1. See `METHODS.md` for what each workload and metric is for,
//! and how each is measured.

mod bulk;
mod layers;
mod offline;
mod stats;
mod sys;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;

use stats::Tally;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rows_per_s", "rows/s"),
    ("job_p50_s", "s"),
    ("light.p50_ms", "ms"),
    ("busy.p50_ms", "ms"),
    ("capacity_rps", "req/s"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them
/// (the `traced.*` copies of the end-to-end metrics come on top). A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("fail_frac", "ratio"),
    ("tree.fit_ms", "ms"),
    ("tree.split_scan_rows", "count"),
    ("transform.encode_ms", "ms"),
    ("transform.decode_tree_ms", "ms"),
    ("transform.draw_retries", "count"),
    ("risk.trials_ms", "ms"),
    ("trace.span_coverage_frac", "ratio"),
    ("serve.encode.handler_p50_us", "us"),
    ("serve.encode.handler_p99_us", "us"),
    ("serve.classify.handler_p50_us", "us"),
    ("serve.classify.handler_p99_us", "us"),
    ("serve.store_key.handler_p50_us", "us"),
    ("serve.store_key.handler_p99_us", "us"),
    ("serve.rekey.handler_p50_us", "us"),
    ("serve.rekey.handler_p99_us", "us"),
    ("serve.decode_tree.handler_p50_us", "us"),
    ("serve.decode_tree.handler_p99_us", "us"),
    ("serve.outside_handler_p50_us", "us"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.ctx_switches_per_req", "count"),
    ("serve.cpu_ns_per_row", "ns"),
    ("serve.rejected", "count"),
    ("serve.streamed_chunks", "count"),
    ("cache.plan_hit_frac", "ratio"),
    ("cache.tree_hit_frac", "ratio"),
    ("transform.compile_ms", "ms"),
    ("transform.encode_column_ns_per_value", "ns"),
    ("transform.rekey_ns_per_value", "ns"),
    ("transform.piece_lookup_direct_frac", "ratio"),
    ("data.csv_parse_ns_per_row", "ns"),
    ("api.body_decode_us", "us"),
    ("keystore.put_ms", "ms"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// Every workload splits its `--seconds` into this many rounds and
/// reports tails and rates as medians over rounds, so one slow stretch
/// of a shared machine moves a run's numbers less.
pub const ROUNDS: usize = 5;

/// What a workload run hands back.
pub struct Outcome {
    pub tally: Tally,
    pub e2e: Metrics,
    /// Only filled by a traced run.
    pub layers: Metrics,
}

/// Command-line options shared by the workloads.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ppdt: PathBuf,
    pub work_dir: PathBuf,
}

/// A seed for one purpose (`tag`) and index, derived from the run
/// seed, so every input is a function of `--seed` alone.
pub fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    // SplitMix64 finalizer over the combined words.
    let mut z =
        seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes the traced run's spans next to its other outputs.
pub fn write_trace(opts: &Opts, workload: &str, t: &trace::Tracer) {
    let path = opts.work_dir.join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
    t.write_jsonl(&path).expect("write the span trace");
    eprintln!("spans written to {}", path.display());
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut ppdt, mut work_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--ppdt" => ppdt = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        ppdt: ppdt.ok_or("--ppdt is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() {
    let (workload, opts) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&opts.work_dir).expect("create the work directory");
    let outcome = match workload.as_str() {
        "offline_pipeline" => offline::run(&opts),
        "serve_bulk" => bulk::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let (line, correct) = result_line(&outcome, opts.trace);
    for (name, value) in outcome.e2e.iter().chain(&outcome.layers) {
        eprintln!("  {name:<38} {value:.6}");
    }
    println!("{line}");
    if !correct {
        eprintln!(
            "perfbench: {} of {} operations failed, or a metric is not a finite number",
            outcome.tally.failed, outcome.tally.attempted
        );
        std::process::exit(1);
    }
}

/// The result object — every end-to-end metric untraced, every
/// per-layer metric (plus `traced.*`) traced — and whether the run is
/// correct: nothing failed and every metric is a finite number (a
/// non-finite one is printed as `null`).
fn result_line(o: &Outcome, traced: bool) -> (String, bool) {
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if traced {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "fail_frac" => o.tally.fail_frac(),
                _ => o.layers.get(name).copied().unwrap_or(0.0),
            };
            metrics.push((name.to_string(), value, unit));
        }
        for (name, unit) in END_TO_END {
            metrics.push((format!("traced.{name}"), e2e(o, name), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push((name.to_string(), e2e(o, name), unit));
        }
    }
    let correct = o.tally.failed == 0 && metrics.iter().all(|(_, value, _)| value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value.to_string() } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.attempted.max(1),
        o.tally.failed,
        body.join(", ")
    );
    (line, correct)
}

fn e2e(o: &Outcome, name: &str) -> f64 {
    *o.e2e.get(name).unwrap_or_else(|| panic!("workload did not measure {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this program agree on every metric name and
    /// unit, and on the workload names.
    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let items = doc.get(key).and_then(serde::Value::as_array).expect("array");
            let field = |item: &serde::Value, k: &str| {
                item.get(k).and_then(serde::Value::as_str).unwrap_or_default().to_string()
            };
            items.iter().map(|item| (field(item, "name"), field(item, "unit"))).collect()
        };
        let names = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(list("end_to_end"), names(&END_TO_END));
        let mut layers = names(&PER_LAYER);
        layers.extend(END_TO_END.iter().map(|(n, u)| (format!("traced.{n}"), u.to_string())));
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["offline_pipeline", "serve_bulk"]);
    }

    fn outcome(failed: u64) -> Outcome {
        let e2e = END_TO_END.iter().map(|(name, _)| (*name, 1.5)).collect();
        Outcome { tally: Tally { attempted: 4, failed }, e2e, layers: Metrics::new() }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let (untraced, correct) = result_line(&outcome(0), false);
        assert!(correct);
        assert!(untraced.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        assert_eq!(untraced.matches("\"unit\"").count(), END_TO_END.len());
        let (traced, _) = result_line(&outcome(1), true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len() + END_TO_END.len());
        assert!(traced.contains("\"fail_frac\": {\"value\": 0.25, \"unit\": \"ratio\"}"));
        assert!(traced.contains("\"traced.setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_failed_operation_or_a_non_finite_metric_fails_the_run() {
        let (line, correct) = result_line(&outcome(1), false);
        assert!(!correct);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        let mut o = outcome(0);
        o.e2e.insert("light.p50_ms", f64::INFINITY);
        let (line, correct) = result_line(&o, false);
        assert!(!correct);
        assert!(line.contains("\"light.p50_ms\": {\"value\": null, \"unit\": \"ms\"}"));
    }
}
