//! Per-layer numbers of the serve workloads, measured from outside the
//! program: the daemon's own `/metrics` rows and counters, and replays
//! of the workload's own inputs through the layers' public functions.

use std::time::Instant;

use ppdt_data::{csv, AttrId, Dataset};
use ppdt_serve::server::MetricsBody;
use ppdt_serve::{KeyStore, Tenant};
use ppdt_transform::{CompiledKey, RekeyPlan, TransformKey};

use crate::stats::median;
use crate::sys::ScratchDir;
use crate::trace::Tracer;
use crate::wire::counter;
use crate::{Metrics, Opts};

/// Repetitions of each timed replay; the median is reported.
const REPS: usize = 5;

/// Median wall time of `f` over [`REPS`] calls, seconds; each call is
/// a span named `name`.
fn time<T>(t: &Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            t.span(name, || std::hint::black_box(f()));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Handler percentiles per endpoint, rejections, streamed chunks and
/// cache hit fractions, from one `/metrics` read at the end of the run.
pub fn serve_counters(layers: &mut Metrics, m: &MetricsBody) {
    let endpoints = [
        ("encode", "serve.encode.handler_p50_us", "serve.encode.handler_p99_us"),
        ("classify", "serve.classify.handler_p50_us", "serve.classify.handler_p99_us"),
        ("store_key", "serve.store_key.handler_p50_us", "serve.store_key.handler_p99_us"),
        ("rekey", "serve.rekey.handler_p50_us", "serve.rekey.handler_p99_us"),
        ("decode_tree", "serve.decode_tree.handler_p50_us", "serve.decode_tree.handler_p99_us"),
    ];
    let row = |name: &str| m.serve.endpoints.iter().find(|e| e.endpoint == name);
    for (name, p50, p99) in endpoints {
        if let Some(e) = row(name) {
            layers.insert(p50, e.p50_micros as f64);
            layers.insert(p99, e.p99_micros as f64);
        }
    }
    layers.insert("serve.rejected", m.serve.rejected as f64);
    layers.insert("serve.streamed_chunks", m.serve.streamed_chunks as f64);
    let (hits, misses) = (counter(m, "plan_cache_hits"), counter(m, "plan_cache_misses"));
    layers.insert("cache.plan_hit_frac", ratio(hits, hits + misses));
    let tree_requests: u64 =
        ["classify", "decode_tree"].iter().filter_map(|n| row(n)).map(|e| e.requests).sum();
    layers.insert("cache.tree_hit_frac", ratio(counter(m, "tree_cache_hits"), tree_requests));
    let (direct, bsearch) = (counter(m, "piece_lookup_direct"), counter(m, "piece_lookup_bsearch"));
    layers.insert("transform.piece_lookup_direct_frac", ratio(direct, direct + bsearch));
}

/// Replays of the serve workload's inputs: compiling the run's keys,
/// encoding `columns` under the first key, decoding the run's request
/// bodies with `decode` (which returns how many it decoded), and
/// storing the run's keys into a fresh key store.
pub fn replay_keys_and_bodies(
    t: &Tracer,
    layers: &mut Metrics,
    opts: &Opts,
    keys: &[TransformKey],
    columns: &[Vec<f64>],
    decode: impl Fn() -> usize,
) {
    let compile = time(t, "transform.compile", || {
        keys.iter().map(|k| CompiledKey::compile(k).expect("compile")).collect::<Vec<_>>()
    });
    layers.insert("transform.compile_ms", compile * 1e3 / keys.len() as f64);

    let plan = CompiledKey::compile(&keys[0]).expect("compile");
    let values: usize = columns.iter().map(Vec::len).sum();
    let mut out = Vec::new();
    let encode = time(t, "transform.encode_column", || {
        for (a, col) in columns.iter().enumerate() {
            plan.encode_column(AttrId(a), col, &mut out).expect("encode_column");
        }
    });
    layers.insert("transform.encode_column_ns_per_value", encode * 1e9 / values as f64);

    let bodies = decode();
    layers.insert("api.body_decode_us", time(t, "api.body_decode", &decode) * 1e6 / bodies as f64);

    let dir = ScratchDir::new(opts.work_dir.join("keystore-replay"));
    let mut n = 0;
    let put = time(t, "keystore.put_in", || {
        // A fresh directory per repetition, so every put writes.
        n += 1;
        let store = KeyStore::open(dir.path().join(n.to_string())).expect("open key store");
        let tenant = Tenant::parse(Tenant::DEFAULT_NAME).expect("default tenant");
        for k in keys {
            store.put_in(&tenant, k).expect("put key");
        }
    });
    layers.insert("keystore.put_ms", put * 1e3 / keys.len() as f64);
}

/// `RekeyPlan::rekey_column` from `from` to `to` over an encoded
/// dataset, ns per value.
pub fn replay_rekey(
    t: &Tracer,
    layers: &mut Metrics,
    from: &TransformKey,
    to: &TransformKey,
    d_prime: &Dataset,
) {
    let (src, dst) =
        (CompiledKey::compile(from).expect("compile"), CompiledKey::compile(to).expect("compile"));
    let mut plan = RekeyPlan::new(&src, &dst).expect("same arity");
    let mut out = Vec::new();
    let rekey = time(t, "transform.rekey_column", || {
        for a in d_prime.schema().attrs() {
            plan.rekey_column(a, d_prime.column(a), &mut out).expect("rekey_column");
        }
    });
    let values = (d_prime.num_rows() * d_prime.num_attrs()) as f64;
    layers.insert("transform.rekey_ns_per_value", rekey * 1e9 / values);
}

/// `parse_csv` plus `to_csv` of the table's CSV text, ns per row.
pub fn replay_csv(t: &Tracer, layers: &mut Metrics, text: &str, rows: usize) {
    let round_trip =
        time(t, "data.csv_round_trip", || csv::to_csv(&csv::parse_csv(text).expect("parse")).len());
    layers.insert("data.csv_parse_ns_per_row", round_trip * 1e9 / rows as f64);
}
