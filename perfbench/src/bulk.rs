//! `serve_bulk`: a custodian's batch jobs against `ppdt serve`, closed
//! loop with one caller (a batch job waits for each reply), back to
//! back over several `/v2` tenants. Each job
//!
//! 1. stores a freshly drawn key (envelope write and fsync),
//! 2. encodes the 50k-row table with a chunked `text/csv` streaming
//!    encode under the new key,
//! 3. rekeys a slice encoded under the tenant's previous key to the
//!    new key (`/v2/t/{tenant}/rekey`),
//! 4. decodes a tree mined during set-up (`decode-tree`),
//! 5. classifies 64 plaintext rows with the tenant's first set-up tree
//!    (`classify`, a small request whose tree is cached).
//!
//! Over a run the jobs touch more keys than the daemon's plan cache
//! holds and cycle through more decode trees than its tree cache
//! holds, so decode lookups miss; classify reuses one tree per tenant,
//! so its tree lookups hit. Answers are checked between jobs, outside
//! the timed job. `light.p50_ms` reports the rekey calls and
//! `busy.p50_ms` the streaming encodes (decode-tree calls mix plan-cache
//! hits and misses in a proportion that depends on how many jobs a run
//! gets through, so their median would jump between the two).

use std::net::SocketAddr;
use std::time::Instant;

use ppdt_data::gen::{census_like, covertype_like, CovertypeConfig};
use ppdt_data::{csv, Dataset};
use ppdt_serve::api::{ClassifyRequest, ClassifyResponse};
use ppdt_serve::api::{DecodeTreeRequest, DecodeTreeResponse, RekeyRequest, RekeyResponse};
use ppdt_serve::api::{StoreKeyRequest, StoreKeyResponse};
use ppdt_serve::KeyStore;
use ppdt_transform::{CompiledKey, EncodeConfig, Encoder, TransformKey};
use ppdt_tree::{trees_equal, DecisionTree, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, round_percentile, Tally};
use crate::sys::{Daemon, ProcSample, ScratchDir};
use crate::trace::Tracer;
use crate::{derive_seed, wire, Metrics, Opts, Outcome, ROUNDS};

const BULK_ROWS: usize = 50_000;
const REKEY_ROWS: usize = 8_192;
const TENANTS: usize = 4;
/// Decode trees per tenant; `TENANTS * DECODE_PER_TENANT` exceeds the
/// daemon's 32-entry tree cache.
const DECODE_PER_TENANT: usize = 9;
const DECODE_ROWS: usize = 2_000;
/// Plaintext rows per classify call.
const CLASSIFY_ROWS: usize = 64;
/// The calls of one job, in order.
const CALLS: [&str; 5] = ["store_key", "stream_encode", "rekey", "decode_tree", "classify"];
/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The daemon's memory grows with every key it stores, so its peak RSS
/// is read after this many jobs, a fixed amount of work; every run
/// completes at least this many jobs, even past `--seconds`.
const RSS_JOBS: usize = 48;

fn tenant(t: usize) -> String {
    format!("bulk{t}")
}

/// A key drawn on `d`'s domains, one attribute at a time.
fn draw_key(d: &Dataset, seed: u64) -> TransformKey {
    let mut rng = StdRng::seed_from_u64(seed);
    let encoder = Encoder::new(EncodeConfig::default());
    let transforms = d
        .schema()
        .attrs()
        .map(|a| encoder.encode_attribute(&mut rng, d, a).expect("draw"))
        .collect();
    TransformKey { transforms }
}

/// The `REKEY_ROWS` rows of `d` from `start` on.
fn slice(d: &Dataset, start: usize) -> Dataset {
    let rows: Vec<u32> = (start..start + REKEY_ROWS).map(|r| r as u32).collect();
    ppdt_tree::subset(d, &rows)
}

fn encode_with(plan: &CompiledKey, d: &Dataset) -> Dataset {
    let columns = d
        .schema()
        .attrs()
        .map(|a| {
            let mut col = Vec::new();
            plan.encode_column(a, d.column(a), &mut col).expect("encode_column");
            col
        })
        .collect();
    d.with_columns(columns)
}

/// Set-up material, drawn from the seed.
struct Workload {
    table: Dataset,
    csv: String,
    /// Each tenant's first key (the rekey source of its first job).
    initial: Vec<TransformKey>,
    /// Per tenant, `DECODE_PER_TENANT` (key, tree mined on D' under it).
    decode: Vec<Vec<(TransformKey, DecisionTree)>>,
    /// The plaintext table the decode trees were mined on (encoded
    /// under each decode key), its CSV, and the tree mined on it.
    decode_table: Dataset,
    decode_csv: String,
    decode_plain: DecisionTree,
}

fn materialize(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xb01c, 0));
    let table =
        covertype_like(&mut rng, &CovertypeConfig { num_rows: BULK_ROWS, ..Default::default() });
    let small = census_like(&mut rng, DECODE_ROWS);
    let builder = TreeBuilder::default();
    let decode = (0..TENANTS)
        .map(|_| {
            (0..DECODE_PER_TENANT)
                .map(|_| {
                    let (key, d_prime) = Encoder::new(EncodeConfig::default())
                        .encode(&mut rng, &small)
                        .expect("encode")
                        .into_parts();
                    let tree = builder.fit(&d_prime);
                    (key, tree)
                })
                .collect()
        })
        .collect();
    let initial =
        (0..TENANTS).map(|t| draw_key(&table, derive_seed(seed, 0x1417, t as u64))).collect();
    Workload {
        csv: csv::to_csv(&table),
        table,
        initial,
        decode,
        decode_csv: csv::to_csv(&small),
        decode_plain: builder.fit(&small),
        decode_table: small,
    }
}

fn store(addr: SocketAddr, t: usize, key: &TransformKey) {
    let body =
        serde_json::to_string(&StoreKeyRequest { key: key.clone() }).expect("key serializes");
    let path = format!("/v2/t/{}/keys", tenant(t));
    let (status, text) = ppdt_serve::http::request(addr, "POST", &path, &body).expect("store");
    assert!(status == 201 || status == 200, "set-up store answered {status}: {text}");
}

fn key_id(key: &TransformKey) -> String {
    KeyStore::key_id(key).expect("content address")
}

/// Spawns a daemon with a fresh key store and stores every set-up key;
/// returns it with the seconds from spawn to the last key stored.
fn set_up(opts: &Opts, w: &Workload, n: usize) -> (Daemon, f64) {
    let flags: &[&str] = if opts.trace { &["--metrics"] } else { &[] };
    let dir = ScratchDir::new(opts.work_dir.join(format!("keystore-bulk-{n}")));
    let start = Instant::now();
    let daemon = Daemon::spawn(&opts.ppdt, dir, flags);
    for t in 0..TENANTS {
        store(daemon.addr, t, &w.initial[t]);
        for (key, _) in &w.decode[t] {
            store(daemon.addr, t, key);
        }
    }
    (daemon, start.elapsed().as_secs_f64())
}

/// The jobs that started in one round of the run: their count, timed
/// seconds, and rekey and streaming-encode latencies.
#[derive(Default)]
struct Round {
    jobs: usize,
    seconds: f64,
    rekey_ms: Vec<f64>,
    encode_ms: Vec<f64>,
}

/// One job's inputs, prepared outside the timed job.
struct Job {
    t: usize,
    new_key: TransformKey,
    new_plan: CompiledKey,
    store_body: String,
    slice_plain: Dataset,
    rekey_body: String,
    decode_body: String,
    classify_rows: Vec<Vec<f64>>,
    classify_body: String,
}

/// Call latencies of one job, seconds, in [`CALLS`] order.
struct Timed {
    calls: [f64; CALLS.len()],
    total: f64,
}

fn prepare(seed: u64, w: &Workload, j: usize, previous: &[TransformKey]) -> Job {
    let t = j % TENANTS;
    let new_key = draw_key(&w.table, derive_seed(seed, 0x70b, j as u64));
    let new_plan = CompiledKey::compile(&new_key).expect("a drawn key compiles");
    let old = &previous[t];
    let start = (j * REKEY_ROWS) % (BULK_ROWS - REKEY_ROWS);
    let slice_plain = slice(&w.table, start);
    let slice_old = encode_with(&CompiledKey::compile(old).expect("compiles"), &slice_plain);
    let rekey_body = serde_json::to_string(&RekeyRequest {
        from_key_id: key_id(old),
        to_key_id: key_id(&new_key),
        csv: csv::to_csv(&slice_old),
    })
    .expect("serializes");
    let (dkey, dtree) = &w.decode[t][(j / TENANTS) % DECODE_PER_TENANT];
    let decode_body = serde_json::to_string(&DecodeTreeRequest {
        key_id: key_id(dkey),
        tree: dtree.clone(),
        csv: Some(w.decode_csv.clone()),
    })
    .expect("serializes");
    let store_body =
        serde_json::to_string(&StoreKeyRequest { key: new_key.clone() }).expect("serializes");
    let d = &w.decode_table;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xc1a5, j as u64));
    let classify_rows: Vec<Vec<f64>> = (0..CLASSIFY_ROWS)
        .map(|_| {
            let i = rng.gen_range(0..d.num_rows());
            d.schema().attrs().map(|a| d.value(i, a)).collect()
        })
        .collect();
    let (ckey, ctree) = &w.decode[t][0];
    let classify_body = serde_json::to_string(&ClassifyRequest {
        key_id: key_id(ckey),
        tree: ctree.clone(),
        rows: classify_rows.clone(),
    })
    .expect("serializes");
    Job {
        t,
        new_key,
        new_plan,
        store_body,
        slice_plain,
        rekey_body,
        decode_body,
        classify_rows,
        classify_body,
    }
}

type Answer = Result<(u16, String), String>;

/// The answers of one job, for the oracle, in [`CALLS`] order.
struct Answers {
    store: Answer,
    encode: Result<(u16, Vec<u8>), String>,
    rekey: Answer,
    decode: Answer,
    classify: Answer,
}

fn run_job(t: &Tracer, addr: SocketAddr, w: &Workload, job: &Job) -> (Timed, Answers) {
    let prefix = format!("/v2/t/{}", tenant(job.t));
    let mut calls = [0.0; CALLS.len()];
    let start = Instant::now();
    let mut timed = |i: usize, f: &mut dyn FnMut()| {
        let s = Instant::now();
        t.span(CALLS[i], f);
        calls[i] = s.elapsed().as_secs_f64();
    };
    let post = |path: &str, body: &str| -> Answer {
        ppdt_serve::http::request(addr, "POST", &format!("{prefix}{path}"), body)
            .map_err(|e| e.to_string())
    };
    let mut store = Err(String::new());
    timed(0, &mut || store = post("/keys", &job.store_body));
    let header = format!("{{\"key_id\": \"{}\"}}", key_id(&job.new_key));
    let mut encode = Err(String::new());
    timed(1, &mut || {
        encode = wire::stream_call(addr, &format!("{prefix}/encode"), &header, w.csv.as_bytes())
    });
    let mut rekey = Err(String::new());
    timed(2, &mut || rekey = post("/rekey", &job.rekey_body));
    let mut decode = Err(String::new());
    timed(3, &mut || decode = post("/decode-tree", &job.decode_body));
    let mut classify = Err(String::new());
    timed(4, &mut || classify = post("/classify", &job.classify_body));
    let total = start.elapsed().as_secs_f64();
    (Timed { calls, total }, Answers { store, encode, rekey, decode, classify })
}

/// Columns of `got` bit-equal to `plan` applied to `plain`'s columns,
/// and the same class on every row (by name: a parsed CSV numbers its
/// classes in order of appearance).
fn same_encoding(plan: &CompiledKey, plain: &Dataset, got: &Dataset) -> Result<(), String> {
    if got.num_rows() != plain.num_rows() {
        return Err(format!("{} rows back for {}", got.num_rows(), plain.num_rows()));
    }
    let class = |d: &Dataset, i: usize| d.schema().class_name(d.label(i)).to_string();
    if let Some(i) = (0..plain.num_rows()).find(|&i| class(got, i) != class(plain, i)) {
        return Err(format!("row {i} changed class"));
    }
    for a in plain.schema().attrs() {
        let mut want = Vec::new();
        plan.encode_column(a, plain.column(a), &mut want).map_err(|e| e.to_string())?;
        if let Some(i) = (0..want.len()).find(|&i| want[i].to_bits() != got.column(a)[i].to_bits())
        {
            return Err(format!(
                "row {i} attribute {a}: {} instead of {}",
                got.column(a)[i],
                want[i]
            ));
        }
    }
    Ok(())
}

/// The oracle for one job: the store answer names the key's content
/// address, the streamed encode is bit-equal to `encode_column`, the
/// rekeyed slice equals a direct encode under the new key, the decoded
/// tree equals the tree mined on the plaintext, and classify labels
/// equal that tree's predictions. A non-2xx status or a transport error
/// fails the call.
fn check(w: &Workload, job: &Job, a: &Answers) -> [Result<(), String>; CALLS.len()] {
    let ok = |r: &Answer, want: u16| -> Result<String, String> {
        match r {
            Ok((s, text)) if *s == want => Ok(text.clone()),
            Ok((s, text)) => {
                Err(format!("status {s}: {}", text.chars().take(200).collect::<String>()))
            }
            Err(e) => Err(e.clone()),
        }
    };
    let store = ok(&a.store, 201).and_then(|text| {
        let resp: StoreKeyResponse = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        (resp.key_id == key_id(&job.new_key))
            .then_some(())
            .ok_or_else(|| "store returned another key id".to_string())
    });
    let encode = match &a.encode {
        Ok((200, body)) => std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(|text| csv::parse_csv(text).map_err(|e| e.to_string()))
            .and_then(|got| same_encoding(&job.new_plan, &w.table, &got)),
        Ok((s, _)) => Err(format!("stream encode status {s}")),
        Err(e) => Err(e.clone()),
    };
    let rekey = ok(&a.rekey, 200).and_then(|text| {
        let resp: RekeyResponse = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let got = csv::parse_csv(&resp.csv).map_err(|e| e.to_string())?;
        same_encoding(&job.new_plan, &job.slice_plain, &got)
    });
    let decode = ok(&a.decode, 200).and_then(|text| {
        let resp: DecodeTreeResponse = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        trees_equal(&resp.tree, &w.decode_plain)
            .then_some(())
            .ok_or_else(|| "decoded tree differs from the plaintext tree".to_string())
    });
    let classify = ok(&a.classify, 200).and_then(|text| {
        let resp: ClassifyResponse = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let want: Vec<u16> =
            job.classify_rows.iter().map(|r| w.decode_plain.predict(r).0).collect();
        (resp.labels == want)
            .then_some(())
            .ok_or_else(|| "labels differ from the plaintext tree's predictions".to_string())
    });
    [store, encode, rekey, decode, classify]
}

pub fn run(opts: &Opts) -> Outcome {
    let t = Tracer::new(opts.trace);
    let w = materialize(opts.seed);
    let mut setups = Vec::new();
    let mut kept = None;
    for n in 0..SETUPS {
        let (daemon, seconds) = set_up(opts, &w, n);
        setups.push(seconds);
        kept = Some(daemon); // the previous daemon stops here
    }
    let daemon = kept.expect("at least one set-up");
    let mut previous = w.initial.clone();
    let mut tally = Tally::default();
    let mut rounds: Vec<Round> = (0..ROUNDS).map(|_| Round::default()).collect();
    let (mut jobs, mut run_keys) = (Vec::new(), Vec::new());
    let round_len = opts.seconds / ROUNDS as f64;
    let before = ProcSample::of(daemon.pid);
    let start = Instant::now();
    let mut j = 0;
    let mut peak_rss_mb = 0.0;
    while j < RSS_JOBS || start.elapsed().as_secs_f64() < opts.seconds {
        let r = ((start.elapsed().as_secs_f64() / round_len) as usize).min(ROUNDS - 1);
        let job = prepare(opts.seed, &w, j, &previous);
        let (timed, answers) = t.span("job", || run_job(&t, daemon.addr, &w, &job));
        for (call, verdict) in check(&w, &job, &answers).iter().enumerate() {
            if let Err(e) = verdict {
                eprintln!("serve_bulk: job {j} {}: {e}", CALLS[call]);
            }
            tally.record(verdict.is_ok());
        }
        let round = &mut rounds[r];
        round.jobs += 1;
        round.seconds += timed.total;
        round.rekey_ms.push(timed.calls[2] * 1e3);
        round.encode_ms.push(timed.calls[1] * 1e3);
        jobs.push(timed.total);
        if j + 1 == RSS_JOBS {
            peak_rss_mb = crate::sys::peak_rss_mb(daemon.pid);
        }
        previous[job.t] = job.new_key.clone();
        run_keys.push(job.new_key);
        j += 1;
    }
    let after = ProcSample::of(daemon.pid);
    let rekey: Vec<Vec<f64>> = rounds.iter().map(|r| r.rekey_ms.clone()).collect();
    let encode: Vec<Vec<f64>> = rounds.iter().map(|r| r.encode_ms.clone()).collect();
    let (light, busy) = (rekey.concat(), encode.concat());
    eprintln!(
        "serve_bulk: {j} jobs over {TENANTS} tenants, job p50 {:.1} ms; rekey p50 {:.2} ms, streaming encode p50 {:.1} ms (n={} each)",
        median(&jobs) * 1e3,
        median(&light),
        median(&busy),
        light.len()
    );
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&rounds.iter().filter(|r| r.jobs > 0).map(f).collect::<Vec<_>>())
    };
    let rows_per_job = BULK_ROWS + REKEY_ROWS + DECODE_ROWS + CLASSIFY_ROWS;
    let mut e2e = Metrics::new();
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb);
    e2e.insert("rows_per_s", per_round(&|r| (r.jobs * rows_per_job) as f64 / r.seconds));
    e2e.insert("job_p50_s", median(&jobs));
    e2e.insert("light.p50_ms", round_percentile(&rekey, 0.5));
    e2e.insert("busy.p50_ms", round_percentile(&encode, 0.5));
    e2e.insert("capacity_rps", per_round(&|r| (CALLS.len() * r.jobs) as f64 / r.seconds));

    let mut layers = Metrics::new();
    if opts.trace {
        let m = wire::metrics(daemon.addr);
        crate::layers::serve_counters(&mut layers, &m);
        let client_p50_us = median(&busy) * 1e3;
        layers.insert(
            "serve.outside_handler_p50_us",
            client_p50_us - layers["serve.encode.handler_p50_us"],
        );
        let cpu = after.cpu_us - before.cpu_us;
        let requests = (CALLS.len() * j) as f64;
        layers.insert("serve.cpu_us_per_req", cpu / requests);
        layers.insert(
            "serve.ctx_switches_per_req",
            (after.ctx_switches - before.ctx_switches) as f64 / requests,
        );
        layers.insert("serve.cpu_ns_per_row", cpu * 1e3 / (j * rows_per_job) as f64);
        let columns: Vec<Vec<f64>> =
            w.table.schema().attrs().map(|a| w.table.column(a).to_vec()).collect();
        let bodies: Vec<Job> =
            (0..TENANTS).map(|t| prepare(opts.seed, &w, t, &w.initial)).collect();
        let decode = || {
            for job in &bodies {
                drop(serde_json::from_str::<StoreKeyRequest>(&job.store_body).expect("decode"));
                drop(serde_json::from_str::<RekeyRequest>(&job.rekey_body).expect("decode"));
                drop(serde_json::from_str::<DecodeTreeRequest>(&job.decode_body).expect("decode"));
                drop(serde_json::from_str::<ClassifyRequest>(&job.classify_body).expect("decode"));
            }
            4 * bodies.len()
        };
        // Eight keys bound the replay's fsyncs; compile and put are per key.
        let keys = &run_keys[..run_keys.len().min(8)];
        crate::layers::replay_keys_and_bodies(&t, &mut layers, opts, keys, &columns, decode);
        let slice = slice(&w.table, 0);
        let slice_old =
            encode_with(&CompiledKey::compile(&w.initial[0]).expect("compiles"), &slice);
        crate::layers::replay_rekey(&t, &mut layers, &w.initial[0], &run_keys[0], &slice_old);
        crate::layers::replay_csv(&t, &mut layers, &w.csv, BULK_ROWS);
        crate::write_trace(opts, "serve_bulk", &t);
    }
    drop(daemon);
    Outcome { tally, e2e, layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn same_seed_same_keys() {
        let d = census_like(&mut StdRng::seed_from_u64(1), 500);
        assert_eq!(draw_key(&d, 7), draw_key(&d, 7));
        assert_ne!(draw_key(&d, 7), draw_key(&d, 8));
    }

    /// A workload small enough for a debug build: one rekey slice of
    /// table and one decode tree per tenant.
    fn tiny_workload() -> Workload {
        let mut rng = StdRng::seed_from_u64(5);
        let table = covertype_like(
            &mut rng,
            &CovertypeConfig { num_rows: REKEY_ROWS, ..Default::default() },
        );
        let small = census_like(&mut rng, 300);
        let builder = TreeBuilder::default();
        let decode = (0..TENANTS)
            .map(|_| {
                let encoded = Encoder::new(EncodeConfig::default()).encode(&mut rng, &small);
                let (key, d_prime) = encoded.expect("encode").into_parts();
                vec![(key, builder.fit(&d_prime))]
            })
            .collect();
        Workload {
            csv: csv::to_csv(&table),
            initial: (0..TENANTS).map(|t| draw_key(&table, t as u64)).collect(),
            table,
            decode,
            decode_csv: csv::to_csv(&small),
            decode_plain: builder.fit(&small),
            decode_table: small,
        }
    }

    /// A server that answers every request with `500` and closes.
    fn failing_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        std::thread::spawn(move || {
            for mut conn in listener.incoming().flatten() {
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).unwrap_or(0) == 1 {
                    head.push(byte[0]);
                }
                let _ = conn.write_all(
                    b"HTTP/1.1 500 Internal Server Error\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
                );
            }
        });
        addr
    }

    #[test]
    fn a_500_status_fails_every_call_of_the_job() {
        let w = tiny_workload();
        let job = prepare(9, &w, 0, &w.initial);
        let (_, answers) = run_job(&Tracer::new(false), failing_server(), &w, &job);
        let mut tally = Tally::default();
        for verdict in check(&w, &job, &answers) {
            tally.record(verdict.is_ok());
        }
        assert_eq!((tally.attempted, tally.failed), (CALLS.len() as u64, CALLS.len() as u64));
    }
}
