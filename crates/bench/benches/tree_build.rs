//! Decision-tree builder throughput (original vs transformed data —
//! the two must cost the same, which is itself a property worth
//! watching) and the custodian's decode step.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ppdt_bench::HarnessConfig;
use ppdt_transform::{EncodeConfig, Encoder};
use ppdt_tree::{ThresholdPolicy, TreeBuilder, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_tree(c: &mut Criterion) {
    let cfg = HarnessConfig { scale: 0.005, ..Default::default() };
    let d = cfg.covertype();
    let mut rng = StdRng::seed_from_u64(4);
    let (key, d2) =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encode").into_parts();
    let params = TreeParams { min_samples_leaf: 5, ..Default::default() };
    let builder = TreeBuilder::new(params);

    let mut group = c.benchmark_group("tree");
    group.sample_size(10);
    group.throughput(Throughput::Elements(d.num_rows() as u64));
    group.bench_function("fit_original", |b| b.iter(|| builder.fit(&d)));
    group.bench_function("fit_transformed", |b| b.iter(|| builder.fit(&d2)));

    let mined = builder.fit(&d2);
    group.bench_function("decode_tree", |b| {
        b.iter(|| key.decode_tree(&mined, ThresholdPolicy::DataValue, &d))
    });
    group.finish();
}

criterion_group!(benches, bench_tree);
criterion_main!(benches);
