//! E10 — ChooseMaxMP runtime (the paper reports 1–2 s per attribute
//! on the full 581,012-row benchmark in MATLAB; this measures the
//! Rust implementation per attribute at 1/50 scale: the planning step
//! over an already-sorted domain, and the sort plus analysis it needs
//! once per attribute).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdt_bench::HarnessConfig;
use ppdt_data::{AttrId, MonoAnalysis};
use ppdt_transform::{plan_pieces, BreakpointStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_choosemaxmp(c: &mut Criterion) {
    let cfg = HarnessConfig { scale: 0.02, ..Default::default() };
    let d = cfg.covertype();
    let mut group = c.benchmark_group("choosemaxmp");
    group.sample_size(20);
    for a in [0usize, 5, 9] {
        let attr = AttrId(a);
        group.bench_with_input(BenchmarkId::new("plan_pieces", a + 1), &attr, |b, &attr| {
            let domain = d.domain_labels(attr);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                plan_pieces(
                    &mut rng,
                    domain,
                    BreakpointStrategy::ChooseMaxMP { w: 20, min_piece_len: 5 },
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("sort_and_analyze", a + 1), &attr, |b, &attr| {
            b.iter(|| {
                let sc = d.sorted_column(attr);
                MonoAnalysis::analyze(&sc, 5)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_choosemaxmp);
criterion_main!(benches);
