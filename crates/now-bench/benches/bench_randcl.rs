//! Criterion benches for the `randCl` biased CTRW (§3.1) across
//! overlay sizes and walk-length factors.
//!
//! The size sweep reaches 512 and 4096 clusters: a walk there takes
//! ~log²m hops over an overlay far larger than cache, which is where the
//! per-hop lookup cost of the kernel shows (the small sizes fit in L1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use now_core::{NowParams, NowSystem};
use std::time::Duration;

fn bench_randcl_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("randcl/clusters");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for clusters in [8usize, 16, 32, 512, 4096] {
        let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05).unwrap();
        let n0 = clusters * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, 11);
        let start = sys.cluster_ids()[0];
        group.bench_with_input(BenchmarkId::from_parameter(clusters), &clusters, |b, _| {
            b.iter(|| sys.rand_cl_from(start))
        });
    }
    group.finish();
}

fn bench_randcl_walk_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("randcl/walk_factor");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for factor in [0.5f64, 1.0, 2.0] {
        let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05)
            .unwrap()
            .with_walk_length_factor(factor);
        let n0 = 16 * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, 12);
        let start = sys.cluster_ids()[0];
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{factor}")),
            &factor,
            |b, _| b.iter(|| sys.rand_cl_from(start)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_randcl_scaling, bench_randcl_walk_factor);
criterion_main!(benches);
