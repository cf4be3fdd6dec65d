//! Micro-benchmarks of the comparison metrics (§3.2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use whyq_datagen::{ldbc_graph, ldbc_queries, random_explanations, LdbcConfig, MutationConfig};
use whyq_graph::domains::AttributeDomains;
use whyq_matcher::{MatchOptions, Matcher};
use whyq_metrics::{hungarian, result_set_distance, syntactic_distance};

fn bench_metrics(c: &mut Criterion) {
    let mut g = ldbc_graph(LdbcConfig::default());
    g.seal();
    let q = &ldbc_queries()[2];
    let domains = AttributeDomains::build(&g, 128);
    let pool = random_explanations(
        q,
        &domains,
        MutationConfig {
            count: 20,
            max_ops: 3,
            seed: 5,
        },
    );
    let mut group = c.benchmark_group("metrics");
    group.sample_size(30);

    group.bench_function("syntactic/Q3-pool20", |b| {
        b.iter(|| {
            for (eq, _) in &pool {
                black_box(syntactic_distance(q, eq));
            }
        });
    });

    let m = Matcher::new(&g);
    let orig = m.find(q, MatchOptions::limited(40));
    let modified = m.find(&pool[0].0, MatchOptions::limited(40));
    group.bench_function("result-distance/40x40", |b| {
        b.iter(|| black_box(result_set_distance(&orig, &modified)));
    });

    // deterministic pseudo-random square matrix for the assignment kernel
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let cost: Vec<Vec<f64>> = (0..64).map(|_| (0..64).map(|_| next()).collect()).collect();
    group.bench_function("hungarian/64x64", |b| {
        b.iter(|| black_box(hungarian(&cost)));
    });
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
