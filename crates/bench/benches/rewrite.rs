//! Micro-benchmarks of the rewriting engines (Chs. 5–6).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use whyq_core::fine::TraverseSearchTree;
use whyq_core::problem::CardinalityGoal;
use whyq_core::relax::priority::PriorityFn;
use whyq_core::relax::{CoarseRewriter, RelaxConfig};
use whyq_datagen::{ldbc_failing_queries, ldbc_graph, ldbc_queries, LdbcConfig};
use whyq_session::Database;

fn bench_rewrite(c: &mut Criterion) {
    let db = Database::open(ldbc_graph(LdbcConfig::default())).expect("open");
    let failing = ldbc_failing_queries();
    let mut group = c.benchmark_group("rewrite");
    group.sample_size(10);

    group.bench_function("coarse/path1+induced/Q1", |b| {
        let rw = CoarseRewriter::new(&db);
        b.iter(|| black_box(rw.rewrite(&failing[0], &RelaxConfig::default())));
    });
    group.bench_function("coarse/random/Q1", |b| {
        let rw = CoarseRewriter::new(&db);
        let config = RelaxConfig {
            priority: PriorityFn::Random(99),
            ..RelaxConfig::default()
        };
        b.iter(|| black_box(rw.rewrite(&failing[0], &config)));
    });

    let q3 = &ldbc_queries()[2];
    let c1 = db.session().count(q3).expect("valid query");
    group.bench_function("fine/atmost-half/Q3", |b| {
        b.iter(|| black_box(TraverseSearchTree::new(&db).run(q3, CardinalityGoal::AtMost(c1 / 2))));
    });
    group.finish();
}

criterion_group!(benches, bench_rewrite);
criterion_main!(benches);
