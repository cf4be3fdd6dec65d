//! Micro-benchmarks of the adjacency layout itself.
//!
//! The matcher's hot loop is a candidate scan: walk one vertex's adjacency
//! and read, for every edge, its opposite endpoint and type. These benches
//! isolate that access pattern on the LDBC graph and compare the two ways
//! of answering it:
//!
//! * `edgedata` — read edge ids off the adjacency and chase each into the
//!   [`whyq_graph::EdgeData`] arena (the pre-CSR engine's pattern);
//! * `csr-columns` — read the sealed CSR's SoA columns, where the opposite
//!   endpoint and type sit next to the edge id in contiguous memory.
//!
//! `seal` measures the one-time compaction cost, and `bfs` a whole-graph
//! traversal through the CSR. The committed `BENCH_graph.json` snapshot is
//! produced via the `WHYQ_BENCH_JSON` environment variable.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use whyq_datagen::{ldbc_graph, LdbcConfig};
use whyq_graph::algo::bfs_order;
use whyq_graph::VertexId;

fn bench_graph(c: &mut Criterion) {
    let mut g = ldbc_graph(LdbcConfig::default());
    g.seal();
    let topo = g.topology();
    let knows = g.type_symbol("knows").expect("LDBC has knows edges");
    let mut group = c.benchmark_group("graph");
    group.sample_size(20);

    // full candidate scan: every vertex, every out-edge, read the dst
    group.bench_function("candidate-scan/edgedata", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in g.vertex_ids() {
                for &e in g.out_edges(v) {
                    acc += g.edge(e).dst.0 as u64;
                }
            }
            black_box(acc)
        });
    });
    group.bench_function("candidate-scan/csr-columns", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in g.vertex_ids() {
                for &dst in topo.out_entries(v).others {
                    acc += dst.0 as u64;
                }
            }
            black_box(acc)
        });
    });

    // type-restricted scan, the common shape inside the matcher
    group.bench_function("typed-scan/edgedata", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in g.vertex_ids() {
                for &e in g.out_edges_of(v, knows) {
                    acc += g.edge(e).dst.0 as u64;
                }
            }
            black_box(acc)
        });
    });
    group.bench_function("typed-scan/csr-columns", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in g.vertex_ids() {
                for &dst in topo.out_entries_of(v, knows).others {
                    acc += dst.0 as u64;
                }
            }
            black_box(acc)
        });
    });

    // undirected BFS over the whole graph (CSR incident scans)
    group.bench_function("bfs/whole-graph", |b| {
        b.iter(|| black_box(bfs_order(&g, VertexId(0)).len()));
    });

    // one-time compaction cost of sealing the LDBC graph (the clone of
    // the build-phase graph is part of the measured loop — the per-vertex
    // lists cannot be sealed twice); the generator returns it unsealed
    let unsealed = ldbc_graph(LdbcConfig::default());
    group.bench_function("clone+seal/ldbc-default", |b| {
        b.iter(|| {
            let mut fresh = unsealed.clone();
            fresh.seal();
            black_box(fresh.is_sealed())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
