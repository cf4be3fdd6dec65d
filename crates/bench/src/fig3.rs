//! §3.2.5 — evaluation of the comparison metrics (Figs. 3.7–3.10).
//!
//! For each LDBC query and each cardinality factor `{0.2, 0.5, 2, 5}` a
//! seeded pool of random explanations (≤ 3 modification levels) is
//! generated; every explanation is executed and its syntactic, result and
//! cardinality distances to the original query are measured. The thesis
//! plots the ordered distance curves; we print quartile summaries of the
//! ordered series (identical information, terminal-friendly) plus the
//! structural observations the thesis makes — monotonicity, saturation and
//! plateaus.

use crate::cells;
use crate::util::count;
use crate::util::{series_summary, Table, CARDINALITY_FACTORS};
use whyq_datagen::{ldbc_queries, random_explanations, MutationConfig};
use whyq_graph::domains::AttributeDomains;
use whyq_matcher::ResultGraph;
use whyq_metrics::{result_set_distance, syntactic_distance};
use whyq_query::PatternQuery;
use whyq_session::Database;

/// Cap on enumerated result graphs per query when computing the result
/// distance (the assignment is O(n³)).
const RESULT_SAMPLE: usize = 50;

/// The `RESULT_SAMPLE` first result graphs of `q` in canonical order —
/// by vertex bindings, then edge bindings — drawn from the whole result
/// set, so no plan change can move the sample.
fn sample(db: &Database, q: &PatternQuery) -> Vec<ResultGraph> {
    type Key = (Vec<(u32, u32)>, Vec<(u32, u32)>);
    let key = |r: &ResultGraph| -> Key {
        (
            r.vertex_bindings()
                .iter()
                .map(|&(q, d)| (q.0, d.0))
                .collect(),
            r.edge_bindings().iter().map(|&(q, d)| (q.0, d.0)).collect(),
        )
    };
    let session = db.session();
    let prepared = session.prepare(q).expect("harness queries are valid");
    let mut first: Vec<(Key, ResultGraph)> = Vec::with_capacity(RESULT_SAMPLE + 1);
    for r in prepared.stream() {
        let k = key(&r);
        if first.len() == RESULT_SAMPLE && first.last().is_some_and(|(last, _)| k >= *last) {
            continue;
        }
        let at = first.partition_point(|(x, _)| *x < k);
        first.insert(at, (k, r));
        first.truncate(RESULT_SAMPLE);
    }
    first.into_iter().map(|(_, r)| r).collect()
}
/// Explanations per (query, factor) combination.
const POOL: usize = 120;

struct Pool {
    query: PatternQuery,
    original_c: u64,
    original_results: Vec<ResultGraph>,
    explanations: Vec<(PatternQuery, u64, f64)>, // (query, cardinality, syntactic)
}

fn build_pools(db: &Database, seed: u64) -> Vec<Pool> {
    let domains = AttributeDomains::build(db.graph(), 128);
    ldbc_queries()
        .into_iter()
        .map(|q| {
            let original_c = count(db, &q, None);
            let original_results = sample(db, &q);
            let pool = random_explanations(
                &q,
                &domains,
                MutationConfig {
                    count: POOL,
                    max_ops: 3,
                    seed,
                },
            );
            let explanations = pool
                .into_iter()
                .map(|(eq, _)| {
                    let c = count(db, &eq, Some(100_000));
                    let syn = syntactic_distance(&q, &eq);
                    (eq, c, syn)
                })
                .collect();
            Pool {
                query: q,
                original_c,
                original_results,
                explanations,
            }
        })
        .collect()
}

/// Fig. 3.7 — ordered syntactic distances.
pub fn fig3_7(db: &Database, tsv: bool) {
    let pools = build_pools(db, 1234);
    let mut t = Table::new(
        "Fig 3.7 — syntactic distances of random explanations (quartiles of the ordered series)",
        &[
            "query",
            "C1",
            "pool",
            "min",
            "q25",
            "median",
            "q75",
            "max",
            "distinct-steps",
        ],
    );
    for p in &pools {
        let mut series: Vec<f64> = p.explanations.iter().map(|(_, _, s)| *s).collect();
        // the thesis observes a stepped monotone curve: count plateaus
        let mut sorted = series.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut steps = 1;
        for w in sorted.windows(2) {
            if (w[1] - w[0]).abs() > 1e-9 {
                steps += 1;
            }
        }
        let (min, q25, med, q75, max) = series_summary(&mut series);
        t.row(cells![
            p.query.name.clone().unwrap_or_default(),
            p.original_c,
            p.explanations.len(),
            format!("{min:.3}"),
            format!("{q25:.3}"),
            format!("{med:.3}"),
            format!("{q75:.3}"),
            format!("{max:.3}"),
            steps,
        ]);
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: distances are in (0,1], stepped (plateaus = equal change sets).");
}

/// Fig. 3.8 — ordered result distances per cardinality factor.
pub fn fig3_8(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 3.8 — result distances of random explanations",
        &[
            "query", "factor", "C_thr", "min", "q25", "median", "q75", "max", "frac@1.0",
        ],
    );
    for (fi, &factor) in CARDINALITY_FACTORS.iter().enumerate() {
        // a fresh pool per factor, like the thesis's per-subfigure pools
        let pools = build_pools(db, 1000 + fi as u64 * 37);
        for p in &pools {
            let c_thr = ((p.original_c as f64) * factor).round().max(1.0) as u64;
            let mut series: Vec<f64> = p
                .explanations
                .iter()
                .map(|(eq, _, _)| {
                    let results = sample(db, eq);
                    result_set_distance(&p.original_results, &results)
                })
                .collect();
            let saturated =
                series.iter().filter(|&&d| d >= 0.999).count() as f64 / series.len().max(1) as f64;
            let (min, q25, med, q75, max) = series_summary(&mut series);
            t.row(cells![
                p.query.name.clone().unwrap_or_default(),
                factor,
                c_thr,
                format!("{min:.3}"),
                format!("{q25:.3}"),
                format!("{med:.3}"),
                format!("{q75:.3}"),
                format!("{max:.3}"),
                format!("{saturated:.2}"),
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: a large fraction saturates at 1.0 (lost originals / empty rewrites).");
}

/// Fig. 3.9 — ordered cardinality distances per cardinality factor.
pub fn fig3_9(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 3.9 — cardinality deviations |C_thr - C| of random explanations",
        &[
            "query", "factor", "C_thr", "min", "q25", "median", "q75", "max", "plateaus",
        ],
    );
    for (fi, &factor) in CARDINALITY_FACTORS.iter().enumerate() {
        let pools = build_pools(db, 1000 + fi as u64 * 37);
        for p in &pools {
            let c_thr = ((p.original_c as f64) * factor).round().max(1.0) as u64;
            let mut series: Vec<f64> = p
                .explanations
                .iter()
                .map(|(_, c, _)| c_thr.abs_diff(*c) as f64)
                .collect();
            let mut sorted = series.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let distinct = {
                let mut d = 1;
                for w in sorted.windows(2) {
                    if (w[1] - w[0]).abs() > 1e-9 {
                        d += 1;
                    }
                }
                d
            };
            let plateaus = series.len().saturating_sub(distinct);
            let (min, q25, med, q75, max) = series_summary(&mut series);
            t.row(cells![
                p.query.name.clone().unwrap_or_default(),
                factor,
                c_thr,
                min,
                q25,
                med,
                q75,
                max,
                plateaus,
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: many explanations share a deviation (dependent query elements).");
}

/// Fig. 3.10 — average result distance vs. syntactic-distance interval.
pub fn fig3_10(db: &Database, tsv: bool) {
    let pools = build_pools(db, 1234);
    let mut t = Table::new(
        "Fig 3.10 — avg result distance per syntactic-distance bin",
        &["query", "bin", "explanations", "avg result distance"],
    );
    for p in &pools {
        // bins of width 0.1 over the syntactic range
        let mut bins: Vec<(usize, f64)> = vec![(0, 0.0); 10];
        for (eq, _, syn) in &p.explanations {
            let results = sample(db, eq);
            let rd = result_set_distance(&p.original_results, &results);
            let b = ((syn * 10.0) as usize).min(9);
            bins[b].0 += 1;
            bins[b].1 += rd;
        }
        for (b, (count, sum)) in bins.into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            t.row(cells![
                p.query.name.clone().unwrap_or_default(),
                format!("[{:.1};{:.1})", b as f64 / 10.0, (b + 1) as f64 / 10.0),
                count,
                format!("{:.3}", sum / count as f64),
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: result distance grows (on average) with syntactic distance.");
}
