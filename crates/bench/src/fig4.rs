//! §4.5 — evaluation of the subgraph-based explanation algorithms.
//!
//! * `fig4.disc.ldbc` / `fig4.disc.dbp` — DISCOVERMCS on why-empty queries:
//!   runtime, traversal work and MCS size versus query size (§4.5.1);
//! * `fig4.opt` — the ablation of the §4.3 optimizations (exhaustive vs
//!   single traversal path, with and without WCC decomposition);
//! * `fig4.bnd` — BOUNDEDMCS for too-many / too-few thresholds (§4.5.2).

use crate::cells;
use crate::util::count;
use crate::util::{timed, Table, CARDINALITY_FACTORS};
use whyq_core::problem::CardinalityGoal;
use whyq_core::stats::Statistics;
use whyq_core::subgraph::traversal::{selectivity_path, user_centric_path};
use whyq_core::subgraph::{BoundedMcs, DiscoverMcs, McsConfig, PathStrategy};
use whyq_core::user::UserPreferences;
use whyq_datagen::{dbpedia_failing_queries, ldbc_failing_queries, ldbc_path_query, ldbc_queries};
use whyq_query::{PatternQuery, Predicate, QueryVertex};
use whyq_session::Database;

/// Result cardinality of an MCS, capped at 100,000.
fn mcs_count(db: &Database, mcs: &PatternQuery) -> u64 {
    count(db, mcs, Some(100_000))
}

/// DISCOVERMCS on LDBC why-empty queries + a query-size sweep.
pub fn disc_ldbc(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 4 (LDBC) — DISCOVERMCS on why-empty queries",
        &[
            "query",
            "|Vq|",
            "|Eq|",
            "mcs edges",
            "mcs C",
            "crossing",
            "paths",
            "extends",
            "ms",
        ],
    );
    let mut queries = ldbc_failing_queries();
    for hops in 1..=4 {
        queries.push(ldbc_path_query(hops, true));
    }
    for q in &queries {
        let (expl, ms) = timed(|| DiscoverMcs::new(db).run(q).expect("discover"));
        t.row(cells![
            q.name.clone().unwrap_or_default(),
            q.num_vertices(),
            q.num_edges(),
            expl.mcs.num_edges(),
            mcs_count(db, &expl.mcs),
            expl.crossing_edge
                .map_or_else(|| "-".into(), |e| e.to_string()),
            expl.paths_tried,
            expl.extensions,
            format!("{ms:.1}"),
        ]);
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: work (extends, ms) grows with |Eq|; MCS = |Eq| - failing part.");
}

/// DISCOVERMCS on DBpedia why-empty queries.
pub fn disc_dbp(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 4 (DBPEDIA) — DISCOVERMCS on why-empty queries",
        &[
            "query",
            "|Vq|",
            "|Eq|",
            "mcs edges",
            "mcs C",
            "crossing",
            "paths",
            "extends",
            "ms",
        ],
    );
    for q in dbpedia_failing_queries() {
        let (expl, ms) = timed(|| DiscoverMcs::new(db).run(&q).expect("discover"));
        t.row(cells![
            q.name.clone().unwrap_or_default(),
            q.num_vertices(),
            q.num_edges(),
            expl.mcs.num_edges(),
            mcs_count(db, &expl.mcs),
            expl.crossing_edge
                .map_or_else(|| "-".into(), |e| e.to_string()),
            expl.paths_tried,
            expl.extensions,
            format!("{ms:.1}"),
        ]);
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
}

/// A failing LDBC query with an extra unconnected component, used to make
/// the WCC decomposition observable.
fn disconnected_variant(base: &PatternQuery) -> PatternQuery {
    let mut q = base.clone();
    q.add_vertex(QueryVertex::with([
        Predicate::eq("type", "tag"),
        Predicate::eq("name", "databases"),
    ]));
    if let Some(name) = &mut q.name {
        name.push_str(" +component");
    }
    q
}

/// The §4.3 optimization ablation.
pub fn optimizations(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 4 (ablation) — traversal-path strategy x WCC decomposition",
        &[
            "query",
            "strategy",
            "decompose",
            "mcs edges",
            "paths",
            "extends",
            "ms",
        ],
    );
    let mut queries = ldbc_failing_queries();
    queries = queries
        .into_iter()
        .map(|q| disconnected_variant(&q))
        .collect();
    for q in &queries {
        for (strategy, sname) in [
            (PathStrategy::Exhaustive, "exhaustive"),
            (PathStrategy::SingleSelectivity, "single-path"),
        ] {
            for decompose in [false, true] {
                let config = McsConfig {
                    strategy: strategy.clone(),
                    decompose,
                    ..McsConfig::default()
                };
                let (expl, ms) = timed(|| {
                    DiscoverMcs::new(db)
                        .with_config(config)
                        .run(q)
                        .expect("discover")
                });
                t.row(cells![
                    q.name.clone().unwrap_or_default(),
                    sname,
                    decompose,
                    expl.mcs.num_edges(),
                    expl.paths_tried,
                    expl.extensions,
                    format!("{ms:.1}"),
                ]);
            }
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: single-path and decomposition each cut paths/extends; MCS quality is preserved on these workloads.");
}

/// BOUNDEDMCS under too-many and too-few thresholds (§4.5.2).
pub fn bounded(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 4 (BOUNDEDMCS) — bounded MCS per cardinality factor",
        &[
            "query",
            "C1",
            "factor",
            "goal",
            "mcs edges",
            "mcs C",
            "crossing",
            "extends",
            "ms",
        ],
    );
    for q in ldbc_queries() {
        let c1 = count(db, &q, None);
        for &factor in &CARDINALITY_FACTORS {
            let c_thr = ((c1 as f64) * factor).round().max(1.0) as u64;
            let goal = if factor < 1.0 {
                CardinalityGoal::AtMost(c_thr)
            } else {
                CardinalityGoal::AtLeast(c_thr)
            };
            let (expl, ms) = timed(|| BoundedMcs::new(db).run(&q, goal).expect("bounded"));
            t.row(cells![
                q.name.clone().unwrap_or_default(),
                c1,
                factor,
                format!("{goal:?}"),
                expl.mcs.num_edges(),
                mcs_count(db, &expl.mcs),
                expl.crossing_edge
                    .map_or_else(|| "-".into(), |e| e.to_string()),
                expl.extensions,
                format!("{ms:.1}"),
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: tighter AtMost bounds shrink the bounded MCS; looser AtLeast bounds grow it.");
}

/// §4.4 — user-centric traversal: does the path strategy examine the
/// elements the user cares about first?
pub fn user_paths(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 4 (user paths) — position of the user's edge of interest in the traversal",
        &[
            "query",
            "interesting edge",
            "pos selectivity-path",
            "pos user-centric",
            "rank sel",
            "rank user",
        ],
    );
    let stats = Statistics::new(db);
    for q in ldbc_queries() {
        let component: Vec<whyq_query::QVid> = q.vertex_ids().collect();
        // the user cares about the *last* edge of the query (worst case for
        // a selectivity-ordered traversal)
        let interesting = q.edge_ids().last().expect("has edges");
        let mut prefs = UserPreferences::new();
        prefs.set_edge(interesting, 1.0);
        let sel = selectivity_path(&q, &component, &stats);
        let user = user_centric_path(&q, &component, &prefs, &stats);
        let pos = |edges: &[whyq_query::QEid]| {
            edges
                .iter()
                .position(|&e| e == interesting)
                .map_or(0, |p| p + 1)
        };
        t.row(cells![
            q.name.clone().unwrap_or_default(),
            interesting.to_string(),
            pos(&sel.edges),
            pos(&user.edges),
            format!("{:.2}", prefs.path_rank(&sel.edges)),
            format!("{:.2}", prefs.path_rank(&user.edges)),
        ]);
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!(
        "  shape check: the user-centric path moves the interesting edge to the front (rank up)."
    );
}
