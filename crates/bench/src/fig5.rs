//! §5.5 — evaluation of coarse-grained why-empty rewriting.
//!
//! * `fig5.prio` — priority functions of the candidate selector (§5.5.1):
//!   executed candidates and runtime until the first non-empty rewrite;
//! * `fig5.conv` — runtime convergence of the search (§5.5.2);
//! * `fig5.icc` — average path(1) cardinality + induced cardinality
//!   changes (§5.5.3) against its components;
//! * `fig5.user` — non-intrusive user integration (§5.5.4).

use crate::cells;
use crate::util::{timed, Table};
use whyq_core::relax::priority::PriorityFn;
use whyq_core::relax::{CoarseRewriter, RelaxConfig};
use whyq_core::user::{SimulatedUser, UserPreferences};
use whyq_datagen::{dbpedia_failing_queries, ldbc_failing_queries, ldbc_hard_failing_queries};
use whyq_matcher::MatchOptions;
use whyq_query::{QEid, QVid};
use whyq_session::Database;

const PRIORITIES: [PriorityFn; 7] = [
    PriorityFn::Random(99),
    PriorityFn::MinSyntactic,
    PriorityFn::EstimatedCardinality,
    PriorityFn::AvgPath1,
    PriorityFn::InducedChange,
    PriorityFn::Path1PlusInduced,
    PriorityFn::PathsN,
];

/// §5.5.1 — candidate-selector priority functions.
pub fn priorities(ldbc: &Database, dbp: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 5 (priorities) — executed candidates until first non-empty rewrite",
        &[
            "data",
            "query",
            "priority",
            "executed",
            "generated",
            "found",
            "syn-dist",
            "ms",
        ],
    );
    let workloads: Vec<(&str, &Database, Vec<whyq_query::PatternQuery>)> = vec![
        ("LDBC", ldbc, ldbc_failing_queries()),
        ("LDBC", ldbc, ldbc_hard_failing_queries()),
        ("DBPEDIA", dbp, dbpedia_failing_queries()),
    ];
    for (dname, db, queries) in &workloads {
        let rewriter = CoarseRewriter::new(db);
        for q in queries {
            for p in PRIORITIES {
                let config = RelaxConfig {
                    priority: p,
                    max_executed: 400,
                    ..RelaxConfig::default()
                };
                let (out, ms) = timed(|| rewriter.rewrite(q, &config));
                t.row(cells![
                    *dname,
                    q.name.clone().unwrap_or_default(),
                    p.name(),
                    out.executed,
                    out.generated,
                    out.explanation.is_some(),
                    out.explanation
                        .as_ref()
                        .map_or_else(|| "-".into(), |e| format!("{:.3}", e.syntactic_distance)),
                    format!("{ms:.1}"),
                ]);
            }
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: statistics-driven priorities execute fewer candidates than random.");
}

/// §5.5.2 — convergence: executed candidates vs. candidate cardinality.
pub fn convergence(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 5 (convergence) — search trajectory on LDBC QUERY 1 (failing)",
        &["priority", "executed", "depth", "cardinality", "syntactic"],
    );
    let rewriter = CoarseRewriter::new(db);
    let session = db.session();
    let hard = ldbc_hard_failing_queries();
    let q = &hard[0];
    for p in [
        PriorityFn::Random(99),
        PriorityFn::MinSyntactic,
        PriorityFn::Path1PlusInduced,
    ] {
        let config = RelaxConfig {
            priority: p,
            max_executed: 400,
            ..RelaxConfig::default()
        };
        let out = rewriter.rewrite(q, &config);
        // candidates are counted to their first match; the accepted one,
        // the last point, is recounted to 10,000 for the table
        let accepted = out.explanation.as_ref().map(|e| {
            session
                .count_opts(&e.query, MatchOptions::counting(Some(10_000)))
                .expect("accepted rewrite is valid")
        });
        for (i, point) in out.trajectory.iter().enumerate() {
            let last = i + 1 == out.trajectory.len();
            t.row(cells![
                p.name(),
                point.executed,
                point.depth,
                accepted.filter(|_| last).unwrap_or(point.cardinality),
                format!("{:.3}", point.syntactic),
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: guided priorities hit a non-zero cardinality within few executions.");
}

/// §5.5.3 — the combined priority against its two components.
pub fn icc(ldbc: &Database, dbp: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 5 (icc) — avg-path1 vs induced-change vs combination",
        &[
            "data",
            "query",
            "avg-path1",
            "induced-change",
            "path1+induced",
        ],
    );
    let workloads: Vec<(&str, &Database, Vec<whyq_query::PatternQuery>)> = vec![
        ("LDBC", ldbc, ldbc_hard_failing_queries()),
        ("DBPEDIA", dbp, dbpedia_failing_queries()),
    ];
    for (dname, db, queries) in &workloads {
        let rewriter = CoarseRewriter::new(db);
        for q in queries {
            let mut executed = Vec::new();
            for p in [
                PriorityFn::AvgPath1,
                PriorityFn::InducedChange,
                PriorityFn::Path1PlusInduced,
            ] {
                let config = RelaxConfig {
                    priority: p,
                    max_executed: 400,
                    ..RelaxConfig::default()
                };
                let out = rewriter.rewrite(q, &config);
                executed.push(if out.explanation.is_some() {
                    out.executed.to_string()
                } else {
                    format!(">{}", out.executed)
                });
            }
            t.row(cells![
                *dname,
                q.name.clone().unwrap_or_default(),
                executed[0].clone(),
                executed[1].clone(),
                executed[2].clone(),
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: the combination is at least as fast as its weaker component.");
}

/// §5.5.4 — user integration: preference model on/off.
pub fn user(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 5 (user) — rating-guided rewriting (simulated user)",
        &[
            "query",
            "lambda",
            "rounds",
            "accepted",
            "first rating",
            "final rating",
        ],
    );
    let rewriter = CoarseRewriter::new(db);
    for q in ldbc_failing_queries() {
        // the simulated user protects the first edge and the first vertex
        let mut hidden = UserPreferences::new();
        hidden.set_edge(QEid(0), 1.0);
        hidden.set_vertex(QVid(0), 1.0);
        let user = SimulatedUser::new(hidden);
        for lambda in [0.0, 5.0] {
            let config = RelaxConfig {
                lambda,
                max_executed: 400,
                ..RelaxConfig::default()
            };
            let (session, _) = rewriter.session(&q, &config, &user, 0.6, 6);
            let first = session.rounds.first().map(|r| r.rating);
            let last = session.rounds.last().map(|r| r.rating);
            t.row(cells![
                q.name.clone().unwrap_or_default(),
                lambda,
                session.rounds.len(),
                session
                    .accepted
                    .map_or_else(|| "-".into(), |i| (i + 1).to_string()),
                first.map_or_else(|| "-".into(), |r| format!("{r:.2}")),
                last.map_or_else(|| "-".into(), |r| format!("{r:.2}")),
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!(
        "  shape check: the preference model (lambda>0) accepts in no more rounds than without."
    );
}

/// §5.2 — cardinality-estimation quality: the min-edge bound and the
/// `paths(n)` chain-join estimate against the true cardinality.
pub fn estimates(ldbc: &Database, dbp: &Database, tsv: bool) {
    use crate::util::count;
    use whyq_core::stats::Statistics;
    use whyq_datagen::{dbpedia_queries, ldbc_queries};

    let mut t = Table::new(
        "Fig 5 (estimates) — cardinality estimation quality (q-error)",
        &[
            "data",
            "query",
            "true C",
            "min-edge est",
            "paths(n) est",
            "qerr min-edge",
            "qerr paths(n)",
        ],
    );
    let qerr = |est: f64, truth: f64| -> f64 {
        if est <= 0.0 || truth <= 0.0 {
            f64::INFINITY
        } else {
            (est / truth).max(truth / est)
        }
    };
    let workloads: Vec<(&str, &Database, Vec<whyq_query::PatternQuery>)> = vec![
        ("LDBC", ldbc, ldbc_queries()),
        ("DBPEDIA", dbp, dbpedia_queries()),
    ];
    for (dname, db, queries) in &workloads {
        let stats = Statistics::new(db);
        for q in queries {
            let truth = count(db, q, None) as f64;
            let min_edge = stats.estimate(q) as f64;
            let paths = stats.estimate_paths(q);
            t.row(cells![
                *dname,
                q.name.clone().unwrap_or_default(),
                truth,
                format!("{min_edge:.0}"),
                format!("{paths:.1}"),
                format!("{:.2}", qerr(min_edge, truth)),
                format!("{:.2}", qerr(paths, truth)),
            ]);
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: the paths(n) estimate has lower q-error on path/star-shaped queries.");
}
