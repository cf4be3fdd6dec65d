//! §6.4 — evaluation of fine-grained cardinality-driven modification.
//!
//! * `fig6.base` — TRAVERSESEARCHTREE against the §6.4.1 baselines
//!   (random walk, exhaustive BFS): executed candidates until the goal is
//!   met, children discarded without execution, and best deviation under
//!   a fixed budget;
//! * `fig6.topo` — topology consideration (§6.4.3): the searcher with and
//!   without topology modifications.

use crate::cells;
use crate::util::count;
use crate::util::{timed, Table, CARDINALITY_FACTORS};
use whyq_core::fine::baselines::{exhaustive_bfs, random_walk};
use whyq_core::fine::{FineConfig, FineOutcome, TraverseSearchTree};
use whyq_core::problem::CardinalityGoal;
use whyq_datagen::ldbc_queries;
use whyq_session::Database;

const BUDGET: usize = 500;

fn goals_for(c1: u64) -> Vec<(f64, CardinalityGoal)> {
    CARDINALITY_FACTORS
        .iter()
        .map(|&f| {
            let thr = ((c1 as f64) * f).round().max(1.0) as u64;
            let goal = if f < 1.0 {
                CardinalityGoal::AtMost(thr)
            } else {
                CardinalityGoal::AtLeast(thr)
            };
            (f, goal)
        })
        .collect()
}

/// §6.4.2 — baseline comparison. The shape line is computed from the rows:
/// per method, the goals it met with the fewest executions, ties counted.
pub fn baselines(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 6 (baselines) — executed candidates until the goal is met",
        &[
            "query", "factor", "goal", "method", "executed", "pruned", "found", "best dev", "ms",
        ],
    );
    let methods = ["traverse-search-tree", "random-walk", "exhaustive-bfs"];
    let (mut goals, mut fewest) = (0, [0; 3]);
    for q in ldbc_queries() {
        let c1 = count(db, &q, None);
        for (factor, goal) in goals_for(c1) {
            let tst = TraverseSearchTree::new(db).with_config(FineConfig {
                max_executed: BUDGET,
                ..FineConfig::default()
            });
            let runs = [
                timed(|| tst.run(&q, goal)),
                timed(|| random_walk(db, &q, goal, BUDGET, 11)),
                timed(|| exhaustive_bfs(db, &q, goal, BUDGET)),
            ];
            for (&method, (out, ms)) in methods.iter().zip(&runs) {
                t.row(cells![
                    q.name.clone().unwrap_or_default(),
                    factor,
                    format!("{goal:?}"),
                    method,
                    out.executed,
                    out.pruned,
                    out.explanation.is_some(),
                    out.best_deviation,
                    format!("{ms:.1}"),
                ]);
            }
            goals += 1;
            let met = |(out, _): &(FineOutcome, f64)| out.explanation.is_some();
            let least = runs
                .iter()
                .filter(|r| met(r))
                .map(|(out, _)| out.executed)
                .min();
            for (n, run) in fewest.iter_mut().zip(&runs) {
                *n += usize::from(met(run) && Some(run.0.executed) == least);
            }
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    let tally: Vec<String> = methods
        .iter()
        .zip(fewest)
        .map(|(method, n)| format!("{method} {n}"))
        .collect();
    println!(
        "  shape check: goals met with the fewest executions (of {goals}, ties counted): {}.",
        tally.join(", ")
    );
}

/// §6.4.3 — topology consideration ablation.
pub fn topology(db: &Database, tsv: bool) {
    let mut t = Table::new(
        "Fig 6 (topology) — fine-grained rewriting with and without topology ops",
        &[
            "query", "factor", "topology", "executed", "pruned", "found", "best dev", "mods",
        ],
    );
    for q in ldbc_queries() {
        let c1 = count(db, &q, None);
        for (factor, goal) in goals_for(c1) {
            for allow in [true, false] {
                let out = TraverseSearchTree::new(db)
                    .with_config(FineConfig {
                        max_executed: BUDGET,
                        allow_topology: allow,
                    })
                    .run(&q, goal);
                t.row(cells![
                    q.name.clone().unwrap_or_default(),
                    factor,
                    allow,
                    out.executed,
                    out.pruned,
                    out.explanation.is_some(),
                    out.best_deviation,
                    out.explanation
                        .as_ref()
                        .map_or_else(|| "-".into(), |e| e.mods.len().to_string()),
                ]);
            }
        }
    }
    t.print();
    if tsv {
        let _ = t.write_tsv();
    }
    println!("  shape check: topology ops unlock solutions the predicate-only search misses (or reach them sooner).");
}
