//! Explanation types delivered to the user.

use whyq_matcher::Termination;
use whyq_query::{GraphMod, PatternQuery, QEid, QVid};

/// The failed query part: elements of the original query **not** contained
/// in the maximum common (connected) subgraph (§4.1.2, §4.2.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DifferentialGraph {
    vertices: Vec<QVid>,
    edges: Vec<QEid>,
}

impl DifferentialGraph {
    /// Differential between an original query and a subquery of it: all
    /// elements live in `original` but absent from `subquery`.
    pub fn between(original: &PatternQuery, subquery: &PatternQuery) -> Self {
        let vertices = original
            .vertex_ids()
            .filter(|&v| subquery.vertex(v).is_none())
            .collect();
        let edges = original
            .edge_ids()
            .filter(|&e| subquery.edge(e).is_none())
            .collect();
        DifferentialGraph { vertices, edges }
    }

    /// Query vertices in the failed part.
    pub fn vertex_ids(&self) -> impl Iterator<Item = QVid> + '_ {
        self.vertices.iter().copied()
    }

    /// Query edges in the failed part.
    pub fn edge_ids(&self) -> impl Iterator<Item = QEid> + '_ {
        self.edges.iter().copied()
    }

    /// True when the whole query succeeded (nothing failed).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// Number of failed elements.
    pub fn len(&self) -> usize {
        self.vertices.len() + self.edges.len()
    }

    /// Materialize the failed part as a query graph (with original ids).
    pub fn subquery(&self, original: &PatternQuery) -> PatternQuery {
        let mut q = original.induced_subquery(&self.vertices);
        // also keep failed edges whose endpoints survived in the MCS
        for &e in &self.edges {
            if q.edge(e).is_none() {
                if let Some(ed) = original.edge(e) {
                    if q.vertex(ed.src).is_none() {
                        if let Some(v) = original.vertex(ed.src) {
                            q.restore_vertex(ed.src, v.clone());
                        }
                    }
                    if q.vertex(ed.dst).is_none() {
                        if let Some(v) = original.vertex(ed.dst) {
                            q.restore_vertex(ed.dst, v.clone());
                        }
                    }
                    q.restore_edge(e, ed.clone());
                }
            }
        }
        q
    }
}

impl std::fmt::Display for DifferentialGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "∅ (query succeeded)");
        }
        let vs: Vec<String> = self
            .vertices
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let es: Vec<String> = self
            .edges
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        write!(
            f,
            "failed vertices: [{}], failed edges: [{}]",
            vs.join(", "),
            es.join(", ")
        )
    }
}

/// A subgraph-based explanation (Ch. 4): the maximal succeeding subquery
/// and the differential (failed) part.
#[derive(Debug, Clone)]
pub struct SubgraphExplanation {
    /// The maximum common connected subgraph between query and data — the
    /// largest subquery still satisfying the cardinality bound. The search
    /// does not count it again once assembled: count it for its size.
    pub mcs: PatternQuery,
    /// The failed query part (`Q ∖ MCS`).
    pub differential: DifferentialGraph,
    /// The query edge whose addition violated the bound, if the traversal
    /// identified one.
    pub crossing_edge: Option<QEid>,
    /// Number of traversal paths explored.
    pub paths_tried: usize,
    /// Number of prefix evaluations performed — one governed count per
    /// traversed prefix, seeds included (work measure used by the §4.5
    /// evaluation). DISCOVERMCS evaluates the same prefixes the
    /// edge-at-a-time growth of §4.2 extends, so the numbers match it.
    pub extensions: u64,
    /// How the run ended. [`Termination::Complete`] means the traversal
    /// finished on its own; any other variant marks a *degraded* answer —
    /// the budget the run was handed tripped, and the MCS reflects only
    /// the prefixes counted in full up to that point.
    pub termination: Termination,
}

/// A modification-based explanation (Ch. 5/6): a rewritten query together
/// with the modifications that produced it.
#[derive(Debug, Clone)]
pub struct ModificationExplanation {
    /// The rewritten query.
    pub query: PatternQuery,
    /// The modification sequence applied to the original query.
    pub mods: Vec<GraphMod>,
    /// Result cardinality of the rewritten query, counted only as far as
    /// it decides the rewriter's goal: the coarse rewriter stops at the
    /// first match (so it reports 1), the fine rewriter at its count cap.
    /// Count the query again for its full size.
    pub cardinality: u64,
    /// Syntactic distance to the original query (§3.2.2).
    pub syntactic_distance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_query::{Predicate, QueryBuilder};

    fn q3() -> PatternQuery {
        QueryBuilder::new("q")
            .vertex("a", [Predicate::eq("type", "person")])
            .vertex("b", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("a", "b", "knows")
            .edge("b", "c", "livesIn")
            .build()
    }

    #[test]
    fn differential_between_query_and_subquery() {
        let q = q3();
        let sub = q.induced_subquery(&[QVid(0), QVid(1)]);
        let diff = DifferentialGraph::between(&q, &sub);
        assert_eq!(diff.vertex_ids().collect::<Vec<_>>(), vec![QVid(2)]);
        assert_eq!(diff.edge_ids().collect::<Vec<_>>(), vec![QEid(1)]);
        assert_eq!(diff.len(), 2);
        assert!(!diff.is_empty());
    }

    #[test]
    fn differential_of_identical_queries_is_empty() {
        let q = q3();
        let diff = DifferentialGraph::between(&q, &q);
        assert!(diff.is_empty());
        assert_eq!(diff.to_string(), "∅ (query succeeded)");
    }

    #[test]
    fn differential_subquery_materializes_failed_part() {
        let q = q3();
        let sub = q.induced_subquery(&[QVid(0), QVid(1)]);
        let diff = DifferentialGraph::between(&q, &sub);
        let failed = diff.subquery(&q);
        // failed part: vertex c plus edge b->c (with endpoint b restored)
        assert!(failed.vertex(QVid(2)).is_some());
        assert!(failed.edge(QEid(1)).is_some());
        assert!(failed.vertex(QVid(1)).is_some());
        assert!(failed.edge(QEid(0)).is_none());
    }

    #[test]
    fn display_lists_elements() {
        let q = q3();
        let sub = q.induced_subquery(&[QVid(0), QVid(1)]);
        let diff = DifferentialGraph::between(&q, &sub);
        let s = diff.to_string();
        assert!(s.contains("v3"));
        assert!(s.contains("e2"));
    }
}
