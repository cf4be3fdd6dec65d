//! DBpedia-like heterogeneous knowledge graph (App. A.2.2).
//!
//! DBpedia extracts are schema-poor and skewed: a few entity types
//! dominate, attributes are sparse and heterogeneous, and popularity
//! follows a long tail (a handful of settlements/persons attract most
//! links). The generator reproduces those shape properties with seeded
//! randomness: typed entities (person, settlement, organisation, film,
//! book, country) with type-specific attributes, and relationship types
//! (birthPlace, deathPlace, country, author, starring, director,
//! headquarter, employer) wired with preferential attachment.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use whyq_graph::{PropertyGraph, Value, VertexId};
use whyq_query::{PatternQuery, Predicate, QueryBuilder};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbpediaConfig {
    /// Total number of entities.
    pub entities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbpediaConfig {
    fn default() -> Self {
        DbpediaConfig {
            entities: 2000,
            seed: 7,
        }
    }
}

const COUNTRY_NAMES: [&str; 8] = [
    "Germany", "France", "Italy", "Japan", "Brazil", "Canada", "Egypt", "India",
];

/// Pick with preferential attachment: mostly from the weighted pool,
/// sometimes uniformly (keeps the tail alive).
fn prefer(rng: &mut StdRng, pool: &[VertexId], all: &[VertexId]) -> VertexId {
    if !pool.is_empty() && rng.random_bool(0.65) {
        pool[rng.random_range(0..pool.len())]
    } else {
        all[rng.random_range(0..all.len())]
    }
}

/// Generate the DBpedia-like graph, unsealed: `Database::open` seals it
/// (a caller that reads it directly may seal it first).
pub fn dbpedia_graph(config: DbpediaConfig) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.entities.max(100);
    let mut g = PropertyGraph::with_capacity(n, n * 4);

    let countries: Vec<VertexId> = COUNTRY_NAMES
        .iter()
        .map(|&c| g.add_vertex([("type", Value::str("country")), ("name", Value::str(c))]))
        .collect();

    // settlements: 15% of entities, population long-tailed
    let n_settlements = n * 15 / 100;
    let mut settlements = Vec::with_capacity(n_settlements);
    for i in 0..n_settlements {
        let population = (1000.0 * (1.0 / (1.0 - rng.random::<f64>())).powf(1.2)) as i64;
        let s = g.add_vertex([
            ("type", Value::str("settlement")),
            ("name", Value::str(format!("Settlement-{i}"))),
            ("population", Value::Int(population.min(20_000_000))),
        ]);
        let c = countries[rng.random_range(0..countries.len())];
        g.add_edge(s, c, "country", []);
        settlements.push(s);
    }
    let mut settlement_pool: Vec<VertexId> = settlements.clone();

    // organisations: 10%
    let n_orgs = n / 10;
    let mut orgs = Vec::with_capacity(n_orgs);
    for i in 0..n_orgs {
        let o = g.add_vertex([
            ("type", Value::str("organisation")),
            ("name", Value::str(format!("Org-{i}"))),
            ("foundingYear", Value::Int(rng.random_range(1850..2015))),
        ]);
        let s = prefer(&mut rng, &settlement_pool, &settlements);
        g.add_edge(o, s, "headquarter", []);
        settlement_pool.push(s);
        orgs.push(o);
    }

    // persons: 45%
    let n_persons = n * 45 / 100;
    let mut persons = Vec::with_capacity(n_persons);
    let mut person_pool: Vec<VertexId> = Vec::new();
    for i in 0..n_persons {
        let birth = rng.random_range(1800..2000);
        let p = g.add_vertex([
            ("type", Value::str("person")),
            ("name", Value::str(format!("Person-{i}"))),
            ("birthYear", Value::Int(birth)),
        ]);
        let s = prefer(&mut rng, &settlement_pool, &settlements);
        g.add_edge(p, s, "birthPlace", []);
        settlement_pool.push(s);
        if rng.random_bool(0.3) {
            let s2 = prefer(&mut rng, &settlement_pool, &settlements);
            g.add_edge(p, s2, "deathPlace", []);
        }
        if rng.random_bool(0.4) && !orgs.is_empty() {
            let o = orgs[rng.random_range(0..orgs.len())];
            g.add_edge(p, o, "employer", []);
        }
        persons.push(p);
        person_pool.push(p);
    }

    // films: 18%
    let n_films = n * 18 / 100;
    for i in 0..n_films {
        let f = g.add_vertex([
            ("type", Value::str("film")),
            ("name", Value::str(format!("Film-{i}"))),
            ("releaseYear", Value::Int(rng.random_range(1930..2016))),
        ]);
        for _ in 0..rng.random_range(1..4) {
            let star = prefer(&mut rng, &person_pool, &persons);
            g.add_edge(f, star, "starring", []);
            person_pool.push(star);
        }
        let director = prefer(&mut rng, &person_pool, &persons);
        g.add_edge(f, director, "director", []);
    }

    // books: 12%
    let n_books = n * 12 / 100;
    for i in 0..n_books {
        let b = g.add_vertex([
            ("type", Value::str("book")),
            ("name", Value::str(format!("Book-{i}"))),
            ("publicationYear", Value::Int(rng.random_range(1850..2016))),
        ]);
        let author = prefer(&mut rng, &person_pool, &persons);
        g.add_edge(b, author, "author", []);
        person_pool.push(author);
    }

    g
}

/// Three heterogeneous evaluation queries over the DBpedia-like graph.
pub fn dbpedia_queries() -> Vec<PatternQuery> {
    vec![
        // D1 — film -starring-> person -birthPlace-> settlement -country->
        // country(Germany)
        QueryBuilder::new("DBPEDIA QUERY 1")
            .vertex("f", [Predicate::eq("type", "film")])
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("s", [Predicate::eq("type", "settlement")])
            .vertex(
                "c",
                [
                    Predicate::eq("type", "country"),
                    Predicate::eq("name", "Germany"),
                ],
            )
            .edge("f", "p", "starring")
            .edge("p", "s", "birthPlace")
            .edge("s", "c", "country")
            .build(),
        // D2 — book -author-> person -employer-> organisation(founded≥1950)
        QueryBuilder::new("DBPEDIA QUERY 2")
            .vertex("b", [Predicate::eq("type", "book")])
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex(
                "o",
                [
                    Predicate::eq("type", "organisation"),
                    Predicate::at_least("foundingYear", 1950.0),
                ],
            )
            .edge("b", "p", "author")
            .edge("p", "o", "employer")
            .build(),
        // D3 — person(born 1900–1950) -birthPlace-> settlement(pop≥100k)
        QueryBuilder::new("DBPEDIA QUERY 3")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("birthYear", 1900.0, 1950.0),
                ],
            )
            .vertex(
                "s",
                [
                    Predicate::eq("type", "settlement"),
                    Predicate::at_least("population", 20_000.0),
                ],
            )
            .edge("p", "s", "birthPlace")
            .build(),
    ]
}

/// Why-empty variants of the DBpedia queries.
pub fn dbpedia_failing_queries() -> Vec<PatternQuery> {
    let mut queries = dbpedia_queries();
    // D1: a country missing from the data
    queries[0]
        .vertex_mut(whyq_query::QVid(3))
        .expect("live")
        .predicate_mut("name")
        .expect("present")
        .interval = whyq_query::Interval::eq("Borduria");
    // D2: an impossible founding year
    queries[1]
        .vertex_mut(whyq_query::QVid(2))
        .expect("live")
        .predicate_mut("foundingYear")
        .expect("present")
        .interval = whyq_query::Interval::at_least(2100.0);
    // D3: birth-year range before any data
    queries[2]
        .vertex_mut(whyq_query::QVid(0))
        .expect("live")
        .predicate_mut("birthYear")
        .expect("present")
        .interval = whyq_query::Interval::between(1500.0, 1600.0);
    for q in &mut queries {
        if let Some(name) = &mut q.name {
            name.push_str(" (failing)");
        }
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_matcher::{MatchOptions, Matcher};

    fn count_matches(
        g: &whyq_graph::PropertyGraph,
        q: &whyq_query::PatternQuery,
        limit: Option<u64>,
    ) -> u64 {
        Matcher::new(g).count(q, MatchOptions::counting(limit))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dbpedia_graph(DbpediaConfig::default());
        let b = dbpedia_graph(DbpediaConfig::default());
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn long_tailed_degrees() {
        let g = dbpedia_graph(DbpediaConfig::default());
        let s = whyq_graph::stats::degree_summary(&g);
        assert!(s.max as f64 > 8.0 * s.mean, "max {} mean {}", s.max, s.mean);
    }

    #[test]
    fn heterogeneous_types_present() {
        let g = dbpedia_graph(DbpediaConfig::default());
        let hist = whyq_graph::stats::vertex_attr_histogram(&g, "type");
        assert!(hist.len() >= 6);
        // persons dominate
        let persons = hist.iter().find(|(t, _)| t == "person").unwrap().1;
        let films = hist.iter().find(|(t, _)| t == "film").unwrap().1;
        assert!(persons > films);
    }

    #[test]
    fn queries_succeed_and_failing_variants_fail() {
        let g = dbpedia_graph(DbpediaConfig::default());
        for q in dbpedia_queries() {
            assert!(count_matches(&g, &q, None) > 0, "{:?} empty", q.name);
        }
        for q in dbpedia_failing_queries() {
            assert_eq!(count_matches(&g, &q, None), 0, "{:?} not empty", q.name);
        }
    }
}
