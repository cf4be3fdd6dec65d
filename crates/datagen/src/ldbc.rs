//! LDBC-SNB-like social network generator and queries (App. A.2.1).
//!
//! Emulates the entity/relationship schema of the LDBC Social Network
//! Benchmark: persons living in cities (which belong to countries), study
//! at universities, work at companies, are interested in tags, know each
//! other (preferential attachment → skewed degrees), and interact through
//! forums, posts and comments. All randomness is seeded, so a given
//! `(scale, seed)` pair always produces the identical graph.
//!
//! The four evaluation queries mirror the *roles* of LDBC QUERY 1–4 in
//! Table A.1: a name-anchored path, an attribute-heavy star, a co-location
//! triangle, and a deep content path. Their absolute cardinalities depend
//! on the scale factor (the thesis reports C₁ = 21/39/188/195 on SF1); the
//! cardinality *factors* of the evaluation (0.2/0.5/2/5) are applied
//! relative to the measured counts, exactly as in the thesis.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use whyq_graph::{PropertyGraph, Value, VertexId};
use whyq_query::{PatternQuery, Predicate, QueryBuilder};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct LdbcConfig {
    /// Number of persons (everything else scales along).
    pub persons: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdbcConfig {
    fn default() -> Self {
        LdbcConfig {
            persons: 300,
            seed: 42,
        }
    }
}

const COUNTRIES: [&str; 10] = [
    "Germany", "France", "Spain", "Italy", "Poland", "China", "India", "USA", "Brazil", "Japan",
];

const FIRST_NAMES: [&str; 20] = [
    "Anna", "Bert", "Carlos", "Dana", "Emil", "Fatima", "Gustav", "Hana", "Ivan", "Jun", "Karl",
    "Lena", "Miguel", "Nadia", "Otto", "Priya", "Quentin", "Rosa", "Sven", "Tao",
];

const LAST_NAMES: [&str; 15] = [
    "Schmidt", "Novak", "Garcia", "Rossi", "Kowalski", "Wang", "Patel", "Smith", "Silva", "Tanaka",
    "Weber", "Dubois", "Lopez", "Bauer", "Kim",
];

const BROWSERS: [&str; 4] = ["Chrome", "Firefox", "Safari", "Opera"];
const LANGUAGES: [&str; 5] = ["en", "de", "es", "zh", "pt"];
const TAG_NAMES: [&str; 18] = [
    "music",
    "sports",
    "cooking",
    "travel",
    "books",
    "movies",
    "science",
    "history",
    "photography",
    "gaming",
    "art",
    "politics",
    "fashion",
    "hiking",
    "chess",
    "gardening",
    "astronomy",
    "databases",
];

/// Generate the LDBC-like social network, unsealed: `Database::open`
/// seals it (a caller that reads it directly may seal it first).
pub fn ldbc_graph(config: LdbcConfig) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.persons.max(10);
    let mut g = PropertyGraph::with_capacity(n * 7, n * 25);

    // --- places -------------------------------------------------------
    let countries: Vec<VertexId> = COUNTRIES
        .iter()
        .map(|&name| g.add_vertex([("type", Value::str("country")), ("name", Value::str(name))]))
        .collect();
    let mut cities = Vec::new();
    for (ci, &country) in countries.iter().enumerate() {
        for k in 0..3 {
            let city = g.add_vertex([
                ("type", Value::str("city")),
                ("name", Value::str(format!("{}-City-{}", COUNTRIES[ci], k))),
            ]);
            g.add_edge(city, country, "isPartOf", []);
            cities.push(city);
        }
    }
    let universities: Vec<VertexId> = (0..15)
        .map(|i| {
            let u = g.add_vertex([
                ("type", Value::str("university")),
                ("name", Value::str(format!("University-{i}"))),
            ]);
            let city = cities[rng.random_range(0..cities.len())];
            g.add_edge(u, city, "isLocatedIn", []);
            u
        })
        .collect();
    let companies: Vec<VertexId> = (0..20)
        .map(|i| {
            let c = g.add_vertex([
                ("type", Value::str("company")),
                ("name", Value::str(format!("Company-{i}"))),
            ]);
            let country = countries[rng.random_range(0..countries.len())];
            g.add_edge(c, country, "isLocatedIn", []);
            c
        })
        .collect();
    let tags: Vec<VertexId> = TAG_NAMES
        .iter()
        .map(|&t| g.add_vertex([("type", Value::str("tag")), ("name", Value::str(t))]))
        .collect();

    // --- persons ------------------------------------------------------
    let mut persons = Vec::with_capacity(n);
    for _ in 0..n {
        let country_idx = rng.random_range(0..COUNTRIES.len());
        let p = g.add_vertex([
            ("type", Value::str("person")),
            (
                "firstName",
                Value::str(FIRST_NAMES[rng.random_range(0..FIRST_NAMES.len())]),
            ),
            (
                "lastName",
                Value::str(LAST_NAMES[rng.random_range(0..LAST_NAMES.len())]),
            ),
            (
                "gender",
                Value::str(if rng.random_bool(0.5) {
                    "male"
                } else {
                    "female"
                }),
            ),
            ("birthYear", Value::Int(rng.random_range(1950..2000))),
            (
                "browserUsed",
                Value::str(BROWSERS[rng.random_range(0..BROWSERS.len())]),
            ),
            ("nationality", Value::str(COUNTRIES[country_idx])),
        ]);
        // live in a city of the home country (mostly)
        let city = if rng.random_bool(0.8) {
            cities[country_idx * 3 + rng.random_range(0..3)]
        } else {
            cities[rng.random_range(0..cities.len())]
        };
        g.add_edge(p, city, "isLocatedIn", []);
        if rng.random_bool(0.7) {
            let u = universities[rng.random_range(0..universities.len())];
            g.add_edge(
                p,
                u,
                "studyAt",
                [("classYear", Value::Int(rng.random_range(1970..2013)))],
            );
        }
        if rng.random_bool(0.8) {
            let c = companies[rng.random_range(0..companies.len())];
            g.add_edge(
                p,
                c,
                "workAt",
                [("workFrom", Value::Int(rng.random_range(1990..2016)))],
            );
        }
        for _ in 0..rng.random_range(1..5) {
            let t = tags[rng.random_range(0..tags.len())];
            g.add_edge(p, t, "hasInterest", []);
        }
        persons.push(p);
    }

    // --- knows network (preferential attachment) -----------------------
    // endpoints list doubles as a degree-weighted sampling pool
    let mut endpoint_pool: Vec<usize> = vec![0, 1.min(n - 1)];
    for i in 1..n {
        let k = 1 + rng.random_range(0..4);
        for _ in 0..k {
            let j = if rng.random_bool(0.7) && !endpoint_pool.is_empty() {
                endpoint_pool[rng.random_range(0..endpoint_pool.len())]
            } else {
                rng.random_range(0..i)
            };
            if j == i {
                continue;
            }
            g.add_edge(
                persons[i],
                persons[j],
                "knows",
                [("since", Value::Int(rng.random_range(2000..2016)))],
            );
            endpoint_pool.push(i);
            endpoint_pool.push(j);
        }
    }

    // --- content: forums, posts, comments ------------------------------
    let forums: Vec<VertexId> = (0..n / 10)
        .map(|i| {
            let f = g.add_vertex([
                ("type", Value::str("forum")),
                ("title", Value::str(format!("Forum-{i}"))),
            ]);
            let moderator = persons[rng.random_range(0..n)];
            g.add_edge(f, moderator, "hasModerator", []);
            for _ in 0..rng.random_range(5..20) {
                let m = persons[rng.random_range(0..n)];
                g.add_edge(
                    f,
                    m,
                    "hasMember",
                    [("joinDate", Value::Int(rng.random_range(2008..2016)))],
                );
            }
            f
        })
        .collect();
    let mut posts = Vec::new();
    for _ in 0..n * 2 {
        let post = g.add_vertex([
            ("type", Value::str("post")),
            ("creationDate", Value::Int(rng.random_range(2008..2016))),
            (
                "language",
                Value::str(LANGUAGES[rng.random_range(0..LANGUAGES.len())]),
            ),
            ("length", Value::Int(rng.random_range(10..500))),
        ]);
        let creator = persons[rng.random_range(0..n)];
        g.add_edge(post, creator, "hasCreator", []);
        if !forums.is_empty() {
            let f = forums[rng.random_range(0..forums.len())];
            g.add_edge(f, post, "containerOf", []);
        }
        let t = tags[rng.random_range(0..tags.len())];
        g.add_edge(post, t, "hasTag", []);
        posts.push(post);
    }
    for _ in 0..n {
        let c = g.add_vertex([
            ("type", Value::str("comment")),
            ("creationDate", Value::Int(rng.random_range(2009..2016))),
            ("length", Value::Int(rng.random_range(5..200))),
        ]);
        let post = posts[rng.random_range(0..posts.len())];
        g.add_edge(c, post, "replyOf", []);
        let creator = persons[rng.random_range(0..n)];
        g.add_edge(c, creator, "hasCreator", []);
    }

    g
}

/// The four evaluation queries (analogues of LDBC QUERY 1–4, Table A.1).
pub fn ldbc_queries() -> Vec<PatternQuery> {
    vec![
        // LDBC QUERY 1 — name-anchored path:
        // person(firstName=Anna) -knows-> person -isLocatedIn-> city
        QueryBuilder::new("LDBC QUERY 1")
            .vertex(
                "p1",
                [
                    Predicate::eq("type", "person"),
                    Predicate::eq("firstName", "Anna"),
                ],
            )
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("city", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .edge("p2", "city", "isLocatedIn")
            .build(),
        // LDBC QUERY 2 — attribute-heavy star:
        // person -workAt{workFrom≥2005}-> company; -isLocatedIn-> city;
        // -hasInterest-> tag(music)
        QueryBuilder::new("LDBC QUERY 2")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::eq("gender", "female"),
                ],
            )
            .vertex("co", [Predicate::eq("type", "company")])
            .vertex("city", [Predicate::eq("type", "city")])
            .vertex(
                "tag",
                [Predicate::eq("type", "tag"), Predicate::eq("name", "music")],
            )
            .edge_full(
                "p",
                "co",
                "workAt",
                whyq_query::DirectionSet::FORWARD,
                [Predicate::at_least("workFrom", 2005.0)],
            )
            .edge("p", "city", "isLocatedIn")
            .edge("p", "tag", "hasInterest")
            .build(),
        // LDBC QUERY 3 — co-location triangle:
        // person1 -knows-> person2, both -isLocatedIn-> the same city
        QueryBuilder::new("LDBC QUERY 3")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("city", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .edge("p1", "city", "isLocatedIn")
            .edge("p2", "city", "isLocatedIn")
            .build(),
        // LDBC QUERY 4 — deep content path:
        // comment -replyOf-> post -hasCreator-> person -studyAt-> university
        QueryBuilder::new("LDBC QUERY 4")
            .vertex("cm", [Predicate::eq("type", "comment")])
            .vertex(
                "post",
                [
                    Predicate::eq("type", "post"),
                    Predicate::eq("language", "en"),
                ],
            )
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("u", [Predicate::eq("type", "university")])
            .edge("cm", "post", "replyOf")
            .edge("post", "p", "hasCreator")
            .edge("p", "u", "studyAt")
            .build(),
    ]
}

/// Why-empty variants: each query with one unsatisfiable constraint
/// injected (used by the Ch. 4/5 evaluations).
pub fn ldbc_failing_queries() -> Vec<PatternQuery> {
    let mut queries = ldbc_queries();
    // Q1: a first name that does not exist
    queries[0]
        .vertex_mut(whyq_query::QVid(0))
        .expect("live")
        .predicate_mut("firstName")
        .expect("present")
        .interval = whyq_query::Interval::eq("Zarathustra");
    // Q2: a work-from year in the future
    queries[1]
        .edge_mut(whyq_query::QEid(0))
        .expect("live")
        .predicate_mut("workFrom")
        .expect("present")
        .interval = whyq_query::Interval::at_least(2050.0);
    // Q3: a city name that does not exist
    queries[2]
        .vertex_mut(whyq_query::QVid(2))
        .expect("live")
        .predicates
        .push(Predicate::eq("name", "Atlantis"));
    // Q4: an impossible post language
    queries[3]
        .vertex_mut(whyq_query::QVid(1))
        .expect("live")
        .predicate_mut("language")
        .expect("present")
        .interval = whyq_query::Interval::eq("xx");
    for q in &mut queries {
        if let Some(name) = &mut q.name {
            name.push_str(" (failing)");
        }
    }
    queries
}

/// Hard why-empty variants: **two** unsatisfiable constraints per query,
/// so a single relaxation step cannot fix them — these separate the
/// statistics-driven priority functions from the baselines (§5.5).
pub fn ldbc_hard_failing_queries() -> Vec<PatternQuery> {
    let mut queries = ldbc_failing_queries();
    // Q1: additionally ask for a non-existent city name
    queries[0]
        .vertex_mut(whyq_query::QVid(2))
        .expect("live")
        .predicates
        .push(Predicate::eq("name", "Nowhere"));
    // Q2: additionally ask for a non-existent tag
    queries[1]
        .vertex_mut(whyq_query::QVid(3))
        .expect("live")
        .predicate_mut("name")
        .expect("present")
        .interval = whyq_query::Interval::eq("unobtainium");
    // Q3: additionally require an impossible gender
    queries[2]
        .vertex_mut(whyq_query::QVid(0))
        .expect("live")
        .predicates
        .push(Predicate::eq("gender", "other"));
    // Q4: additionally require an impossible study year
    queries[3]
        .edge_mut(whyq_query::QEid(2))
        .expect("live")
        .predicates
        .push(Predicate::at_least("classYear", 2050.0));
    for q in &mut queries {
        if let Some(name) = &mut q.name {
            *name = name.replace(" (failing)", " (hard)");
        }
    }
    queries
}

/// A `knows`-path query of `hops` person hops ending in a city lookup;
/// with `failing`, the terminal city name is unsatisfiable. Used for the
/// §4.5 query-size sweeps.
pub fn ldbc_path_query(hops: usize, failing: bool) -> PatternQuery {
    let mut b = QueryBuilder::new(format!("path-{hops}{}", if failing { "-fail" } else { "" }));
    for i in 0..=hops {
        b = b.vertex(&format!("p{i}"), [Predicate::eq("type", "person")]);
    }
    let city_pred: Vec<Predicate> = if failing {
        vec![
            Predicate::eq("type", "city"),
            Predicate::eq("name", "Nowhere"),
        ]
    } else {
        vec![Predicate::eq("type", "city")]
    };
    b = b.vertex("city", city_pred);
    for i in 0..hops {
        b = b.edge(&format!("p{i}"), &format!("p{}", i + 1), "knows");
    }
    b = b.edge(&format!("p{hops}"), "city", "isLocatedIn");
    b.build()
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
        let a = ldbc_graph(LdbcConfig::default());
        let b = ldbc_graph(LdbcConfig::default());
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        // spot-check an arbitrary vertex's attributes match
        let sym = a.attr_symbol("firstName").unwrap();
        let v = whyq_graph::VertexId(100);
        assert_eq!(a.vertex_attr(v, sym), b.vertex_attr(v, sym));
    }

    #[test]
    fn different_seeds_differ() {
        let a = ldbc_graph(LdbcConfig {
            seed: 1,
            ..Default::default()
        });
        let b = ldbc_graph(LdbcConfig {
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn schema_shape() {
        let g = ldbc_graph(LdbcConfig::default());
        let hist = whyq_graph::stats::vertex_attr_histogram(&g, "type");
        let types: Vec<&str> = hist.iter().map(|(t, _)| t.as_str()).collect();
        for expected in [
            "person",
            "city",
            "country",
            "university",
            "company",
            "tag",
            "forum",
            "post",
            "comment",
        ] {
            assert!(types.contains(&expected), "missing {expected}");
        }
        let person_count = hist.iter().find(|(t, _)| t == "person").unwrap().1;
        assert_eq!(person_count, 300);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = ldbc_graph(LdbcConfig::default());
        let s = whyq_graph::stats::degree_summary(&g);
        assert!(s.max as f64 > 4.0 * s.mean, "max {} mean {}", s.max, s.mean);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn queries_have_nontrivial_cardinalities() {
        let g = ldbc_graph(LdbcConfig::default());
        for q in ldbc_queries() {
            let c = count_matches(&g, &q, None);
            assert!(c > 0, "{:?} is empty", q.name);
            assert!(c < 100_000, "{:?} too large: {c}", q.name);
        }
    }

    #[test]
    fn failing_queries_are_empty() {
        let g = ldbc_graph(LdbcConfig::default());
        for q in ldbc_failing_queries() {
            assert_eq!(count_matches(&g, &q, None), 0, "{:?} not empty", q.name);
        }
    }

    #[test]
    fn path_queries_scale_and_fail_on_demand() {
        let g = ldbc_graph(LdbcConfig::default());
        for hops in 1..=3 {
            let ok = ldbc_path_query(hops, false);
            assert_eq!(ok.num_edges(), hops + 1);
            assert!(count_matches(&g, &ok, Some(10)) > 0);
            let fail = ldbc_path_query(hops, true);
            assert_eq!(count_matches(&g, &fail, None), 0);
        }
    }
}
