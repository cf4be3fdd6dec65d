//! Generated inputs: the data graph and one query corpus per workload.
//!
//! Every corpus is derived from seven topology templates — the four LDBC
//! evaluation queries and `ldbc_path_query(1..=3)` — whose constants are
//! re-drawn from the value domains scanned off the generated graph, so no
//! constant is hard-coded.
//!
//! As in LDBC's own benchmarks, the dataset is one fixed artefact and a
//! run's seed draws what is run against it. The graph and the query sets a
//! workload repeats — the `why-empty` and `why-card` queries, the recurring
//! `serve` texts — are generated from [`DATASET_SEED`]: a few dozen
//! explanations whose costs range over 6 to 450 ms are too few for a
//! re-draw to average out (the corpus mean moved by 10 % from seed to seed,
//! the graph's own cost by as much again), and more of them would leave no
//! time to repeat each. `--seed` draws the order of the operations, every
//! `match-cold` text, and the `serve` schedule with its fresh constants.
//! The system under test receives only the generated queries (as
//! `PatternQuery` values or, for `match-cold` and `serve`, as pattern
//! text); no seed reaches it.

use crate::util::Rng;
use std::collections::{BTreeMap, HashSet, VecDeque};
use whyquery::core::CardinalityGoal;
use whyquery::datagen::{ldbc_graph, ldbc_path_query, ldbc_queries, LdbcConfig};
use whyquery::graph::{PropertyGraph, Value};
use whyquery::matcher::MatchOptions;
use whyquery::query::delta::{shape_hash, DeltaKind, QueryDelta};
use whyquery::query::{Interval, PatternQuery, Predicate, Target};
use whyquery::session::{Database, Session};

/// Persons of the full-size graph (8,293 vertices / 33,579 edges at seed
/// 42): one explanation costs milliseconds there, three orders above
/// timer noise.
pub const PERSONS: usize = 2000;
/// Persons of the `--smoke` graph.
pub const SMOKE_PERSONS: usize = 200;

pub const SERVE_RECURRING: usize = 16;

/// Cardinality factors of the thesis' evaluation (§6.4), applied to each
/// `why-card` query's measured count.
const FACTORS: [f64; 4] = [0.2, 0.5, 2.0, 5.0];

/// Seed of the dataset: the graph and the repeated query sets.
pub const DATASET_SEED: u64 = 42;

pub fn graph(persons: usize) -> PropertyGraph {
    ldbc_graph(LdbcConfig {
        persons,
        seed: DATASET_SEED,
    })
}

/// A constant of the graph, ordered so that domains are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Const {
    Int(i64),
    Str(String),
}

impl Const {
    fn of(v: &Value) -> Option<Const> {
        v.as_int()
            .map(Const::Int)
            .or_else(|| v.as_str().map(|s| Const::Str(s.to_string())))
    }

    fn value(&self) -> Value {
        match self {
            Const::Int(i) => Value::Int(*i),
            Const::Str(s) => Value::str(s.as_str()),
        }
    }
}

type AttrDomains = BTreeMap<String, Vec<Const>>;

/// Sorted distinct values per `(vertex type, attribute)` and per
/// `(edge type, attribute)` — what "a constant the graph contains" means
/// for the generators below.
#[derive(Debug, Default)]
pub struct Domains {
    vertex: BTreeMap<String, AttrDomains>,
    edge: BTreeMap<String, AttrDomains>,
}

impl Domains {
    pub fn scan(g: &PropertyGraph) -> Domains {
        let mut d = Domains::default();
        let type_sym = g.attr_symbol("type");
        for v in g.vertex_ids() {
            let attrs = &g.vertex(v).attrs;
            let Some(ty) = type_sym.and_then(|s| attrs.get(s)).and_then(Value::as_str) else {
                continue;
            };
            let slot = d.vertex.entry(ty.to_string()).or_default();
            for (sym, val) in attrs.iter() {
                if Some(sym) != type_sym {
                    if let Some(c) = Const::of(val) {
                        slot.entry(g.attr_names().resolve(sym).to_string())
                            .or_default()
                            .push(c);
                    }
                }
            }
        }
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let slot = d
                .edge
                .entry(g.edge_types().resolve(ed.ty).to_string())
                .or_default();
            for (sym, val) in ed.attrs.iter() {
                if let Some(c) = Const::of(val) {
                    slot.entry(g.attr_names().resolve(sym).to_string())
                        .or_default()
                        .push(c);
                }
            }
        }
        for attrs in d.vertex.values_mut().chain(d.edge.values_mut()) {
            for values in attrs.values_mut() {
                values.sort();
                values.dedup();
            }
        }
        d
    }

    /// The attribute domains an element of `q` can be constrained on
    /// (`None` for an element whose type carries no attributes).
    fn of(&self, q: &PatternQuery, target: Target) -> Option<&AttrDomains> {
        let domains = match target {
            Target::Vertex(v) => {
                let ty = q.vertex(v)?.predicate("type")?.interval.point_value()?;
                self.vertex.get(ty.as_str()?)
            }
            Target::Edge(e) => match q.edge(e)?.types.as_slice() {
                [ty] => self.edge.get(ty),
                _ => None,
            },
        };
        domains.filter(|d| !d.is_empty())
    }
}

fn predicates_mut(q: &mut PatternQuery, target: Target) -> &mut Vec<Predicate> {
    match target {
        Target::Vertex(v) => &mut q.vertex_mut(v).expect("live vertex").predicates,
        Target::Edge(e) => &mut q.edge_mut(e).expect("live edge").predicates,
    }
}

fn predicates(q: &PatternQuery, target: Target) -> &[Predicate] {
    match target {
        Target::Vertex(v) => &q.vertex(v).expect("live vertex").predicates,
        Target::Edge(e) => &q.edge(e).expect("live edge").predicates,
    }
}

fn targets(q: &PatternQuery) -> Vec<Target> {
    q.vertex_ids()
        .map(Target::Vertex)
        .chain(q.edge_ids().map(Target::Edge))
        .collect()
}

/// Every `(element, predicate index)` that carries a re-drawable constant.
fn anchors(q: &PatternQuery) -> Vec<(Target, usize)> {
    let mut out = Vec::new();
    for t in targets(q) {
        for (i, p) in predicates(q, t).iter().enumerate() {
            if p.attr != "type" {
                out.push((t, i));
            }
        }
    }
    out
}

/// A satisfiable interval of the same operator shape as `like` over
/// `domain`: equality draws any value, a one-sided range draws its bound
/// from the 70 % of the domain that keeps the range well populated.
fn draw_interval(rng: &mut Rng, domain: &[Const], like: Option<&Interval>) -> Interval {
    let n = domain.len();
    let numeric = matches!(domain[0], Const::Int(_));
    let window = (n * 7).div_ceil(10).max(1);
    let lower = |rng: &mut Rng| domain[rng.below(window)].value().as_f64().expect("numeric");
    let upper = |rng: &mut Rng| {
        domain[n - 1 - rng.below(window)]
            .value()
            .as_f64()
            .expect("numeric")
    };
    let shape = match like {
        Some(Interval::Range { lo: Some(_), .. }) if numeric => 1,
        Some(Interval::Range { .. }) if numeric => 2,
        Some(_) => 0,
        None if numeric => rng.below(3),
        None => 0,
    };
    match shape {
        1 => Interval::at_least(lower(rng)),
        2 => Interval::at_most(upper(rng)),
        _ => Interval::eq(rng.pick(domain).value()),
    }
}

/// Re-draw every anchor constant of a template from the graph's domains.
fn redraw(q: &mut PatternQuery, dom: &Domains, rng: &mut Rng) {
    for (t, i) in anchors(q) {
        let attr = predicates(q, t)[i].attr.clone();
        let Some(domain) = dom.of(q, t).and_then(|d| d.get(&attr)) else {
            continue;
        };
        let interval = draw_interval(rng, domain, Some(&predicates(q, t)[i].interval));
        predicates_mut(q, t)[i].interval = interval;
    }
}

/// Constrain one more `(element, attribute)` pair that is still free.
fn add_anchor(q: &mut PatternQuery, dom: &Domains, rng: &mut Rng) -> bool {
    let mut free: Vec<(Target, &String, &Vec<Const>)> = Vec::new();
    for t in targets(q) {
        for (attr, domain) in dom.of(q, t).into_iter().flatten() {
            if predicates(q, t).iter().all(|p| &p.attr != attr) {
                free.push((t, attr, domain));
            }
        }
    }
    if free.is_empty() {
        return false;
    }
    let (t, attr, domain) = free[rng.below(free.len())];
    let predicate = Predicate {
        attr: attr.clone(),
        interval: draw_interval(rng, domain, None),
    };
    predicates_mut(q, t).push(predicate);
    true
}

/// Move one anchor constant to another in-domain value, leaving the
/// operator shape alone: the result differs from `q` in exactly one
/// interval (`DeltaKind::SingleInterval`).
pub fn nudge_one_constant(q: &PatternQuery, dom: &Domains, rng: &mut Rng) -> Option<PatternQuery> {
    let sites = anchors(q);
    if sites.is_empty() {
        return None;
    }
    for _ in 0..16 {
        let (t, i) = *rng.pick(&sites);
        let p = &predicates(q, t)[i];
        let Some(domain) = dom.of(q, t).and_then(|d| d.get(&p.attr)) else {
            continue;
        };
        let interval = draw_interval(rng, domain, Some(&p.interval));
        if interval != p.interval {
            let mut child = q.clone();
            predicates_mut(&mut child, t)[i].interval = interval;
            return Some(child);
        }
    }
    None
}

/// Make `target` unmatchable. The three fault kinds fail at different
/// depths of the stack: an unknown string constant is pruned by the value
/// dictionary, an out-of-domain bound needs a scan to come back empty, and
/// two individually satisfiable bounds with an empty intersection are
/// folded by `query::analyze`.
fn inject_fault(q: &mut PatternQuery, dom: &Domains, rng: &mut Rng, target: Target) -> bool {
    let Some(attrs) = dom.of(q, target) else {
        return false;
    };
    let attrs: Vec<(&String, &Vec<Const>)> = attrs.iter().collect();
    let (attr, domain) = attrs[rng.below(attrs.len())];
    let tag = rng.below(1000);
    let bounds = |c: &Const| c.value().as_f64().expect("numeric");
    let faulty: Vec<Interval> = match (&domain[0], domain.len() > 2 && rng.chance(0.5)) {
        (Const::Str(_), _) => vec![Interval::eq(format!("Nowhere-{tag}"))],
        (Const::Int(_), false) => {
            vec![Interval::at_least(
                bounds(&domain[domain.len() - 1]) + 1.0 + tag as f64,
            )]
        }
        (Const::Int(_), true) => {
            let lo = rng.below(domain.len() - 1);
            let hi = lo + 1 + rng.below(domain.len() - 1 - lo);
            vec![
                Interval::at_least(bounds(&domain[hi])),
                Interval::at_most(bounds(&domain[lo])),
            ]
        }
    };
    let preds = predicates_mut(q, target);
    preds.retain(|p| &p.attr != attr);
    preds.extend(faulty.into_iter().map(|interval| Predicate {
        attr: attr.clone(),
        interval,
    }));
    true
}

fn templates() -> Vec<PatternQuery> {
    let mut t = ldbc_queries();
    t.extend((1..=3).map(|hops| ldbc_path_query(hops, false)));
    for q in &mut t {
        q.name = None;
    }
    t
}

fn count(session: &Session<'_>, q: &PatternQuery, cap: u64) -> u64 {
    session
        .count_opts(q, MatchOptions::counting(Some(cap)))
        .expect("generated queries are valid")
}

/// Instances of the templates, taken round-robin so that every corpus
/// holds the same number of each topology whatever the seed.
struct Instances {
    dom: Domains,
    rng: Rng,
    templates: Vec<PatternQuery>,
    next: usize,
    seen: HashSet<String>,
}

impl Instances {
    fn new(db: &Database, rng: Rng) -> Self {
        Instances {
            dom: Domains::scan(db.graph()),
            rng,
            templates: templates(),
            next: 0,
            seen: HashSet::new(),
        }
    }

    fn next_template(&mut self) -> PatternQuery {
        self.next += 1;
        self.templates[(self.next - 1) % self.templates.len()].clone()
    }

    /// The next template's next instance with `extra` anchors beyond the
    /// template's own, not seen before, accepted by `keep`.
    fn next_where(
        &mut self,
        extra: std::ops::RangeInclusive<usize>,
        mut keep: impl FnMut(&PatternQuery) -> bool,
    ) -> PatternQuery {
        let template = self.next_template();
        for _ in 0..10_000 {
            let mut q = template.clone();
            redraw(&mut q, &self.dom, &mut self.rng);
            let span = extra.end() - extra.start() + 1;
            for _ in 0..extra.start() + self.rng.below(span) {
                add_anchor(&mut q, &self.dom, &mut self.rng);
            }
            if !self.seen.contains(&q.signature()) && keep(&q) {
                self.seen.insert(q.signature());
                return q;
            }
        }
        panic!("no acceptable instance of a template in 10000 draws");
    }

    /// Record a derived query; false if an equal one was issued before.
    fn claim(&mut self, q: &PatternQuery) -> bool {
        self.seen.insert(q.signature())
    }
}

/// Shuffle every aligned block of `stratum` items on its own: the order
/// is random, yet every aligned run of whole blocks — a pass of whatever
/// length — holds each stratum equally often.
fn shuffle_within_strata<T>(items: &mut [T], stratum: usize, rng: &mut Rng) {
    for block in items.chunks_mut(stratum) {
        rng.shuffle(block);
    }
}

/// `why-empty`: failing queries, half with one injected fault and half
/// with two on distinct elements. The fault-free base has at least one
/// answer, so an explanation exists by construction.
pub fn why_empty(db: &Database, stream: &str, n: usize) -> Vec<PatternQuery> {
    let session = db.session();
    let rng = Rng::new(DATASET_SEED, &format!("why-empty/{stream}"));
    let mut inst = Instances::new(db, rng);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // 7 templates × {one, two} faults: every 14 draws hold each pair once
        let faults = 1 + (inst.next / inst.templates.len()) % 2;
        let base = inst.next_where(0..=1, |q| count(&session, q, 1) > 0);
        let mut q = base.clone();
        let mut sites = targets(&q);
        inst.rng.shuffle(&mut sites);
        let injected = sites
            .into_iter()
            .filter(|&t| inject_fault(&mut q, &inst.dom, &mut inst.rng, t))
            .take(faults)
            .count();
        assert_eq!(injected, faults, "template too small for its faults");
        if inst.claim(&q) {
            out.push(q);
        }
    }
    shuffle_within_strata(&mut out, 2 * inst.templates.len(), &mut inst.rng);
    out
}

/// Admissible counts of a `why-card` query: 20..=1000 at 2000 persons
/// (8.3k vertices), 5..=250 on the smoke graph.
pub fn why_card_range(db: &Database) -> std::ops::RangeInclusive<u64> {
    let lo = (db.graph().num_vertices() as u64 / 400).max(5);
    lo..=50 * lo
}

/// `why-card`: succeeding queries with 20 ≤ C ≤ 1000 on the full-size
/// graph (the range scales with the graph so that the smoke graph can fill
/// it), each with a goal `C·f`. The range keeps the smallest goal at 4
/// answers — below that the fine rewriter tends to run out of candidates —
/// and 5·C well below its 50 000 count cap.
pub fn why_card(db: &Database, stream: &str, n: usize) -> Vec<(PatternQuery, CardinalityGoal)> {
    let session = db.session();
    let rng = Rng::new(DATASET_SEED, &format!("why-card/{stream}"));
    let mut inst = Instances::new(db, rng);
    let range = why_card_range(db);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = 0;
        let q = inst.next_where(0..=2, |q| {
            c = count(&session, q, range.end() + 1);
            range.contains(&c)
        });
        // 7 templates and 4 factors are coprime: every 28 queries hold each
        // (template, factor) pair once
        let f = FACTORS[i % FACTORS.len()];
        let goal = if f < 1.0 {
            CardinalityGoal::AtMost(((c as f64 * f) as u64).max(1))
        } else {
            CardinalityGoal::AtLeast((c as f64 * f).ceil() as u64)
        };
        out.push((q, goal));
    }
    shuffle_within_strata(
        &mut out,
        FACTORS.len() * inst.templates.len(),
        &mut inst.rng,
    );
    out
}

/// How many recently prepared queries the session remembers as derivation
/// parents (`REGISTRY_CAPACITY` in `session::sibling`). A `match-cold`
/// base query must not be one interval away from any of them.
const PARENT_WINDOW: usize = 128;

/// Generator of `match-cold` pattern texts, in pairs: a base that differs
/// from every recent text in topology or in at least two intervals (full
/// compile) followed by a sibling of it that differs in exactly one
/// (derive path). No text repeats, so every cache misses.
pub struct ColdTexts {
    inst: Instances,
    recent: VecDeque<(u64, PatternQuery)>,
}

impl ColdTexts {
    pub fn new(db: &Database, seed: u64) -> Self {
        ColdTexts {
            inst: Instances::new(db, Rng::new(seed, "match-cold")),
            recent: VecDeque::new(),
        }
    }

    fn remember(&mut self, q: &PatternQuery) {
        if self.recent.len() == PARENT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back((shape_hash(q), q.clone()));
    }

    fn pair(&mut self) -> [PatternQuery; 2] {
        loop {
            let inst = &mut self.inst;
            let mut base = inst.next_template();
            redraw(&mut base, &inst.dom, &mut inst.rng);
            while anchors(&base).len() < 3 && add_anchor(&mut base, &inst.dom, &mut inst.rng) {}
            let shape = shape_hash(&base);
            let derivable = self.recent.iter().any(|(s, r)| {
                *s == shape && QueryDelta::between(r, &base).kind != DeltaKind::Other
            });
            if derivable || inst.seen.contains(&base.signature()) {
                continue;
            }
            let Some(sibling) = nudge_one_constant(&base, &inst.dom, &mut inst.rng) else {
                continue;
            };
            if inst.seen.contains(&sibling.signature()) {
                continue;
            }
            inst.claim(&base);
            inst.claim(&sibling);
            self.remember(&base);
            self.remember(&sibling);
            return [base, sibling];
        }
    }

    /// The next `n` texts (`n` even).
    pub fn take(&mut self, n: usize) -> Vec<String> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.extend(self.pair().iter().map(render));
        }
        out
    }
}

/// One `serve` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `QUERY @standard` of recurring text `i`.
    Query(usize),
    /// `EXEC` of the handle prepared for recurring text `i`.
    Exec(usize),
    /// `QUERY @standard` of fresh text `i`: a recurring text with one
    /// constant moved, never sent before.
    Fresh(usize),
}

/// `serve`: the recurring queries — few enough to fit every cache, at most
/// 200 rows each so replies stay point-query sized.
pub fn serve_recurring(db: &Database) -> Vec<PatternQuery> {
    let session = db.session();
    let mut inst = Instances::new(db, Rng::new(DATASET_SEED, "serve/recurring"));
    (0..SERVE_RECURRING)
        .map(|_| inst.next_where(1..=2, |q| (1..=200).contains(&count(&session, q, 201))))
        .collect()
}

/// `serve`: one request schedule per connection at 70 % / 20 % / 10 %, and
/// the fresh texts the schedules refer to.
pub struct ServeSchedule {
    pub fresh: Vec<String>,
    pub per_connection: Vec<Vec<Request>>,
}

/// A schedule repeats with `period`: request `j` of a connection has the
/// kind and the recurring query of its request `j % period`, and a fresh
/// text of its own where the kind asks for one.
pub fn serve_schedule(
    db: &Database,
    seed: u64,
    recurring: &[PatternQuery],
    connections: usize,
    requests: usize,
    period: usize,
) -> ServeSchedule {
    let dom = Domains::scan(db.graph());
    let mut rng = Rng::new(seed, "serve/schedule");
    let mut seen: HashSet<String> = recurring.iter().map(PatternQuery::signature).collect();
    // a fresh text moves one constant of the last variant of a recurring
    // query; walking on from variant to variant keeps unseen texts in supply
    let mut variants: Vec<PatternQuery> = recurring.to_vec();
    let mut fresh = Vec::new();
    let mut per_connection = Vec::with_capacity(connections);
    for _ in 0..connections {
        // exact shares and every recurring query equally often, whatever
        // the seed; only the order is drawn
        let mut queries: Vec<usize> = (0..period).map(|k| k % recurring.len()).collect();
        let mut kinds: Vec<usize> = (0..period).map(|k| k * 10 / period).collect();
        rng.shuffle(&mut queries);
        rng.shuffle(&mut kinds);
        let pass: Vec<(usize, usize)> = queries.into_iter().zip(kinds).collect();
        let mut schedule = Vec::with_capacity(requests);
        for j in 0..requests {
            let (i, kind) = pass[j % period];
            schedule.push(match kind {
                0 => {
                    // a query whose few constants are used up passes its turn
                    let (i, q) = (0..1000)
                        .find_map(|attempt| {
                            let i = (i + attempt / 8) % variants.len();
                            nudge_one_constant(&variants[i], &dom, &mut rng)
                                .filter(|q| seen.insert(q.signature()))
                                .map(|q| (i, q))
                        })
                        .expect("an unseen one-constant variant of some recurring query");
                    fresh.push(render(&q));
                    variants[i] = q;
                    Request::Fresh(fresh.len() - 1)
                }
                1 | 2 => Request::Exec(i),
                _ => Request::Query(i),
            });
        }
        per_connection.push(schedule);
    }
    ServeSchedule {
        fresh,
        per_connection,
    }
}

/// Pattern text of `q` in the `query::parser` syntax. Vertices come first,
/// in id order, then edges in id order, so parsing the text back yields
/// the same element ids and the same signature.
pub fn render(q: &PatternQuery) -> String {
    let mut chains: Vec<String> = q
        .vertex_ids()
        .map(|v| {
            let props = props(&q.vertex(v).expect("live vertex").predicates);
            format!("(n{}{props})", v.0)
        })
        .collect();
    for e in q.edge_ids() {
        let ed = q.edge(e).expect("live edge");
        let body = format!(":{}{}", ed.types.join("|"), props(&ed.predicates));
        let (l, r) = match (ed.directions.forward, ed.directions.backward) {
            (true, false) => ("-[", "]->"),
            (false, true) => ("<-[", "]-"),
            _ => ("-[", "]-"),
        };
        chains.push(format!("(n{}){l}{body}{r}(n{})", ed.src.0, ed.dst.0));
    }
    chains.join("; ")
}

fn props(predicates: &[Predicate]) -> String {
    let num = |x: f64| {
        if x.fract() == 0.0 {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    };
    let mut out = Vec::new();
    for p in predicates {
        match &p.interval {
            Interval::OneOf(values) => {
                let alts: Vec<String> = values.iter().map(ToString::to_string).collect();
                out.push(format!("{}: {}", p.attr, alts.join("|")));
            }
            Interval::Range {
                lo,
                hi,
                lo_incl,
                hi_incl,
            } => {
                if let Some(lo) = lo {
                    let op = if *lo_incl { ">=" } else { ">" };
                    out.push(format!("{} {op} {}", p.attr, num(*lo)));
                }
                if let Some(hi) = hi {
                    let op = if *hi_incl { "<=" } else { "<" };
                    out.push(format!("{} {op} {}", p.attr, num(*hi)));
                }
            }
        }
    }
    if out.is_empty() {
        String::new()
    } else {
        format!(" {{{}}}", out.join(", "))
    }
}

/// Order-sensitive digest of a corpus, for the determinism tests.
#[cfg(test)]
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    texts.into_iter().fold(0, |h, t| {
        crate::util::fnv1a(format!("{h:016x}{t}").as_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyquery::matcher::reference::count_matches_naive;
    use whyquery::query::parse_query;

    fn small_db() -> Database {
        Database::open(graph(SMOKE_PERSONS)).expect("open")
    }

    fn oracle(db: &Database, q: &PatternQuery, cap: u64) -> u64 {
        count_matches_naive(db.graph(), q, MatchOptions::counting(Some(cap)))
    }

    #[test]
    fn rendered_text_parses_back_to_the_same_query() {
        let db = small_db();
        for q in why_empty(&db, "t", 28) {
            let back = parse_query(&render(&q)).expect("rendered text parses");
            assert_eq!(back.signature(), q.signature(), "{}", render(&q));
        }
    }

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        // per workload: the digest of what `seed` makes it run, in order
        let all = |seed: u64| -> Vec<u64> {
            let db = small_db();
            let empty = why_empty(&db, "t", 28);
            let card = why_card(&db, "t", 28);
            let recurring = serve_recurring(&db);
            let s = serve_schedule(&db, seed, &recurring, 2, 50, 25);
            let texts: [Vec<String>; 4] = [
                empty.iter().map(render).collect(),
                card.iter()
                    .map(|(q, g)| format!("{} {g:?}", render(q)))
                    .collect(),
                ColdTexts::new(&db, seed).take(64),
                [s.fresh, vec![format!("{:?}", s.per_connection)]].concat(),
            ];
            texts
                .iter()
                .map(|t| digest(t.iter().map(String::as_str)))
                .collect()
        };
        assert_eq!(all(5), all(5));
        // the repeated query sets are the dataset's, the rest is the seed's
        let differs: Vec<bool> = all(5).iter().zip(all(6)).map(|(a, b)| *a != b).collect();
        assert_eq!(differs, [false, false, true, true]);
    }

    #[test]
    fn why_empty_queries_are_distinct_and_count_zero_under_the_oracle() {
        let db = small_db();
        let corpus = why_empty(&db, "t", 42);
        let sigs: HashSet<String> = corpus.iter().map(PatternQuery::signature).collect();
        assert_eq!(sigs.len(), corpus.len());
        for q in &corpus {
            assert_eq!(oracle(&db, q, 1), 0, "{}", render(q));
        }
    }

    #[test]
    fn why_card_queries_count_within_their_range_and_miss_their_goal() {
        let db = small_db();
        let corpus = why_card(&db, "t", 28);
        for (q, goal) in &corpus {
            let c = oracle(&db, q, 6000);
            assert!(why_card_range(&db).contains(&c), "{c} for {}", render(q));
            assert!(!goal.satisfied(c), "{goal:?} already met by {c}");
        }
        let at_most = corpus
            .iter()
            .filter(|(_, g)| matches!(g, CardinalityGoal::AtMost(_)))
            .count();
        assert_eq!(at_most, corpus.len() / 2);
    }

    #[test]
    fn match_cold_texts_are_distinct_and_split_evenly_between_compile_and_derive() {
        let db = small_db();
        let texts = ColdTexts::new(&db, 13).take(600);
        let session = db.session();
        let mut sigs = HashSet::new();
        for t in &texts {
            let q = parse_query(t).expect("parses");
            assert!(sigs.insert(q.signature()), "repeated {t}");
            session.prepare(&q).expect("valid");
        }
        assert_eq!(db.compile_count(), 300);
        assert_eq!(db.sibling_stats().derived_plans, 300);
        assert_eq!(db.cache_stats().hits, 0);
    }

    #[test]
    fn serve_corpus_keeps_the_mix_and_never_repeats_a_fresh_text() {
        let db = small_db();
        let recurring = serve_recurring(&db);
        let s = serve_schedule(&db, 17, &recurring, 2, 2000, 100);
        for schedule in &s.per_connection {
            for (j, r) in schedule.iter().enumerate().skip(100) {
                // the same kind, and the same query unless fresh, a period on
                match (r, &schedule[j - 100]) {
                    (Request::Fresh(_), Request::Fresh(_)) => {}
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
        assert_eq!(recurring.len(), SERVE_RECURRING);
        let recurring: Vec<String> = recurring.iter().map(render).collect();
        let distinct: HashSet<&String> = s.fresh.iter().chain(&recurring).collect();
        assert_eq!(distinct.len(), s.fresh.len() + recurring.len());
        let all: Vec<&Request> = s.per_connection.iter().flatten().collect();
        let share =
            |f: fn(&Request) -> bool| all.iter().filter(|r| f(r)).count() as f64 / all.len() as f64;
        assert!((share(|r| matches!(r, Request::Query(_))) - 0.7).abs() < 0.03);
        assert!((share(|r| matches!(r, Request::Exec(_))) - 0.2).abs() < 0.03);
        assert!((share(|r| matches!(r, Request::Fresh(_))) - 0.1).abs() < 0.03);
        let session = db.session();
        for t in &recurring {
            let c = oracle(&db, &parse_query(t).expect("parses"), 1000);
            assert!((1..=200).contains(&c));
            assert_eq!(count(&session, &parse_query(t).unwrap(), 1000), c);
        }
    }
}
