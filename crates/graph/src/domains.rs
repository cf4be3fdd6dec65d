//! Attribute domains of a data graph.
//!
//! Modification-based explanation generators need to know *which values
//! exist* before they can extend a predicate interval with a neighboring
//! value (§6.2.2) or insert a new predicate (concretization). The domain
//! catalog summarizes, per attribute: the distinct values (capped and
//! sorted) and, for numeric attributes, the observed range; plus the edge
//! types occurring in the graph.
//!
//! The catalog also records the graph's **type triples**: every observed
//! (source-vertex `type`, edge type, target-vertex `type`) combination.
//! Vertices are bucketed by their `type` value, and the vertices without a
//! `type` share a bucket of their own. The fine rewriter proves with the
//! triples that a type or direction change admits no new binding, and
//! discards such a change without counting it (`whyq_core::fine`).
//!
//! A database owns one catalog (`whyq_session::Database::domains`, built
//! on first use) that the why-engine's rewriters borrow; callers without a
//! database build their own with [`AttributeDomains::build`]. The build is
//! one pass over the vertices and one over the edges. Values are
//! deduplicated as the pass meets them, so only distinct values are sorted.
//!
//! The catalog clones values straight out of the graph, so string entries
//! stay **dictionary-encoded** (`Value::Sym` — the clone is an `Arc`
//! refcount bump, not a string copy). That matters downstream: every
//! relaxed query the why-engine builds from these values carries constants
//! the matcher's compiler recognizes as symbols of the same graph, keeping
//! the whole relax loop's predicate evaluation on the integer fast path.

use crate::{PropertyGraph, Symbol, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// The vertex attribute that buckets the vertices of the type triples.
pub const TYPE_ATTR: &str = "type";

/// Per-attribute domain information.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrDomain {
    /// Distinct values in sorted order (capped at construction).
    pub values: Vec<Value>,
    /// Whether the cap truncated the value list.
    pub truncated: bool,
    /// Observed numeric minimum (numeric family values only).
    pub min: Option<f64>,
    /// Observed numeric maximum.
    pub max: Option<f64>,
}

impl AttrDomain {
    /// Neighboring values of `v` in the sorted domain: the nearest smaller
    /// and larger distinct values — the candidates a `OneOf` interval is
    /// extended with during relaxation.
    pub fn neighbors(&self, v: &Value) -> Vec<&Value> {
        match self.values.binary_search_by(|x| value_order(x, v)) {
            Ok(pos) => {
                let mut out = Vec::new();
                if pos > 0 {
                    out.push(&self.values[pos - 1]);
                }
                if pos + 1 < self.values.len() {
                    out.push(&self.values[pos + 1]);
                }
                out
            }
            Err(pos) => {
                let mut out = Vec::new();
                if pos > 0 {
                    out.push(&self.values[pos - 1]);
                }
                if pos < self.values.len() {
                    out.push(&self.values[pos]);
                }
                out
            }
        }
    }

    /// A widening step for numeric ranges: 5% of the observed spread,
    /// at least 1.0.
    pub fn range_step(&self) -> f64 {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) if hi > lo => ((hi - lo) / 20.0).max(1.0),
            _ => 1.0,
        }
    }
}

/// Domain catalog of a data graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeDomains {
    vertex_attrs: HashMap<String, AttrDomain>,
    edge_attrs: HashMap<String, AttrDomain>,
    edge_types: Vec<String>,
    type_buckets: Vec<Option<Value>>,
    /// The observed `(source bucket, edge type, target bucket)` triples,
    /// sorted: some data edge of type `edge_types[t]` runs from a vertex
    /// of bucket `s` to one of bucket `d` exactly when `(s, t, d)` is
    /// listed.
    type_triples: Vec<(u32, u32, u32)>,
}

impl AttributeDomains {
    /// Build the catalog, keeping at most `cap` distinct values per
    /// attribute (larger domains record only the numeric range).
    pub fn build(g: &PropertyGraph, cap: usize) -> Self {
        let names = g.attr_names();
        let type_sym = names.get(TYPE_ATTR);
        let mut vertex_values: Vec<Distinct> =
            (0..names.len()).map(|_| Distinct::default()).collect();
        // per vertex, 1 + the first-seen rank of its `type` value; 0 if none
        let mut vertex_type = Vec::with_capacity(g.num_vertices());
        for v in g.vertex_ids() {
            let mut ty = 0;
            for (sym, val) in g.vertex(v).attrs.iter() {
                let rank = vertex_values[sym.0 as usize].rank(val);
                if Some(sym) == type_sym {
                    ty = rank + 1;
                }
            }
            vertex_type.push(ty);
        }
        let mut edge_values: Vec<Distinct> =
            (0..names.len()).map(|_| Distinct::default()).collect();
        let mut triples = HashSet::new();
        let mut last = None;
        for e in g.edge_ids() {
            let ed = g.edge(e);
            for (sym, val) in ed.attrs.iter() {
                edge_values[sym.0 as usize].rank(val);
            }
            let t = (
                vertex_type[ed.src.0 as usize],
                ed.ty.0,
                vertex_type[ed.dst.0 as usize],
            );
            // edges of one vertex and type tend to come in runs
            if last != Some(t) {
                triples.insert(t);
                last = Some(t);
            }
        }

        // bucket 0 holds the untyped vertices, bucket 1 + i the i-th
        // smallest `type` value
        let mut type_buckets = vec![None];
        let mut bucket_of = vec![0];
        let mut vertex_attrs = HashMap::new();
        for (sym, distinct) in vertex_values.into_iter().enumerate() {
            let Some((values, ranks)) = distinct.sorted() else {
                continue;
            };
            if type_sym == Some(Symbol(sym as u32)) {
                bucket_of.resize(values.len() + 1, 0);
                for (i, &rank) in ranks.iter().enumerate() {
                    bucket_of[rank as usize + 1] = i as u32 + 1;
                }
                type_buckets.extend(values.iter().cloned().map(Some));
            }
            vertex_attrs.insert(
                names.resolve(Symbol(sym as u32)).to_string(),
                summarize(values, cap),
            );
        }
        let edge_attrs = edge_values
            .into_iter()
            .enumerate()
            .filter_map(|(sym, distinct)| {
                let (values, _) = distinct.sorted()?;
                let name = names.resolve(Symbol(sym as u32)).to_string();
                Some((name, summarize(values, cap)))
            })
            .collect();

        let mut by_name: Vec<(&str, Symbol)> = g.edge_types().iter().map(|(s, n)| (n, s)).collect();
        by_name.sort_unstable();
        let mut type_index = vec![0; by_name.len()];
        for (i, &(_, sym)) in by_name.iter().enumerate() {
            type_index[sym.0 as usize] = i as u32;
        }
        let mut type_triples: Vec<(u32, u32, u32)> = triples
            .into_iter()
            .map(|(s, t, d)| {
                (
                    bucket_of[s as usize],
                    type_index[t as usize],
                    bucket_of[d as usize],
                )
            })
            .collect();
        type_triples.sort_unstable();
        AttributeDomains {
            vertex_attrs,
            edge_attrs,
            edge_types: by_name.into_iter().map(|(n, _)| n.to_string()).collect(),
            type_buckets,
            type_triples,
        }
    }

    /// Domain of a vertex attribute.
    pub fn vertex_attr(&self, attr: &str) -> Option<&AttrDomain> {
        self.vertex_attrs.get(attr)
    }

    /// Domain of an edge attribute.
    pub fn edge_attr(&self, attr: &str) -> Option<&AttrDomain> {
        self.edge_attrs.get(attr)
    }

    /// All edge types of the graph, sorted.
    pub fn edge_types(&self) -> &[String] {
        &self.edge_types
    }

    /// Names of all vertex attributes, sorted.
    pub fn vertex_attr_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.vertex_attrs.keys().map(String::as_str).collect();
        names.sort();
        names
    }

    /// Names of all edge attributes, sorted.
    pub fn edge_attr_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.edge_attrs.keys().map(String::as_str).collect();
        names.sort();
        names
    }

    /// The [`TYPE_ATTR`] value of each vertex bucket: bucket 0 (`None`)
    /// holds the vertices without a `type`, bucket `1 + i` those whose
    /// `type` is the `i`-th smallest distinct value. Unlike
    /// [`AttrDomain::values`], the list is never truncated.
    pub fn type_buckets(&self) -> &[Option<Value>] {
        &self.type_buckets
    }

    /// Does some data edge run from a vertex whose bucket `src` admits,
    /// with a type `ty` admits, to a vertex whose bucket `dst` admits?
    /// `src` and `dst` are indexed by bucket ([`Self::type_buckets`]),
    /// `ty` by edge type ([`Self::edge_types`]).
    pub fn connects(&self, src: &[bool], ty: &[bool], dst: &[bool]) -> bool {
        self.type_triples
            .iter()
            .any(|&(s, t, d)| src[s as usize] && ty[t as usize] && dst[d as usize])
    }
}

/// The order of a domain's values: by value within a family, by family
/// name across families (booleans, then numbers, then strings).
pub(crate) fn value_order(a: &Value, b: &Value) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.type_name().cmp(b.type_name()))
}

/// The distinct values of one attribute, each with the rank in which the
/// scan first met it. Equal values of two kinds (`Int(2)`, `Float(2.0)`)
/// are one value, represented by the first one met.
#[derive(Default)]
pub(crate) struct Distinct(HashMap<Value, u32>);

impl Distinct {
    /// The first-seen rank of `v`, recording `v` if it is new.
    pub(crate) fn rank(&mut self, v: &Value) -> u32 {
        if let Some(&rank) = self.0.get(v) {
            return rank;
        }
        let rank = self.0.len() as u32;
        self.0.insert(v.clone(), rank);
        rank
    }

    /// The values in sorted order and the first-seen rank of each; `None`
    /// if the scan met no value.
    pub(crate) fn sorted(self) -> Option<(Vec<Value>, Vec<u32>)> {
        if self.0.is_empty() {
            return None;
        }
        let mut pairs: Vec<(Value, u32)> = self.0.into_iter().collect();
        pairs.sort_unstable_by(|a, b| value_order(&a.0, &b.0));
        Some(pairs.into_iter().unzip())
    }
}

/// The domain of sorted distinct `vals`.
fn summarize(mut vals: Vec<Value>, cap: usize) -> AttrDomain {
    let numeric = vals.iter().filter_map(Value::as_f64);
    let min = numeric.clone().reduce(f64::min);
    let max = numeric.reduce(f64::max);
    let truncated = vals.len() > cap;
    if truncated {
        vals.truncate(cap);
    }
    AttrDomain {
        values: vals,
        truncated,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The catalog built the plain way: every value of an attribute
    /// collected, sorted and deduplicated, the triples looked up edge by
    /// edge in the untruncated `type` domain.
    fn reference(g: &PropertyGraph, cap: usize) -> AttributeDomains {
        let mut vertex_attrs: HashMap<String, Vec<Value>> = HashMap::new();
        for v in g.vertex_ids() {
            for (sym, val) in g.vertex(v).attrs.iter() {
                let name = g.attr_names().resolve(sym).to_string();
                vertex_attrs.entry(name).or_default().push(val.clone());
            }
        }
        let mut edge_attrs: HashMap<String, Vec<Value>> = HashMap::new();
        for e in g.edge_ids() {
            for (sym, val) in g.edge(e).attrs.iter() {
                let name = g.attr_names().resolve(sym).to_string();
                edge_attrs.entry(name).or_default().push(val.clone());
            }
        }
        let distinct = |mut vals: Vec<Value>| {
            vals.sort_by(value_order);
            vals.dedup();
            vals
        };
        let types = vertex_attrs
            .get(TYPE_ATTR)
            .cloned()
            .map_or_else(Vec::new, distinct);
        let bucket = |v| match g.attr_symbol(TYPE_ATTR).and_then(|s| g.vertex_attr(v, s)) {
            None => 0,
            Some(val) => 1 + types.iter().position(|t| t == val).expect("listed") as u32,
        };
        let mut edge_types: Vec<String> =
            g.edge_types().iter().map(|(_, n)| n.to_string()).collect();
        edge_types.sort();
        let mut type_triples: Vec<(u32, u32, u32)> = g
            .edge_ids()
            .map(|e| {
                let ed = g.edge(e);
                let ty = g.edge_types().resolve(ed.ty);
                let t = edge_types.iter().position(|n| n == ty).expect("listed");
                (bucket(ed.src), t as u32, bucket(ed.dst))
            })
            .collect();
        type_triples.sort();
        type_triples.dedup();
        let summarized = |attrs: HashMap<String, Vec<Value>>| {
            attrs
                .into_iter()
                .map(|(k, vals)| (k, summarize(distinct(vals), cap)))
                .collect()
        };
        AttributeDomains {
            vertex_attrs: summarized(vertex_attrs),
            edge_attrs: summarized(edge_attrs),
            edge_types,
            type_buckets: std::iter::once(None)
                .chain(types.into_iter().map(Some))
                .collect(),
            type_triples,
        }
    }

    /// Every part of `d` in a fixed order, each value with its kind: `==`
    /// would equate `Int(1)` and `Float(1.0)`.
    fn shown(d: &AttributeDomains) -> String {
        let attrs = |m: &HashMap<String, AttrDomain>| {
            let mut v: Vec<_> = m.iter().map(|(k, a)| format!("{k}: {a:?}")).collect();
            v.sort();
            v
        };
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            attrs(&d.vertex_attrs),
            attrs(&d.edge_attrs),
            d.edge_types,
            d.type_buckets,
            d.type_triples
        )
    }

    /// A value out of a small pool that mixes `Int` and `Float` (equal
    /// pairs included), strings and booleans.
    fn pooled(i: u8) -> Value {
        match i % 8 {
            0..=2 => Value::Int(i64::from(i % 5)),
            3..=5 => Value::Float(f64::from(i % 6) / 2.0),
            6 => Value::str(["a", "b", "c"][usize::from(i) % 3]),
            _ => Value::Bool(i.is_multiple_of(2)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass build equals the reference build, truncated or not:
        /// the same domains, edge types, buckets and triples.
        #[test]
        fn one_pass_build_equals_the_reference(
            vertices in prop::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..12),
            edges in prop::collection::vec((any::<u8>(), any::<u8>(), 0u8..3, any::<u8>()), 0..20),
            cap in 1usize..6,
        ) {
            let mut g = PropertyGraph::new();
            let ids: Vec<_> = vertices
                .iter()
                .map(|&(ty, x, y)| {
                    let mut attrs = vec![("x", pooled(x))];
                    // types 0..=2 are strings, 3 a number, 4 and 5 none
                    match ty {
                        0..=2 => attrs.push((TYPE_ATTR, Value::str(["p", "q", "r"][usize::from(ty)]))),
                        3 => attrs.push((TYPE_ATTR, pooled(y))),
                        _ => {}
                    }
                    if y.is_multiple_of(3) {
                        attrs.push(("y", pooled(y / 3)));
                    }
                    g.add_vertex(attrs)
                })
                .collect();
            for &(a, b, ty, w) in &edges {
                let (a, b) = (ids[usize::from(a) % ids.len()], ids[usize::from(b) % ids.len()]);
                let attrs = if w.is_multiple_of(2) { vec![("w", pooled(w))] } else { Vec::new() };
                g.add_edge(a, b, ["knows", "likes", "in"][usize::from(ty)], attrs);
            }
            for cap in [cap, 100] {
                prop_assert_eq!(shown(&AttributeDomains::build(&g, cap)), shown(&reference(&g, cap)));
            }
        }
    }

    fn g() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(30))]);
        let b = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(25))]);
        let c = g.add_vertex([("type", Value::str("city"))]);
        g.add_edge(a, b, "knows", [("since", Value::Int(2003))]);
        g.add_edge(a, c, "livesIn", []);
        g
    }

    #[test]
    fn catalogs_vertex_and_edge_attributes() {
        let d = AttributeDomains::build(&g(), 100);
        let ages = d.vertex_attr("age").unwrap();
        assert_eq!(ages.values, vec![Value::Int(25), Value::Int(30)]);
        assert_eq!(ages.min, Some(25.0));
        assert_eq!(ages.max, Some(30.0));
        let since = d.edge_attr("since").unwrap();
        assert_eq!(since.values.len(), 1);
        assert_eq!(
            d.edge_types(),
            &["knows".to_string(), "livesIn".to_string()]
        );
        assert!(d.vertex_attr("nope").is_none());
    }

    #[test]
    fn neighbors_of_present_and_absent_values() {
        let d = AttributeDomains::build(&g(), 100);
        let ages = d.vertex_attr("age").unwrap();
        // neighbors of 25 → [30]; of 30 → [25]
        assert_eq!(ages.neighbors(&Value::Int(25)), vec![&Value::Int(30)]);
        assert_eq!(ages.neighbors(&Value::Int(30)), vec![&Value::Int(25)]);
        // absent value between → both sides
        assert_eq!(
            ages.neighbors(&Value::Int(27)),
            vec![&Value::Int(25), &Value::Int(30)]
        );
    }

    #[test]
    fn string_domain_values_stay_dictionary_encoded() {
        let graph = g();
        let d = AttributeDomains::build(&graph, 100);
        let types = d.vertex_attr("type").unwrap();
        assert_eq!(types.values.len(), 2);
        for v in &types.values {
            let sv = v.as_sym().expect("catalog keeps the encoded form");
            assert_eq!(sv.dict_id(), graph.values().dict_id());
        }
        // neighbors of the encoded "city" is the encoded "person"
        let city = types.values[0].clone();
        assert_eq!(city.as_str(), Some("city"));
        let n = types.neighbors(&city);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].as_str(), Some("person"));
    }

    #[test]
    fn cap_truncates_but_keeps_range() {
        let mut graph = PropertyGraph::new();
        for i in 0..50 {
            graph.add_vertex([("x", Value::Int(i))]);
        }
        let d = AttributeDomains::build(&graph, 10);
        let x = d.vertex_attr("x").unwrap();
        assert_eq!(x.values.len(), 10);
        assert!(x.truncated);
        assert_eq!(x.min, Some(0.0));
        assert_eq!(x.max, Some(49.0));
        assert!((x.range_step() - 2.45).abs() < 1e-9);
    }
}
