//! Attribute domains of a data graph.
//!
//! Modification-based explanation generators need to know *which values
//! exist* before they can extend a predicate interval with a neighboring
//! value (§6.2.2) or insert a new predicate (concretization). The domain
//! catalog summarizes, per attribute: the distinct values (capped and
//! sorted) and, for numeric attributes, the observed range; plus the edge
//! types occurring in the graph.
//!
//! A database owns one catalog (`whyq_session::Database::domains`, built
//! on first use) that the why-engine's rewriters borrow; callers without a
//! database build their own with [`AttributeDomains::build`].
//!
//! The catalog clones values straight out of the graph, so string entries
//! stay **dictionary-encoded** (`Value::Sym` — the clone is an `Arc`
//! refcount bump, not a string copy). That matters downstream: every
//! relaxed query the why-engine builds from these values carries constants
//! the matcher's compiler recognizes as symbols of the same graph, keeping
//! the whole relax loop's predicate evaluation on the integer fast path.

use crate::{PropertyGraph, Value};
use std::collections::HashMap;

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
        match self.values.binary_search_by(|x| {
            x.partial_cmp(v)
                .unwrap_or_else(|| x.type_name().cmp(v.type_name()))
        }) {
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
}

impl AttributeDomains {
    /// Build the catalog, keeping at most `cap` distinct values per
    /// attribute (larger domains record only the numeric range).
    pub fn build(g: &PropertyGraph, cap: usize) -> Self {
        let mut vertex_attrs: HashMap<String, Vec<Value>> = HashMap::new();
        for v in g.vertex_ids() {
            for (sym, val) in g.vertex(v).attrs.iter() {
                let name = g.attr_names().resolve(sym);
                vertex_attrs
                    .entry(name.to_string())
                    .or_default()
                    .push(val.clone());
            }
        }
        let mut edge_attrs: HashMap<String, Vec<Value>> = HashMap::new();
        for e in g.edge_ids() {
            for (sym, val) in g.edge(e).attrs.iter() {
                let name = g.attr_names().resolve(sym);
                edge_attrs
                    .entry(name.to_string())
                    .or_default()
                    .push(val.clone());
            }
        }
        let mut edge_types: Vec<String> =
            g.edge_types().iter().map(|(_, n)| n.to_string()).collect();
        edge_types.sort();
        AttributeDomains {
            vertex_attrs: vertex_attrs
                .into_iter()
                .map(|(k, vals)| (k, summarize(vals, cap)))
                .collect(),
            edge_attrs: edge_attrs
                .into_iter()
                .map(|(k, vals)| (k, summarize(vals, cap)))
                .collect(),
            edge_types,
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
}

fn summarize(mut vals: Vec<Value>, cap: usize) -> AttrDomain {
    vals.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or_else(|| a.type_name().cmp(b.type_name()))
    });
    vals.dedup();
    let numeric: Vec<f64> = vals.iter().filter_map(Value::as_f64).collect();
    let min = numeric.iter().copied().reduce(f64::min);
    let max = numeric.iter().copied().reduce(f64::max);
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
