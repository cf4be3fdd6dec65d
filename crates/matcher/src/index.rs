//! Equality index over one vertex attribute.
//!
//! Pattern queries in the thesis workloads almost always pin a `type`
//! attribute per query vertex; seeding the backtracking search from an index
//! lookup instead of a full vertex scan removes the dominant scan cost.
//!
//! The buckets are keyed by a fixed-width `IndexKey`, not by the value
//! itself: dictionary-encoded strings key by their `u32` symbol and numbers
//! by their canonical `f64` bit pattern, so building and probing the index
//! hashes a machine word instead of walking heap strings. Probes resolve
//! query-side string constants through the graph's value dictionary first —
//! a constant the dictionary has never seen hits the empty bucket without
//! hashing a single byte of it.

use std::collections::HashMap;
use std::sync::Arc;
use whyq_graph::{PropertyGraph, Symbol, Value, VertexId};

/// Fixed-width bucket key. Numeric family members share a key through the
/// canonical bit pattern their `Value` equality/hash is defined by
/// (`i as f64` for integers, `-0.0` normalized), strings through their
/// dictionary symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IndexKey {
    /// Canonical `f64` bits of a numeric-family value.
    Num(u64),
    /// Value-dictionary symbol of an encoded string.
    Sym(u32),
    /// Boolean value.
    Bool(bool),
}

fn canonical_num_bits(f: f64) -> u64 {
    (if f == 0.0 { 0.0f64 } else { f }).to_bits()
}

/// Hash index from values of one attribute to the vertices carrying them.
/// A bucket is shared ([`AttrIndex::shared`]), so a seed list drawn from
/// one copies no vertex id.
#[derive(Debug, Clone)]
pub struct AttrIndex {
    attr: Symbol,
    buckets: HashMap<IndexKey, Arc<[VertexId]>>,
    /// Defensive fallback for stored strings that escaped the dictionary
    /// (impossible through the graph API; kept so the index never silently
    /// loses data). Probed by `&str` — no allocation on lookup.
    str_buckets: HashMap<String, Arc<[VertexId]>>,
}

impl AttrIndex {
    /// Build an index over `attr`; `None` if no element carries it.
    pub fn build(g: &PropertyGraph, attr: &str) -> Option<AttrIndex> {
        let sym = g.attr_symbol(attr)?;
        let mut buckets: HashMap<IndexKey, Vec<VertexId>> = HashMap::new();
        let mut str_buckets: HashMap<String, Vec<VertexId>> = HashMap::new();
        for v in g.vertex_ids() {
            if let Some(val) = g.vertex_attr(v, sym) {
                match Self::stored_key(val) {
                    Some(key) => buckets.entry(key).or_default().push(v),
                    None => str_buckets
                        .entry(val.as_str().expect("only strings lack a key").to_string())
                        .or_default()
                        .push(v),
                }
            }
        }
        Some(AttrIndex {
            attr: sym,
            buckets: buckets.into_iter().map(|(k, b)| (k, b.into())).collect(),
            str_buckets: str_buckets
                .into_iter()
                .map(|(k, b)| (k, b.into()))
                .collect(),
        })
    }

    /// Key of a *stored* value; `None` only for un-encoded strings, which
    /// go to the fallback map.
    fn stored_key(v: &Value) -> Option<IndexKey> {
        match v {
            Value::Sym(s) => Some(IndexKey::Sym(s.sym().0)),
            Value::Str(_) => None,
            Value::Bool(b) => Some(IndexKey::Bool(*b)),
            num => Some(IndexKey::Num(canonical_num_bits(
                num.as_f64().expect("numeric family"),
            ))),
        }
    }

    /// The indexed attribute symbol.
    pub fn attr(&self) -> Symbol {
        self.attr
    }

    /// Vertices whose indexed attribute equals `value`.
    ///
    /// String probes — plain or encoded by a *different* graph's
    /// dictionary — resolve through `g`'s value dictionary; an encoded
    /// string of `g` itself probes by symbol directly. Either way no
    /// string is hashed or allocated.
    pub fn lookup(&self, g: &PropertyGraph, value: &Value) -> &[VertexId] {
        self.bucket(g, value).map_or(&[], |b| b)
    }

    /// [`AttrIndex::lookup`] as a handle on the bucket itself: a
    /// reference count, not a copy.
    pub fn shared(&self, g: &PropertyGraph, value: &Value) -> Arc<[VertexId]> {
        self.bucket(g, value)
            .map_or_else(|| Arc::from([]), Arc::clone)
    }

    /// The bucket of `value`, if it has one.
    fn bucket(&self, g: &PropertyGraph, value: &Value) -> Option<&Arc<[VertexId]>> {
        let key = match value {
            Value::Sym(s) if s.dict_id() == g.values().dict_id() => Some(IndexKey::Sym(s.sym().0)),
            Value::Sym(_) | Value::Str(_) => {
                let text = value.as_str().expect("string family");
                match g.value_symbol(text) {
                    Some(sym) => Some(IndexKey::Sym(sym.0)),
                    // the dictionary has never seen this string: no
                    // encoded bucket can hold it; fall through to the
                    // (normally empty) un-encoded fallback
                    None => return self.str_buckets.get(text),
                }
            }
            Value::Bool(b) => Some(IndexKey::Bool(*b)),
            num => num.as_f64().map(|f| IndexKey::Num(canonical_num_bits(f))),
        };
        key.and_then(|k| self.buckets.get(&k))
    }

    /// Number of distinct indexed values.
    pub fn num_values(&self) -> usize {
        self.buckets.len() + self.str_buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([("type", Value::str("person"))]);
        let c = g.add_vertex([("type", Value::str("city"))]);
        g.add_vertex([]);
        let idx = AttrIndex::build(&g, "type").unwrap();
        assert_eq!(idx.lookup(&g, &Value::str("person")), &[a, b]);
        assert_eq!(idx.lookup(&g, &Value::str("city")), &[c]);
        assert!(idx.lookup(&g, &Value::str("robot")).is_empty());
        assert_eq!(idx.num_values(), 2);
    }

    #[test]
    fn missing_attribute_yields_none() {
        let g = PropertyGraph::new();
        assert!(AttrIndex::build(&g, "type").is_none());
    }

    #[test]
    fn numeric_family_members_share_buckets() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("year", Value::Int(2005))]);
        let b = g.add_vertex([("year", Value::Float(2005.0))]);
        let z = g.add_vertex([("year", Value::Float(-0.0))]);
        let idx = AttrIndex::build(&g, "year").unwrap();
        assert_eq!(idx.lookup(&g, &Value::Int(2005)), &[a, b]);
        assert_eq!(idx.lookup(&g, &Value::Float(2005.0)), &[a, b]);
        assert_eq!(idx.lookup(&g, &Value::Int(0)), &[z]);
        assert_eq!(idx.lookup(&g, &Value::Float(0.0)), &[z]);
    }

    #[test]
    fn encoded_probe_uses_symbol_and_foreign_probe_redecodes() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let ty = g.attr_symbol("type").unwrap();
        let native = g.vertex_attr(a, ty).unwrap().clone();
        // a second graph assigns "person" a different symbol
        let mut other = PropertyGraph::new();
        other.add_vertex([("type", Value::str("padding"))]);
        let o = other.add_vertex([("type", Value::str("person"))]);
        let oty = other.attr_symbol("type").unwrap();
        let foreign = other.vertex_attr(o, oty).unwrap().clone();
        let idx = AttrIndex::build(&g, "type").unwrap();
        assert_eq!(idx.lookup(&g, &native), &[a]);
        assert_eq!(idx.lookup(&g, &foreign), &[a]);
    }

    #[test]
    fn bool_buckets() {
        let mut g = PropertyGraph::new();
        let t = g.add_vertex([("ok", Value::Bool(true))]);
        let f = g.add_vertex([("ok", Value::Bool(false))]);
        let idx = AttrIndex::build(&g, "ok").unwrap();
        assert_eq!(idx.lookup(&g, &Value::Bool(true)), &[t]);
        assert_eq!(idx.lookup(&g, &Value::Bool(false)), &[f]);
    }
}
