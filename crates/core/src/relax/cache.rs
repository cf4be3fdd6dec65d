//! Cardinality cache for executed query candidates (§5.5, App. B.2).
//!
//! Different relaxation paths through the lattice frequently re-derive the
//! same candidate query; caching executed cardinalities by canonical
//! signature turns those repeats into hash lookups. Appendix B.2 reports
//! the resource consumption of this cache — the stats here reproduce it.

use std::collections::HashMap;

/// Memoization of candidate cardinalities keyed by canonical signature.
#[derive(Debug, Default, Clone)]
pub struct QueryCache {
    /// `signature → cardinality`.
    map: HashMap<String, u64>,
    lookups: u64,
    hits: u64,
}

/// Snapshot of cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of cached entries.
    pub entries: usize,
    /// Number of lookups performed.
    pub lookups: u64,
    /// Number of lookups answered from the cache.
    pub hits: u64,
    /// Approximate memory footprint of keys and values in bytes.
    pub approx_bytes: usize,
}

impl QueryCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a signature.
    pub fn get(&mut self, sig: &str) -> Option<u64> {
        self.lookups += 1;
        let hit = self.map.get(sig).copied();
        self.hits += u64::from(hit.is_some());
        hit
    }

    /// Store an executed cardinality.
    pub fn insert(&mut self, sig: String, cardinality: u64) {
        self.map.insert(sig, cardinality);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            lookups: self.lookups,
            hits: self.hits,
            approx_bytes: self
                .map
                .keys()
                .map(|k| k.len() + std::mem::size_of::<u64>())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = QueryCache::new();
        assert_eq!(c.get("q1"), None);
        c.insert("q1".into(), 7);
        assert_eq!(c.get("q1"), Some(7));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert!(s.approx_bytes >= "q1".len());
    }

    #[test]
    fn overwrite_updates_value() {
        let mut c = QueryCache::new();
        c.insert("q".into(), 1);
        c.insert("q".into(), 2);
        assert_eq!(c.get("q"), Some(2));
        assert_eq!(c.stats().entries, 1);
    }
}
