//! The one recency policy of the session's stores.
//!
//! [`Lru`] is a map plus a recency list: a use moves an entry to the
//! front, a full store's victim is the back, and a newest-first walk
//! follows the list — no scan picks a victim. The plan cache and the
//! sibling store both keep their entries in one.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// A map of at most `capacity` entries that evicts its least recently
/// used entry. Capacity 0 keeps nothing.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    capacity: usize,
    /// Each key's node.
    index: HashMap<K, usize>,
    /// Node `i`'s entry is `entries[i - 1]`.
    entries: Vec<(K, V)>,
    /// The `[newer, older]` neighbours of each node in a circular list.
    /// Node 0 is its head: the oldest entry is newer than it, the newest
    /// older.
    links: Vec<[usize; 2]>,
}

/// Move node `i` (linked, or linked only to itself) to the front.
fn make_newest(links: &mut [[usize; 2]], i: usize) {
    let [newer, older] = links[i];
    links[newer][1] = older;
    links[older][0] = newer;
    let newest = links[0][1];
    links[i] = [0, newest];
    links[newest][0] = i;
    links[0][1] = i;
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            index: HashMap::new(),
            entries: Vec::new(),
            links: vec![[0, 0]],
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Read the entry under `key` through `read`. The entry becomes the
    /// newest only when `read` answers: an entry that cannot answer is
    /// not a use.
    pub(crate) fn get<Q, R>(&mut self, key: &Q, read: impl FnOnce(&V) -> Option<R>) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = *self.index.get(key)?;
        let answer = read(&self.entries[i - 1].1)?;
        make_newest(&mut self.links, i);
        Some(answer)
    }

    /// Insert `value` under `key` as the newest entry, replacing any entry
    /// under the same key. A new key in a full store takes over the node
    /// of the oldest entry, which is returned.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        let (i, victim) = match self.index.entry(key) {
            Entry::Occupied(e) => {
                self.entries[*e.get() - 1].1 = value;
                (*e.get(), None)
            }
            Entry::Vacant(e) => {
                let entry = (e.key().clone(), value);
                if self.entries.len() < self.capacity {
                    self.entries.push(entry);
                    self.links.push([self.links.len(); 2]);
                    (*e.insert(self.entries.len()), None)
                } else {
                    let i = *e.insert(self.links[0][0]);
                    (i, Some(std::mem::replace(&mut self.entries[i - 1], entry)))
                }
            }
        };
        make_newest(&mut self.links, i);
        if let Some((old, _)) = &victim {
            self.index.remove(old);
        }
        victim
    }

    /// Drop every entry; returns how many there were.
    pub(crate) fn clear(&mut self) -> usize {
        self.index.clear();
        self.links = vec![[0, 0]];
        std::mem::take(&mut self.entries).len()
    }

    /// The resident values, newest first. Walking refreshes nothing.
    pub(crate) fn newest_first(&self) -> impl Iterator<Item = &V> {
        let links = &self.links;
        let older = move |i: usize| Some(links[i][1]).filter(|&o| o != 0);
        std::iter::successors(older(0), move |&i| older(i)).map(|i| &self.entries[i - 1].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The policy the stores had before [`Lru`]: every entry stamped with
    /// its last use, the victim found by scanning for the oldest stamp.
    struct Scan {
        capacity: usize,
        tick: u64,
        entries: HashMap<u8, (u32, u64)>,
    }

    impl Scan {
        fn get(&mut self, key: u8, answers: bool) -> Option<u32> {
            let (value, last_used) = self.entries.get_mut(&key)?;
            if !answers {
                return None;
            }
            self.tick += 1;
            *last_used = self.tick;
            Some(*value)
        }

        fn insert(&mut self, key: u8, value: u32) -> Option<(u8, u32)> {
            if self.capacity == 0 {
                return None;
            }
            let mut victim = None;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
                let (&k, _) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .expect("a full store is not empty");
                victim = self.entries.remove(&k).map(|(v, _)| (k, v));
            }
            self.tick += 1;
            self.entries.insert(key, (value, self.tick));
            victim
        }

        fn newest_first(&self) -> Vec<u32> {
            let mut all: Vec<_> = self.entries.values().collect();
            all.sort_by_key(|(_, last_used)| std::cmp::Reverse(*last_used));
            all.into_iter().map(|(v, _)| *v).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get / refresh / insert sequences: the ordered index and
        /// the scan agree on every hit and miss, on every victim (hence
        /// on the eviction count), and on the newest-first walk.
        #[test]
        fn evicts_what_the_scan_evicted(
            capacity in 0usize..6,
            ops in prop::collection::vec((0u8..3, 0u8..9, any::<u32>()), 0..200),
        ) {
            let mut lru = Lru::new(capacity);
            let mut scan = Scan { capacity, tick: 0, entries: HashMap::new() };
            for (op, key, value) in ops {
                if op < 2 {
                    // a get refreshes only when its reader answers
                    let answers = op == 0;
                    let got = lru.get(&key, |v| answers.then_some(*v));
                    prop_assert_eq!(got, scan.get(key, answers));
                } else {
                    prop_assert_eq!(lru.insert(key, value), scan.insert(key, value));
                }
                prop_assert_eq!(lru.len(), scan.entries.len());
                prop_assert!(lru.len() <= capacity);
                prop_assert_eq!(
                    lru.newest_first().copied().collect::<Vec<_>>(),
                    scan.newest_first()
                );
            }
            prop_assert_eq!(lru.clear(), scan.entries.len());
            prop_assert_eq!(lru.newest_first().count(), 0);
        }
    }
}
