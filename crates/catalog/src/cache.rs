//! Byte-budgeted LRU table cache.
//!
//! The cache always admits the table being inserted and then evicts
//! least-recently-used *evictable* entries until the budget is met. An entry
//! is evictable only when it can be reloaded (it has a VSC2 copy on disk);
//! memory-only datasets are pinned so eviction never destroys data, which
//! means an in-memory catalog can exceed its budget — by design, since the
//! alternative is silent data loss.

use std::collections::HashMap;
use std::sync::Arc;

use viewseeker_dataset::Table;

/// One cached table plus its accounting metadata.
struct CacheEntry {
    table: Arc<Table>,
    bytes: u64,
    last_used: u64,
    evictable: bool,
}

/// LRU cache keyed by dataset name.
pub(crate) struct LruCache {
    budget: u64,
    entries: HashMap<String, CacheEntry>,
    bytes: u64,
    tick: u64,
}

impl LruCache {
    pub(crate) fn new(budget: u64) -> Self {
        Self {
            budget,
            entries: HashMap::new(),
            bytes: 0,
            tick: 0,
        }
    }

    /// Looks up a cached table, marking it most-recently-used.
    pub(crate) fn get(&mut self, name: &str) -> Option<Arc<Table>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(name).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.table)
        })
    }

    /// Whether `name` is currently resident.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Inserts (or replaces) `name`, then evicts LRU evictable entries other
    /// than `name` until the byte budget is met or no candidates remain.
    /// Returns the names evicted.
    pub(crate) fn insert(
        &mut self,
        name: &str,
        table: Arc<Table>,
        bytes: u64,
        evictable: bool,
    ) -> Vec<String> {
        self.tick += 1;
        if let Some(old) = self.entries.remove(name) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.entries.insert(
            name.to_owned(),
            CacheEntry {
                table,
                bytes,
                last_used: self.tick,
                evictable,
            },
        );
        let mut evicted = Vec::new();
        while self.bytes > self.budget {
            // vslint::allow(hash-iter): eviction choice is deterministic —
            // `last_used` ticks are unique and strictly increasing, so
            // min_by_key never ties despite the hash iteration order.
            let victim = self
                .entries
                .iter()
                .filter(|(k, e)| e.evictable && k.as_str() != name)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(victim) => {
                    if let Some(e) = self.entries.remove(&victim) {
                        self.bytes -= e.bytes;
                    }
                    evicted.push(victim);
                }
                None => break,
            }
        }
        evicted
    }

    /// Drops `name` from the cache, returning its byte size if it was
    /// resident.
    pub(crate) fn remove(&mut self, name: &str) -> Option<u64> {
        self.entries.remove(name).map(|e| {
            self.bytes -= e.bytes;
            e.bytes
        })
    }

    /// Total bytes of resident tables.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of resident tables.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewseeker_dataset::{Column, Schema};

    fn table() -> Arc<Table> {
        let schema = Schema::builder().measure("m").build().unwrap();
        Arc::new(Table::new(schema, vec![Column::numeric(vec![1.0])]).unwrap())
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let mut c = LruCache::new(100);
        assert!(c.insert("a", table(), 40, true).is_empty());
        assert!(c.insert("b", table(), 40, true).is_empty());
        // Touch "a" so "b" becomes the LRU entry.
        assert!(c.get("a").is_some());
        let evicted = c.insert("c", table(), 40, true);
        assert_eq!(evicted, vec!["b".to_owned()]);
        assert_eq!(c.resident_bytes(), 80);
        assert!(c.contains("a") && c.contains("c") && !c.contains("b"));
    }

    #[test]
    fn newly_inserted_entry_is_always_admitted() {
        let mut c = LruCache::new(10);
        let evicted = c.insert("big", table(), 50, true);
        assert!(evicted.is_empty());
        assert!(c.contains("big"));
        // The next insert evicts it, even though the newcomer is also over
        // budget.
        let evicted = c.insert("big2", table(), 60, true);
        assert_eq!(evicted, vec!["big".to_owned()]);
        assert_eq!(c.resident_bytes(), 60);
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let mut c = LruCache::new(50);
        assert!(c.insert("pinned", table(), 40, false).is_empty());
        let evicted = c.insert("disk", table(), 40, true);
        assert!(evicted.is_empty(), "nothing evictable except the newcomer");
        assert_eq!(c.resident_bytes(), 80);
        // A third evictable entry pushes out "disk" but never "pinned".
        let evicted = c.insert("disk2", table(), 40, true);
        assert_eq!(evicted, vec!["disk".to_owned()]);
        assert!(c.contains("pinned"));
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = LruCache::new(100);
        c.insert("a", table(), 30, true);
        c.insert("a", table(), 70, true);
        assert_eq!(c.resident_bytes(), 70);
        assert_eq!(c.len(), 1);
        assert_eq!(c.remove("a"), Some(70));
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.remove("a"), None);
    }
}
