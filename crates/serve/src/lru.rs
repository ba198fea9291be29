//! An O(1) LRU cache on a slab-allocated doubly-linked list.
//!
//! The interpretation cache sits on the serving hot path, so eviction
//! must not scan. Entries live in a `Vec` slab; recency is a linked
//! list of slab indices (no `unsafe`, no pointer juggling). `get`
//! promotes to most-recent; `put` evicts the least-recent entry when
//! full.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with a fixed capacity.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn slot(&self, idx: usize) -> &Slot<K, V> {
        self.slab[idx].as_ref().expect("linked index is live")
    }

    fn slot_mut(&mut self, idx: usize) -> &mut Slot<K, V> {
        self.slab[idx].as_mut().expect("linked index is live")
    }

    /// Detach `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slot(idx);
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
    }

    /// Attach `idx` as most-recent.
    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let s = self.slot_mut(idx);
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slot_mut(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up `key`, promoting it to most-recent on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = self.map.get(key).copied()?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&self.slot(idx).value)
    }

    /// Look up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slot(idx).value)
    }

    /// Insert or replace `key`, evicting the least-recent entry if the
    /// cache is full. Returns the evicted `(key, value)`, if any.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slot_mut(idx).value = value;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let s = self.slab[victim].take().expect("tail is live");
            self.map.remove(&s.key);
            self.free.push(victim);
            Some((s.key, s.value))
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = Some(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
            None => {
                self.slab.push(Some(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                }));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_put() {
        let mut c = LruCache::new(2);
        assert!(c.put("a", 1).is_none());
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn evicts_lru_not_mru() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.get(&"a"); // a is now most-recent
        let evicted = c.put("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(c.peek(&"a").is_some());
        assert!(c.peek(&"b").is_none());
        assert_eq!(c.put("d", 4), Some(("a", 1)), "a is now least-recent");
    }

    #[test]
    fn replace_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10);
        assert_eq!(c.peek(&"a"), Some(&10));
        assert_eq!(
            c.put("c", 3),
            Some(("b", 2)),
            "b was least-recent after a's refresh"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let mut c = LruCache::new(1);
        c.put(1, "one");
        assert_eq!(c.put(2, "two"), Some((1, "one")));
        assert_eq!(c.get(&2), Some(&"two"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c = LruCache::new(2);
        for i in 0..100u32 {
            c.put(i, i);
        }
        assert_eq!(c.len(), 2);
        assert!(
            c.slab.len() <= 3,
            "slab must not grow unboundedly: {}",
            c.slab.len()
        );
    }
}
