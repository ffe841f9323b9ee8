//! A tiny open-addressing-free `u64 → u64` map backed by parallel vectors.
//!
//! The simulation engine tracks a handful of in-flight prefetch fills per
//! core (the issue budget caps the population at ~48 entries). At that size
//! a linear scan over a dense key vector beats a `HashMap`: every demand
//! access probes the map once, and with `SipHash` the hash alone costs more
//! than sweeping 48 packed keys that stay resident in L1. Keys and values
//! live in *separate* vectors so the probe loop touches only key bytes.
//!
//! [`SmallU64Map`] persists in the same canonical layout as
//! `HashMap<u64, u64>` under [`crate::snap::Persist`] (length-prefixed,
//! entries sorted by key), so its `drishti-ckpt/v5` bytes never depend on
//! insertion order.

use crate::snap::{Persist, SnapError, StateReader, StateWriter};

/// Unordered `u64 → u64` map optimized for tiny populations (≲ 64 keys).
///
/// Operations are `O(len)`; there is no hashing. Insertion order is
/// irrelevant to observable behaviour: lookups are exact-key and
/// serialization sorts by key.
#[derive(Debug, Clone, Default)]
pub struct SmallU64Map {
    keys: Vec<u64>,
    vals: Vec<u64>,
}

impl SmallU64Map {
    /// Create an empty map.
    pub fn new() -> Self {
        SmallU64Map::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.keys
            .iter()
            .position(|&k| k == key)
            .map(|i| self.vals[i])
    }

    /// Insert or replace `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, val: u64) -> Option<u64> {
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => Some(std::mem::replace(&mut self.vals[i], val)),
            None => {
                self.keys.push(key);
                self.vals.push(val);
                None
            }
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let i = self.keys.iter().position(|&k| k == key)?;
        self.keys.swap_remove(i);
        Some(self.vals.swap_remove(i))
    }

    /// Keep only entries for which `pred(key, value)` holds.
    pub fn retain(&mut self, mut pred: impl FnMut(u64, u64) -> bool) {
        let mut i = 0;
        while i < self.keys.len() {
            if pred(self.keys[i], self.vals[i]) {
                i += 1;
            } else {
                self.keys.swap_remove(i);
                self.vals.swap_remove(i);
            }
        }
    }
}

impl Persist for SmallU64Map {
    /// Entries sorted by key — the exact byte layout of
    /// `HashMap<u64, u64>`'s [`Persist`] impl.
    fn save(&self, w: &mut StateWriter) {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by_key(|&i| self.keys[i]);
        w.put_u64(self.keys.len() as u64);
        for i in order {
            self.keys[i].save(w);
            self.vals[i].save(w);
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.take_len("map length")?;
        self.keys.clear();
        self.vals.clear();
        for _ in 0..n {
            let mut k = 0u64;
            k.load(r)?;
            let mut v = 0u64;
            v.load(r)?;
            if self.keys.contains(&k) {
                return Err(SnapError::Invalid {
                    what: "map entry",
                    detail: "duplicate key".into(),
                });
            }
            self.keys.push(k);
            self.vals.push(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn snapshot_bytes<T: Persist>(v: &T) -> Vec<u8> {
        let mut w = StateWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn insert_get_remove_retain() {
        let mut m = SmallU64Map::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(9, 90), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(7), Some(71));
        assert_eq!(m.get(8), None);
        assert_eq!(m.remove(7), Some(71));
        assert_eq!(m.remove(7), None);
        m.insert(1, 10);
        m.insert(2, 20);
        m.insert(3, 30);
        m.retain(|k, _| k % 2 == 1);
        assert_eq!(m.len(), 3); // 9, 1, 3
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(9), Some(90));
    }

    #[test]
    fn snapshot_bytes_match_hashmap() {
        // The whole point of this container: swapping it in for
        // HashMap<u64, u64> must not change snapshot bytes.
        let mut lin = SmallU64Map::new();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        for (k, v) in [(42u64, 9u64), (3, 1), (99, 0), (7, 7)] {
            lin.insert(k, v);
            std_map.insert(k, v);
        }
        assert_eq!(snapshot_bytes(&lin), snapshot_bytes(&std_map));
    }

    #[test]
    fn round_trips_through_persist() {
        let mut m = SmallU64Map::new();
        m.insert(5, 50);
        m.insert(1, 10);
        let bytes = snapshot_bytes(&m);
        let mut back = SmallU64Map::new();
        back.insert(777, 1); // stale content must be cleared
        let mut r = StateReader::new(&bytes);
        back.load(&mut r).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(5), Some(50));
        assert_eq!(back.get(1), Some(10));
        assert_eq!(back.get(777), None);
    }

    #[test]
    fn load_rejects_duplicate_keys() {
        let mut w = StateWriter::new();
        w.put_u64(2);
        for _ in 0..2 {
            4u64.save(&mut w);
            1u64.save(&mut w);
        }
        let bytes = w.into_bytes();
        let mut m = SmallU64Map::new();
        let mut r = StateReader::new(&bytes);
        assert!(m.load(&mut r).is_err());
    }
}
