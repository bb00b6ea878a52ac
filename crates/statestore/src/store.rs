//! The sharded, versioned in-memory map.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

const DEFAULT_SHARDS: usize = 16;

/// Result of a compare-and-swap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CasOutcome {
    /// Value stored; this is the new version.
    Stored(u64),
    /// Version mismatch; contains the current version.
    Conflict(u64),
    /// Key did not exist (CAS requires an existing key).
    Missing,
}

struct Entry {
    value: Vec<u8>,
    version: u64,
}

/// A concurrent KV store with per-key versions.
///
/// Versions increase monotonically per key across its lifetime in the map,
/// enabling optimistic concurrency for selection-state read-modify-write:
/// `get_versioned` → mutate → `cas`.
pub struct StateStore {
    shards: Vec<RwLock<HashMap<String, Entry>>>,
}

impl Default for StateStore {
    fn default() -> Self {
        Self::new()
    }
}

impl StateStore {
    /// Create a store with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Create a store with `n` shards (≥1).
    fn with_shards(n: usize) -> Self {
        let n = n.max(1);
        StateStore {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Entry>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Get a value (None if absent).
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.get_versioned(key).map(|(v, _)| v)
    }

    /// Get a value and its version.
    pub fn get_versioned(&self, key: &str) -> Option<(Vec<u8>, u64)> {
        let map = self.shard(key).read();
        map.get(key).map(|e| (e.value.clone(), e.version))
    }

    /// Set a value unconditionally. Returns the new version.
    pub fn set(&self, key: &str, value: Vec<u8>) -> u64 {
        let mut map = self.shard(key).write();
        let next_version = map.get(key).map_or(1, |e| e.version + 1);
        map.insert(
            key.to_string(),
            Entry {
                value,
                version: next_version,
            },
        );
        next_version
    }

    /// Set only if the key is absent. Returns true if stored.
    pub fn set_nx(&self, key: &str, value: Vec<u8>) -> bool {
        let mut map = self.shard(key).write();
        if map.contains_key(key) {
            return false;
        }
        map.insert(key.to_string(), Entry { value, version: 1 });
        true
    }

    /// Compare-and-swap: store `value` only if the current version equals
    /// `expected_version`.
    pub fn cas(&self, key: &str, expected_version: u64, value: Vec<u8>) -> CasOutcome {
        let mut map = self.shard(key).write();
        match map.get_mut(key) {
            Some(e) if e.version == expected_version => {
                e.value = value;
                e.version += 1;
                CasOutcome::Stored(e.version)
            }
            Some(e) => CasOutcome::Conflict(e.version),
            None => CasOutcome::Missing,
        }
    }

    /// Delete a key; returns true if it existed.
    pub fn del(&self, key: &str) -> bool {
        self.shard(key).write().remove(key).is_some()
    }

    /// All keys starting with `prefix`, sorted. O(n) over the store —
    /// a configuration-plane operation (registry rehydration, `KEYS` over
    /// the wire), not a serving-path one.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort();
        keys
    }

    /// Number of keys. O(shards): for tests and reporting.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let s = StateStore::new();
        assert!(s.get("a").is_none());
        s.set("a", b"hello".to_vec());
        assert_eq!(s.get("a").unwrap(), b"hello");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn versions_increase_monotonically() {
        let s = StateStore::new();
        let v1 = s.set("k", b"1".to_vec());
        let v2 = s.set("k", b"2".to_vec());
        assert!(v2 > v1);
        let (val, v) = s.get_versioned("k").unwrap();
        assert_eq!(val, b"2");
        assert_eq!(v, v2);
    }

    #[test]
    fn cas_happy_path_and_conflict() {
        let s = StateStore::new();
        let v = s.set("k", b"a".to_vec());
        assert_eq!(s.cas("k", v, b"b".to_vec()), CasOutcome::Stored(v + 1));
        // Stale version now conflicts.
        assert_eq!(s.cas("k", v, b"c".to_vec()), CasOutcome::Conflict(v + 1));
        assert_eq!(s.get("k").unwrap(), b"b");
        assert_eq!(s.cas("missing", 1, b"x".to_vec()), CasOutcome::Missing);
    }

    #[test]
    fn set_nx_only_first_wins() {
        let s = StateStore::new();
        assert!(s.set_nx("k", b"first".to_vec()));
        assert!(!s.set_nx("k", b"second".to_vec()));
        assert_eq!(s.get("k").unwrap(), b"first");
    }

    #[test]
    fn delete_removes() {
        let s = StateStore::new();
        s.set("k", b"v".to_vec());
        assert!(s.del("k"));
        assert!(!s.del("k"));
        assert!(s.get("k").is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_cas_allows_exactly_one_winner_per_round() {
        let s = std::sync::Arc::new(StateStore::new());
        s.set("counter", b"0".to_vec());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for _ in 0..200 {
                    let (val, ver) = s.get_versioned("counter").unwrap();
                    let n: u64 = String::from_utf8(val).unwrap().parse().unwrap();
                    if let CasOutcome::Stored(_) =
                        s.cas("counter", ver, (n + 1).to_string().into_bytes())
                    {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let final_n: u64 = String::from_utf8(s.get("counter").unwrap())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(final_n, total, "every CAS win increments exactly once");
    }

    #[test]
    fn prefix_scan_returns_sorted_live_keys() {
        let s = StateStore::new();
        s.set("config/app/b", b"1".to_vec());
        s.set("config/app/a", b"1".to_vec());
        s.set("config/model/m", b"1".to_vec());
        s.set("other", b"1".to_vec());
        assert_eq!(
            s.keys_with_prefix("config/app/"),
            vec!["config/app/a".to_string(), "config/app/b".to_string()]
        );
        assert_eq!(s.keys_with_prefix("config/").len(), 3);
    }

    #[test]
    fn single_shard_store_works() {
        let s = StateStore::with_shards(1);
        s.set("a", b"1".to_vec());
        s.set("b", b"2".to_vec());
        assert_eq!(s.len(), 2);
    }
}
