//! Per-node persistent storage.
//!
//! Storage outlives node crashes and restarts: the deployment keeps
//! one [`Storage`] per node, and a restarting node recovers from the
//! same store its predecessor wrote to, while everything the previous
//! incarnation kept only in memory is gone. What a protocol chooses to
//! persist — and what it forgets to — is exactly where the Xraft
//! restart bugs live.

use std::collections::BTreeMap;

/// A durable key-value store for one node.
#[derive(Debug, Clone)]
pub struct Storage<V> {
    data: BTreeMap<String, V>,
}

impl<V> Default for Storage<V> {
    fn default() -> Self {
        Storage {
            data: BTreeMap::new(),
        }
    }
}

impl<V: Clone> Storage<V> {
    /// Durably writes `key`.
    pub fn put(&mut self, key: impl Into<String>, value: V) {
        self.data.insert(key.into(), value);
    }

    /// Reads `key`.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.data.get(key)
    }

    /// Wipes the storage (disk loss, not restart).
    pub fn wipe(&mut self) {
        self.data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_overwrites_and_get_reads_back() {
        let mut s: Storage<i64> = Storage::default();
        assert_eq!(s.get("term"), None);
        s.put("term", 2);
        s.put("term", 3);
        assert_eq!(s.get("term"), Some(&3));
    }

    #[test]
    fn wipe_clears_everything() {
        let mut s: Storage<i64> = Storage::default();
        s.put("a", 1);
        s.put("b", 2);
        s.wipe();
        assert_eq!((s.get("a"), s.get("b")), (None, None));
    }
}
