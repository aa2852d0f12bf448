//! Per-node persistent storage.
//!
//! Storage outlives node crashes and restarts: a restarting node is
//! handed the same [`Storage`] handle its predecessor wrote to, while
//! everything the previous incarnation kept only in memory is gone.
//! What a protocol chooses to persist — and what it forgets to — is
//! exactly where the Xraft restart bugs live.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::net::NodeId;

/// A durable key-value store for one node.
#[derive(Debug, Default)]
pub struct Storage<V> {
    data: Mutex<BTreeMap<String, V>>,
}

impl<V: Clone> Storage<V> {
    /// Creates empty storage.
    pub fn new() -> Arc<Self> {
        Arc::new(Storage {
            data: Mutex::new(BTreeMap::new()),
        })
    }

    /// Durably writes `key`.
    pub fn put(&self, key: impl Into<String>, value: V) {
        self.data.lock().insert(key.into(), value);
    }

    /// Reads `key`.
    pub fn get(&self, key: &str) -> Option<V> {
        self.data.lock().get(key).cloned()
    }

    /// Wipes the storage (disk loss, not restart).
    pub fn wipe(&self) {
        self.data.lock().clear();
    }
}

/// The durable stores of a whole cluster, surviving node restarts.
#[derive(Debug, Default)]
pub struct ClusterStorage<V> {
    stores: Mutex<BTreeMap<NodeId, Arc<Storage<V>>>>,
}

impl<V: Clone> ClusterStorage<V> {
    /// Creates an empty cluster store.
    pub fn new() -> Arc<Self> {
        Arc::new(ClusterStorage {
            stores: Mutex::new(BTreeMap::new()),
        })
    }

    /// The storage handle for `node`, created on first use. Repeated
    /// calls — e.g. across a restart — return the same handle.
    pub fn for_node(&self, node: NodeId) -> Arc<Storage<V>> {
        self.stores
            .lock()
            .entry(node)
            .or_insert_with(|| Storage::new())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_overwrites_and_get_reads_back() {
        let s: Arc<Storage<i64>> = Storage::new();
        assert_eq!(s.get("term"), None);
        s.put("term", 2);
        s.put("term", 3);
        assert_eq!(s.get("term"), Some(3));
    }

    #[test]
    fn storage_survives_via_cluster_handle() {
        let cs: Arc<ClusterStorage<String>> = ClusterStorage::new();
        {
            let incarnation1 = cs.for_node(1);
            incarnation1.put("votedFor", "N3".to_string());
        }
        // "Restart": a fresh handle for the same node id.
        let incarnation2 = cs.for_node(1);
        assert_eq!(incarnation2.get("votedFor"), Some("N3".to_string()));
    }

    #[test]
    fn nodes_are_isolated() {
        let cs: Arc<ClusterStorage<i64>> = ClusterStorage::new();
        cs.for_node(1).put("x", 1);
        assert_eq!(cs.for_node(2).get("x"), None);
    }

    #[test]
    fn wipe_clears_everything() {
        let s: Arc<Storage<i64>> = Storage::new();
        s.put("a", 1);
        s.put("b", 2);
        s.wipe();
        assert_eq!((s.get("a"), s.get("b")), (None, None));
    }
}
