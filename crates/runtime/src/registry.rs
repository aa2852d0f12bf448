//! Shadow variables and the per-node variable registry (§4.3.1).
//!
//! For every mapped variable Mocket adds a *shadow* alongside the real
//! field: each write to the field is mirrored into the shadow, so the
//! state checker can read runtime values without perturbing the
//! system. In this Rust reproduction the mirroring is a typed cell,
//! [`Shadow<T>`], whose writes update both the in-memory value and the
//! node's [`VarRegistry`].

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mocket_tla::Value;

/// The registry holding one node's shadow values, readable by the
/// testbed at any time.
#[derive(Debug, Default)]
pub struct VarRegistry {
    vars: Mutex<BTreeMap<String, Value>>,
}

impl VarRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(VarRegistry::default())
    }

    /// Writes a shadow value directly (used by `Shadow<T>`).
    pub fn write(&self, name: &str, value: Value) {
        self.vars.lock().insert(name.to_string(), value);
    }

    /// Reads one shadow value.
    pub fn read(&self, name: &str) -> Option<Value> {
        self.vars.lock().get(name).cloned()
    }

    /// Snapshot of all shadow values (the node's `checkAllStates`
    /// payload), kept by the cluster for a node that went down.
    pub fn snapshot(&self) -> Vec<(String, Value)> {
        self.vars
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Visits every shadow value in name order under the registry's
    /// lock, copying nothing: a live node's snapshot reads through
    /// this straight into the cluster's aggregate.
    pub fn for_each(&self, mut visit: impl FnMut(&str, &Value)) {
        for (name, value) in self.vars.lock().iter() {
            visit(name, value);
        }
    }
}

/// A typed field whose writes are mirrored into the registry.
///
/// The Java version duplicates the assigned value on the JVM stack
/// into a generated `Mocket$field`; here the same guarantee — the
/// shadow always equals the field — holds by construction because all
/// writes go through [`Shadow::set`].
#[derive(Debug, Clone)]
pub struct Shadow<T> {
    name: String,
    value: T,
    registry: Arc<VarRegistry>,
}

impl<T: Clone + Into<Value>> Shadow<T> {
    /// Creates the shadow with its initial value (mirrored
    /// immediately, like the initializer in Figure 4b line 5).
    pub fn new(name: impl Into<String>, initial: T, registry: Arc<VarRegistry>) -> Self {
        let name = name.into();
        registry.write(&name, initial.clone().into());
        Shadow {
            name,
            value: initial,
            registry,
        }
    }

    /// Reads the current value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Writes the field, mirroring into the registry.
    pub fn set(&mut self, value: T) {
        self.registry.write(&self.name, value.clone().into());
        self.value = value;
    }

    /// Updates through a closure (read-modify-write).
    pub fn update<F: FnOnce(&T) -> T>(&mut self, f: F) {
        let next = f(&self.value);
        self.set(next);
    }

    /// The mapped variable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_mirrors_initial_value() {
        let reg = VarRegistry::new();
        let s = Shadow::new("term", 0i64, reg.clone());
        assert_eq!(reg.read("term"), Some(Value::Int(0)));
        assert_eq!(*s.get(), 0);
    }

    #[test]
    fn shadow_mirrors_every_write() {
        let reg = VarRegistry::new();
        let mut s = Shadow::new("term", 0i64, reg.clone());
        s.set(2);
        assert_eq!(reg.read("term"), Some(Value::Int(2)));
        s.update(|t| t + 1);
        assert_eq!(*s.get(), 3);
        assert_eq!(reg.read("term"), Some(Value::Int(3)));
    }

    #[test]
    fn snapshot_collects_all_shadows() {
        let reg = VarRegistry::new();
        let _a = Shadow::new("term", 1i64, reg.clone());
        let _b = Shadow::new("state", "STATE_FOLLOWER", reg.clone());
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(reg.read("state"), Some(Value::str("STATE_FOLLOWER")));
    }

    #[test]
    fn registry_read_of_unknown_is_none() {
        let reg = VarRegistry::new();
        assert_eq!(reg.read("nope"), None);
    }
}
