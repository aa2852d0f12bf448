//! Shadow variables and the per-node variable registry (§4.3.1).
//!
//! For every mapped variable Mocket adds a *shadow* alongside the real
//! field: each write to the field is mirrored into the shadow, so the
//! state checker can read runtime values without perturbing the
//! system. In this Rust reproduction the mirroring is a typed cell,
//! [`Shadow<T>`], whose writes update both the in-memory value and the
//! node's [`VarRegistry`]. The deployment owns each node's registry
//! and lends it to the node's steps through its `NodeCx`.

use std::collections::BTreeMap;

use mocket_tla::Value;

/// The registry holding one node's shadow values, readable by the
/// testbed between steps.
#[derive(Debug, Clone, Default)]
pub struct VarRegistry {
    vars: BTreeMap<String, Value>,
}

impl VarRegistry {
    /// Writes a shadow value directly (used by `Shadow<T>`).
    pub fn write(&mut self, name: &str, value: Value) {
        match self.vars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.vars.insert(name.to_string(), value);
            }
        }
    }

    /// Reads one shadow value.
    pub fn read(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Visits every shadow value in name order, copying nothing: a
    /// snapshot reads through this straight into the cluster's
    /// aggregate.
    pub fn for_each(&self, mut visit: impl FnMut(&str, &Value)) {
        for (name, value) in &self.vars {
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
    name: &'static str,
    value: T,
}

impl<T: Clone + Into<Value>> Shadow<T> {
    /// Creates the shadow with its initial value (mirrored
    /// immediately, like the initializer in Figure 4b line 5).
    pub fn new(name: &'static str, initial: T, vars: &mut VarRegistry) -> Self {
        vars.write(name, initial.clone().into());
        Shadow {
            name,
            value: initial,
        }
    }

    /// Reads the current value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Writes the field, mirroring into the registry.
    pub fn set(&mut self, vars: &mut VarRegistry, value: T) {
        vars.write(self.name, value.clone().into());
        self.value = value;
    }

    /// Updates through a closure (read-modify-write).
    pub fn update<F: FnOnce(&T) -> T>(&mut self, vars: &mut VarRegistry, f: F) {
        let next = f(&self.value);
        self.set(vars, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_mirrors_initial_value() {
        let mut reg = VarRegistry::default();
        let s = Shadow::new("term", 0i64, &mut reg);
        assert_eq!(reg.read("term"), Some(&Value::Int(0)));
        assert_eq!(*s.get(), 0);
    }

    #[test]
    fn shadow_mirrors_every_write() {
        let mut reg = VarRegistry::default();
        let mut s = Shadow::new("term", 0i64, &mut reg);
        s.set(&mut reg, 2);
        assert_eq!(reg.read("term"), Some(&Value::Int(2)));
        s.update(&mut reg, |t| t + 1);
        assert_eq!(*s.get(), 3);
        assert_eq!(reg.read("term"), Some(&Value::Int(3)));
    }

    #[test]
    fn for_each_visits_all_shadows_in_name_order() {
        let mut reg = VarRegistry::default();
        let _a = Shadow::new("term", 1i64, &mut reg);
        let _b = Shadow::new("state", "STATE_FOLLOWER", &mut reg);
        let mut names = Vec::new();
        reg.for_each(|name, _| names.push(name.to_string()));
        assert_eq!(names, ["state", "term"]);
        assert_eq!(reg.read("state"), Some(&Value::str("STATE_FOLLOWER")));
    }

    #[test]
    fn registry_read_of_unknown_is_none() {
        let reg = VarRegistry::default();
        assert_eq!(reg.read("nope"), None);
    }
}
