//! Mapping a specification to its implementation (§4.1).
//!
//! The registry records, per specification element, where it lives in
//! the implementation: variables map to class fields or method
//! variables (§4.1.1), actions map to methods or code snippets
//! (§4.1.2), and constants map value-to-value (§4.1.3). Action
//! counters and auxiliary variables deliberately have no mapping.
//!
//! [`MappingRegistry::validate`] detects the developer-introduced
//! mapping errors §5.4 describes (e.g. a miswritten action name),
//! before any testing time is spent.

use std::borrow::Cow;
use std::collections::BTreeMap;

use mocket_tla::{ActionClass, ActionInstance, Spec, Value, VarClass};

/// How a collected value is compared against the spec value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompareMode {
    /// Structural equality after constant translation.
    #[default]
    Exact,
    /// The implementation keeps only a count where the specification
    /// keeps a collection: an `Int(k)` matches a spec collection of
    /// cardinality `k` (how Xraft's integer `votesGranted` is mapped
    /// onto the spec's voter set). Applied pointwise through
    /// node-indexed functions.
    Cardinality,
}

/// Where a state-related variable lives in the implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarTarget {
    /// A class field annotated with `@Variable` (Figure 4b).
    ClassField {
        /// The field's name in the implementation.
        impl_name: String,
    },
    /// A method-local variable recorded as a
    /// `<SpecName, ImplName, Location>` configuration tuple.
    MethodVariable {
        /// The local variable's name.
        impl_name: String,
        /// `file:line` of its declaration.
        location: String,
    },
    /// A message-related variable: lives in the testbed's message
    /// pool of the given name, not in the implementation.
    MessagePool {
        /// The pool name (equals the spec variable name by default).
        pool: String,
        /// Whether the pool is a bag (multiset) or plain set.
        bag: bool,
    },
}

/// One variable mapping entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableMapping {
    /// The TLA+ variable name.
    pub spec_name: String,
    /// Its class (must agree with the specification's declaration).
    pub class: VarClass,
    /// Where it lives, for mapped classes.
    pub target: Option<VarTarget>,
    /// How values are compared.
    pub compare: CompareMode,
}

/// How an action was mapped (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionBinding {
    /// `@Action` annotation on a whole method.
    Method,
    /// `Action.begin`/`Action.end` around a code snippet.
    Snippet,
    /// External script invocation (faults and user requests).
    Script,
}

/// One action mapping entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionMapping {
    /// The TLA+ action name.
    pub spec_name: String,
    /// The implementation-side name the hook reports.
    pub impl_name: String,
    /// The action's class.
    pub class: ActionClass,
    /// How it is bound.
    pub binding: ActionBinding,
}

/// Constant translation (§4.1.3): e.g. impl `"STATE_FOLLOWER"` → spec
/// `"Follower"`. The harness only ever reads the implementation, so
/// only that direction exists.
#[derive(Debug, Clone, Default)]
pub struct ConstMap {
    impl_to_spec: BTreeMap<Value, Value>,
}

impl ConstMap {
    /// Creates an empty map (identity translation).
    pub fn new() -> Self {
        ConstMap::default()
    }

    /// Registers `impl_v → spec`.
    pub fn bind(&mut self, spec: Value, impl_v: Value) {
        self.impl_to_spec.insert(impl_v, spec);
    }

    /// Translates a single implementation value into the spec domain,
    /// recursing through collections.
    pub fn to_spec(&self, v: &Value) -> Value {
        if let Some(s) = self.impl_to_spec.get(v) {
            return s.clone();
        }
        let f = |x| self.to_spec(x);
        match v {
            Value::Set(s) => Value::Set(s.iter().map(f).collect()),
            Value::Seq(s) => Value::Seq(s.iter().map(f).collect()),
            Value::Record(r) => Value::Record(r.iter().map(|(k, x)| (k.clone(), f(x))).collect()),
            Value::Fun(m) => Value::Fun(m.iter().map(|(k, x)| (f(k), f(x))).collect()),
            other => other.clone(),
        }
    }

    /// [`to_spec`](Self::to_spec) without the copy: borrows `v` when no
    /// part of it is a mapped implementation constant — translation
    /// would be the identity — and builds the owned translation only
    /// otherwise. The state checker and the offer matcher compare
    /// through this view, so a passing step allocates nothing.
    pub fn view<'a>(&self, v: &'a Value) -> Cow<'a, Value> {
        if !self.impl_to_spec.is_empty() && self.translates(v) {
            Cow::Owned(self.to_spec(v))
        } else {
            Cow::Borrowed(v)
        }
    }

    /// Whether `v` or any value inside it is a mapped constant.
    fn translates(&self, v: &Value) -> bool {
        let f = |x| self.translates(x);
        self.impl_to_spec.contains_key(v)
            || match v {
                Value::Set(s) => s.iter().any(f),
                Value::Seq(s) => s.iter().any(f),
                Value::Record(r) => r.values().any(f),
                Value::Fun(m) => m.iter().any(|(k, x)| f(k) || f(x)),
                _ => false,
            }
    }
}

/// The complete spec↔implementation mapping for one target system.
#[derive(Debug, Clone, Default)]
pub struct MappingRegistry {
    variables: Vec<VariableMapping>,
    actions: Vec<ActionMapping>,
    consts: ConstMap,
}

/// A problem found by [`MappingRegistry::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingIssue {
    /// A state- or message-related spec variable has no mapping.
    UnmappedVariable(String),
    /// A counter/auxiliary variable was mapped (it must not be).
    OvermappedVariable(String),
    /// A spec action has no mapping.
    UnmappedAction(String),
    /// A mapping references a name absent from the specification —
    /// the miswritten-annotation error of §5.4.
    UnknownSpecName(String),
    /// Two mappings claim the same spec name.
    DuplicateMapping(String),
}

impl std::fmt::Display for MappingIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingIssue::UnmappedVariable(n) => write!(f, "variable {n:?} is not mapped"),
            MappingIssue::OvermappedVariable(n) => {
                write!(
                    f,
                    "variable {n:?} is a counter/auxiliary and must not be mapped"
                )
            }
            MappingIssue::UnmappedAction(n) => write!(f, "action {n:?} is not mapped"),
            MappingIssue::UnknownSpecName(n) => {
                write!(f, "mapping references unknown spec element {n:?}")
            }
            MappingIssue::DuplicateMapping(n) => {
                write!(f, "spec element {n:?} is mapped more than once")
            }
        }
    }
}

impl MappingRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MappingRegistry::default()
    }

    /// Maps a state-related variable to an annotated class field.
    pub fn map_class_field(
        &mut self,
        spec_name: impl Into<String>,
        impl_name: impl Into<String>,
    ) -> &mut Self {
        self.variables.push(VariableMapping {
            spec_name: spec_name.into(),
            class: VarClass::StateRelated,
            target: Some(VarTarget::ClassField {
                impl_name: impl_name.into(),
            }),
            compare: CompareMode::Exact,
        });
        self
    }

    /// Like [`map_class_field`](Self::map_class_field) but compared by
    /// cardinality (implementation keeps a count of a spec
    /// collection).
    pub fn map_class_field_cardinality(
        &mut self,
        spec_name: impl Into<String>,
        impl_name: impl Into<String>,
    ) -> &mut Self {
        self.variables.push(VariableMapping {
            spec_name: spec_name.into(),
            class: VarClass::StateRelated,
            target: Some(VarTarget::ClassField {
                impl_name: impl_name.into(),
            }),
            compare: CompareMode::Cardinality,
        });
        self
    }

    /// Maps a state-related variable to a method variable via the
    /// `<SpecName, ImplName, Location>` configuration tuple.
    pub fn map_method_variable(
        &mut self,
        spec_name: impl Into<String>,
        impl_name: impl Into<String>,
        location: impl Into<String>,
    ) -> &mut Self {
        self.variables.push(VariableMapping {
            spec_name: spec_name.into(),
            class: VarClass::StateRelated,
            target: Some(VarTarget::MethodVariable {
                impl_name: impl_name.into(),
                location: location.into(),
            }),
            compare: CompareMode::Exact,
        });
        self
    }

    /// Declares a message pool for a message-related variable.
    pub fn map_message_pool(&mut self, spec_name: impl Into<String>, bag: bool) -> &mut Self {
        let spec_name = spec_name.into();
        self.variables.push(VariableMapping {
            spec_name: spec_name.clone(),
            class: VarClass::MessageRelated,
            target: Some(VarTarget::MessagePool {
                pool: spec_name,
                bag,
            }),
            compare: CompareMode::Exact,
        });
        self
    }

    /// Maps an action.
    pub fn map_action(
        &mut self,
        spec_name: impl Into<String>,
        impl_name: impl Into<String>,
        class: ActionClass,
        binding: ActionBinding,
    ) -> &mut Self {
        self.actions.push(ActionMapping {
            spec_name: spec_name.into(),
            impl_name: impl_name.into(),
            class,
            binding,
        });
        self
    }

    /// Registers a constant translation.
    pub fn bind_const(&mut self, spec: Value, impl_v: Value) -> &mut Self {
        self.consts.bind(spec, impl_v);
        self
    }

    /// The constant map.
    pub fn consts(&self) -> &ConstMap {
        &self.consts
    }

    /// All variable mappings.
    pub fn variables(&self) -> &[VariableMapping] {
        &self.variables
    }

    /// All action mappings.
    pub fn actions(&self) -> &[ActionMapping] {
        &self.actions
    }

    /// Looks up a variable mapping by spec name.
    pub fn variable_by_spec_name(&self, spec_name: &str) -> Option<&VariableMapping> {
        self.variables.iter().find(|v| v.spec_name == spec_name)
    }

    /// Looks up an action mapping by implementation name.
    pub fn action_by_impl_name(&self, impl_name: &str) -> Option<&ActionMapping> {
        self.actions.iter().find(|a| a.impl_name == impl_name)
    }

    /// Looks up an action mapping by spec name.
    pub fn action_by_spec_name(&self, spec_name: &str) -> Option<&ActionMapping> {
        self.actions.iter().find(|a| a.spec_name == spec_name)
    }

    /// Translates an implementation-side action notification into the
    /// spec domain: maps the name and translates every parameter
    /// through the constant map. Returns `None` for unmapped names.
    /// The scheduler's matcher (`scheduler::find_match`) answers
    /// "does this translate to the scheduled action?" without building
    /// the translation; this owned form is for diagnostics.
    pub fn offer_to_spec(&self, impl_action: &ActionInstance) -> Option<ActionInstance> {
        let mapping = self.action_by_impl_name(&impl_action.name)?;
        Some(ActionInstance::new(
            mapping.spec_name.clone(),
            impl_action
                .params
                .iter()
                .map(|p| self.consts.to_spec(p))
                .collect(),
        ))
    }

    /// Lines-of-code analog for Table 1: one entry per mapping plus
    /// one extra per message-related action for `Action.getMsg`
    /// (mapping message-related actions "requires more effort", §5.2).
    pub fn mapping_loc(&self) -> usize {
        let var_loc = self.variables.len();
        let action_loc: usize = self
            .actions
            .iter()
            .map(|a| match a.class {
                ActionClass::MessageSend | ActionClass::MessageReceive => 10,
                _ => 5,
            })
            .sum();
        var_loc + action_loc
    }

    /// Validates the registry against a specification, returning every
    /// issue found.
    pub fn validate(&self, spec: &dyn Spec) -> Vec<MappingIssue> {
        let mut issues = Vec::new();
        let spec_vars = spec.variables();
        let spec_actions = spec.actions();

        for v in &spec_vars {
            let mapped = self.variable_by_spec_name(&v.name).is_some();
            match v.class {
                VarClass::StateRelated | VarClass::MessageRelated => {
                    if !mapped {
                        issues.push(MappingIssue::UnmappedVariable(v.name.clone()));
                    }
                }
                VarClass::ActionCounter | VarClass::Auxiliary => {
                    if mapped {
                        issues.push(MappingIssue::OvermappedVariable(v.name.clone()));
                    }
                }
            }
        }
        for a in &spec_actions {
            if self.action_by_spec_name(&a.name).is_none() {
                issues.push(MappingIssue::UnmappedAction(a.name.clone()));
            }
        }
        for vm in &self.variables {
            if !spec_vars.iter().any(|v| v.name == vm.spec_name) {
                issues.push(MappingIssue::UnknownSpecName(vm.spec_name.clone()));
            }
        }
        for am in &self.actions {
            if !spec_actions.iter().any(|a| a.name == am.spec_name) {
                issues.push(MappingIssue::UnknownSpecName(am.spec_name.clone()));
            }
        }
        let mut names: Vec<&str> = self
            .variables
            .iter()
            .map(|v| v.spec_name.as_str())
            .chain(self.actions.iter().map(|a| a.spec_name.as_str()))
            .collect();
        names.sort_unstable();
        for w in names.windows(2) {
            if w[0] == w[1] {
                issues.push(MappingIssue::DuplicateMapping(w[0].to_string()));
            }
        }
        issues.dedup();
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::{ActionDef, State, VarDef};

    struct TinySpec;

    impl Spec for TinySpec {
        fn name(&self) -> &str {
            "Tiny"
        }

        fn variables(&self) -> Vec<VarDef> {
            vec![
                VarDef::new("nodeState", VarClass::StateRelated),
                VarDef::new("messages", VarClass::MessageRelated),
                VarDef::new("clientRequests", VarClass::ActionCounter),
                VarDef::new("stage", VarClass::Auxiliary),
            ]
        }

        fn init_states(&self) -> Vec<State> {
            vec![State::new()]
        }

        fn actions(&self) -> Vec<ActionDef> {
            vec![
                ActionDef::nullary("BecomeLeader", ActionClass::SingleNode, |s| Some(s.clone())),
                ActionDef::nullary("Crash", ActionClass::ExternalFault, |s| Some(s.clone())),
            ]
        }
    }

    fn good_registry() -> MappingRegistry {
        let mut r = MappingRegistry::new();
        r.map_class_field("nodeState", "state")
            .map_message_pool("messages", true)
            .map_action(
                "BecomeLeader",
                "becomeLeader",
                ActionClass::SingleNode,
                ActionBinding::Method,
            )
            .map_action(
                "Crash",
                "crash.sh",
                ActionClass::ExternalFault,
                ActionBinding::Script,
            );
        r.bind_const(Value::str("Follower"), Value::str("STATE_FOLLOWER"));
        r.bind_const(Value::str("Leader"), Value::str("STATE_LEADER"));
        r
    }

    #[test]
    fn valid_registry_has_no_issues() {
        assert!(good_registry().validate(&TinySpec).is_empty());
    }

    #[test]
    fn unmapped_variable_and_action_detected() {
        let r = MappingRegistry::new();
        let issues = r.validate(&TinySpec);
        assert!(issues.contains(&MappingIssue::UnmappedVariable("nodeState".into())));
        assert!(issues.contains(&MappingIssue::UnmappedVariable("messages".into())));
        assert!(issues.contains(&MappingIssue::UnmappedAction("BecomeLeader".into())));
    }

    #[test]
    fn overmapped_counter_detected() {
        let mut r = good_registry();
        r.map_class_field("clientRequests", "requestCount");
        assert!(r
            .validate(&TinySpec)
            .contains(&MappingIssue::OvermappedVariable("clientRequests".into())));
    }

    #[test]
    fn miswritten_action_name_detected() {
        // The §5.4 developer error: annotating with a wrong name.
        let mut r = good_registry();
        r.map_action(
            "BecomeLeadr",
            "becomeLeader2",
            ActionClass::SingleNode,
            ActionBinding::Method,
        );
        assert!(r
            .validate(&TinySpec)
            .contains(&MappingIssue::UnknownSpecName("BecomeLeadr".into())));
    }

    #[test]
    fn duplicate_mapping_detected() {
        let mut r = good_registry();
        r.map_class_field("nodeState", "otherField");
        assert!(r
            .validate(&TinySpec)
            .contains(&MappingIssue::DuplicateMapping("nodeState".into())));
    }

    #[test]
    fn const_map_translates_deeply() {
        let r = good_registry();
        let impl_v = Value::fun([
            (Value::Int(1), Value::str("STATE_LEADER")),
            (Value::Int(2), Value::str("STATE_FOLLOWER")),
        ]);
        let spec_v = r.consts().to_spec(&impl_v);
        assert_eq!(
            spec_v,
            Value::fun([
                (Value::Int(1), Value::str("Leader")),
                (Value::Int(2), Value::str("Follower")),
            ])
        );
    }

    #[test]
    fn view_borrows_unless_a_constant_is_inside() {
        let r = good_registry();
        let plain = Value::fun([(Value::Int(1), Value::seq([Value::str("x")]))]);
        assert!(matches!(r.consts().view(&plain), Cow::Borrowed(_)));
        let mapped = Value::set([Value::Int(1), Value::str("STATE_LEADER")]);
        let view = r.consts().view(&mapped);
        assert!(matches!(view, Cow::Owned(_)));
        assert_eq!(*view, r.consts().to_spec(&mapped));
    }

    #[test]
    fn offer_translation_maps_name_and_params() {
        let r = good_registry();
        let offer = ActionInstance::new("becomeLeader", vec![Value::str("STATE_LEADER")]);
        let spec = r.offer_to_spec(&offer).unwrap();
        assert_eq!(spec.name, "BecomeLeader");
        assert_eq!(spec.params, vec![Value::str("Leader")]);
        assert!(r.offer_to_spec(&ActionInstance::nullary("nope")).is_none());
    }

    #[test]
    fn mapping_loc_weights_message_actions() {
        let mut r = MappingRegistry::new();
        r.map_action("A", "a", ActionClass::SingleNode, ActionBinding::Method);
        r.map_action("B", "b", ActionClass::MessageSend, ActionBinding::Method);
        assert_eq!(r.mapping_loc(), 15);
    }
}
