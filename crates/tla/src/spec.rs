//! The specification framework.
//!
//! A [`Spec`] plays the role of a TLA+ module: it declares variables
//! (classified as in §4.1.1 of the paper), constants, initial states
//! and actions (classified as in §4.1.2). Each [`ActionDef`] is a
//! guarded transition: it enumerates candidate parameter tuples for a
//! state and, for each tuple, either produces the successor state or
//! reports that the action is disabled.

use std::fmt;
use std::sync::Arc;

use crate::state::State;
use crate::value::Value;

/// The purpose of a variable in the specification (§4.1.1).
///
/// The class determines how Mocket maps the variable onto the
/// implementation: state-related variables map to shadow fields,
/// message-related variables map to testbed message pools, and action
/// counters / auxiliary variables are not mapped at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarClass {
    /// Expresses system state (e.g. `state[i]`, `votedFor[i]`).
    StateRelated,
    /// An unordered set of on-the-fly messages (e.g. `messages`).
    MessageRelated,
    /// Restricts the state space (e.g. `clientRequests`); unmapped.
    ActionCounter,
    /// Eases expression/verification only (e.g. `stage`); unmapped.
    Auxiliary,
}

/// A declared specification variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDef {
    /// The variable's name as written in the specification.
    pub name: String,
    /// Its mapping class.
    pub class: VarClass,
}

impl VarDef {
    /// Declares a variable with the given class.
    pub fn new(name: impl Into<String>, class: VarClass) -> Self {
        VarDef {
            name: name.into(),
            class,
        }
    }
}

/// How an action maps onto the implementation (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Executed within a single node (e.g. `BecomeLeader`).
    SingleNode,
    /// Sends a message (e.g. `RequestVote(i, j)`).
    MessageSend,
    /// Receives and handles a message (e.g. `HandleRequestVoteRequest`).
    MessageReceive,
    /// Node crash / restart / message drop / duplicate; triggered by
    /// the testbed, not by the system itself.
    ExternalFault,
    /// Client operations (e.g. `ClientRequest`); triggered by scripts.
    UserRequest,
}

/// A concrete occurrence of an action: name plus parameter values.
///
/// This labels an edge of the state-space graph, one step of a test
/// case, and one notification from the system under test.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionInstance {
    /// The action's name in the specification.
    pub name: String,
    /// The actual parameter values, in declaration order.
    pub params: Vec<Value>,
}

impl ActionInstance {
    /// Creates an instance from a name and parameters.
    pub fn new(name: impl Into<String>, params: Vec<Value>) -> Self {
        ActionInstance {
            name: name.into(),
            params,
        }
    }

    /// Creates a parameterless instance.
    pub fn nullary(name: impl Into<String>) -> Self {
        ActionInstance::new(name, Vec::new())
    }
}

impl fmt::Display for ActionInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Enumerates candidate parameter tuples for an action in a state.
pub type ParamEnum = Arc<dyn Fn(&State) -> Vec<Vec<Value>> + Send + Sync>;

/// The guarded effect: `Some(next)` if enabled with these parameters.
pub type Effect = Arc<dyn Fn(&State, &[Value]) -> Option<State> + Send + Sync>;

/// One action of the specification.
#[derive(Clone)]
pub struct ActionDef {
    /// The action's name (e.g. `"RequestVote"`).
    pub name: String,
    /// Its mapping class.
    pub class: ActionClass,
    params: ParamEnum,
    effect: Effect,
}

impl ActionDef {
    /// Defines a parameterless action with the given effect.
    pub fn nullary<F>(name: impl Into<String>, class: ActionClass, effect: F) -> Self
    where
        F: Fn(&State) -> Option<State> + Send + Sync + 'static,
    {
        ActionDef {
            name: name.into(),
            class,
            params: Arc::new(|_| vec![Vec::new()]),
            effect: Arc::new(move |s, _| effect(s)),
        }
    }

    /// Defines a parameterized action: `params` enumerates candidate
    /// tuples, `effect` is the guarded transition per tuple.
    pub fn with_params<P, F>(
        name: impl Into<String>,
        class: ActionClass,
        params: P,
        effect: F,
    ) -> Self
    where
        P: Fn(&State) -> Vec<Vec<Value>> + Send + Sync + 'static,
        F: Fn(&State, &[Value]) -> Option<State> + Send + Sync + 'static,
    {
        ActionDef {
            name: name.into(),
            class,
            params: Arc::new(params),
            effect: Arc::new(effect),
        }
    }

    /// Candidate parameter tuples for `state`.
    pub fn candidate_params(&self, state: &State) -> Vec<Vec<Value>> {
        (self.params)(state)
    }

    /// Applies the action; `None` when the guard fails.
    pub fn apply(&self, state: &State, params: &[Value]) -> Option<State> {
        (self.effect)(state, params)
    }
}

impl fmt::Debug for ActionDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActionDef")
            .field("name", &self.name)
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

/// A specification: the Rust analog of a TLA+ module plus its model
/// (constant assignment).
pub trait Spec: Send + Sync {
    /// The module name.
    fn name(&self) -> &str;

    /// Declared variables with their classes.
    fn variables(&self) -> Vec<VarDef>;

    /// The set of initial states (`Init`).
    fn init_states(&self) -> Vec<State>;

    /// The actions of `Next`, in declaration order.
    fn actions(&self) -> Vec<ActionDef>;
}

/// All `(action instance, successor)` pairs from `state` under `spec`.
///
/// This is the `Next` relation TLC evaluates when exploring: every
/// action, every candidate parameter tuple, filtered by guards.
pub fn successors(spec: &dyn Spec, state: &State) -> Vec<(ActionInstance, State)> {
    successors_with(&spec.actions(), state)
}

/// [`successors`] against a pre-built action list — callers exploring
/// many states should call `spec.actions()` once and reuse it.
pub fn successors_with(actions: &[ActionDef], state: &State) -> Vec<(ActionInstance, State)> {
    let mut out = Vec::new();
    for action in actions {
        for params in action.candidate_params(state) {
            if let Some(next) = action.apply(state, &params) {
                out.push((ActionInstance::new(action.name.clone(), params), next));
            }
        }
    }
    out
}

/// The action instances enabled in `state` (successors without the
/// target states).
pub fn enabled_actions(spec: &dyn Spec, state: &State) -> Vec<ActionInstance> {
    successors(spec, state)
        .into_iter()
        .map(|(a, _)| a)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-variable counter spec used across the framework tests:
    /// `Inc` bumps `n` until it reaches 2; `Flip` toggles `b`.
    pub struct Counter;

    impl Spec for Counter {
        fn name(&self) -> &str {
            "Counter"
        }

        fn variables(&self) -> Vec<VarDef> {
            vec![
                VarDef::new("n", VarClass::StateRelated),
                VarDef::new("b", VarClass::StateRelated),
            ]
        }

        fn init_states(&self) -> Vec<State> {
            vec![State::from_pairs([
                ("n", Value::Int(0)),
                ("b", Value::Bool(false)),
            ])]
        }

        fn actions(&self) -> Vec<ActionDef> {
            vec![
                ActionDef::nullary("Inc", ActionClass::SingleNode, |s| {
                    let n = s.expect("n").expect_int();
                    (n < 2).then(|| s.with("n", Value::Int(n + 1)))
                }),
                ActionDef::nullary("Flip", ActionClass::SingleNode, |s| {
                    let b = s.expect("b") == &Value::Bool(true);
                    Some(s.with("b", Value::Bool(!b)))
                }),
            ]
        }
    }

    #[test]
    fn successors_enumerate_enabled_actions() {
        let spec = Counter;
        let init = &spec.init_states()[0];
        let succ = successors(&spec, init);
        assert_eq!(succ.len(), 2);
        let names: Vec<_> = succ.iter().map(|(a, _)| a.name.as_str()).collect();
        assert_eq!(names, ["Inc", "Flip"]);
    }

    #[test]
    fn guards_disable_actions() {
        let spec = Counter;
        let s = State::from_pairs([("n", Value::Int(2)), ("b", Value::Bool(false))]);
        let names: Vec<_> = enabled_actions(&spec, &s)
            .into_iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(names, ["Flip"], "Inc must be disabled at n = 2");
    }

    #[test]
    fn parameterized_action_enumerates_tuples() {
        let a = ActionDef::with_params(
            "Pick",
            ActionClass::UserRequest,
            |_s| vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            |s, ps| Some(s.with("n", ps[0].clone())),
        );
        let s = State::from_pairs([("n", Value::Int(0))]);
        assert_eq!(a.candidate_params(&s).len(), 2);
        let next = a.apply(&s, &[Value::Int(2)]).unwrap();
        assert_eq!(next.expect("n"), &Value::Int(2));
    }

    #[test]
    fn action_instance_display() {
        assert_eq!(ActionInstance::nullary("Respond").to_string(), "Respond");
        assert_eq!(
            ActionInstance::new("RequestVote", vec![Value::Int(1), Value::Int(2)]).to_string(),
            "RequestVote(1, 2)"
        );
    }
}
