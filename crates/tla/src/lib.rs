//! TLA+-style modeling substrate for Mocket.
//!
//! This crate provides the value universe ([`Value`]), specification
//! states ([`State`]), fingerprinting, and the specification framework
//! ([`Spec`], [`ActionDef`]) that the model checker in
//! `mocket-checker` explores. It plays the role of the TLA+ language
//! and toolbox in the paper's pipeline: specifications for Raft, ZAB
//! and the Figure 1 example are written against this API.

pub mod fingerprint;
pub mod parse;
pub mod spec;
pub mod state;
pub mod value;

pub use fingerprint::{fingerprint_value, Fingerprinter};
pub use parse::{
    parse_action_instance, parse_state, parse_state_memo, parse_value, ParseError,
};
pub use spec::{
    successors, successors_with, ActionClass, ActionDef, ActionInstance, Spec,
    VarClass, VarDef,
};
pub use state::State;
pub use value::Value;
