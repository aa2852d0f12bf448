//! The Figure 1 example specification.
//!
//! A server stores client data in a set `cache` and answers each
//! request with `Max` if the requested datum is the largest cached so
//! far, `NotMax` otherwise. With `Data = {1, 2}` the state space is
//! the 13-state graph of the paper's Figure 2.

use mocket_tla::{ActionClass, ActionDef, Spec, State, Value, VarClass, VarDef};

/// Model constants for [`CacheMax`]: the set `Data` of values a client
/// may request.
#[derive(Debug, Clone)]
pub struct CacheMax {
    /// The `Data` constant.
    pub data: Vec<i64>,
}

impl CacheMax {
    /// The paper's model: `Data = {1, 2}`.
    pub fn paper_model() -> Self {
        CacheMax { data: vec![1, 2] }
    }

    /// A model with `Data = 1..=n`.
    pub fn with_data_size(n: i64) -> Self {
        CacheMax {
            data: (1..=n).collect(),
        }
    }
}

/// `getMax(S) == CHOOSE t \in S : \A s \in S : t >= s` (Figure 1).
fn get_max(s: &Value) -> Option<&Value> {
    s.choose_max()
}

impl Spec for CacheMax {
    fn name(&self) -> &str {
        "CacheMax"
    }

    fn variables(&self) -> Vec<VarDef> {
        vec![
            VarDef::new("msg", VarClass::StateRelated),
            VarDef::new("cache", VarClass::StateRelated),
            // `stage` controls the Request/Respond alternation only.
            VarDef::new("stage", VarClass::Auxiliary),
        ]
    }

    fn init_states(&self) -> Vec<State> {
        vec![State::from_pairs([
            ("msg", Value::Nil),
            ("stage", Value::str("request")),
            ("cache", Value::empty_set()),
        ])]
    }

    fn actions(&self) -> Vec<ActionDef> {
        let data = self.data.clone();
        vec![
            // Request(d): the client sends datum d to the server.
            ActionDef::with_params(
                "Request",
                ActionClass::UserRequest,
                move |_s| data.iter().map(|&d| vec![Value::Int(d)]).collect(),
                |s, ps| {
                    (s.expect("stage").as_str() == Some("request")).then(|| {
                        s.with("stage", Value::str("respond"))
                            .with("msg", ps[0].clone())
                    })
                },
            ),
            // Respond: the server caches the datum and answers.
            ActionDef::nullary("Respond", ActionClass::SingleNode, |s| {
                (s.expect("stage").as_str() == Some("respond")).then(|| {
                    let cache2 = s.expect("cache").with_elem(s.expect("msg").clone());
                    let answer = if get_max(&cache2) == Some(s.expect("msg")) {
                        Value::str("Max")
                    } else {
                        Value::str("NotMax")
                    };
                    s.with("stage", Value::str("request"))
                        .with("cache", cache2)
                        .with("msg", answer)
                })
            }),
        ]
    }
}

/// The invariant of Figure 1, line 22:
/// `Cardinality(cache) <= Cardinality(Data)`.
pub fn cache_bounded_invariant(data_size: usize) -> mocket_checker::Invariant {
    mocket_checker::Invariant::new("CacheBounded", move |s: &State| {
        s.expect("cache").cardinality() <= data_size
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::successors;

    #[test]
    fn init_matches_figure1() {
        let spec = CacheMax::paper_model();
        let init = spec.init_states();
        assert_eq!(init.len(), 1);
        assert_eq!(init[0].expect("msg"), &Value::Nil);
        assert_eq!(init[0].expect("cache"), &Value::empty_set());
        assert_eq!(init[0].expect("stage"), &Value::str("request"));
    }

    #[test]
    fn request_and_respond_alternate() {
        let spec = CacheMax::paper_model();
        let init = &spec.init_states()[0];
        let names: Vec<_> = successors(&spec, init)
            .into_iter()
            .map(|(a, _)| a.to_string())
            .collect();
        assert_eq!(names, ["Request(1)", "Request(2)"]);

        let (_, after_request) = successors(&spec, init).remove(0);
        let names: Vec<_> = successors(&spec, &after_request)
            .into_iter()
            .map(|(a, _)| a.to_string())
            .collect();
        assert_eq!(names, ["Respond"]);
    }

    #[test]
    fn respond_answers_max_vs_notmax() {
        let spec = CacheMax::paper_model();
        // Cache {2} and request 1: 1 is not the max of {1, 2}.
        let s = State::from_pairs([
            ("msg", Value::Int(1)),
            ("stage", Value::str("respond")),
            ("cache", Value::set([Value::Int(2)])),
        ]);
        let succ = successors(&spec, &s);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].1.expect("msg"), &Value::str("NotMax"));

        // Request 2 on cache {1}: 2 is the max.
        let s = State::from_pairs([
            ("msg", Value::Int(2)),
            ("stage", Value::str("respond")),
            ("cache", Value::set([Value::Int(1)])),
        ]);
        let succ = successors(&spec, &s);
        assert_eq!(succ[0].1.expect("msg"), &Value::str("Max"));
    }

    #[test]
    fn variable_classes_match_section_4_1_1() {
        let spec = CacheMax::paper_model();
        let vars = spec.variables();
        let stage = vars.iter().find(|v| v.name == "stage").unwrap();
        assert_eq!(stage.class, VarClass::Auxiliary);
    }
}
