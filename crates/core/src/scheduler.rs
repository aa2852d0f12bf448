//! The action scheduler (§4.3.2).
//!
//! The scheduler holds the set of blocked action notifications, picks
//! the one matching the scheduled step of the current test case, and
//! classifies leftovers at test end. Matching is exact on the spec
//! action instance (name plus translated parameter values).

use mocket_tla::{ActionClass, ActionInstance};

use crate::mapping::MappingRegistry;
use crate::sut::Offer;

/// An offer translated into the spec domain (when its name is
/// mapped), paired with the original.
#[derive(Debug, Clone)]
pub struct SpecOffer {
    /// The raw implementation-side notification.
    pub raw: Offer,
    /// The spec-domain translation; `None` when the implementation
    /// notified an action name the mapping does not know.
    pub spec: Option<ActionInstance>,
}

/// Translates a batch of offers through the registry.
pub fn translate_offers(registry: &MappingRegistry, offers: Vec<Offer>) -> Vec<SpecOffer> {
    offers
        .into_iter()
        .map(|raw| {
            let spec = registry.offer_to_spec(&raw.action);
            SpecOffer { raw, spec }
        })
        .collect()
}

/// Finds the offer matching the scheduled action exactly.
pub fn find_match<'a>(
    scheduled: &ActionInstance,
    offers: &'a [SpecOffer],
) -> Option<&'a SpecOffer> {
    offers.iter().find(|o| o.spec.as_ref() == Some(scheduled))
}

/// The spec-domain views of a batch of offers, for diagnostics;
/// untranslatable offers are rendered under their raw name.
pub fn offered_actions(offers: &[SpecOffer]) -> Vec<ActionInstance> {
    offers
        .iter()
        .map(|o| o.spec.clone().unwrap_or_else(|| o.raw.action.clone()))
        .collect()
}

/// Classifies leftover offers at test end (§4.3.3's *unexpected
/// action*).
///
/// An offer is unexpected when it cannot be translated at all, or when
/// it is a *message-receiving* action whose spec instance is not
/// enabled in the final verified state. Message receives are grounded
/// in an actual in-flight message, so an unenabled one means the
/// implementation produced a message the specification never sent —
/// both unexpected-action bugs in the paper's Table 2
/// (`HandleRequestVoteResponse` in Xraft, `ReceiveMessage` in
/// ZooKeeper) are of this kind. Timer-driven offers (a node always
/// willing to time out) are benign leftovers.
pub fn unexpected_offers(
    registry: &MappingRegistry,
    offers: &[SpecOffer],
    enabled_at_final: &[ActionInstance],
) -> Vec<ActionInstance> {
    offers
        .iter()
        .filter_map(|o| match &o.spec {
            Some(spec) => {
                let class = registry
                    .action_by_spec_name(&spec.name)
                    .map(|m| m.class)
                    .unwrap_or(ActionClass::SingleNode);
                if class == ActionClass::MessageReceive && !enabled_at_final.contains(spec) {
                    Some(spec.clone())
                } else {
                    None
                }
            }
            None => Some(o.raw.action.clone()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ActionBinding;
    use mocket_tla::{ActionClass, Value};

    fn registry() -> MappingRegistry {
        let mut r = MappingRegistry::new();
        r.map_action(
            "BecomeLeader",
            "becomeLeader",
            ActionClass::SingleNode,
            ActionBinding::Method,
        );
        r.map_action(
            "HandleVote",
            "handleVote",
            ActionClass::MessageReceive,
            ActionBinding::Snippet,
        );
        r.bind_const(Value::str("N1"), Value::Int(1));
        r
    }

    fn offer(node: u64, name: &str, params: Vec<Value>) -> Offer {
        Offer {
            node,
            action: ActionInstance::new(name, params),
        }
    }

    #[test]
    fn translation_maps_names_and_params() {
        let r = registry();
        let offers = translate_offers(
            &r,
            vec![
                offer(1, "becomeLeader", vec![Value::Int(1)]),
                offer(2, "unknownHook", vec![]),
            ],
        );
        assert_eq!(
            offers[0].spec,
            Some(ActionInstance::new("BecomeLeader", vec![Value::str("N1")]))
        );
        assert_eq!(offers[1].spec, None);
    }

    #[test]
    fn matching_is_exact_on_instance() {
        let r = registry();
        let offers = translate_offers(
            &r,
            vec![
                offer(1, "becomeLeader", vec![Value::Int(1)]),
                offer(2, "handleVote", vec![]),
            ],
        );
        let hit = find_match(
            &ActionInstance::new("BecomeLeader", vec![Value::str("N1")]),
            &offers,
        );
        assert_eq!(hit.unwrap().raw.node, 1);
        // Wrong parameters: no match.
        assert!(find_match(
            &ActionInstance::new("BecomeLeader", vec![Value::str("N2")]),
            &offers
        )
        .is_none());
        // Unscheduled action name: no match.
        assert!(find_match(&ActionInstance::nullary("Crash"), &offers).is_none());
    }

    #[test]
    fn unexpected_filters_by_final_enabled_set() {
        let r = registry();
        let offers = translate_offers(
            &r,
            vec![
                offer(1, "becomeLeader", vec![]),
                offer(2, "handleVote", vec![]),
                offer(3, "unknownHook", vec![]),
            ],
        );
        let enabled = vec![ActionInstance::nullary("BecomeLeader")];
        let unexpected = unexpected_offers(&r, &offers, &enabled);
        // becomeLeader is a single-node action (benign even if it
        // were unenabled); handleVote is a message receive that the
        // spec does not enable (unexpected); unknownHook is unmapped
        // (unexpected).
        assert_eq!(unexpected.len(), 2);
        assert_eq!(unexpected[0], ActionInstance::nullary("HandleVote"));
        assert_eq!(unexpected[1], ActionInstance::nullary("unknownHook"));
    }

    #[test]
    fn enabled_message_receives_are_benign() {
        let r = registry();
        let offers = translate_offers(&r, vec![offer(2, "handleVote", vec![])]);
        let enabled = vec![ActionInstance::nullary("HandleVote")];
        assert!(unexpected_offers(&r, &offers, &enabled).is_empty());
    }

    #[test]
    fn offered_actions_render_raw_when_unmapped() {
        let r = registry();
        let offers = translate_offers(&r, vec![offer(1, "mystery", vec![])]);
        assert_eq!(
            offered_actions(&offers),
            vec![ActionInstance::nullary("mystery")]
        );
    }
}
