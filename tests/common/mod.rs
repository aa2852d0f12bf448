//! Shared by the root suites.

use mocket::core::{
    pools_from_registry, translate_offers, MappingRegistry, MessagePools, MsgEvent, Offer, Snapshot,
};
use mocket::raft_async::XraftBugs;
use mocket::runtime::Backend;
use mocket::specs::raft::RaftSpecConfig;
use mocket::targets::{self, Target};
use mocket::tla::{ActionClass, ActionInstance, State};

/// Conformant AsyncRaft against the Xraft model without duplicate and
/// restart faults — deliberately not a catalogue model: small enough
/// that a suite can run every generated case.
#[allow(dead_code)]
pub fn small_xraft() -> Target {
    targets::xraft(
        RaftSpecConfig {
            dup_limit: 0,
            restart_limit: 0,
            ..targets::xraft_model()
        },
        XraftBugs::none(),
    )
}

/// What the runner holds at one state check of a conformant case.
#[allow(dead_code)]
pub struct Checkpoint {
    /// The verified state the check compares against.
    pub expected: State,
    /// The cluster's shadow variables (implementation domain).
    pub snapshot: Snapshot,
    /// The message pools after the step's events (spec domain).
    pub pools: MessagePools,
    /// The step's scheduled action (`<Init>` for the initial check).
    pub scheduled: ActionInstance,
    /// The offer batch the scheduled action was released from; empty
    /// for the initial check and for external actions.
    pub offers: Vec<Offer>,
}

/// Every state check of the `cases` longest cases among the first
/// `window` that `target`'s hunt configuration generates, driven by
/// hand on the wall-clock backend: offers are translated eagerly and
/// matched by spec-domain equality, and every reported message is
/// translated through `ConstMap::to_spec` — the runner's semantics
/// spelled out without its lazy paths, so suites can compare those
/// paths against it.
#[allow(dead_code)]
pub fn checkpoints(target: &Target, window: usize, cases: usize) -> Vec<Checkpoint> {
    let registry = &target.registry;
    let mut pc = target.hunt_config();
    pc.max_test_cases = window;
    let pipeline = target.pipeline(pc).expect("catalogue mappings validate");
    let (graph, _) = pipeline.check();
    let (mut suite, ..) = pipeline.generate(&graph);
    suite.sort_by_key(|case| std::cmp::Reverse(case.len()));

    let mut out = Vec::new();
    for case in suite.iter().take(cases) {
        let mut sut = target.sut(Backend::Threads);
        sut.deploy().expect("deploys");
        let mut pools = pools_from_registry(registry);
        out.push(Checkpoint {
            expected: case.initial.clone(),
            snapshot: sut.snapshot().expect("snapshot"),
            pools: pools.clone(),
            scheduled: ActionInstance::nullary("<Init>"),
            offers: Vec::new(),
        });
        for step in &case.steps {
            let class = registry
                .action_by_spec_name(&step.action.name)
                .map(|m| m.class);
            let (report, offers) = match class {
                Some(ActionClass::ExternalFault | ActionClass::UserRequest) => (
                    sut.execute_external(&step.action).expect("external"),
                    Vec::new(),
                ),
                _ => {
                    let offers = sut.offers().expect("offers");
                    let hit = translate_offers(registry, offers.clone())
                        .into_iter()
                        .find(|o| o.spec.as_ref() == Some(&step.action))
                        .unwrap_or_else(|| panic!("no offer of {}", step.action));
                    (sut.execute(&hit.raw).expect("execute"), offers)
                }
            };
            for event in report.msg_events {
                pools
                    .apply(eagerly_translated(registry, event))
                    .expect("conformant pools");
            }
            out.push(Checkpoint {
                expected: step.expected.clone(),
                snapshot: sut.snapshot().expect("snapshot"),
                pools: pools.clone(),
                scheduled: step.action.clone(),
                offers,
            });
        }
        sut.teardown();
    }
    out
}

fn eagerly_translated(registry: &MappingRegistry, mut event: MsgEvent) -> MsgEvent {
    let (MsgEvent::Send { msg, .. }
    | MsgEvent::Receive { msg, .. }
    | MsgEvent::Drop { msg, .. }
    | MsgEvent::Duplicate { msg, .. }) = &mut event;
    *msg = registry.consts().to_spec(msg);
    event
}
