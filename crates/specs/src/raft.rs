//! The Raft consensus specification.
//!
//! Modeled after the official `raft.tla` the paper tests against,
//! adapted — as the authors did (§5.2) — to the implementation choices
//! of the two target systems:
//!
//! * the **Xraft-like** (asynchronous) variant keeps the
//!   `DropMessage`/`DuplicateMessage` fault actions and appends a NoOp
//!   entry on `BecomeLeader`;
//! * the **Raft-java-like** (synchronous) variant removes the two
//!   message faults and the NoOp.
//!
//! The two official-specification bugs of Figures 10 and 11 are
//! reproducible behind flags: [`RaftSpecConfig::bug_update_term_independent`]
//! makes `UpdateTerm` an independent action that does not consume its
//! message, and [`RaftSpecConfig::bug_missing_reply`] removes the
//! `Reply` from `HandleAppendEntriesRequest`'s return-to-follower
//! branch.
//!
//! Messages live in a *bag* (`Fun(message → count)`), like the
//! official spec's multiset — duplication needs multiplicity.

use mocket_tla::{vrec, ActionClass, ActionDef, Spec, State, Value, VarClass, VarDef};

/// Role constants.
pub const FOLLOWER: &str = "Follower";
/// Candidate role.
pub const CANDIDATE: &str = "Candidate";
/// Leader role.
pub const LEADER: &str = "Leader";
/// The NoOp log entry payload written by an Xraft leader on election.
pub const NOOP: &str = "NoOp";

/// Model configuration for [`RaftSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaftSpecConfig {
    /// Server ids (the `Server` constant).
    pub servers: Vec<i64>,
    /// Bound on `currentTerm` (state-space constraint baked into the
    /// `Timeout` guard).
    pub max_term: i64,
    /// `ClientRequestLimit` (action counter bound).
    pub client_request_limit: i64,
    /// Bound on `Restart` occurrences.
    pub restart_limit: i64,
    /// Bound on `Crash` occurrences.
    pub crash_limit: i64,
    /// Bound on `DropMessage` occurrences (async variant only).
    pub drop_limit: i64,
    /// Bound on `DuplicateMessage` occurrences (async variant only).
    pub dup_limit: i64,
    /// Bound on the total number of in-flight messages (multiplicity
    /// counted) — the standard TLC state-space constraint.
    pub max_in_flight: i64,
    /// Servers allowed to time out and run for election; `None` means
    /// all. Restricting candidates is a symmetry-style reduction used
    /// to keep targeted models small.
    pub candidates: Option<Vec<i64>>,
    /// Synchronous communication: removes `DropMessage` and
    /// `DuplicateMessage` exactly as §5.2 does for Raft-java.
    pub sync_comm: bool,
    /// The leader appends a NoOp entry on election (Xraft behavior).
    pub leader_noop: bool,
    /// Specification bug #1 (Figure 10): `UpdateTerm` is an
    /// independent action that does not consume its message.
    pub bug_update_term_independent: bool,
    /// Specification bug #2 (Figure 11): the return-to-follower branch
    /// of `HandleAppendEntriesRequest` neither replies nor consumes.
    pub bug_missing_reply: bool,
}

impl RaftSpecConfig {
    /// The Xraft-like (asynchronous) model.
    pub fn xraft(servers: Vec<i64>) -> Self {
        RaftSpecConfig {
            servers,
            max_term: 2,
            client_request_limit: 1,
            restart_limit: 1,
            crash_limit: 0,
            drop_limit: 0,
            dup_limit: 1,
            max_in_flight: 2,
            candidates: None,
            sync_comm: false,
            leader_noop: true,
            bug_update_term_independent: false,
            bug_missing_reply: false,
        }
    }

    /// The Raft-java-like (synchronous) model.
    pub fn raft_java(servers: Vec<i64>) -> Self {
        RaftSpecConfig {
            servers,
            max_term: 3,
            client_request_limit: 1,
            restart_limit: 0,
            crash_limit: 0,
            drop_limit: 0,
            dup_limit: 0,
            max_in_flight: 2,
            candidates: None,
            sync_comm: true,
            leader_noop: false,
            bug_update_term_independent: false,
            bug_missing_reply: false,
        }
    }

    /// The deep Raft-java model: three servers, two candidates, two
    /// client requests, terms up to 3, one message in flight — just deep
    /// enough for the log-conflict scenario of Raft-java bug #2, and the
    /// Raft-java model of the benches.
    pub fn raft_java_log_conflict() -> Self {
        RaftSpecConfig {
            client_request_limit: 2,
            candidates: Some(vec![1, 2]),
            max_in_flight: 1,
            ..Self::raft_java(vec![1, 2, 3])
        }
    }

    /// The official specification with its two bugs (what §6.1's
    /// spec-bug rows test against Raft-java).
    pub fn official_buggy(servers: Vec<i64>) -> Self {
        let mut cfg = Self::raft_java(servers);
        cfg.bug_update_term_independent = true;
        cfg.bug_missing_reply = true;
        cfg
    }

    fn quorum(&self) -> usize {
        self.servers.len() / 2 + 1
    }
}

/// The Raft specification.
#[derive(Debug, Clone)]
pub struct RaftSpec {
    /// Model configuration.
    pub config: RaftSpecConfig,
}

impl RaftSpec {
    /// Creates the spec for a configuration.
    pub fn new(config: RaftSpecConfig) -> Self {
        RaftSpec { config }
    }
}

// ----------------------------------------------------------------------
// State helpers.
// ----------------------------------------------------------------------

fn node(i: i64) -> Value {
    Value::Int(i)
}

fn per_node(s: &State, var: &str, i: i64) -> Value {
    s.expect(var).expect_apply(&node(i)).clone()
}

fn set_per_node(s: &State, var: &str, i: i64, v: Value) -> State {
    s.with(var, s.expect(var).except(&node(i), v))
}

fn last_term(log: &Value) -> i64 {
    log.last()
        .map(|e| e.expect_field("term").expect_int())
        .unwrap_or(0)
}

fn is_alive(s: &State, i: i64) -> bool {
    per_node(s, "alive", i) == Value::Bool(true)
}

fn counter(s: &State, name: &str) -> i64 {
    s.expect(name).expect_int()
}

fn bump(s: &State, name: &str) -> State {
    s.with(name, Value::Int(counter(s, name) + 1))
}

// ----------------------------------------------------------------------
// Message bag helpers.
// ----------------------------------------------------------------------

fn bag_count(s: &State, m: &Value) -> i64 {
    s.expect("messages")
        .apply(m)
        .map(|c| c.expect_int())
        .unwrap_or(0)
}

fn bag_add(s: &State, m: Value) -> State {
    let n = bag_count(s, &m);
    s.with(
        "messages",
        s.expect("messages").except(&m, Value::Int(n + 1)),
    )
}

fn bag_remove(s: &State, m: &Value) -> State {
    let n = bag_count(s, m);
    let messages = s.expect("messages");
    let next = if n <= 1 {
        match messages {
            Value::Fun(f) => {
                let mut f = f.clone();
                f.remove(m);
                Value::Fun(f)
            }
            _ => unreachable!("messages is a bag"),
        }
    } else {
        messages.except(m, Value::Int(n - 1))
    };
    s.with("messages", next)
}

/// Every distinct message in the bag.
fn bag_messages(s: &State) -> Vec<Value> {
    match s.expect("messages") {
        Value::Fun(f) => f.keys().cloned().collect(),
        _ => Vec::new(),
    }
}

/// Total multiplicity across the bag.
fn bag_total(s: &State) -> i64 {
    match s.expect("messages") {
        Value::Fun(f) => f.values().map(|c| c.expect_int()).sum(),
        _ => 0,
    }
}

fn msg_field_int(m: &Value, f: &str) -> i64 {
    m.expect_field(f).expect_int()
}

fn msg_type(m: &Value) -> &str {
    m.expect_field("mtype").expect_str()
}

// ----------------------------------------------------------------------
// The specification.
// ----------------------------------------------------------------------

impl Spec for RaftSpec {
    fn name(&self) -> &str {
        if self.config.sync_comm {
            "RaftSync"
        } else {
            "RaftAsync"
        }
    }

    fn variables(&self) -> Vec<VarDef> {
        vec![
            VarDef::new("messages", VarClass::MessageRelated),
            VarDef::new("state", VarClass::StateRelated),
            VarDef::new("currentTerm", VarClass::StateRelated),
            VarDef::new("votedFor", VarClass::StateRelated),
            VarDef::new("votesGranted", VarClass::StateRelated),
            VarDef::new("log", VarClass::StateRelated),
            VarDef::new("commitIndex", VarClass::StateRelated),
            VarDef::new("nextIndex", VarClass::StateRelated),
            VarDef::new("matchIndex", VarClass::StateRelated),
            // `alive` only guards actions of crashed nodes.
            VarDef::new("alive", VarClass::Auxiliary),
            VarDef::new("clientRequests", VarClass::ActionCounter),
            VarDef::new("restartCount", VarClass::ActionCounter),
            VarDef::new("crashCount", VarClass::ActionCounter),
            VarDef::new("dropCount", VarClass::ActionCounter),
            VarDef::new("dupCount", VarClass::ActionCounter),
        ]
    }

    fn init_states(&self) -> Vec<State> {
        let servers: Vec<Value> = self.config.servers.iter().map(|&i| Value::Int(i)).collect();
        let one_per_peer = Value::const_fun(servers.clone(), Value::Int(1));
        let zero_per_peer = Value::const_fun(servers.clone(), Value::Int(0));
        vec![State::from_pairs([
            ("messages", Value::fun([])),
            (
                "state",
                Value::const_fun(servers.clone(), Value::str(FOLLOWER)),
            ),
            (
                "currentTerm",
                Value::const_fun(servers.clone(), Value::Int(1)),
            ),
            ("votedFor", Value::const_fun(servers.clone(), Value::Nil)),
            (
                "votesGranted",
                Value::const_fun(servers.clone(), Value::empty_set()),
            ),
            ("log", Value::const_fun(servers.clone(), Value::empty_seq())),
            (
                "commitIndex",
                Value::const_fun(servers.clone(), Value::Int(0)),
            ),
            ("nextIndex", Value::const_fun(servers.clone(), one_per_peer)),
            (
                "matchIndex",
                Value::const_fun(servers.clone(), zero_per_peer),
            ),
            ("alive", Value::const_fun(servers, Value::Bool(true))),
            ("clientRequests", Value::Int(0)),
            ("restartCount", Value::Int(0)),
            ("crashCount", Value::Int(0)),
            ("dropCount", Value::Int(0)),
            ("dupCount", Value::Int(0)),
        ])]
    }

    fn actions(&self) -> Vec<ActionDef> {
        let mut actions = Vec::new();
        let cfg = self.config.clone();

        // ---------------- Timeout(i) ----------------
        {
            let cfg = cfg.clone();
            let servers = cfg
                .candidates
                .clone()
                .unwrap_or_else(|| cfg.servers.clone());
            actions.push(ActionDef::with_params(
                "Timeout",
                ActionClass::SingleNode,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let role = per_node(s, "state", i);
                    let enabled = is_alive(s, i)
                        && (role == Value::str(FOLLOWER) || role == Value::str(CANDIDATE))
                        && per_node(s, "currentTerm", i).expect_int() < cfg.max_term;
                    enabled.then(|| {
                        let term = per_node(s, "currentTerm", i).expect_int();
                        let s = set_per_node(s, "state", i, Value::str(CANDIDATE));
                        let s = set_per_node(&s, "currentTerm", i, Value::Int(term + 1));
                        let s = set_per_node(&s, "votedFor", i, Value::Int(i));
                        set_per_node(&s, "votesGranted", i, Value::set([Value::Int(i)]))
                    })
                },
            ));
        }

        // ---------------- RequestVote(i, j) ----------------
        {
            let servers = cfg.servers.clone();
            let max_in_flight = cfg.max_in_flight;
            actions.push(ActionDef::with_params(
                "RequestVote",
                ActionClass::MessageSend,
                move |_s| {
                    let mut out = Vec::new();
                    for &i in &servers {
                        for &j in &servers {
                            if i != j {
                                out.push(vec![Value::Int(i), Value::Int(j)]);
                            }
                        }
                    }
                    out
                },
                move |s, ps| {
                    let (i, j) = (ps[0].expect_int(), ps[1].expect_int());
                    if !is_alive(s, i) || per_node(s, "state", i) != Value::str(CANDIDATE) {
                        return None;
                    }
                    if per_node(s, "votesGranted", i).contains(&node(j)) {
                        return None;
                    }
                    let log = per_node(s, "log", i);
                    let m = vrec! {
                        mtype => "RequestVoteRequest",
                        mterm => per_node(s, "currentTerm", i).expect_int(),
                        mlastLogTerm => last_term(&log),
                        mlastLogIndex => log.len() as i64,
                        msource => i,
                        mdest => j,
                    };
                    // Do not refill an identical in-flight request,
                    // and respect the in-flight bound.
                    (bag_count(s, &m) == 0 && bag_total(s) < max_in_flight).then(|| bag_add(s, m))
                },
            ));
        }

        // ---------------- UpdateTerm(m) — only under spec bug #1 ----
        if cfg.bug_update_term_independent {
            actions.push(ActionDef::with_params(
                "UpdateTerm",
                ActionClass::MessageReceive,
                |s| bag_messages(s).into_iter().map(|m| vec![m]).collect(),
                move |s, ps| {
                    let m = &ps[0];
                    let i = msg_field_int(m, "mdest");
                    let enabled = is_alive(s, i)
                        && msg_field_int(m, "mterm") > per_node(s, "currentTerm", i).expect_int();
                    enabled.then(|| {
                        // The buggy official spec: update the term,
                        // leave the message in flight (Figure 10).
                        let s = set_per_node(
                            s,
                            "currentTerm",
                            i,
                            Value::Int(msg_field_int(m, "mterm")),
                        );
                        let s = set_per_node(&s, "state", i, Value::str(FOLLOWER));
                        set_per_node(&s, "votedFor", i, Value::Nil)
                    })
                },
            ));
        }

        // ---------------- HandleRequestVoteRequest(m) ----------------
        {
            let cfg = cfg.clone();
            actions.push(ActionDef::with_params(
                "HandleRequestVoteRequest",
                ActionClass::MessageReceive,
                |s| {
                    bag_messages(s)
                        .into_iter()
                        .filter(|m| msg_type(m) == "RequestVoteRequest")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = msg_field_int(m, "mdest");
                    let j = msg_field_int(m, "msource");
                    if !is_alive(s, i) {
                        return None;
                    }
                    let mterm = msg_field_int(m, "mterm");
                    let my_term = per_node(s, "currentTerm", i).expect_int();
                    if cfg.bug_update_term_independent && mterm > my_term {
                        // Under the buggy spec the independent
                        // UpdateTerm must run first.
                        return None;
                    }
                    // Fold UpdateTerm into the handler (the fix for
                    // spec bug #1).
                    let (s, my_term) = if mterm > my_term {
                        let s = set_per_node(s, "currentTerm", i, Value::Int(mterm));
                        let s = set_per_node(&s, "state", i, Value::str(FOLLOWER));
                        let s = set_per_node(&s, "votedFor", i, Value::Nil);
                        (s, mterm)
                    } else {
                        (s.clone(), my_term)
                    };
                    let log = per_node(&s, "log", i);
                    let log_ok = msg_field_int(m, "mlastLogTerm") > last_term(&log)
                        || (msg_field_int(m, "mlastLogTerm") == last_term(&log)
                            && msg_field_int(m, "mlastLogIndex") >= log.len() as i64);
                    let voted_for = per_node(&s, "votedFor", i);
                    let grant = mterm == my_term
                        && log_ok
                        && (voted_for == Value::Nil || voted_for == node(j));
                    let s = bag_remove(&s, m);
                    Some(if grant {
                        let s = set_per_node(&s, "votedFor", i, node(j));
                        bag_add(
                            &s,
                            vrec! {
                                mtype => "RequestVoteResponse",
                                mterm => my_term,
                                mvoteGranted => true,
                                msource => i,
                                mdest => j,
                            },
                        )
                    } else {
                        // Implementation choice shared by both
                        // targets: no negative reply.
                        s
                    })
                },
            ));
        }

        // ---------------- HandleRequestVoteResponse(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleRequestVoteResponse",
                ActionClass::MessageReceive,
                |s| {
                    bag_messages(s)
                        .into_iter()
                        .filter(|m| msg_type(m) == "RequestVoteResponse")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = msg_field_int(m, "mdest");
                    let j = msg_field_int(m, "msource");
                    if !is_alive(s, i) {
                        return None;
                    }
                    let s2 = bag_remove(s, m);
                    let granted = m.expect_field("mvoteGranted") == &Value::Bool(true);
                    let relevant = per_node(s, "state", i) == Value::str(CANDIDATE)
                        && msg_field_int(m, "mterm") == per_node(s, "currentTerm", i).expect_int();
                    Some(if granted && relevant {
                        let votes = per_node(&s2, "votesGranted", i).with_elem(node(j));
                        set_per_node(&s2, "votesGranted", i, votes)
                    } else {
                        s2
                    })
                },
            ));
        }

        // ---------------- BecomeLeader(i) ----------------
        {
            let cfg = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "BecomeLeader",
                ActionClass::SingleNode,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let enabled = is_alive(s, i)
                        && per_node(s, "state", i) == Value::str(CANDIDATE)
                        && per_node(s, "votesGranted", i).cardinality() >= cfg.quorum();
                    enabled.then(|| {
                        let s2 = set_per_node(s, "state", i, Value::str(LEADER));
                        let log = per_node(&s2, "log", i);
                        // nextIndex points at the first entry the
                        // followers may be missing: past the log as it
                        // was *before* the NoOp, so the NoOp itself is
                        // replicated.
                        let next_val = log.len() as i64 + 1;
                        let s2 = if cfg.leader_noop {
                            let entry = vrec! {
                                term => per_node(&s2, "currentTerm", i).expect_int(),
                                value => NOOP,
                            };
                            set_per_node(&s2, "log", i, log.append(entry))
                        } else {
                            s2
                        };
                        let next = Value::const_fun(
                            cfg.servers.iter().map(|&j| Value::Int(j)),
                            Value::Int(next_val),
                        );
                        let zero = Value::const_fun(
                            cfg.servers.iter().map(|&j| Value::Int(j)),
                            Value::Int(0),
                        );
                        let s2 = set_per_node(&s2, "nextIndex", i, next);
                        set_per_node(&s2, "matchIndex", i, zero)
                    })
                },
            ));
        }

        // ---------------- ClientRequest(i) ----------------
        {
            let cfg = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "ClientRequest",
                ActionClass::UserRequest,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let enabled = is_alive(s, i)
                        && per_node(s, "state", i) == Value::str(LEADER)
                        && counter(s, "clientRequests") < cfg.client_request_limit;
                    enabled.then(|| {
                        let datum = counter(s, "clientRequests") + 1;
                        let entry = vrec! {
                            term => per_node(s, "currentTerm", i).expect_int(),
                            value => datum,
                        };
                        let log = per_node(s, "log", i).append(entry);
                        let s = set_per_node(s, "log", i, log);
                        bump(&s, "clientRequests")
                    })
                },
            ));
        }

        // ---------------- AppendEntries(i, j) ----------------
        {
            let servers = cfg.servers.clone();
            let max_in_flight = cfg.max_in_flight;
            actions.push(ActionDef::with_params(
                "AppendEntries",
                ActionClass::MessageSend,
                move |_s| {
                    let mut out = Vec::new();
                    for &i in &servers {
                        for &j in &servers {
                            if i != j {
                                out.push(vec![Value::Int(i), Value::Int(j)]);
                            }
                        }
                    }
                    out
                },
                move |s, ps| {
                    let (i, j) = (ps[0].expect_int(), ps[1].expect_int());
                    if !is_alive(s, i) || per_node(s, "state", i) != Value::str(LEADER) {
                        return None;
                    }
                    let log = per_node(s, "log", i);
                    let next_index = per_node(s, "nextIndex", i)
                        .expect_apply(&node(j))
                        .expect_int();
                    let match_index = per_node(s, "matchIndex", i)
                        .expect_apply(&node(j))
                        .expect_int();
                    let commit = per_node(s, "commitIndex", i).expect_int();
                    let has_entries = log.len() as i64 >= next_index;
                    // Send only when there is something new to say:
                    // fresh entries or a commit index to propagate.
                    if !has_entries && commit <= match_index {
                        return None;
                    }
                    let prev_index = next_index - 1;
                    let prev_term = if prev_index >= 1 {
                        log.index(prev_index as usize)
                            .map(|e| e.expect_field("term").expect_int())
                            .unwrap_or(0)
                    } else {
                        0
                    };
                    let entries: Vec<Value> = if has_entries {
                        vec![log.index(next_index as usize).unwrap().clone()]
                    } else {
                        Vec::new()
                    };
                    let m = vrec! {
                        mtype => "AppendEntriesRequest",
                        mterm => per_node(s, "currentTerm", i).expect_int(),
                        mprevLogIndex => prev_index,
                        mprevLogTerm => prev_term,
                        mentries => Value::seq(entries.clone()),
                        mcommitIndex => commit.min(prev_index + entries.len() as i64),
                        msource => i,
                        mdest => j,
                    };
                    (bag_count(s, &m) == 0 && bag_total(s) < max_in_flight).then(|| bag_add(s, m))
                },
            ));
        }

        // ---------------- HandleAppendEntriesRequest(m) ----------------
        {
            let cfg = cfg.clone();
            actions.push(ActionDef::with_params(
                "HandleAppendEntriesRequest",
                ActionClass::MessageReceive,
                |s| {
                    bag_messages(s)
                        .into_iter()
                        .filter(|m| msg_type(m) == "AppendEntriesRequest")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = msg_field_int(m, "mdest");
                    let j = msg_field_int(m, "msource");
                    if !is_alive(s, i) {
                        return None;
                    }
                    let mterm = msg_field_int(m, "mterm");
                    let my_term = per_node(s, "currentTerm", i).expect_int();
                    if cfg.bug_update_term_independent && mterm > my_term {
                        return None;
                    }
                    // Fold UpdateTerm (fixed-spec behavior).
                    let (s, my_term) = if mterm > my_term {
                        let s = set_per_node(s, "currentTerm", i, Value::Int(mterm));
                        let s = set_per_node(&s, "state", i, Value::str(FOLLOWER));
                        let s = set_per_node(&s, "votedFor", i, Value::Nil);
                        (s, mterm)
                    } else {
                        (s.clone(), my_term)
                    };

                    let role = per_node(&s, "state", i);
                    if mterm == my_term && role == Value::str(CANDIDATE) {
                        // Return to follower. Correct spec: fall
                        // through and handle the request in the same
                        // step. Buggy spec (Figure 11): only the state
                        // change — no reply, message left in flight.
                        let s = set_per_node(&s, "state", i, Value::str(FOLLOWER));
                        if cfg.bug_missing_reply {
                            return Some(s);
                        }
                        return Some(accept_or_reject(&s, m, i, j, mterm, my_term));
                    }
                    if role == Value::str(LEADER) && mterm == my_term {
                        // Two leaders in one term cannot happen in a
                        // correct spec; treat as no-op consume.
                        return Some(bag_remove(&s, m));
                    }
                    Some(accept_or_reject(&s, m, i, j, mterm, my_term))
                },
            ));
        }

        // ---------------- HandleAppendEntriesResponse(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleAppendEntriesResponse",
                ActionClass::MessageReceive,
                |s| {
                    bag_messages(s)
                        .into_iter()
                        .filter(|m| msg_type(m) == "AppendEntriesResponse")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = msg_field_int(m, "mdest");
                    let j = msg_field_int(m, "msource");
                    if !is_alive(s, i) {
                        return None;
                    }
                    let s2 = bag_remove(s, m);
                    let relevant = per_node(s, "state", i) == Value::str(LEADER)
                        && msg_field_int(m, "mterm") == per_node(s, "currentTerm", i).expect_int();
                    if !relevant {
                        return Some(s2);
                    }
                    let success = m.expect_field("msuccess") == &Value::Bool(true);
                    Some(if success {
                        let mmatch = msg_field_int(m, "mmatchIndex");
                        let ni =
                            per_node(&s2, "nextIndex", i).except(&node(j), Value::Int(mmatch + 1));
                        let mi =
                            per_node(&s2, "matchIndex", i).except(&node(j), Value::Int(mmatch));
                        let s2 = set_per_node(&s2, "nextIndex", i, ni);
                        set_per_node(&s2, "matchIndex", i, mi)
                    } else {
                        let cur = per_node(&s2, "nextIndex", i)
                            .expect_apply(&node(j))
                            .expect_int();
                        let ni = per_node(&s2, "nextIndex", i)
                            .except(&node(j), Value::Int((cur - 1).max(1)));
                        set_per_node(&s2, "nextIndex", i, ni)
                    })
                },
            ));
        }

        // ---------------- AdvanceCommitIndex(i) ----------------
        {
            let cfg = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "AdvanceCommitIndex",
                ActionClass::SingleNode,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    if !is_alive(s, i) || per_node(s, "state", i) != Value::str(LEADER) {
                        return None;
                    }
                    let log = per_node(s, "log", i);
                    let my_term = per_node(s, "currentTerm", i).expect_int();
                    let commit = per_node(s, "commitIndex", i).expect_int();
                    let match_index = per_node(s, "matchIndex", i);
                    let mut best = commit;
                    for n in (commit + 1)..=(log.len() as i64) {
                        let entry_term = log
                            .index(n as usize)
                            .unwrap()
                            .expect_field("term")
                            .expect_int();
                        if entry_term != my_term {
                            continue;
                        }
                        let acks = 1 + cfg
                            .servers
                            .iter()
                            .filter(|&&j| {
                                j != i && match_index.expect_apply(&node(j)).expect_int() >= n
                            })
                            .count();
                        if acks >= cfg.quorum() {
                            best = n;
                        }
                    }
                    (best > commit).then(|| set_per_node(s, "commitIndex", i, Value::Int(best)))
                },
            ));
        }

        // ---------------- Restart(i) ----------------
        {
            let cfg = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "Restart",
                ActionClass::ExternalFault,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let enabled = is_alive(s, i) && counter(s, "restartCount") < cfg.restart_limit;
                    enabled.then(|| {
                        // currentTerm, votedFor and log are persisted;
                        // everything else is volatile.
                        let s = set_per_node(s, "state", i, Value::str(FOLLOWER));
                        let s = set_per_node(&s, "votesGranted", i, Value::empty_set());
                        let s = set_per_node(&s, "commitIndex", i, Value::Int(0));
                        let s = set_per_node(
                            &s,
                            "nextIndex",
                            i,
                            Value::const_fun(
                                cfg.servers.iter().map(|&j| Value::Int(j)),
                                Value::Int(1),
                            ),
                        );
                        let s = set_per_node(
                            &s,
                            "matchIndex",
                            i,
                            Value::const_fun(
                                cfg.servers.iter().map(|&j| Value::Int(j)),
                                Value::Int(0),
                            ),
                        );
                        bump(&s, "restartCount")
                    })
                },
            ));
        }

        // ---------------- Crash(i) ----------------
        {
            let cfg = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "Crash",
                ActionClass::ExternalFault,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let enabled = is_alive(s, i) && counter(s, "crashCount") < cfg.crash_limit;
                    enabled.then(|| {
                        let s = set_per_node(s, "alive", i, Value::Bool(false));
                        bump(&s, "crashCount")
                    })
                },
            ));
        }

        // ---------------- DropMessage(m) / DuplicateMessage(m) --------
        if !cfg.sync_comm {
            let drop_limit = cfg.drop_limit;
            actions.push(ActionDef::with_params(
                "DropMessage",
                ActionClass::ExternalFault,
                |s| bag_messages(s).into_iter().map(|m| vec![m]).collect(),
                move |s, ps| {
                    (counter(s, "dropCount") < drop_limit).then(|| {
                        let s = bag_remove(s, &ps[0]);
                        bump(&s, "dropCount")
                    })
                },
            ));
            let dup_limit = cfg.dup_limit;
            actions.push(ActionDef::with_params(
                "DuplicateMessage",
                ActionClass::ExternalFault,
                |s| bag_messages(s).into_iter().map(|m| vec![m]).collect(),
                move |s, ps| {
                    let m = &ps[0];
                    let enabled = counter(s, "dupCount") < dup_limit && bag_count(s, m) == 1;
                    enabled.then(|| {
                        let s = bag_add(s, m.clone());
                        bump(&s, "dupCount")
                    })
                },
            ));
        }

        actions
    }
}

/// The reject/accept tail of `HandleAppendEntriesRequest`, shared by
/// the follower path and the (fixed) return-to-follower path.
fn accept_or_reject(s: &State, m: &Value, i: i64, j: i64, mterm: i64, my_term: i64) -> State {
    let s2 = bag_remove(s, m);
    if mterm < my_term {
        // Reject stale request.
        return bag_add(
            &s2,
            vrec! {
                mtype => "AppendEntriesResponse",
                mterm => my_term,
                msuccess => false,
                mmatchIndex => 0i64,
                msource => i,
                mdest => j,
            },
        );
    }
    let log = per_node(&s2, "log", i);
    let prev_index = msg_field_int(m, "mprevLogIndex");
    let prev_term = msg_field_int(m, "mprevLogTerm");
    let log_ok = prev_index == 0
        || (prev_index <= log.len() as i64
            && log
                .index(prev_index as usize)
                .map(|e| e.expect_field("term").expect_int())
                == Some(prev_term));
    if !log_ok {
        return bag_add(
            &s2,
            vrec! {
                mtype => "AppendEntriesResponse",
                mterm => my_term,
                msuccess => false,
                mmatchIndex => 0i64,
                msource => i,
                mdest => j,
            },
        );
    }
    // Accept: truncate any conflicting suffix, then append.
    let entries = m.expect_field("mentries").clone();
    let new_log = if entries.is_empty() {
        log.clone()
    } else {
        let first_new = entries.index(1).unwrap();
        let existing = log.index(prev_index as usize + 1);
        if existing.map(|e| e.expect_field("term")) == Some(first_new.expect_field("term")) {
            // Already have it: idempotent.
            log.clone()
        } else {
            let mut v: Vec<Value> = log.as_seq().unwrap()[..prev_index as usize].to_vec();
            v.extend(entries.as_seq().unwrap().iter().cloned());
            Value::seq(v)
        }
    };
    let match_len = prev_index + entries.len() as i64;
    let mcommit = msg_field_int(m, "mcommitIndex");
    let commit = per_node(&s2, "commitIndex", i)
        .expect_int()
        .max(mcommit.min(new_log.len() as i64));
    let s2 = set_per_node(&s2, "log", i, new_log);
    let s2 = set_per_node(&s2, "commitIndex", i, Value::Int(commit));
    bag_add(
        &s2,
        vrec! {
            mtype => "AppendEntriesResponse",
            mterm => my_term,
            msuccess => true,
            mmatchIndex => match_len,
            msource => i,
            mdest => j,
        },
    )
}

/// Raft's election-safety invariant: at most one leader per term
/// (observed over the nodes' *current* terms).
pub fn election_safety() -> mocket_checker::Invariant {
    mocket_checker::Invariant::new("ElectionSafety", |s: &State| {
        let state = s.expect("state");
        let term = s.expect("currentTerm");
        let leaders: Vec<i64> = match state {
            Value::Fun(f) => f
                .iter()
                .filter(|(_, v)| *v == &Value::str(LEADER))
                .map(|(k, _)| term.expect_apply(k).expect_int())
                .collect(),
            _ => Vec::new(),
        };
        for (a, ta) in leaders.iter().enumerate() {
            for tb in leaders.iter().skip(a + 1) {
                if ta == tb {
                    return false;
                }
            }
        }
        true
    })
}

/// Log-matching invariant: committed prefixes agree pairwise.
pub fn log_matching() -> mocket_checker::Invariant {
    mocket_checker::Invariant::new("LogMatching", |s: &State| {
        let logs = s.expect("log");
        let commits = s.expect("commitIndex");
        let (Value::Fun(logs), Value::Fun(commits)) = (logs, commits) else {
            return true;
        };
        let nodes: Vec<&Value> = logs.keys().collect();
        for (x, i) in nodes.iter().enumerate() {
            for j in nodes.iter().skip(x + 1) {
                let ci = commits[*i].expect_int().min(commits[*j].expect_int());
                for n in 1..=ci {
                    if logs[*i].index(n as usize) != logs[*j].index(n as usize) {
                        return false;
                    }
                }
            }
        }
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocket_tla::successors;

    fn spec2() -> RaftSpec {
        RaftSpec::new(RaftSpecConfig {
            dup_limit: 0,
            restart_limit: 0,
            ..RaftSpecConfig::xraft(vec![1, 2])
        })
    }

    fn find<'a>(
        succ: &'a [(mocket_tla::ActionInstance, State)],
        name: &str,
    ) -> Vec<&'a (mocket_tla::ActionInstance, State)> {
        succ.iter().filter(|(a, _)| a.name == name).collect()
    }

    /// Walks: Timeout(1); RequestVote(1,2); Handle both sides; leader.
    fn elect_node1(spec: &RaftSpec) -> State {
        let init = spec.init_states().remove(0);
        let succ = successors(spec, &init);
        let s = find(&succ, "Timeout")
            .iter()
            .find(|(a, _)| a.params[0] == Value::Int(1))
            .unwrap()
            .1
            .clone();
        let succ = successors(spec, &s);
        let s = find(&succ, "RequestVote")
            .iter()
            .find(|(a, _)| a.params == vec![Value::Int(1), Value::Int(2)])
            .unwrap()
            .1
            .clone();
        let succ = successors(spec, &s);
        let s = find(&succ, "HandleRequestVoteRequest")[0].1.clone();
        let succ = successors(spec, &s);
        let s = find(&succ, "HandleRequestVoteResponse")[0].1.clone();
        let succ = successors(spec, &s);
        find(&succ, "BecomeLeader")[0].1.clone()
    }

    #[test]
    fn initial_state_is_all_followers() {
        let spec = spec2();
        let init = &spec.init_states()[0];
        assert_eq!(per_node(init, "state", 1), Value::str(FOLLOWER));
        assert_eq!(per_node(init, "currentTerm", 2), Value::Int(1));
        assert_eq!(init.expect("messages"), &Value::fun([]));
        assert_eq!(init.len(), 15, "Table 1: 15 variables");
    }

    #[test]
    fn timeout_starts_election() {
        let spec = spec2();
        let init = spec.init_states().remove(0);
        let succ = successors(&spec, &init);
        let timeouts = find(&succ, "Timeout");
        assert_eq!(timeouts.len(), 2, "both followers can time out");
        let s = &timeouts[0].1;
        assert_eq!(per_node(s, "state", 1), Value::str(CANDIDATE));
        assert_eq!(per_node(s, "currentTerm", 1), Value::Int(2));
        assert_eq!(per_node(s, "votedFor", 1), Value::Int(1));
        assert_eq!(per_node(s, "votesGranted", 1), Value::set([Value::Int(1)]));
    }

    #[test]
    fn election_completes_and_appends_noop() {
        let spec = spec2();
        let s = elect_node1(&spec);
        assert_eq!(per_node(&s, "state", 1), Value::str(LEADER));
        let log = per_node(&s, "log", 1);
        assert_eq!(log.len(), 1, "Xraft leader appends a NoOp entry");
        assert_eq!(
            log.index(1).unwrap().expect_field("value"),
            &Value::str(NOOP)
        );
    }

    #[test]
    fn no_noop_in_raft_java_variant() {
        let spec = RaftSpec::new(RaftSpecConfig::raft_java(vec![1, 2]));
        let s = elect_node1(&spec);
        assert_eq!(per_node(&s, "state", 1), Value::str(LEADER));
        assert!(per_node(&s, "log", 1).is_empty());
    }

    #[test]
    fn voted_node_records_its_vote() {
        let spec = spec2();
        let s = elect_node1(&spec);
        assert_eq!(per_node(&s, "votedFor", 2), Value::Int(1));
    }

    #[test]
    fn client_request_appends_to_leader_log() {
        let spec = spec2();
        let s = elect_node1(&spec);
        let succ = successors(&spec, &s);
        let reqs = find(&succ, "ClientRequest");
        assert_eq!(reqs.len(), 1, "only the leader accepts requests");
        let s2 = &reqs[0].1;
        let log = per_node(s2, "log", 1);
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.index(2).unwrap().expect_field("value"),
            &Value::Int(1),
            "first request writes datum 1"
        );
        assert_eq!(s2.expect("clientRequests"), &Value::Int(1));
    }

    #[test]
    fn replication_roundtrip_commits() {
        let spec = spec2();
        let mut s = elect_node1(&spec);
        for expected in [
            "AppendEntries",
            "HandleAppendEntriesRequest",
            "HandleAppendEntriesResponse",
            "AdvanceCommitIndex",
        ] {
            let succ = successors(&spec, &s);
            let found = find(&succ, expected);
            assert!(!found.is_empty(), "{expected} should be enabled");
            s = found[0].1.clone();
        }
        assert_eq!(per_node(&s, "commitIndex", 1), Value::Int(1));
        assert_eq!(per_node(&s, "log", 2).len(), 1);
    }

    #[test]
    fn drop_and_duplicate_only_in_async_variant() {
        let spec_async = RaftSpec::new(RaftSpecConfig::xraft(vec![1, 2]));
        let names: Vec<String> = spec_async
            .actions()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        assert!(names.contains(&"DuplicateMessage".to_string()));
        assert!(names.contains(&"DropMessage".to_string()));

        let spec_sync = RaftSpec::new(RaftSpecConfig::raft_java(vec![1, 2]));
        let names: Vec<String> = spec_sync.actions().iter().map(|a| a.name.clone()).collect();
        assert!(!names.contains(&"DuplicateMessage".to_string()));
        assert!(!names.contains(&"DropMessage".to_string()));
    }

    #[test]
    fn duplicate_message_doubles_bag_count() {
        let mut cfg = RaftSpecConfig::xraft(vec![1, 2]);
        cfg.dup_limit = 1;
        let spec = RaftSpec::new(cfg);
        let init = spec.init_states().remove(0);
        let succ = successors(&spec, &init);
        let (_, s) = find(&succ, "Timeout")[0];
        let succ = successors(&spec, s);
        let (_, s) = find(&succ, "RequestVote")[0];
        let succ = successors(&spec, s);
        let dups = find(&succ, "DuplicateMessage");
        assert_eq!(dups.len(), 1);
        let s2 = &dups[0].1;
        let m = bag_messages(s2).remove(0);
        assert_eq!(bag_count(s2, &m), 2);
        let succ = successors(&spec, s2);
        assert!(!find(&succ, "HandleRequestVoteRequest").is_empty());
    }

    #[test]
    fn restart_resets_volatile_keeps_persistent() {
        let mut cfg = RaftSpecConfig::xraft(vec![1, 2]);
        cfg.restart_limit = 1;
        cfg.dup_limit = 0;
        let spec = RaftSpec::new(cfg);
        let s = elect_node1(&spec);
        let succ = successors(&spec, &s);
        let restarts = find(&succ, "Restart");
        assert_eq!(restarts.len(), 2);
        let (a, s2) = restarts
            .iter()
            .find(|(a, _)| a.params[0] == Value::Int(1))
            .unwrap();
        assert_eq!(a.name, "Restart");
        assert_eq!(per_node(s2, "state", 1), Value::str(FOLLOWER));
        assert_eq!(per_node(s2, "votesGranted", 1), Value::empty_set());
        // Persisted: term, vote, log.
        assert_eq!(per_node(s2, "currentTerm", 1), Value::Int(2));
        assert_eq!(per_node(s2, "votedFor", 1), Value::Int(1));
        assert_eq!(per_node(s2, "log", 1).len(), 1);
    }

    #[test]
    fn crashed_node_enables_nothing() {
        let mut cfg = RaftSpecConfig::xraft(vec![1, 2]);
        cfg.crash_limit = 1;
        cfg.dup_limit = 0;
        cfg.restart_limit = 0;
        let spec = RaftSpec::new(cfg);
        let init = spec.init_states().remove(0);
        let succ = successors(&spec, &init);
        let s = find(&succ, "Crash")
            .iter()
            .find(|(a, _)| a.params[0] == Value::Int(1))
            .unwrap()
            .1
            .clone();
        assert_eq!(per_node(&s, "alive", 1), Value::Bool(false));
        let names: Vec<String> = successors(&spec, &s)
            .into_iter()
            .map(|(a, _)| a)
            .filter(|a| !a.params.is_empty() && a.params[0] == Value::Int(1))
            .map(|a| a.name)
            .collect();
        assert!(
            names.is_empty(),
            "crashed node 1 must enable nothing, got {names:?}"
        );
    }

    #[test]
    fn spec_bug1_exposes_independent_update_term() {
        let mut cfg = RaftSpecConfig::raft_java(vec![1, 2]);
        cfg.bug_update_term_independent = true;
        let spec = RaftSpec::new(cfg);
        let init = spec.init_states().remove(0);
        let succ = successors(&spec, &init);
        let (_, s) = find(&succ, "Timeout")[0];
        let succ = successors(&spec, s);
        let (_, s) = find(&succ, "RequestVote")[0];
        // Node 2 is at term 1, the request carries term 2: only
        // UpdateTerm is enabled, and it leaves the message in flight.
        let succ = successors(&spec, s);
        assert!(find(&succ, "HandleRequestVoteRequest").is_empty());
        let updates = find(&succ, "UpdateTerm");
        assert_eq!(updates.len(), 1);
        let s2 = &updates[0].1;
        assert_eq!(per_node(s2, "currentTerm", 2), Value::Int(2));
        assert_eq!(bag_messages(s2).len(), 1, "message not consumed");
    }

    #[test]
    fn spec_bug2_leaves_candidate_request_unanswered() {
        let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
        cfg.bug_missing_reply = true;
        let spec = RaftSpec::new(cfg);
        // Elect node 1 (vote from 2) while node 3 is also a candidate
        // at the same term.
        let init = spec.init_states().remove(0);
        let succ = successors(&spec, &init);
        let s = find(&succ, "Timeout")
            .iter()
            .find(|(a, _)| a.params[0] == Value::Int(1))
            .unwrap()
            .1
            .clone();
        let succ = successors(&spec, &s);
        let s = find(&succ, "Timeout")
            .iter()
            .find(|(a, _)| a.params[0] == Value::Int(3))
            .unwrap()
            .1
            .clone();
        let succ = successors(&spec, &s);
        let s = find(&succ, "RequestVote")
            .iter()
            .find(|(a, _)| a.params == vec![Value::Int(1), Value::Int(2)])
            .unwrap()
            .1
            .clone();
        let succ = successors(&spec, &s);
        let s = find(&succ, "HandleRequestVoteRequest")[0].1.clone();
        let succ = successors(&spec, &s);
        let s = find(&succ, "HandleRequestVoteResponse")[0].1.clone();
        let succ = successors(&spec, &s);
        let s = find(&succ, "BecomeLeader")[0].1.clone();
        // Give the leader something to send, then target candidate 3.
        let succ = successors(&spec, &s);
        let s = find(&succ, "ClientRequest")[0].1.clone();
        let succ = successors(&spec, &s);
        let s = find(&succ, "AppendEntries")
            .iter()
            .find(|(a, _)| a.params == vec![Value::Int(1), Value::Int(3)])
            .unwrap()
            .1
            .clone();
        let before_msgs = bag_messages(&s).len();
        let succ = successors(&spec, &s);
        let handled: Vec<_> = succ
            .iter()
            .filter(|(a, _)| {
                a.name == "HandleAppendEntriesRequest" && msg_field_int(&a.params[0], "mdest") == 3
            })
            .collect();
        assert!(!handled.is_empty());
        let s2 = &handled[0].1;
        assert_eq!(per_node(s2, "state", 3), Value::str(FOLLOWER));
        assert_eq!(
            bag_messages(s2).len(),
            before_msgs,
            "buggy branch leaves the request in flight"
        );
        // The fixed spec consumes and replies in one step.
        let mut fixed_cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
        fixed_cfg.bug_missing_reply = false;
        let fixed = RaftSpec::new(fixed_cfg);
        let succ = successors(&fixed, &s);
        let s3 = succ
            .iter()
            .find(|(a, _)| {
                a.name == "HandleAppendEntriesRequest" && msg_field_int(&a.params[0], "mdest") == 3
            })
            .map(|(_, st)| st)
            .unwrap();
        assert!(
            bag_messages(s3)
                .iter()
                .any(|m| msg_type(m) == "AppendEntriesResponse"),
            "fixed branch replies"
        );
    }

    #[test]
    fn simulation_covers_the_large_model() {
        // The 3-server async model is too big to enumerate in a unit
        // test; random simulation (TLC's -simulate analog) still
        // checks the safety invariants on sampled behaviors.
        use mocket_checker::{simulate, SimulateConfig};
        use std::sync::Arc;
        let spec = RaftSpec::new(RaftSpecConfig::xraft(vec![1, 2, 3]));
        let r = simulate(
            Arc::new(spec),
            &[election_safety(), log_matching()],
            &SimulateConfig {
                behaviors: 60,
                max_depth: 40,
                seed: 7,
            },
        );
        assert!(r.ok(), "{:?}", r.violation.map(|v| v.to_string()));
        assert!(r.stats.distinct_states_seen > 500);
    }

    #[test]
    fn election_safety_invariant_holds_on_model() {
        use mocket_checker::ModelChecker;
        use std::sync::Arc;
        let result = ModelChecker::new(Arc::new(spec2()))
            .invariant(election_safety())
            .invariant(log_matching())
            .max_states(50_000)
            .run();
        assert!(result.ok(), "{:?}", result.violation.map(|v| v.to_string()));
        assert!(result.stats.distinct_states > 50);
    }
}
