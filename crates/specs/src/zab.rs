//! The ZooKeeper atomic broadcast (ZAB) specification.
//!
//! Developed for this reproduction the way the authors developed
//! theirs (§5.3): from the implementation and the ZAB design
//! documents, testing-oriented — actions first, variables second. Two
//! message-related variables model ZooKeeper's two communication
//! mechanisms: `le_msgs` for leader-election notifications and
//! `bc_msgs` for the synchronization/broadcast channel, both plain
//! sets (no drop/duplicate faults; §5.3 notes ZAB's designers never
//! claimed to handle them).
//!
//! The protocol here is a faithful small-model ZAB skeleton: fast
//! leader election on `(lastZxid, id)` votes with quorum agreement,
//! a discovery/synchronization handshake (NEWEPOCH / EPOCHACK /
//! NEWLEADER / ACKLD with the acceptedEpoch-then-currentEpoch durable
//! writes whose ordering ZooKeeper bug #2 violates), and a one-
//! outstanding-proposal broadcast phase (PROPOSE / ACK / COMMIT).

use mocket_tla::{vrec, ActionClass, ActionDef, Spec, State, Value, VarClass, VarDef};

/// Node phase constants.
pub const LOOKING: &str = "LOOKING";
/// Following an elected leader.
pub const FOLLOWING: &str = "FOLLOWING";
/// Leading.
pub const LEADING: &str = "LEADING";

/// Model configuration.
#[derive(Debug, Clone)]
pub struct ZabSpecConfig {
    /// Server ids.
    pub servers: Vec<i64>,
    /// Bound on `ClientRequest` occurrences.
    pub client_request_limit: i64,
    /// Bound on `Restart` occurrences.
    pub restart_limit: i64,
    /// Bound on `Crash` occurrences.
    pub crash_limit: i64,
    /// Servers allowed to start elections (symmetry-style reduction;
    /// `None` = all).
    pub starters: Option<Vec<i64>>,
}

impl ZabSpecConfig {
    /// A small default model.
    pub fn small(servers: Vec<i64>) -> Self {
        ZabSpecConfig {
            servers,
            client_request_limit: 1,
            restart_limit: 0,
            crash_limit: 0,
            starters: None,
        }
    }

    fn quorum(&self) -> usize {
        self.servers.len() / 2 + 1
    }
}

/// The ZAB specification.
#[derive(Debug, Clone)]
pub struct ZabSpec {
    /// Model configuration.
    pub config: ZabSpecConfig,
}

impl ZabSpec {
    /// Creates the spec.
    pub fn new(config: ZabSpecConfig) -> Self {
        ZabSpec { config }
    }
}

// ----------------------------------------------------------------------
// Helpers.
// ----------------------------------------------------------------------

fn node(i: i64) -> Value {
    Value::Int(i)
}

fn pn(s: &State, var: &str, i: i64) -> Value {
    s.expect(var).expect_apply(&node(i)).clone()
}

fn set_pn(s: &State, var: &str, i: i64, v: Value) -> State {
    s.with(var, s.expect(var).except(&node(i), v))
}

fn is_alive(s: &State, i: i64) -> bool {
    pn(s, "alive", i) == Value::Bool(true)
}

fn counter(s: &State, name: &str) -> i64 {
    s.expect(name).expect_int()
}

fn bump(s: &State, name: &str) -> State {
    s.with(name, Value::Int(counter(s, name) + 1))
}

fn set_add(s: &State, var: &str, m: Value) -> State {
    s.with(var, s.expect(var).with_elem(m))
}

fn set_remove(s: &State, var: &str, m: &Value) -> State {
    s.with(var, s.expect(var).without_elem(m))
}

fn set_msgs(s: &State, var: &str) -> Vec<Value> {
    match s.expect(var) {
        Value::Set(set) => set.iter().cloned().collect(),
        _ => Vec::new(),
    }
}

fn fld(m: &Value, f: &str) -> i64 {
    m.expect_field(f).expect_int()
}

fn mtype(m: &Value) -> &str {
    m.expect_field("mtype").expect_str()
}

/// Last zxid in a history sequence (0 when empty).
fn last_zxid(history: &Value) -> i64 {
    history
        .last()
        .map(|e| e.expect_field("zxid").expect_int())
        .unwrap_or(0)
}

/// Vote ordering: `(zxid, id)` lexicographic.
fn vote_gt(a_zxid: i64, a_id: i64, b_zxid: i64, b_id: i64) -> bool {
    a_zxid > b_zxid || (a_zxid == b_zxid && a_id > b_id)
}

/// Builds a vote record.
fn vote(leader: i64, zxid: i64) -> Value {
    vrec! { vleader => leader, vzxid => zxid }
}

impl Spec for ZabSpec {
    fn name(&self) -> &str {
        "Zab"
    }

    fn variables(&self) -> Vec<VarDef> {
        vec![
            VarDef::new("le_msgs", VarClass::MessageRelated),
            VarDef::new("bc_msgs", VarClass::MessageRelated),
            VarDef::new("zbState", VarClass::StateRelated),
            VarDef::new("vote", VarClass::StateRelated),
            VarDef::new("voteTable", VarClass::StateRelated),
            VarDef::new("leaderOf", VarClass::StateRelated),
            VarDef::new("acceptedEpoch", VarClass::StateRelated),
            VarDef::new("currentEpoch", VarClass::StateRelated),
            VarDef::new("history", VarClass::StateRelated),
            VarDef::new("lastCommitted", VarClass::StateRelated),
            VarDef::new("synced", VarClass::StateRelated),
            VarDef::new("epochAcks", VarClass::StateRelated),
            VarDef::new("acks", VarClass::StateRelated),
            VarDef::new("alive", VarClass::Auxiliary),
            VarDef::new("clientRequests", VarClass::ActionCounter),
            VarDef::new("restartCount", VarClass::ActionCounter),
            VarDef::new("crashCount", VarClass::ActionCounter),
        ]
    }

    fn init_states(&self) -> Vec<State> {
        let servers: Vec<Value> = self.config.servers.iter().map(|&i| Value::Int(i)).collect();
        vec![State::from_pairs([
            ("le_msgs", Value::empty_set()),
            ("bc_msgs", Value::empty_set()),
            (
                "zbState",
                Value::const_fun(servers.clone(), Value::str(LOOKING)),
            ),
            ("vote", Value::const_fun(servers.clone(), Value::Nil)),
            (
                "voteTable",
                Value::const_fun(servers.clone(), Value::fun([])),
            ),
            ("leaderOf", Value::const_fun(servers.clone(), Value::Nil)),
            (
                "acceptedEpoch",
                Value::const_fun(servers.clone(), Value::Int(0)),
            ),
            (
                "currentEpoch",
                Value::const_fun(servers.clone(), Value::Int(0)),
            ),
            (
                "history",
                Value::const_fun(servers.clone(), Value::empty_seq()),
            ),
            (
                "lastCommitted",
                Value::const_fun(servers.clone(), Value::Int(0)),
            ),
            (
                "synced",
                Value::const_fun(servers.clone(), Value::empty_set()),
            ),
            (
                "epochAcks",
                Value::const_fun(servers.clone(), Value::empty_set()),
            ),
            ("acks", Value::const_fun(servers, Value::empty_set())),
            (
                "alive",
                Value::const_fun(
                    self.config.servers.iter().map(|&i| Value::Int(i)),
                    Value::Bool(true),
                ),
            ),
            ("clientRequests", Value::Int(0)),
            ("restartCount", Value::Int(0)),
            ("crashCount", Value::Int(0)),
        ])]
    }

    fn actions(&self) -> Vec<ActionDef> {
        let cfg = self.config.clone();
        let mut actions = Vec::new();

        // ---------------- StartElection(i) ----------------
        {
            let starters = cfg.starters.clone().unwrap_or_else(|| cfg.servers.clone());
            actions.push(ActionDef::with_params(
                "StartElection",
                ActionClass::SingleNode,
                move |_s| starters.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let enabled = is_alive(s, i)
                        && pn(s, "zbState", i) == Value::str(LOOKING)
                        && pn(s, "vote", i) == Value::Nil;
                    enabled.then(|| {
                        let zxid = last_zxid(&pn(s, "history", i));
                        let v = vote(i, zxid);
                        let s = set_pn(s, "vote", i, v.clone());
                        set_pn(&s, "voteTable", i, Value::fun([(node(i), v)]))
                    })
                },
            ));
        }

        // ---------------- SendVote(i, j) ----------------
        {
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "SendVote",
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
                    if !is_alive(s, i)
                        || pn(s, "zbState", i) != Value::str(LOOKING)
                        || pn(s, "vote", i) == Value::Nil
                    {
                        return None;
                    }
                    let v = pn(s, "vote", i);
                    let m = vrec! {
                        mtype => "Vote",
                        mvote => v,
                        msource => i,
                        mdest => j,
                    };
                    (!s.expect("le_msgs").contains(&m)).then(|| set_add(s, "le_msgs", m))
                },
            ));
        }

        // ---------------- HandleVote(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleVote",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "le_msgs")
                        .into_iter()
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = fld(m, "mdest");
                    let j = fld(m, "msource");
                    if !is_alive(s, i) {
                        return None;
                    }
                    let s2 = set_remove(s, "le_msgs", m);
                    let incoming = m.expect_field("mvote").clone();
                    if pn(&s2, "zbState", i) != Value::str(LOOKING) {
                        // An established node answers with its own
                        // (decided) vote so late joiners can find the
                        // leader.
                        let reply = vrec! {
                            mtype => "Vote",
                            mvote => pn(&s2, "vote", i),
                            msource => i,
                            mdest => j,
                        };
                        return Some(if s2.expect("le_msgs").contains(&reply) {
                            s2
                        } else {
                            set_add(&s2, "le_msgs", reply)
                        });
                    }
                    if pn(&s2, "vote", i) == Value::Nil {
                        // Not yet in an election round: record only.
                        let table = pn(&s2, "voteTable", i).except(&node(j), incoming);
                        return Some(set_pn(&s2, "voteTable", i, table));
                    }
                    let mine = pn(&s2, "vote", i);
                    let in_zxid = fld(&incoming, "vzxid");
                    let in_leader = fld(&incoming, "vleader");
                    let my_zxid = fld(&mine, "vzxid");
                    let my_leader = fld(&mine, "vleader");
                    let table = pn(&s2, "voteTable", i).except(&node(j), incoming.clone());
                    let s3 = set_pn(&s2, "voteTable", i, table);
                    Some(if vote_gt(in_zxid, in_leader, my_zxid, my_leader) {
                        // Adopt the better vote (and count it as ours).
                        let s4 = set_pn(&s3, "vote", i, incoming.clone());
                        let table = pn(&s4, "voteTable", i).except(&node(i), incoming);
                        set_pn(&s4, "voteTable", i, table)
                    } else {
                        s3
                    })
                },
            ));
        }

        // ---------------- DecideLeader(i) ----------------
        {
            let cfg2 = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "DecideLeader",
                ActionClass::SingleNode,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    if !is_alive(s, i)
                        || pn(s, "zbState", i) != Value::str(LOOKING)
                        || pn(s, "vote", i) == Value::Nil
                    {
                        return None;
                    }
                    let mine = pn(s, "vote", i);
                    let table = pn(s, "voteTable", i);
                    let agreeing = match &table {
                        Value::Fun(f) => f.values().filter(|v| **v == mine).count(),
                        _ => 0,
                    };
                    if agreeing < cfg2.quorum() {
                        return None;
                    }
                    let leader = fld(&mine, "vleader");
                    let s = set_pn(s, "leaderOf", i, Value::Int(leader));
                    Some(if leader == i {
                        set_pn(&s, "zbState", i, Value::str(LEADING))
                    } else {
                        set_pn(&s, "zbState", i, Value::str(FOLLOWING))
                    })
                },
            ));
        }

        // ---------------- SendNewEpoch(l, j) ----------------
        {
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "SendNewEpoch",
                ActionClass::MessageSend,
                move |_s| {
                    let mut out = Vec::new();
                    for &l in &servers {
                        for &j in &servers {
                            if l != j {
                                out.push(vec![Value::Int(l), Value::Int(j)]);
                            }
                        }
                    }
                    out
                },
                move |s, ps| {
                    let (l, j) = (ps[0].expect_int(), ps[1].expect_int());
                    if !is_alive(s, l) || pn(s, "zbState", l) != Value::str(LEADING) {
                        return None;
                    }
                    // Only court nodes that follow this leader.
                    if pn(s, "leaderOf", j) != Value::Int(l) {
                        return None;
                    }
                    if pn(s, "synced", l).contains(&node(j)) {
                        return None;
                    }
                    let epoch = pn(s, "currentEpoch", l).expect_int() + 1;
                    let m = vrec! {
                        mtype => "NewEpoch",
                        mepoch => epoch,
                        msource => l,
                        mdest => j,
                    };
                    (!s.expect("bc_msgs").contains(&m)).then(|| set_add(s, "bc_msgs", m))
                },
            ));
        }

        // ---------------- HandleNewEpoch(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleNewEpoch",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "bc_msgs")
                        .into_iter()
                        .filter(|m| mtype(m) == "NewEpoch")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = fld(m, "mdest");
                    let l = fld(m, "msource");
                    if !is_alive(s, i) || pn(s, "zbState", i) != Value::str(FOLLOWING) {
                        return None;
                    }
                    let epoch = fld(m, "mepoch");
                    if epoch < pn(s, "acceptedEpoch", i).expect_int() {
                        return Some(set_remove(s, "bc_msgs", m));
                    }
                    // Durably accept the epoch, then acknowledge.
                    let s2 = set_pn(s, "acceptedEpoch", i, Value::Int(epoch));
                    let s2 = set_remove(&s2, "bc_msgs", m);
                    let ack = vrec! {
                        mtype => "EpochAck",
                        mepoch => epoch,
                        mzxid => last_zxid(&pn(&s2, "history", i)),
                        msource => i,
                        mdest => l,
                    };
                    Some(set_add(&s2, "bc_msgs", ack))
                },
            ));
        }

        // ---------------- HandleEpochAck(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleEpochAck",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "bc_msgs")
                        .into_iter()
                        .filter(|m| mtype(m) == "EpochAck")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let l = fld(m, "mdest");
                    let j = fld(m, "msource");
                    if !is_alive(s, l) || pn(s, "zbState", l) != Value::str(LEADING) {
                        return None;
                    }
                    let s2 = set_remove(s, "bc_msgs", m);
                    let s2 = set_pn(
                        &s2,
                        "epochAcks",
                        l,
                        pn(&s2, "epochAcks", l).with_elem(node(j)),
                    );
                    // Ship NEWLEADER with the leader's history.
                    let epoch = fld(m, "mepoch");
                    let nl = vrec! {
                        mtype => "NewLeader",
                        mepoch => epoch,
                        mhistory => pn(&s2, "history", l),
                        msource => l,
                        mdest => j,
                    };
                    Some(set_add(&s2, "bc_msgs", nl))
                },
            ));
        }

        // ---------------- HandleNewLeader(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleNewLeader",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "bc_msgs")
                        .into_iter()
                        .filter(|m| mtype(m) == "NewLeader")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = fld(m, "mdest");
                    let l = fld(m, "msource");
                    if !is_alive(s, i) || pn(s, "zbState", i) != Value::str(FOLLOWING) {
                        return None;
                    }
                    let epoch = fld(m, "mepoch");
                    // Adopt the epoch durably and the leader's history.
                    let s2 = set_pn(s, "currentEpoch", i, Value::Int(epoch));
                    let s2 = set_pn(&s2, "history", i, m.expect_field("mhistory").clone());
                    let s2 = set_remove(&s2, "bc_msgs", m);
                    let ack = vrec! {
                        mtype => "AckLd",
                        mepoch => epoch,
                        msource => i,
                        mdest => l,
                    };
                    Some(set_add(&s2, "bc_msgs", ack))
                },
            ));
        }

        // ---------------- HandleAckLd(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleAckLd",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "bc_msgs")
                        .into_iter()
                        .filter(|m| mtype(m) == "AckLd")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let l = fld(m, "mdest");
                    let j = fld(m, "msource");
                    if !is_alive(s, l) || pn(s, "zbState", l) != Value::str(LEADING) {
                        return None;
                    }
                    let s2 = set_remove(s, "bc_msgs", m);
                    let s2 = set_pn(&s2, "synced", l, pn(&s2, "synced", l).with_elem(node(j)));
                    // The leader adopts the new epoch durably when the
                    // first follower completes synchronization.
                    let epoch = fld(m, "mepoch");
                    Some(set_pn(&s2, "currentEpoch", l, Value::Int(epoch)))
                },
            ));
        }

        // ---------------- ClientRequest(l) ----------------
        {
            let cfg2 = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "ClientRequest",
                ActionClass::UserRequest,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let l = ps[0].expect_int();
                    let synced = pn(s, "synced", l);
                    let enabled = is_alive(s, l)
                        && pn(s, "zbState", l) == Value::str(LEADING)
                        && synced.cardinality() + 1 >= cfg2.quorum()
                        && counter(s, "clientRequests") < cfg2.client_request_limit
                        // One outstanding proposal at a time.
                        && last_zxid(&pn(s, "history", l))
                            <= pn(s, "lastCommitted", l).expect_int();
                    enabled.then(|| {
                        let datum = counter(s, "clientRequests") + 1;
                        let epoch = pn(s, "currentEpoch", l).expect_int();
                        let zxid = epoch * 100 + datum;
                        let entry = vrec! { zxid => zxid, value => datum };
                        let s2 = set_pn(s, "history", l, pn(s, "history", l).append(entry));
                        let s2 = set_pn(&s2, "acks", l, Value::set([node(l)]));
                        bump(&s2, "clientRequests")
                    })
                },
            ));
        }

        // ---------------- SendProposal(l, j) ----------------
        {
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "SendProposal",
                ActionClass::MessageSend,
                move |_s| {
                    let mut out = Vec::new();
                    for &l in &servers {
                        for &j in &servers {
                            if l != j {
                                out.push(vec![Value::Int(l), Value::Int(j)]);
                            }
                        }
                    }
                    out
                },
                move |s, ps| {
                    let (l, j) = (ps[0].expect_int(), ps[1].expect_int());
                    if !is_alive(s, l) || pn(s, "zbState", l) != Value::str(LEADING) {
                        return None;
                    }
                    if !pn(s, "synced", l).contains(&node(j)) {
                        return None;
                    }
                    let history = pn(s, "history", l);
                    let zxid = last_zxid(&history);
                    if zxid <= pn(s, "lastCommitted", l).expect_int() {
                        return None; // Nothing outstanding.
                    }
                    let entry = history.last().unwrap().clone();
                    let m = vrec! {
                        mtype => "Propose",
                        mentry => entry,
                        msource => l,
                        mdest => j,
                    };
                    (!s.expect("bc_msgs").contains(&m)).then(|| set_add(s, "bc_msgs", m))
                },
            ));
        }

        // ---------------- HandlePropose(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandlePropose",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "bc_msgs")
                        .into_iter()
                        .filter(|m| mtype(m) == "Propose")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = fld(m, "mdest");
                    let l = fld(m, "msource");
                    if !is_alive(s, i) || pn(s, "zbState", i) != Value::str(FOLLOWING) {
                        return None;
                    }
                    let entry = m.expect_field("mentry").clone();
                    let zxid = fld(&entry, "zxid");
                    let s2 = set_remove(s, "bc_msgs", m);
                    let s2 = if last_zxid(&pn(&s2, "history", i)) < zxid {
                        set_pn(&s2, "history", i, pn(&s2, "history", i).append(entry))
                    } else {
                        s2
                    };
                    let ack = vrec! {
                        mtype => "Ack",
                        mzxid => zxid,
                        msource => i,
                        mdest => l,
                    };
                    Some(set_add(&s2, "bc_msgs", ack))
                },
            ));
        }

        // ---------------- HandleAck(m) ----------------
        {
            actions.push(ActionDef::with_params(
                "HandleAck",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "bc_msgs")
                        .into_iter()
                        .filter(|m| mtype(m) == "Ack")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let l = fld(m, "mdest");
                    let j = fld(m, "msource");
                    if !is_alive(s, l) || pn(s, "zbState", l) != Value::str(LEADING) {
                        return None;
                    }
                    let s2 = set_remove(s, "bc_msgs", m);
                    Some(set_pn(
                        &s2,
                        "acks",
                        l,
                        pn(&s2, "acks", l).with_elem(node(j)),
                    ))
                },
            ));
        }

        // ---------------- CommitProposal(l) ----------------
        {
            let cfg2 = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "CommitProposal",
                ActionClass::SingleNode,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let l = ps[0].expect_int();
                    if !is_alive(s, l) || pn(s, "zbState", l) != Value::str(LEADING) {
                        return None;
                    }
                    let zxid = last_zxid(&pn(s, "history", l));
                    if zxid <= pn(s, "lastCommitted", l).expect_int() {
                        return None;
                    }
                    if pn(s, "acks", l).cardinality() < cfg2.quorum() {
                        return None;
                    }
                    Some(set_pn(s, "lastCommitted", l, Value::Int(zxid)))
                },
            ));
        }

        // ---------------- SendCommit(l, j) / HandleCommit(m) --------
        {
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "SendCommit",
                ActionClass::MessageSend,
                move |_s| {
                    let mut out = Vec::new();
                    for &l in &servers {
                        for &j in &servers {
                            if l != j {
                                out.push(vec![Value::Int(l), Value::Int(j)]);
                            }
                        }
                    }
                    out
                },
                move |s, ps| {
                    let (l, j) = (ps[0].expect_int(), ps[1].expect_int());
                    if !is_alive(s, l) || pn(s, "zbState", l) != Value::str(LEADING) {
                        return None;
                    }
                    if !pn(s, "synced", l).contains(&node(j)) {
                        return None;
                    }
                    let committed = pn(s, "lastCommitted", l).expect_int();
                    if committed == 0 || pn(s, "lastCommitted", j).expect_int() >= committed {
                        return None;
                    }
                    let m = vrec! {
                        mtype => "Commit",
                        mzxid => committed,
                        msource => l,
                        mdest => j,
                    };
                    (!s.expect("bc_msgs").contains(&m)).then(|| set_add(s, "bc_msgs", m))
                },
            ));
            actions.push(ActionDef::with_params(
                "HandleCommit",
                ActionClass::MessageReceive,
                |s| {
                    set_msgs(s, "bc_msgs")
                        .into_iter()
                        .filter(|m| mtype(m) == "Commit")
                        .map(|m| vec![m])
                        .collect()
                },
                move |s, ps| {
                    let m = &ps[0];
                    let i = fld(m, "mdest");
                    if !is_alive(s, i) || pn(s, "zbState", i) != Value::str(FOLLOWING) {
                        return None;
                    }
                    let zxid = fld(m, "mzxid");
                    let s2 = set_remove(s, "bc_msgs", m);
                    let cur = pn(&s2, "lastCommitted", i).expect_int();
                    Some(set_pn(&s2, "lastCommitted", i, Value::Int(cur.max(zxid))))
                },
            ));
        }

        // ---------------- Restart(i) / Crash(i) ----------------
        {
            let cfg2 = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "Restart",
                ActionClass::ExternalFault,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let enabled = is_alive(s, i) && counter(s, "restartCount") < cfg2.restart_limit;
                    enabled.then(|| {
                        // acceptedEpoch, currentEpoch and history are
                        // durable; everything else resets.
                        let s = set_pn(s, "zbState", i, Value::str(LOOKING));
                        let s = set_pn(&s, "vote", i, Value::Nil);
                        let s = set_pn(&s, "voteTable", i, Value::fun([]));
                        let s = set_pn(&s, "leaderOf", i, Value::Nil);
                        let s = set_pn(&s, "synced", i, Value::empty_set());
                        let s = set_pn(&s, "epochAcks", i, Value::empty_set());
                        let s = set_pn(&s, "acks", i, Value::empty_set());
                        bump(&s, "restartCount")
                    })
                },
            ));
            let cfg3 = cfg.clone();
            let servers = cfg.servers.clone();
            actions.push(ActionDef::with_params(
                "Crash",
                ActionClass::ExternalFault,
                move |_s| servers.iter().map(|&i| vec![Value::Int(i)]).collect(),
                move |s, ps| {
                    let i = ps[0].expect_int();
                    let enabled = is_alive(s, i) && counter(s, "crashCount") < cfg3.crash_limit;
                    enabled.then(|| {
                        let s = set_pn(s, "alive", i, Value::Bool(false));
                        bump(&s, "crashCount")
                    })
                },
            ));
        }

        actions
    }
}

/// ZAB's agreement invariant: committed prefixes agree pairwise.
pub fn commit_agreement() -> mocket_checker::Invariant {
    mocket_checker::Invariant::new("CommitAgreement", |s: &State| {
        let histories = s.expect("history");
        let commits = s.expect("lastCommitted");
        let (Value::Fun(histories), Value::Fun(commits)) = (histories, commits) else {
            return true;
        };
        let nodes: Vec<&Value> = histories.keys().collect();
        for (x, i) in nodes.iter().enumerate() {
            for j in nodes.iter().skip(x + 1) {
                let c = commits[*i].expect_int().min(commits[*j].expect_int());
                let hi = &histories[*i];
                let hj = &histories[*j];
                let n = hi.len().min(hj.len());
                for k in 1..=n {
                    let ei = hi.index(k).unwrap();
                    let ej = hj.index(k).unwrap();
                    if ei.expect_field("zxid").expect_int() <= c
                        && ej.expect_field("zxid").expect_int() <= c
                        && ei != ej
                    {
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

    fn spec2() -> ZabSpec {
        ZabSpec::new(ZabSpecConfig::small(vec![1, 2]))
    }

    fn find<'a>(
        succ: &'a [(mocket_tla::ActionInstance, State)],
        name: &str,
    ) -> Vec<&'a (mocket_tla::ActionInstance, State)> {
        succ.iter().filter(|(a, _)| a.name == name).collect()
    }

    /// Drives the 2-node model to an elected, synced leader 2.
    fn elect_and_sync(spec: &ZabSpec) -> State {
        let mut s = spec.init_states().remove(0);
        for _ in 0..2 {
            let succ = successors(spec, &s);
            s = find(&succ, "StartElection")[0].1.clone();
        }
        // Node 2 sends its vote to node 1; node 1 adopts it and
        // rebroadcasts; node 2 collects the agreement.
        let succ = successors(spec, &s);
        s = find(&succ, "SendVote")
            .iter()
            .find(|(a, _)| a.params == vec![Value::Int(2), Value::Int(1)])
            .unwrap()
            .1
            .clone();
        let succ = successors(spec, &s);
        s = find(&succ, "HandleVote")[0].1.clone();
        assert_eq!(
            pn(&s, "vote", 1),
            vote(2, 0),
            "node 1 adopted node 2's vote"
        );
        let succ = successors(spec, &s);
        s = find(&succ, "SendVote")
            .iter()
            .find(|(a, _)| a.params == vec![Value::Int(1), Value::Int(2)])
            .unwrap()
            .1
            .clone();
        let succ = successors(spec, &s);
        s = find(&succ, "HandleVote")[0].1.clone();
        // Both decide.
        let succ = successors(spec, &s);
        s = find(&succ, "DecideLeader")
            .iter()
            .find(|(a, _)| a.params[0] == Value::Int(1))
            .unwrap()
            .1
            .clone();
        let succ = successors(spec, &s);
        s = find(&succ, "DecideLeader")[0].1.clone();
        assert_eq!(pn(&s, "zbState", 2), Value::str(LEADING));
        assert_eq!(pn(&s, "zbState", 1), Value::str(FOLLOWING));
        // Sync: NEWEPOCH -> EPOCHACK -> NEWLEADER -> ACKLD.
        for action in [
            "SendNewEpoch",
            "HandleNewEpoch",
            "HandleEpochAck",
            "HandleNewLeader",
            "HandleAckLd",
        ] {
            let succ = successors(spec, &s);
            let found = find(&succ, action);
            assert!(!found.is_empty(), "{action} should be enabled");
            s = found[0].1.clone();
        }
        s
    }

    #[test]
    fn election_and_sync_complete() {
        let spec = spec2();
        let s = elect_and_sync(&spec);
        assert_eq!(pn(&s, "acceptedEpoch", 1), Value::Int(1));
        assert_eq!(pn(&s, "currentEpoch", 1), Value::Int(1));
        assert_eq!(pn(&s, "currentEpoch", 2), Value::Int(1));
        assert!(pn(&s, "synced", 2).contains(&node(1)));
    }

    #[test]
    fn broadcast_commits_a_request() {
        let spec = spec2();
        let mut s = elect_and_sync(&spec);
        for action in [
            "ClientRequest",
            "SendProposal",
            "HandlePropose",
            "HandleAck",
            "CommitProposal",
            "SendCommit",
            "HandleCommit",
        ] {
            let succ = successors(&spec, &s);
            let found = find(&succ, action);
            assert!(!found.is_empty(), "{action} should be enabled");
            s = found[0].1.clone();
        }
        assert_eq!(pn(&s, "lastCommitted", 2), Value::Int(101));
        assert_eq!(pn(&s, "lastCommitted", 1), Value::Int(101));
        assert_eq!(pn(&s, "history", 1).len(), 1);
    }

    #[test]
    fn restart_keeps_durable_epochs() {
        let mut cfg = ZabSpecConfig::small(vec![1, 2]);
        cfg.restart_limit = 1;
        let spec = ZabSpec::new(cfg);
        let s = elect_and_sync(&spec);
        let succ = successors(&spec, &s);
        let restarted = find(&succ, "Restart")
            .iter()
            .find(|(a, _)| a.params[0] == Value::Int(1))
            .unwrap()
            .1
            .clone();
        assert_eq!(pn(&restarted, "zbState", 1), Value::str(LOOKING));
        assert_eq!(pn(&restarted, "vote", 1), Value::Nil);
        assert_eq!(pn(&restarted, "acceptedEpoch", 1), Value::Int(1));
        assert_eq!(pn(&restarted, "currentEpoch", 1), Value::Int(1));
        // A restarted node can start a new election.
        let succ = successors(&spec, &restarted);
        assert!(find(&succ, "StartElection")
            .iter()
            .any(|(a, _)| a.params[0] == Value::Int(1)));
    }

    #[test]
    fn model_checks_clean_with_agreement_invariant() {
        use mocket_checker::ModelChecker;
        use std::sync::Arc;
        let r = ModelChecker::new(Arc::new(spec2()))
            .invariant(commit_agreement())
            .max_states(100_000)
            .run();
        assert!(r.ok(), "{:?}", r.violation.map(|v| v.to_string()));
        assert!(!r.stats.truncated, "2-node model must be finite");
        assert!(r.stats.distinct_states > 100);
    }

    #[test]
    fn table1_scale() {
        let spec = spec2();
        assert_eq!(spec.variables().len(), 17);
        assert_eq!(spec.actions().len(), 18);
        let msg_vars = spec
            .variables()
            .iter()
            .filter(|v| v.class == VarClass::MessageRelated)
            .count();
        assert_eq!(msg_vars, 2, "le_msgs and bc_msgs (§4.1.1)");
    }
}
