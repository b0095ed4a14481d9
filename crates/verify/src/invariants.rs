//! Layer 1: the invariant checker.
//!
//! [`check_run`] consumes a finished run — its [`EngineConfig`] and the
//! [`RunResult`] with the embedded [`wadc_core::engine::AuditLog`] — and
//! asserts protocol
//! properties strictly from the outside, the way the paper studied "the
//! relocation traces we obtained from the simulations". Every broken rule
//! becomes one [`Violation`]; a correct engine produces none.

use std::collections::{HashMap, HashSet};

use wadc_app::workload::Workload;
use wadc_core::engine::audit::AuditEvent;
use wadc_core::engine::{Algorithm, EngineConfig, RunOutcome, RunResult};
use wadc_plan::cost::STARTUP;
use wadc_plan::ids::{HostId, OperatorId};
use wadc_sim::rng::derive_seed;
use wadc_sim::time::SimTime;

/// One broken invariant: which rule, and the concrete evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short stable rule name (e.g. `"barrier-ordering"`).
    pub rule: &'static str,
    /// Human-readable description of the offending evidence.
    pub detail: String,
}

impl Violation {
    fn new(rule: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            rule,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Checks every invariant against a finished run and returns all
/// violations found (empty means the run conforms).
pub fn check_run(cfg: &EngineConfig, result: &RunResult) -> Vec<Violation> {
    let mut v = Vec::new();
    check_audit_monotone(result, &mut v);
    check_arrivals(cfg, result, &mut v);
    check_counters(result, &mut v);
    check_algorithm_scope(cfg, result, &mut v);
    check_barrier_protocol(cfg, result, &mut v);
    check_residency(cfg, result, &mut v);
    check_byte_conservation(cfg, result, &mut v);
    check_loss_accounting(result, &mut v);
    check_crash_faults(result, &mut v);
    v
}

/// Panics with a readable report if [`check_run`] finds any violation —
/// the form used by tests and the property suite.
///
/// # Panics
///
/// Panics if the run breaks any invariant.
pub fn assert_clean(cfg: &EngineConfig, result: &RunResult) {
    let violations = check_run(cfg, result);
    assert!(
        violations.is_empty(),
        "run violates {} invariant(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Audit events must be recorded in simulation-time order.
fn check_audit_monotone(result: &RunResult, v: &mut Vec<Violation>) {
    let events = result.audit.events();
    for w in events.windows(2) {
        if w[1].at() < w[0].at() {
            v.push(Violation::new(
                "audit-monotone",
                format!(
                    "event at {:?} recorded after event at {:?}",
                    w[1].at(),
                    w[0].at()
                ),
            ));
        }
    }
}

/// Image arrivals must be strictly increasing, match the delivered count,
/// and (on a completed run) cover the whole workload with the last arrival
/// defining the completion time.
fn check_arrivals(cfg: &EngineConfig, result: &RunResult, v: &mut Vec<Violation>) {
    if result.arrivals.len() != result.images_delivered {
        v.push(Violation::new(
            "arrival-count",
            format!(
                "{} arrival timestamps but images_delivered = {}",
                result.arrivals.len(),
                result.images_delivered
            ),
        ));
    }
    for w in result.arrivals.windows(2) {
        if w[1] <= w[0] {
            v.push(Violation::new(
                "arrival-order",
                format!("arrival at {:?} not after previous at {:?}", w[1], w[0]),
            ));
            break;
        }
    }
    let expect_all = cfg.workload.images_per_server;
    if result.completed != (result.images_delivered == expect_all) {
        v.push(Violation::new(
            "completion-flag",
            format!(
                "completed = {} but delivered {}/{} images",
                result.completed, result.images_delivered, expect_all
            ),
        ));
    }
    if result.completed {
        if let Some(&last) = result.arrivals.last() {
            if last.as_micros() != result.completion_time.as_micros() {
                v.push(Violation::new(
                    "completion-time",
                    format!(
                        "completion_time {:?} != last arrival {:?}",
                        result.completion_time, last
                    ),
                ));
            }
        }
    }
}

/// The result's adaptation counters must agree with the audit log.
fn check_counters(result: &RunResult, v: &mut Vec<Violation>) {
    let count = |pred: fn(&AuditEvent) -> bool| -> u32 {
        result.audit.events().iter().filter(|e| pred(e)).count() as u32
    };
    let relocations = count(|e| matches!(e, AuditEvent::RelocationStarted { .. }));
    let changeovers = count(|e| matches!(e, AuditEvent::ChangeoverCommitted { .. }));
    let planner_runs = count(|e| matches!(e, AuditEvent::PlannerRan { .. }));
    for (name, counter, audited) in [
        ("relocations", result.relocations, relocations),
        ("changeovers", result.changeovers, changeovers),
        ("planner_runs", result.planner_runs, planner_runs),
    ] {
        if counter != audited {
            v.push(Violation::new(
                "counter-audit-mismatch",
                format!("{name} counter = {counter} but audit log has {audited}"),
            ));
        }
    }
}

/// Each algorithm may emit only its own event types: download-all never
/// plans, one-shot plans exactly once at time zero and never adapts,
/// global never takes local decisions, local never runs the barrier.
///
/// Fault events ([`AuditEvent::is_fault_event`]) are excluded first: a
/// download-all run under injected loss still must not *adapt*, but it may
/// well *lose messages*.
fn check_algorithm_scope(cfg: &EngineConfig, result: &RunResult, v: &mut Vec<Violation>) {
    // Failover re-placement after a declared host death runs the planner
    // under *every* algorithm — those searches are fault handling, not
    // adaptation, so they are scoped out along with the fault events.
    let first_death = result.audit.events().iter().find_map(|e| match e {
        AuditEvent::HostDeclaredDead { at, .. } => Some(*at),
        _ => None,
    });
    let events: Vec<&AuditEvent> = result
        .audit
        .events()
        .iter()
        .filter(|e| !e.is_fault_event())
        .filter(|e| {
            !matches!(e, AuditEvent::PlannerRan { at, .. }
                if first_death.is_some_and(|d| *at >= d))
        })
        .collect();
    let has = |pred: fn(&AuditEvent) -> bool| events.iter().any(|e| pred(e));
    let barrier = |e: &AuditEvent| {
        matches!(
            e,
            AuditEvent::ChangeoverProposed { .. }
                | AuditEvent::ServerSuspended { .. }
                | AuditEvent::ChangeoverCommitted { .. }
        )
    };
    match cfg.algorithm {
        Algorithm::DownloadAll => {
            if !events.is_empty() {
                v.push(Violation::new(
                    "scope-download-all",
                    format!(
                        "download-all must not adapt, audit has {} adaptation events",
                        events.len()
                    ),
                ));
            }
        }
        Algorithm::OneShot => {
            let planner_ok = events.len() == 1
                && matches!(
                    events[0],
                    AuditEvent::PlannerRan { at, .. } if *at == SimTime::ZERO
                );
            if !planner_ok {
                v.push(Violation::new(
                    "scope-one-shot",
                    format!(
                        "one-shot must log exactly one PlannerRan at t=0, audit has {} \
                         adaptation events",
                        events.len()
                    ),
                ));
            }
        }
        Algorithm::Global { .. } => {
            if has(|e| matches!(e, AuditEvent::LocalDecision { .. })) {
                v.push(Violation::new(
                    "scope-global",
                    "global algorithm emitted a LocalDecision",
                ));
            }
        }
        Algorithm::Local { .. } => {
            if has(barrier) {
                v.push(Violation::new(
                    "scope-local",
                    "local algorithm emitted a barrier event",
                ));
            }
        }
    }
}

/// The global barrier: versions commit in increasing order; each version is
/// proposed before any server suspends for it; all servers suspend exactly
/// once before the commit; the committed switch iteration is one past the
/// newest reported iteration. Under fault injection a proposal may time out
/// and be aborted instead of committed — version gaps in the commit
/// sequence are legal only when every skipped version was aborted, an
/// aborted version must never commit, and a committed version must never
/// abort.
fn check_barrier_protocol(cfg: &EngineConfig, result: &RunResult, v: &mut Vec<Violation>) {
    struct Round {
        proposed_at: SimTime,
        reports: HashMap<usize, u32>,
    }
    let mut rounds: HashMap<u32, Round> = HashMap::new();
    let mut aborted: HashSet<u32> = HashSet::new();
    let mut last_committed = 0u32;
    let mut deaths = 0usize;
    for e in result.audit.events() {
        match *e {
            AuditEvent::HostDeclaredDead { .. } => deaths += 1,
            AuditEvent::ChangeoverProposed { at, version, .. } => {
                let round = Round {
                    proposed_at: at,
                    reports: HashMap::new(),
                };
                if rounds.insert(version, round).is_some() {
                    v.push(Violation::new(
                        "barrier-ordering",
                        format!("version {version} proposed twice"),
                    ));
                }
            }
            AuditEvent::ServerSuspended {
                at,
                server,
                reported_iteration,
                version,
            } => match rounds.get_mut(&version) {
                None => v.push(Violation::new(
                    "barrier-ordering",
                    format!("server {server} suspended for unproposed version {version}"),
                )),
                Some(round) => {
                    if at < round.proposed_at {
                        v.push(Violation::new(
                            "barrier-ordering",
                            format!(
                                "server {server} suspended at {at:?} before version {version} \
                                     was proposed at {:?}",
                                round.proposed_at
                            ),
                        ));
                    }
                    if round.reports.insert(server, reported_iteration).is_some() {
                        v.push(Violation::new(
                            "barrier-ordering",
                            format!("server {server} suspended twice for version {version}"),
                        ));
                    }
                }
            },
            AuditEvent::ChangeoverCommitted {
                version,
                switch_iteration,
                ..
            } => {
                if aborted.contains(&version) {
                    v.push(Violation::new(
                        "barrier-ordering",
                        format!("version {version} committed after it was aborted"),
                    ));
                }
                if version <= last_committed {
                    v.push(Violation::new(
                        "barrier-ordering",
                        format!("version {version} committed after version {last_committed}"),
                    ));
                } else {
                    for skipped in last_committed + 1..version {
                        if !aborted.contains(&skipped) {
                            v.push(Violation::new(
                                "barrier-ordering",
                                format!(
                                    "version {version} committed, skipping version {skipped} \
                                     which was never aborted"
                                ),
                            ));
                        }
                    }
                }
                last_committed = version;
                match rounds.get(&version) {
                    None => v.push(Violation::new(
                        "barrier-ordering",
                        format!("version {version} committed without a proposal"),
                    )),
                    Some(round) => {
                        // With hosts declared dead the barrier commits on
                        // the live quorum: fewer reports are legal (the
                        // missing servers died or were pruned), none is not.
                        let quorum_ok = if deaths == 0 {
                            round.reports.len() == cfg.n_servers
                        } else {
                            !round.reports.is_empty() && round.reports.len() <= cfg.n_servers
                        };
                        if !quorum_ok {
                            v.push(Violation::new(
                                "barrier-ordering",
                                format!(
                                    "version {version} committed with {}/{} server reports \
                                     ({deaths} hosts declared dead)",
                                    round.reports.len(),
                                    cfg.n_servers
                                ),
                            ));
                        }
                        let newest = round.reports.values().copied().max().unwrap_or(0);
                        if switch_iteration != newest + 1 {
                            v.push(Violation::new(
                                "barrier-switch-iteration",
                                format!(
                                    "version {version} switches at iteration {switch_iteration}, \
                                     expected {} (newest report {newest} + 1)",
                                    newest + 1
                                ),
                            ));
                        }
                    }
                }
            }
            AuditEvent::ChangeoverAborted { version, .. } => {
                if !rounds.contains_key(&version) {
                    v.push(Violation::new(
                        "barrier-ordering",
                        format!("version {version} aborted without a proposal"),
                    ));
                }
                if version <= last_committed {
                    v.push(Violation::new(
                        "barrier-ordering",
                        format!("version {version} aborted after a later or equal commit"),
                    ));
                }
                if !aborted.insert(version) {
                    v.push(Violation::new(
                        "barrier-ordering",
                        format!("version {version} aborted twice"),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Operator residency and light-move timing: relocations of one operator
/// never overlap, each finish lands on the host the start named, each
/// relocation chains from where the previous one left the operator, and
/// the state transfer takes at least the per-message startup cost. A
/// fault-injected rollback ([`AuditEvent::RelocationAborted`]) must match
/// an in-flight relocation and leave the operator on the move's origin
/// host.
fn check_residency(cfg: &EngineConfig, result: &RunResult, v: &mut Vec<Violation>) {
    struct InFlight {
        started_at: SimTime,
        from: HostId,
        to: HostId,
    }
    let mut in_flight: HashMap<OperatorId, InFlight> = HashMap::new();
    let mut resident: HashMap<OperatorId, HostId> = HashMap::new();
    let total_iterations = cfg.workload.images_per_server as u32;
    for e in result.audit.events() {
        match *e {
            AuditEvent::RelocationStarted {
                at,
                op,
                from,
                to,
                after_iteration,
            } => {
                if from == to {
                    v.push(Violation::new(
                        "residency",
                        format!("operator {op:?} relocated from {from:?} to itself"),
                    ));
                }
                if after_iteration > total_iterations {
                    v.push(Violation::new(
                        "light-move-bounds",
                        format!(
                            "operator {op:?} moved after iteration {after_iteration} of \
                             {total_iterations}"
                        ),
                    ));
                }
                if let Some(prev) = in_flight.insert(
                    op,
                    InFlight {
                        started_at: at,
                        from,
                        to,
                    },
                ) {
                    v.push(Violation::new(
                        "residency",
                        format!(
                            "operator {op:?} started a relocation at {at:?} while one begun at \
                             {:?} was still in flight (resident on two hosts)",
                            prev.started_at
                        ),
                    ));
                }
                if let Some(&home) = resident.get(&op) {
                    if home != from {
                        v.push(Violation::new(
                            "residency",
                            format!(
                                "operator {op:?} relocated from {from:?} but last resumed on \
                                 {home:?}"
                            ),
                        ));
                    }
                }
            }
            AuditEvent::RelocationFinished { at, op, host } => {
                match in_flight.remove(&op) {
                    None => v.push(Violation::new(
                        "residency",
                        format!("operator {op:?} finished a relocation it never started"),
                    )),
                    Some(fl) => {
                        if host != fl.to {
                            v.push(Violation::new(
                                "residency",
                                format!(
                                    "operator {op:?} resumed on {host:?}, relocation targeted \
                                     {:?}",
                                    fl.to
                                ),
                            ));
                        }
                        let min_micros = STARTUP.as_micros();
                        if at.as_micros() < fl.started_at.as_micros() + min_micros {
                            v.push(Violation::new(
                                "light-move-timing",
                                format!(
                                    "operator {op:?} moved in {} µs, below the {} µs message \
                                     startup",
                                    at.as_micros() - fl.started_at.as_micros(),
                                    min_micros
                                ),
                            ));
                        }
                    }
                }
                resident.insert(op, host);
            }
            AuditEvent::OperatorRespawned { op, from, to, .. } => {
                // The crash orphaned whatever the operator was doing: an
                // in-flight relocation can neither finish nor roll back,
                // so a respawn silently cancels it.
                in_flight.remove(&op);
                if let Some(&home) = resident.get(&op) {
                    if home != from {
                        v.push(Violation::new(
                            "respawn-residency",
                            format!(
                                "operator {op:?} respawned from {from:?} but last resided on \
                                 {home:?}"
                            ),
                        ));
                    }
                }
                resident.insert(op, to);
            }
            AuditEvent::RelocationAborted { op, host, .. } => {
                match in_flight.remove(&op) {
                    None => v.push(Violation::new(
                        "residency",
                        format!("operator {op:?} rolled back a relocation it never started"),
                    )),
                    Some(fl) => {
                        if host != fl.from {
                            v.push(Violation::new(
                                "residency",
                                format!(
                                    "operator {op:?} rolled back to {host:?}, move originated \
                                     on {:?}",
                                    fl.from
                                ),
                            ));
                        }
                    }
                }
                resident.insert(op, host);
            }
            _ => {}
        }
    }
    if result.completed {
        for (op, fl) in &in_flight {
            v.push(Violation::new(
                "residency",
                format!(
                    "run completed with operator {op:?} still relocating (started {:?})",
                    fl.started_at
                ),
            ));
        }
    }
}

/// Byte conservation across links: nothing is delivered that was not
/// submitted, a fully drained network delivered exactly what it accepted,
/// and a download-all run must have shipped at least the whole workload
/// to the client.
fn check_byte_conservation(cfg: &EngineConfig, result: &RunResult, v: &mut Vec<Violation>) {
    let st = &result.net_stats;
    if st.completed > st.submitted {
        v.push(Violation::new(
            "byte-conservation",
            format!(
                "{} messages completed of {} submitted",
                st.completed, st.submitted
            ),
        ));
    }
    if st.bytes_delivered > st.bytes_submitted {
        v.push(Violation::new(
            "byte-conservation",
            format!(
                "{} bytes delivered of {} submitted",
                st.bytes_delivered, st.bytes_submitted
            ),
        ));
    }
    // Fault accounting is bounded by the totals it is carved out of:
    // drops happen at delivery time (so every dropped message also counts
    // as completed) and every retransmission is itself a submission.
    for (name, part, whole, total) in [
        ("dropped messages", st.dropped, st.completed, "completed"),
        (
            "dropped bytes",
            st.bytes_dropped,
            st.bytes_delivered,
            "delivered",
        ),
        (
            "retransmitted messages",
            st.retransmits,
            st.submitted,
            "submitted",
        ),
        (
            "retransmitted bytes",
            st.bytes_retransmitted,
            st.bytes_submitted,
            "submitted",
        ),
    ] {
        if part > whole {
            v.push(Violation::new(
                "byte-conservation",
                format!("{part} {name} exceed the {whole} {total}"),
            ));
        }
    }
    if st.completed == st.submitted && st.bytes_delivered != st.bytes_submitted {
        v.push(Violation::new(
            "byte-conservation",
            format!(
                "network drained ({} messages) yet {} of {} bytes delivered",
                st.completed, st.bytes_delivered, st.bytes_submitted
            ),
        ));
    }
    if result.outcome == RunOutcome::Completed && cfg.algorithm == Algorithm::DownloadAll {
        // With the canonical one-host-per-server roster every image byte
        // crosses the network to reach the client. A Degraded run is
        // exempt: a crashed host's images legitimately never ship — the
        // client composes around the pruned subtree.
        let workload = Workload::generate(&cfg.workload, cfg.n_servers, derive_seed(cfg.seed, 1));
        let payload: u64 = (0..cfg.n_servers)
            .map(|s| workload.server(s).total_bytes())
            .sum();
        if st.bytes_delivered < payload {
            v.push(Violation::new(
                "byte-conservation",
                format!(
                    "download-all delivered {} bytes, workload alone is {} bytes",
                    st.bytes_delivered, payload
                ),
            ));
        }
    }
}

/// Fault accounting: the network's drop counter and the audit log's
/// [`AuditEvent::MessageLost`] records are two views of the same losses
/// and must agree exactly.
fn check_loss_accounting(result: &RunResult, v: &mut Vec<Violation>) {
    let audited = result
        .audit
        .events()
        .iter()
        .filter(|e| matches!(e, AuditEvent::MessageLost { .. }))
        .count() as u64;
    if audited != result.net_stats.dropped {
        v.push(Violation::new(
            "loss-accounting",
            format!(
                "audit log has {audited} MessageLost events but net_stats.dropped = {}",
                result.net_stats.dropped
            ),
        ));
    }
}

/// Crash-fault bookkeeping: the post-detection traffic ban holds (no
/// message loss touching a host after it was declared dead — banned
/// traffic is discarded silently, so any audited loss proves real
/// traffic flowed), respawned operators land on surviving hosts, the
/// result's crash counters agree with the audit log, and the explicit
/// [`RunOutcome`] matches the evidence.
fn check_crash_faults(result: &RunResult, v: &mut Vec<Violation>) {
    let mut dead: HashSet<usize> = HashSet::new();
    let mut deaths = 0u32;
    let mut respawns = 0u32;
    let mut aborts = 0u32;
    for e in result.audit.events() {
        match *e {
            AuditEvent::HostDeclaredDead { host, .. } => {
                deaths += 1;
                if !dead.insert(host.index()) {
                    v.push(Violation::new(
                        "dead-host-traffic",
                        format!("host {host} declared dead twice"),
                    ));
                }
            }
            AuditEvent::MessageLost { at, from, to, .. }
                if dead.contains(&from.index()) || dead.contains(&to.index()) =>
            {
                v.push(Violation::new(
                    "dead-host-traffic",
                    format!(
                        "message {from} -> {to} lost at {at:?}, after an endpoint was \
                         declared dead"
                    ),
                ));
            }
            AuditEvent::OperatorRespawned { op, to, .. } => {
                respawns += 1;
                if dead.contains(&to.index()) {
                    v.push(Violation::new(
                        "respawn-residency",
                        format!("operator {op:?} respawned onto dead host {to}"),
                    ));
                }
            }
            AuditEvent::RunAborted { .. } => aborts += 1,
            _ => {}
        }
    }
    for (name, counter, audited) in [
        ("hosts_declared_dead", result.hosts_declared_dead, deaths),
        ("operators_respawned", result.operators_respawned, respawns),
    ] {
        if counter != audited {
            v.push(Violation::new(
                "counter-audit-mismatch",
                format!("{name} counter = {counter} but audit log has {audited}"),
            ));
        }
    }
    if aborts > 1 {
        v.push(Violation::new(
            "outcome",
            format!("{aborts} RunAborted events; a run aborts at most once"),
        ));
    }
    let outcome_ok = match result.outcome {
        RunOutcome::Aborted => aborts == 1,
        RunOutcome::Completed => aborts == 0 && deaths == 0 && result.completed,
        RunOutcome::Degraded => aborts == 0 && (deaths > 0 || !result.completed),
    };
    if !outcome_ok {
        v.push(Violation::new(
            "outcome",
            format!(
                "outcome {} inconsistent with completed = {}, {deaths} deaths, {aborts} aborts",
                result.outcome.name(),
                result.completed
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_core::experiment::Experiment;
    use wadc_net::faults::FaultPlan;
    use wadc_sim::time::SimDuration;

    #[test]
    fn quick_runs_conform_for_every_algorithm() {
        let exp = Experiment::quick(4, 42);
        for alg in [
            Algorithm::DownloadAll,
            Algorithm::OneShot,
            Algorithm::Global {
                period: SimDuration::from_secs(30),
            },
            Algorithm::Local {
                period: SimDuration::from_secs(30),
                extra_candidates: 0,
            },
        ] {
            let mut cfg = exp.template().clone();
            cfg.algorithm = alg;
            let result = exp.run(alg);
            assert!(result.completed, "{} run did not complete", alg.name());
            assert_clean(&cfg, &result);
        }
    }

    #[test]
    fn detects_tampered_counters() {
        let exp = Experiment::quick(4, 42);
        let mut cfg = exp.template().clone();
        cfg.algorithm = Algorithm::OneShot;
        let mut result = exp.run(Algorithm::OneShot);
        result.planner_runs += 1;
        let violations = check_run(&cfg, &result);
        assert!(violations
            .iter()
            .any(|v| v.rule == "counter-audit-mismatch"));
    }

    #[test]
    fn detects_byte_loss() {
        let exp = Experiment::quick(4, 42);
        let mut cfg = exp.template().clone();
        cfg.algorithm = Algorithm::DownloadAll;
        let mut result = exp.run(Algorithm::DownloadAll);
        result.net_stats.bytes_delivered = result.net_stats.bytes_submitted + 1;
        let violations = check_run(&cfg, &result);
        assert!(violations.iter().any(|v| v.rule == "byte-conservation"));
    }

    #[test]
    fn crash_run_conforms_for_every_algorithm() {
        let exp = Experiment::quick(4, 42);
        for alg in [
            Algorithm::DownloadAll,
            Algorithm::OneShot,
            Algorithm::Global {
                period: SimDuration::from_secs(30),
            },
            Algorithm::Local {
                period: SimDuration::from_secs(30),
                extra_candidates: 0,
            },
        ] {
            let mut exp = exp.clone();
            // t = 5 s is mid-iteration-2 of 8: host 1 still owes most of
            // its images, so no algorithm can finish unscathed.
            exp.template_mut().faults =
                FaultPlan::none().crash(HostId::new(1), SimTime::from_secs(5));
            exp.template_mut().algorithm = alg;
            let cfg = exp.template().clone();
            let result = exp.run(alg);
            assert_ne!(
                result.outcome,
                RunOutcome::Completed,
                "{}: a run that lost host 1 cannot count as clean",
                alg.name()
            );
            assert_clean(&cfg, &result);
        }
    }

    #[test]
    fn losing_every_server_host_aborts_instead_of_hanging() {
        let mut exp = Experiment::quick(4, 42);
        // Crash while iteration-2 demands are still being retried: every
        // retry chain exhausts, every host is declared, every server is
        // pruned, and the cascade reaches the root.
        let mut plan = FaultPlan::none();
        for h in 0..4 {
            plan = plan.crash(HostId::new(h), SimTime::from_secs(5));
        }
        exp.template_mut().faults = plan;
        let alg = Algorithm::Global {
            period: SimDuration::from_secs(30),
        };
        exp.template_mut().algorithm = alg;
        let cfg = exp.template().clone();
        let result = exp.run(alg);
        assert_eq!(result.outcome, RunOutcome::Aborted, "total collapse");
        assert!(!result.completed);
        assert!(
            result
                .audit
                .events()
                .iter()
                .any(|e| matches!(e, AuditEvent::RunAborted { .. })),
            "the abort is audited"
        );
        assert_clean(&cfg, &result);
    }

    #[test]
    fn losing_the_client_host_aborts_the_run() {
        let mut exp = Experiment::quick(4, 42);
        // Host 4 is the client in the canonical one-host-per-server roster.
        exp.template_mut().faults = FaultPlan::none().crash(HostId::new(4), SimTime::from_secs(30));
        let alg = Algorithm::Global {
            period: SimDuration::from_secs(30),
        };
        exp.template_mut().algorithm = alg;
        let cfg = exp.template().clone();
        let result = exp.run(alg);
        assert_eq!(
            result.outcome,
            RunOutcome::Aborted,
            "planner death cannot degrade into a silent hang"
        );
        assert_clean(&cfg, &result);
    }

    #[test]
    fn detects_forged_outcome() {
        let exp = Experiment::quick(4, 42);
        let mut cfg = exp.template().clone();
        cfg.algorithm = Algorithm::OneShot;
        let mut result = exp.run(Algorithm::OneShot);
        result.outcome = RunOutcome::Degraded;
        let violations = check_run(&cfg, &result);
        assert!(violations.iter().any(|v| v.rule == "outcome"));
    }

    #[test]
    fn detects_truncated_arrivals() {
        let exp = Experiment::quick(4, 42);
        let mut cfg = exp.template().clone();
        cfg.algorithm = Algorithm::OneShot;
        let mut result = exp.run(Algorithm::OneShot);
        result.arrivals.pop();
        let violations = check_run(&cfg, &result);
        assert!(violations.iter().any(|v| v.rule == "arrival-count"));
    }
}
