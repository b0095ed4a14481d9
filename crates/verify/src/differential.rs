//! Layer 3: the differential / metamorphic runner.
//!
//! Algebraic equivalences the engine must respect, each checked by
//! actually running it:
//!
//! - **relabeling** — renaming the hosts of an isomorphic world permutes
//!   host ids in the audit log but changes nothing observable,
//! - **degenerate period** — the local algorithm with an effectively
//!   infinite adaptation period is the one-shot algorithm,
//! - **cost model** — on constant-bandwidth links, measured completion
//!   time agrees with `wadc-plan`'s analytic pipeline estimate,
//! - **scaling** — multiplying every bandwidth by `k` speeds a
//!   network-bound run up by at most `k`, and nearly `k` when transfers
//!   dominate.

use wadc_core::algorithms::one_shot::{improve_placement, SearchScratch};
use wadc_core::engine::audit::AuditEvent;
use wadc_core::engine::{Algorithm, RunResult};
use wadc_core::experiment::Experiment;
use wadc_core::knowledge::KnowledgeMode;
use wadc_plan::critical_path::pipeline_estimate;
use wadc_plan::ids::HostId;
use wadc_plan::placement::{HostRoster, Placement};
use wadc_plan::tree::CombinationTree;
use wadc_sim::time::{SimDuration, SimTime};

use crate::worlds::all_algorithms;

/// Maps every host id in an audit event through `perm` (host `i` becomes
/// host `perm[i]`); logical ids — servers, operators, versions — are
/// untouched.
pub fn relabel_event(event: &AuditEvent, perm: &[usize]) -> AuditEvent {
    let p = |h: HostId| HostId::new(perm[h.index()]);
    match *event {
        AuditEvent::LocalDecision {
            at,
            op,
            level,
            from,
            to,
        } => AuditEvent::LocalDecision {
            at,
            op,
            level,
            from: p(from),
            to: p(to),
        },
        AuditEvent::RelocationStarted {
            at,
            op,
            from,
            to,
            after_iteration,
        } => AuditEvent::RelocationStarted {
            at,
            op,
            from: p(from),
            to: p(to),
            after_iteration,
        },
        AuditEvent::RelocationFinished { at, op, host } => AuditEvent::RelocationFinished {
            at,
            op,
            host: p(host),
        },
        ref host_free => host_free.clone(),
    }
}

/// Runs `algorithm` in the world of `exp` relabeled by `perm`: link
/// traces move with their endpoints and server `s` lives on host
/// `perm[s]` (likewise the client), so the run is isomorphic to the
/// original.
pub fn run_relabeled(exp: &Experiment, algorithm: Algorithm, perm: &[usize]) -> RunResult {
    let n_servers = exp.template().n_servers;
    let base = HostRoster::one_host_per_server(n_servers);
    let roster = HostRoster::new(
        base.host_count(),
        HostId::new(perm[base.client().index()]),
        (0..n_servers)
            .map(|s| HostId::new(perm[base.server_host(s).index()]))
            .collect(),
    )
    .expect("permutation stays in range");
    Experiment::new(exp.links().relabeled(perm), exp.template().clone())
        .with_roster(roster)
        .run(algorithm)
}

/// Checks that relabeling the hosts of `exp` by `perm` preserves the run
/// exactly: identical arrivals, counters and network statistics, and an
/// audit log equal to the baseline's with every host id mapped through
/// `perm`.
///
/// # Errors
///
/// Returns a description of the first observable difference.
pub fn check_relabeling(
    exp: &Experiment,
    algorithm: Algorithm,
    perm: &[usize],
) -> Result<(), String> {
    let name = algorithm.name();
    let base = exp.run(algorithm);
    let rel = run_relabeled(exp, algorithm, perm);
    if base.completion_time != rel.completion_time {
        return Err(format!(
            "{name}: relabeling changed completion time {:?} -> {:?}",
            base.completion_time, rel.completion_time
        ));
    }
    if base.arrivals != rel.arrivals {
        return Err(format!("{name}: relabeling changed the arrival sequence"));
    }
    if (
        base.images_delivered,
        base.relocations,
        base.changeovers,
        base.planner_runs,
    ) != (
        rel.images_delivered,
        rel.relocations,
        rel.changeovers,
        rel.planner_runs,
    ) {
        return Err(format!(
            "{name}: relabeling changed the adaptation counters"
        ));
    }
    if base.net_stats != rel.net_stats {
        return Err(format!(
            "{name}: relabeling changed network statistics {:?} -> {:?}",
            base.net_stats, rel.net_stats
        ));
    }
    let mapped: Vec<AuditEvent> = base
        .audit
        .events()
        .iter()
        .map(|e| relabel_event(e, perm))
        .collect();
    if mapped != rel.audit.events() {
        let diverges = mapped
            .iter()
            .zip(rel.audit.events())
            .position(|(a, b)| a != b)
            .map_or_else(
                || format!("lengths {} vs {}", mapped.len(), rel.audit.len()),
                |i| format!("first divergence at event {i}"),
            );
        return Err(format!(
            "{name}: audit log is not equal up to the relabeling ({diverges})"
        ));
    }
    Ok(())
}

/// Relative completion-time tolerance for the degenerate-period check:
/// the local algorithm stamps a location vector on every message, so its
/// runs carry a few hundred extra bytes even when it never acts.
pub const DEGENERATE_TOLERANCE: f64 = 0.02;

/// Checks that `Local` with an effectively infinite adaptation period
/// degenerates to `OneShot`: the identical initial plan, no adaptation of
/// any kind, and completion within [`DEGENERATE_TOLERANCE`]. Returns the
/// relative completion-time difference.
///
/// # Errors
///
/// Returns a description of the first difference beyond tolerance.
pub fn check_degenerate_local(exp: &Experiment) -> Result<f64, String> {
    let one_shot = exp.run(Algorithm::OneShot);
    let local = exp.run(Algorithm::Local {
        period: SimDuration::from_hours(10_000),
        extra_candidates: 0,
    });
    if local.relocations != 0 || local.changeovers != 0 {
        return Err(format!(
            "degenerate local still adapted: {} relocations, {} changeovers",
            local.relocations, local.changeovers
        ));
    }
    if local.planner_runs != 1 || one_shot.planner_runs != 1 {
        return Err(format!(
            "expected exactly the startup plan: one-shot ran {} times, local {}",
            one_shot.planner_runs, local.planner_runs
        ));
    }
    // Both logs must be exactly the single startup PlannerRan — same
    // search over the same view, so even the costs agree bitwise.
    if local.audit.events() != one_shot.audit.events() {
        return Err("degenerate local's audit log differs from one-shot's".to_string());
    }
    if local.images_delivered != one_shot.images_delivered {
        return Err(format!(
            "image counts differ: one-shot {}, degenerate local {}",
            one_shot.images_delivered, local.images_delivered
        ));
    }
    let t_one = one_shot.completion_time.as_secs_f64();
    let t_loc = local.completion_time.as_secs_f64();
    let rel = (t_loc - t_one).abs() / t_one;
    if rel > DEGENERATE_TOLERANCE {
        return Err(format!(
            "completion times diverge by {:.2}% (one-shot {t_one:.2} s, degenerate local \
             {t_loc:.2} s)",
            rel * 100.0
        ));
    }
    Ok(rel)
}

/// Acceptable `measured / predicted` completion-time band for the
/// cost-model agreement check. The pipeline estimate prices mean image
/// sizes and ignores piggyback bytes, so exact agreement is impossible;
/// the band is calibrated against the constant-bandwidth worlds of
/// [`crate::worlds::constant_links_experiment`].
pub const COST_MODEL_RATIO: (f64, f64) = (0.7, 1.3);

/// Checks that on constant-bandwidth links (where the analytic model's
/// assumptions hold) the measured completion time agrees with
/// `wadc-plan`'s pipeline estimate of the same placement, within
/// [`COST_MODEL_RATIO`].
///
/// The experiment is forced to [`KnowledgeMode::Oracle`] so the planner
/// and the analytic model see the same bandwidths. Returns the
/// `measured / predicted` ratio.
///
/// # Errors
///
/// Returns the out-of-band ratio and both times.
pub fn check_cost_model_agreement(exp: &Experiment, algorithm: Algorithm) -> Result<f64, String> {
    let mut exp = exp.clone().with_knowledge(KnowledgeMode::Oracle);
    let cfg = {
        let t = exp.template_mut();
        t.algorithm = algorithm;
        t.clone()
    };
    let result = exp.run(algorithm);
    if !result.completed {
        return Err(format!("{} run did not complete", algorithm.name()));
    }

    // Reproduce the engine's startup placement search, then price the
    // pipeline analytically.
    let tree = CombinationTree::build(cfg.tree_shape, cfg.n_servers)
        .expect("template tree shape must be buildable");
    let roster = HostRoster::one_host_per_server(cfg.n_servers);
    let view = exp.links().oracle_at(SimTime::ZERO);
    let placement = match algorithm {
        Algorithm::DownloadAll => Placement::download_all(&tree, &roster),
        _ => {
            improve_placement(
                &tree,
                &roster,
                Placement::download_all(&tree, &roster),
                view,
                &cfg.cost_model,
                cfg.objective,
                &[],
                &mut SearchScratch::new(),
            )
            .placement
        }
    };
    let estimate = pipeline_estimate(&tree, &roster, &placement, view, &cfg.cost_model);
    let predicted = estimate.total_secs(cfg.workload.images_per_server as u32);
    let measured = result.completion_time.as_secs_f64();
    let ratio = measured / predicted;
    let (lo, hi) = COST_MODEL_RATIO;
    if !(lo..=hi).contains(&ratio) {
        return Err(format!(
            "{}: measured {measured:.2} s vs predicted {predicted:.2} s (ratio {ratio:.3} \
             outside [{lo}, {hi}])",
            algorithm.name()
        ));
    }
    Ok(ratio)
}

/// Slack for the bandwidth-scaling bounds: scaled runs may drift this
/// fraction past the ideal envelope (placement searches see scaled
/// absolute costs, so the chosen placement can differ marginally).
pub const SCALING_SLACK: f64 = 0.05;

/// How much of the ideal `k`-fold speed-up a network-bound world must
/// realise (fixed per-message startup and compute costs do not scale).
pub const SCALING_EFFICIENCY: f64 = 0.6;

/// Checks the metamorphic scaling relation: multiplying every link
/// bandwidth by `k > 1` must speed the run up — never past `k`-fold
/// (fixed costs put `T(1)/k` below any achievable time), and on a
/// network-bound world by at least [`SCALING_EFFICIENCY`]` * k`. Returns
/// the observed speed-up.
///
/// # Errors
///
/// Returns the observed speed-up and the violated bound.
pub fn check_bandwidth_scaling(
    exp: &Experiment,
    algorithm: Algorithm,
    k: f64,
) -> Result<f64, String> {
    assert!(k > 1.0, "scaling check needs k > 1");
    let base = exp.run(algorithm);
    let scaled_exp = Experiment::new(exp.links().scaled(k), exp.template().clone());
    let scaled = scaled_exp.run(algorithm);
    if !base.completed || !scaled.completed {
        return Err(format!(
            "{}: a scaling run did not complete",
            algorithm.name()
        ));
    }
    let speedup = base.completion_time.as_secs_f64() / scaled.completion_time.as_secs_f64();
    if speedup > k * (1.0 + SCALING_SLACK) {
        return Err(format!(
            "{}: scaling bandwidths by {k} sped the run up {speedup:.3}x — more than the \
             bandwidth itself scaled",
            algorithm.name()
        ));
    }
    let floor = SCALING_EFFICIENCY * k;
    if speedup < floor {
        return Err(format!(
            "{}: scaling bandwidths by {k} only sped the run up {speedup:.3}x (< {floor:.2}x); \
             the world is supposed to be network-bound",
            algorithm.name()
        ));
    }
    Ok(speedup)
}

/// The three placement algorithms the acceptance suite covers — the last
/// three of [`all_algorithms`] — with test-speed adaptation periods.
pub fn suite_algorithms() -> [Algorithm; 3] {
    let [_, one_shot, global, local] = all_algorithms();
    [one_shot, global, local]
}

/// Runs the full differential suite — relabeling, degenerate period,
/// cost-model agreement and bandwidth scaling across all three placement
/// algorithms — and returns every failure (empty means all relations
/// hold).
pub fn run_suite(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let n_servers = 4;
    // Reverses all five host labels, so the client moves too.
    let perm = [4, 3, 2, 1, 0];

    let varying = crate::worlds::distinct_links_experiment(n_servers, seed);
    let constant = crate::worlds::constant_links_experiment(n_servers, seed);
    for alg in suite_algorithms() {
        if let Err(e) = check_relabeling(&varying, alg, &perm) {
            failures.push(format!("relabeling: {e}"));
        }
        if let Err(e) = check_cost_model_agreement(&constant, alg) {
            failures.push(format!("cost-model: {e}"));
        }
        if let Err(e) = check_bandwidth_scaling(&constant, alg, 2.0) {
            failures.push(format!("scaling: {e}"));
        }
    }
    if let Err(e) = check_degenerate_local(&varying) {
        failures.push(format!("degenerate-period: {e}"));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds;

    #[test]
    fn relabel_event_maps_hosts_only() {
        let e = AuditEvent::RelocationFinished {
            at: SimTime::from_secs(3),
            op: wadc_plan::ids::OperatorId::new(1),
            host: HostId::new(0),
        };
        match relabel_event(&e, &[2, 1, 0]) {
            AuditEvent::RelocationFinished { host, op, at } => {
                assert_eq!(host, HostId::new(2));
                assert_eq!(op, wadc_plan::ids::OperatorId::new(1));
                assert_eq!(at, SimTime::from_secs(3));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn identity_relabeling_is_exact() {
        let exp = worlds::distinct_links_experiment(4, 5);
        check_relabeling(&exp, Algorithm::OneShot, &[0, 1, 2, 3, 4]).unwrap();
    }

    #[test]
    fn full_suite_passes() {
        let failures = run_suite(42);
        assert!(
            failures.is_empty(),
            "differential failures:\n{}",
            failures.join("\n")
        );
    }
}
