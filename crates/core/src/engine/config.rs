//! Engine configuration and run results.

use wadc_app::workload::WorkloadParams;
pub use wadc_mobile::registry::MobilityMode;
use wadc_monitor::cache::MonitorConfig;
use wadc_net::disk::DiskModel;
use wadc_net::faults::FaultPlan;
use wadc_net::network::{NetStats, NetworkParams};
use wadc_plan::cost::CostModel;
use wadc_plan::tree::TreeShape;
use wadc_sim::stats::Tally;
use wadc_sim::time::{SimDuration, SimTime};

use crate::algorithms::one_shot::Objective;
use crate::engine::audit::AuditLog;
use crate::knowledge::KnowledgeMode;

/// Which placement algorithm drives a run — the four strategies of the
/// paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// All operators at the client, never moved (the paper's base case).
    DownloadAll,
    /// One-shot placement computed at startup, fixed thereafter.
    OneShot,
    /// One-shot at startup, then periodic global re-planning with
    /// barrier-coordinated change-over.
    Global {
        /// Re-planning period (paper default: 10 minutes).
        period: SimDuration,
    },
    /// One-shot at startup, then per-operator local decisions on a
    /// staggered epoch wavefront.
    Local {
        /// Per-operator relocation period (paper default: 10 minutes).
        /// The epoch length is `period / tree depth`, so each operator
        /// acts once per period.
        period: SimDuration,
        /// Extra randomly drawn candidate sites per decision (the paper's
        /// `k`, 0 in the base algorithm, 1–6 in Figure 7).
        extra_candidates: usize,
    },
}

impl Algorithm {
    /// The paper's default on-line relocation period.
    pub const DEFAULT_PERIOD: SimDuration = SimDuration::from_mins(10);

    /// `Global` with the paper's default period.
    pub fn global_default() -> Self {
        Algorithm::Global {
            period: Self::DEFAULT_PERIOD,
        }
    }

    /// `Local` with the paper's default period and no extra candidates.
    pub fn local_default() -> Self {
        Algorithm::Local {
            period: Self::DEFAULT_PERIOD,
            extra_candidates: 0,
        }
    }

    /// Short name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::DownloadAll => "download-all",
            Algorithm::OneShot => "one-shot",
            Algorithm::Global { .. } => "global",
            Algorithm::Local { .. } => "local",
        }
    }
}

/// The engine's recovery constants for lossy runs: per-message backoff
/// and retransmission, the barrier change-over timeout and the failure
/// detector's threshold.
///
/// Only consulted when the run's [`FaultPlan`] is non-empty; clean runs
/// never arm a timer, so recovery is zero-perturbation by default.
pub(crate) mod retry {
    use wadc_sim::time::SimDuration;

    /// Backoff before the first retransmission (and the detection delay
    /// for a failed operator-state transfer).
    pub const BASE_BACKOFF: SimDuration = SimDuration::from_secs(2);
    /// Upper bound on any single backoff interval.
    pub const MAX_BACKOFF: SimDuration = SimDuration::from_secs(60);
    /// Retransmissions after the original send before a message is
    /// abandoned.
    pub const MAX_RETRIES: u32 = 12;
    /// How long the client waits for all servers to report before
    /// aborting a barrier change-over and keeping the old placement.
    pub const BARRIER_TIMEOUT: SimDuration = SimDuration::from_mins(3);
    /// Failure-detector threshold: a peer host is declared dead once this
    /// many *distinct* messages to it have each exhausted
    /// [`MAX_RETRIES`]. A single exhausted message already implies ~12
    /// consecutive losses.
    pub const DETECTION_K: u32 = 1;

    /// The backoff before retransmission number `attempt + 1`:
    /// `min(BASE_BACKOFF * 2^attempt, MAX_BACKOFF)`, computed without
    /// overflow.
    pub fn backoff(attempt: u32) -> SimDuration {
        let mut b = BASE_BACKOFF;
        for _ in 0..attempt {
            b = (b * 2).min(MAX_BACKOFF);
            if b == MAX_BACKOFF {
                break;
            }
        }
        b
    }
}

/// Full configuration of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of data servers (the paper varies 4–32; default 8).
    pub n_servers: usize,
    /// Combination ordering (default: complete binary).
    pub tree_shape: TreeShape,
    /// The placement algorithm.
    pub algorithm: Algorithm,
    /// What planners know about bandwidth (default: monitored).
    pub knowledge: KnowledgeMode,
    /// What the placement search minimises (default: the paper's
    /// critical-path objective; `Contended` additionally models NIC
    /// congestion — an extension evaluated by the ablation bench).
    pub objective: Objective,
    /// The image workload (default: 180 × Normal(128 KB, 25%)).
    pub workload: WorkloadParams,
    /// Monitoring constants (default: S=16 KB, T=40 s, 1 KB piggyback).
    pub monitor: MonitorConfig,
    /// Network constants (default: 50 ms startup).
    pub net: NetworkParams,
    /// Disk model (default: 3 MB/s).
    pub disk: DiskModel,
    /// Planning cost model (default: the paper's constants).
    pub cost_model: CostModel,
    /// Application-level bytes of state shipped when an operator
    /// relocates (buffers, configuration), on top of the framed
    /// [`STATE_PACKET_BYTES`](wadc_mobile::STATE_PACKET_BYTES) and any
    /// code package.
    pub operator_state_bytes: u64,
    /// The mobility substrate: code pre-installed everywhere (the paper's
    /// recommendation for frequently used servers) or mobile objects that
    /// ship code on a host's first visit.
    pub mobility: MobilityMode,
    /// Size of the operator code package under
    /// [`MobilityMode::MobileObjects`].
    pub code_package_bytes: u64,
    /// Active Komodo/NWS-style monitoring: when set, every host pair is
    /// probed once per this interval (staggered), keeping caches fresh at
    /// a constant background cost — instead of (and in addition to) the
    /// paper's purely on-demand probing at planning time. `None` is the
    /// paper's model.
    pub active_monitoring: Option<SimDuration>,
    /// Model the planner's on-demand monitoring as real probe traffic: at
    /// every planning round, each host pair without a fresh cache entry is
    /// probed with a transfer of this many bytes (the paper's 16 KB
    /// probes). Zero disables probe traffic (free measurements). This is
    /// what makes very frequent re-planning pay a cost (Figure 9).
    pub probe_bytes: u64,
    /// Master seed for the run's randomness (workload sizes, extra
    /// candidate draws).
    pub seed: u64,
    /// Safety cap on simulated time; runs exceeding it abort with
    /// `completed = false`.
    pub max_sim_time: SimDuration,
    /// Faults to inject (default: none). An empty plan bypasses the fault
    /// machinery entirely, keeping clean runs digest-identical to the
    /// pre-fault golden fixtures.
    pub faults: FaultPlan,
}

impl EngineConfig {
    /// The most servers a world may have. Building a world allocates a
    /// link table quadratic in the host count, and a run's memory grows
    /// faster than that: a one-image, one-shot run of 256 servers peaks
    /// near 660 MiB, and 1,024 servers exhaust 16 GiB.
    pub const MAX_SERVERS: usize = 256;

    /// The most images per server a run may combine. Iteration numbers
    /// are 32-bit, and this bound keeps a run's length in proportion to
    /// the paper's 180-image workload.
    pub const MAX_IMAGES_PER_SERVER: usize = 100_000;

    /// A configuration with the paper's defaults for the given server
    /// count and algorithm.
    pub fn new(n_servers: usize, algorithm: Algorithm) -> Self {
        EngineConfig {
            n_servers,
            tree_shape: TreeShape::CompleteBinary,
            algorithm,
            knowledge: KnowledgeMode::Monitored,
            objective: Objective::CriticalPath,
            workload: WorkloadParams::paper_defaults(),
            monitor: MonitorConfig::paper_defaults(),
            net: NetworkParams::paper_defaults(),
            disk: DiskModel::paper_defaults(),
            cost_model: CostModel::paper_defaults(),
            operator_state_bytes: 4096,
            mobility: MobilityMode::PreInstalled,
            code_package_bytes: 24 * 1024,
            active_monitoring: None,
            probe_bytes: 16 * 1024,
            seed: 0,
            max_sim_time: SimDuration::from_hours(24 * 7),
            faults: FaultPlan::none(),
        }
    }

    /// Checks the configuration for mistakes that would otherwise surface
    /// as confusing behaviour deep inside a run: degenerate or oversized
    /// server counts, empty or oversized workloads, zero-period adaptive
    /// algorithms, malformed fault plans and retry policies.
    ///
    /// [`crate::experiment::Experiment::engine_scratch`] calls this before
    /// it builds the tree or the world, so a bad configuration fails with
    /// a clear message; [`crate::experiment::Experiment::validate`] returns
    /// the same message as an error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_servers < 2 {
            return Err(format!(
                "engine config: need at least two servers to combine, got {}",
                self.n_servers
            ));
        }
        if self.n_servers > Self::MAX_SERVERS {
            return Err(format!(
                "engine config: at most {} servers, got {} (a world's link table grows \
                 with the square of the server count)",
                Self::MAX_SERVERS,
                self.n_servers
            ));
        }
        if self.workload.images_per_server == 0 {
            return Err("engine config: zero-image workload — nothing to combine".into());
        }
        if self.workload.images_per_server > Self::MAX_IMAGES_PER_SERVER {
            return Err(format!(
                "engine config: at most {} images per server, got {}",
                Self::MAX_IMAGES_PER_SERVER,
                self.workload.images_per_server
            ));
        }
        match self.algorithm {
            Algorithm::Global { period } if period.is_zero() => {
                return Err(
                    "engine config: global algorithm with zero re-planning period \
                     would re-plan in a busy loop"
                        .into(),
                );
            }
            Algorithm::Local { period, .. } if period.is_zero() => {
                return Err(
                    "engine config: local algorithm with zero relocation period \
                     would tick in a busy loop"
                        .into(),
                );
            }
            _ => {}
        }
        if self.max_sim_time.is_zero() {
            return Err("engine config: zero max_sim_time — every run would abort at t=0".into());
        }
        self.faults.validate()?;
        Ok(())
    }

    /// Sets the master seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tree shape (builder-style).
    pub fn with_tree_shape(mut self, shape: TreeShape) -> Self {
        self.tree_shape = shape;
        self
    }

    /// Sets the knowledge mode (builder-style).
    pub fn with_knowledge(mut self, knowledge: KnowledgeMode) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Sets the placement-search objective (builder-style).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the workload (builder-style) and rescales the planning cost
    /// model's size estimates to match its mean image size.
    pub fn with_workload(mut self, workload: WorkloadParams) -> Self {
        self.workload = workload;
        self.cost_model = CostModel::for_image_bytes(workload.sizes.mean_bytes);
        self
    }
}

/// How a run ended — the explicit liveness verdict every run must carry.
///
/// The simulated-time watchdog (`max_sim_time`) plus permanent-crash
/// failover guarantee that *every* run reaches one of these three states
/// in bounded simulated time; none of them is a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The client received the full image sequence and no host was
    /// declared dead along the way.
    Completed,
    /// The run terminated and delivered what it could, but not the full
    /// clean result: hosts were declared dead (pruned subtrees deliver
    /// reduced-form images), or the safety cap ended a wedged network.
    Degraded,
    /// The run stopped early because continuing was pointless: the
    /// client (and with it the planner) died, or every input subtree
    /// collapsed.
    Aborted,
}

impl RunOutcome {
    /// A stable small integer for digests.
    pub fn tag(self) -> u64 {
        match self {
            RunOutcome::Completed => 0,
            RunOutcome::Degraded => 1,
            RunOutcome::Aborted => 2,
        }
    }

    /// Short lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Degraded => "degraded",
            RunOutcome::Aborted => "aborted",
        }
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Whether the client received the full image sequence.
    pub completed: bool,
    /// The explicit liveness verdict (crash-era refinement of
    /// `completed`: `Completed` implies `completed`, but a degraded run
    /// may also set `completed` if every image arrived despite deaths).
    pub outcome: RunOutcome,
    /// Hosts the failure detector declared dead.
    pub hosts_declared_dead: u32,
    /// Operators respawned from origin images after their host died.
    pub operators_respawned: u32,
    /// End-to-end completion time (time of the last image's arrival).
    pub completion_time: SimDuration,
    /// Images delivered to the client.
    pub images_delivered: usize,
    /// Inter-arrival times of composed images at the client, seconds.
    pub interarrival: Tally,
    /// Arrival time of every image at the client.
    pub arrivals: Vec<SimTime>,
    /// Operator relocations that actually moved state between hosts.
    pub relocations: u32,
    /// Committed global change-overs (barrier rounds).
    pub changeovers: u32,
    /// Times a placement search ran (one-shot at startup counts once).
    pub planner_runs: u32,
    /// Network-level statistics.
    pub net_stats: NetStats,
    /// Chronological log of every adaptation event.
    pub audit: AuditLog,
}

impl RunResult {
    /// Mean inter-arrival time in seconds (the paper reports 101.2 s for
    /// download-all vs 17.1 s for global on 8 servers).
    pub fn mean_interarrival_secs(&self) -> f64 {
        self.interarrival.mean()
    }

    /// A stable 64-bit digest of the whole result: completion, every
    /// arrival time, adaptation counters, network statistics and the audit
    /// log. Two runs of the same `(seed, config)` must agree bit for bit;
    /// this digest is what the determinism harness and the golden fixtures
    /// under `tests/golden/` compare.
    pub fn digest(&self) -> u64 {
        let mut d = wadc_sim::digest::Digest::new();
        d.write_u64(self.completed as u64);
        d.write_u64(self.completion_time.as_micros());
        d.write_usize(self.images_delivered);
        d.write_usize(self.arrivals.len());
        for &a in &self.arrivals {
            d.write_u64(a.as_micros());
        }
        d.write_u64(self.relocations as u64);
        d.write_u64(self.changeovers as u64);
        d.write_u64(self.planner_runs as u64);
        d.write_u64(self.net_stats.submitted);
        d.write_u64(self.net_stats.completed);
        d.write_u64(self.net_stats.bytes_submitted);
        d.write_u64(self.net_stats.bytes_delivered);
        d.write_u64(self.net_stats.high_priority_completed);
        // Fault-era counters fold in only when something actually dropped
        // or retransmitted, so clean runs keep their pre-fault digests —
        // the golden fixtures stay byte-identical.
        if self.net_stats.dropped > 0 || self.net_stats.retransmits > 0 {
            d.write_u64(self.net_stats.retransmits);
            d.write_u64(self.net_stats.bytes_retransmitted);
            d.write_u64(self.net_stats.dropped);
            d.write_u64(self.net_stats.bytes_dropped);
        }
        // Crash-era counters fold in the same guarded way: only a run
        // that actually declared a host dead, respawned an operator, or
        // ended other than `Completed` perturbs the digest.
        if self.outcome != RunOutcome::Completed
            || self.hosts_declared_dead > 0
            || self.operators_respawned > 0
            || self.net_stats.crash_dropped > 0
        {
            d.write_u64(self.outcome.tag());
            d.write_u64(self.hosts_declared_dead as u64);
            d.write_u64(self.operators_respawned as u64);
            d.write_u64(self.net_stats.crash_dropped);
        }
        d.write_u64(self.audit.digest());
        d.finish()
    }

    /// [`RunResult::digest`] as the 16-character lowercase hex string used
    /// by golden fixtures.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Speedup of this run over a baseline run (baseline time / this
    /// time), the paper's headline metric.
    ///
    /// # Panics
    ///
    /// Panics if this run's completion time is zero.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        assert!(
            self.completion_time > SimDuration::ZERO,
            "run completed in zero time"
        );
        baseline.completion_time.as_secs_f64() / self.completion_time.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::DownloadAll.name(), "download-all");
        assert_eq!(Algorithm::OneShot.name(), "one-shot");
        assert_eq!(Algorithm::global_default().name(), "global");
        assert_eq!(Algorithm::local_default().name(), "local");
    }

    #[test]
    fn default_period_is_ten_minutes() {
        assert_eq!(Algorithm::DEFAULT_PERIOD, SimDuration::from_mins(10));
        match Algorithm::global_default() {
            Algorithm::Global { period } => assert_eq!(period, SimDuration::from_mins(10)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn config_builders_chain() {
        let cfg = EngineConfig::new(8, Algorithm::OneShot)
            .with_seed(9)
            .with_tree_shape(TreeShape::LeftDeep)
            .with_knowledge(KnowledgeMode::Oracle);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.tree_shape, TreeShape::LeftDeep);
        assert_eq!(cfg.knowledge, KnowledgeMode::Oracle);
        assert_eq!(cfg.n_servers, 8);
    }

    #[test]
    fn backoff_is_geometric_and_capped() {
        assert_eq!(retry::backoff(0), SimDuration::from_secs(2));
        assert_eq!(retry::backoff(1), SimDuration::from_secs(4));
        assert_eq!(retry::backoff(3), SimDuration::from_secs(16));
        assert_eq!(
            retry::backoff(5),
            SimDuration::from_secs(60),
            "hits the cap"
        );
        assert_eq!(
            retry::backoff(500),
            SimDuration::from_secs(60),
            "no overflow"
        );
    }

    #[test]
    fn config_validation_catches_degenerate_setups() {
        assert!(EngineConfig::new(4, Algorithm::OneShot).validate().is_ok());
        assert!(EngineConfig::new(1, Algorithm::OneShot).validate().is_err());

        let mut zero_images = EngineConfig::new(4, Algorithm::OneShot);
        zero_images.workload.images_per_server = 0;
        let err = zero_images.validate().unwrap_err();
        assert!(err.contains("zero-image"), "got: {err}");

        let at_bounds = EngineConfig::new(EngineConfig::MAX_SERVERS, Algorithm::OneShot);
        assert!(at_bounds.validate().is_ok());
        let err = EngineConfig::new(EngineConfig::MAX_SERVERS + 1, Algorithm::OneShot)
            .validate()
            .unwrap_err();
        assert!(err.contains("at most 256 servers"), "got: {err}");
        let mut many_images = EngineConfig::new(4, Algorithm::OneShot);
        many_images.workload.images_per_server = EngineConfig::MAX_IMAGES_PER_SERVER;
        assert!(many_images.validate().is_ok());
        many_images.workload.images_per_server += 1;
        let err = many_images.validate().unwrap_err();
        assert!(
            err.contains("at most 100000 images per server"),
            "got: {err}"
        );

        let zero_global = EngineConfig::new(
            4,
            Algorithm::Global {
                period: SimDuration::ZERO,
            },
        );
        assert!(zero_global.validate().unwrap_err().contains("global"));

        let zero_local = EngineConfig::new(
            4,
            Algorithm::Local {
                period: SimDuration::ZERO,
                extra_candidates: 0,
            },
        );
        assert!(zero_local.validate().unwrap_err().contains("local"));

        let mut zero_cap = EngineConfig::new(4, Algorithm::OneShot);
        zero_cap.max_sim_time = SimDuration::ZERO;
        assert!(zero_cap.validate().is_err());

        let mut bad_faults = EngineConfig::new(4, Algorithm::OneShot);
        bad_faults.faults = FaultPlan::none().with_loss(2.0);
        assert!(bad_faults.validate().is_err());
    }

    #[test]
    fn fault_counters_fold_into_digest_only_when_nonzero() {
        let mk = |stats: NetStats| RunResult {
            completed: true,
            outcome: RunOutcome::Completed,
            hosts_declared_dead: 0,
            operators_respawned: 0,
            completion_time: SimDuration::from_secs(10),
            images_delivered: 1,
            interarrival: Tally::new(),
            arrivals: Vec::new(),
            relocations: 0,
            changeovers: 0,
            planner_runs: 0,
            net_stats: stats,
            audit: AuditLog::new(),
        };
        let clean = mk(NetStats::default());
        let lossy = mk(NetStats {
            dropped: 1,
            bytes_dropped: 100,
            ..NetStats::default()
        });
        assert_ne!(clean.digest(), lossy.digest());
    }

    #[test]
    fn crash_counters_fold_into_digest_only_when_nonzero() {
        let mk = |outcome: RunOutcome, dead: u32, respawned: u32| RunResult {
            completed: outcome == RunOutcome::Completed,
            outcome,
            hosts_declared_dead: dead,
            operators_respawned: respawned,
            completion_time: SimDuration::from_secs(10),
            images_delivered: 1,
            interarrival: Tally::new(),
            arrivals: Vec::new(),
            relocations: 0,
            changeovers: 0,
            planner_runs: 0,
            net_stats: NetStats::default(),
            audit: AuditLog::new(),
        };
        let clean = mk(RunOutcome::Completed, 0, 0);
        // A degraded or aborted outcome, or any failover activity,
        // perturbs the digest...
        assert_ne!(clean.digest(), mk(RunOutcome::Degraded, 1, 0).digest());
        assert_ne!(clean.digest(), mk(RunOutcome::Aborted, 1, 0).digest());
        assert_ne!(
            mk(RunOutcome::Degraded, 1, 0).digest(),
            mk(RunOutcome::Degraded, 1, 1).digest()
        );
        // ...but the clean shape folds nothing new: its digest equals the
        // digest computed before these fields existed (verified end to
        // end by the golden fixtures, spot-checked here for stability).
        assert_eq!(clean.digest(), mk(RunOutcome::Completed, 0, 0).digest());
        assert_eq!(RunOutcome::Completed.name(), "completed");
        assert_eq!(RunOutcome::Aborted.tag(), 2);
    }

    #[test]
    fn speedup_is_ratio_of_completion_times() {
        let mk = |secs: u64| RunResult {
            completed: true,
            outcome: RunOutcome::Completed,
            hosts_declared_dead: 0,
            operators_respawned: 0,
            completion_time: SimDuration::from_secs(secs),
            images_delivered: 180,
            interarrival: Tally::new(),
            arrivals: Vec::new(),
            relocations: 0,
            changeovers: 0,
            planner_runs: 0,
            net_stats: NetStats::default(),
            audit: AuditLog::new(),
        };
        let base = mk(100);
        let fast = mk(25);
        assert_eq!(fast.speedup_over(&base), 4.0);
        assert_eq!(base.speedup_over(&base), 1.0);
        // Result digests separate distinct outcomes and are stable.
        assert_eq!(base.digest(), mk(100).digest());
        assert_ne!(base.digest(), fast.digest());
        assert_eq!(base.digest_hex(), format!("{:016x}", base.digest()));
    }
}
