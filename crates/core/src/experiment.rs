//! Single-experiment setup: one network configuration, compared across
//! placement strategies.
//!
//! An [`Experiment`] pins everything that must be held fixed when
//! comparing algorithms — the network topology and its traces, the
//! workload seed, the tree shape — and runs each algorithm against that
//! identical world, which is how the paper computes its speedups.

use std::sync::{Arc, OnceLock};

use wadc_app::image::SizeDistribution;
use wadc_app::workload::{Workload, WorkloadParams};
use wadc_plan::placement::HostRoster;
use wadc_plan::tree::{CombinationTree, TreeShape};
use wadc_sim::rng::{derive_seed, derive_seed2};
use wadc_sim::time::SimDuration;
use wadc_topo::graph::Topology;
use wadc_topo::preset::{build_preset, TopoPreset};
use wadc_trace::model::BandwidthTrace;
use wadc_trace::synth::{generate, SynthParams};

use crate::algorithms::one_shot::Objective;
use crate::engine::{Algorithm, Engine, EngineConfig, RunResult, RunScratch};
use crate::knowledge::KnowledgeMode;

/// The per-pair table [`Experiment::new`] takes and [`Experiment::links`]
/// returns, re-exported so crates that build experiments need not depend
/// on `wadc-topo`.
pub use wadc_topo::link::LinkTable;

/// Stream labels for seed derivation (arbitrary, fixed constants).
const STREAM_LINKS: u64 = 10;
const STREAM_WORKLOAD: u64 = 11;

/// One fixed world (topology + workload) to run algorithms against: the
/// only way to build an [`Engine`] is [`Experiment::engine_scratch`].
///
/// # Examples
///
/// ```
/// use wadc_core::engine::Algorithm;
/// use wadc_core::experiment::Experiment;
///
/// let mut exp = Experiment::quick(4, 7);
/// let result = exp.run(Algorithm::OneShot);
/// assert!(result.completed);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The network: one private link per host pair for the paper's
    /// per-pair worlds, or a preset with shared links, whose concurrent
    /// transfers split their bandwidth max-min fairly.
    topology: Arc<Topology>,
    template: EngineConfig,
    /// An explicitly constructed combination tree; `None` builds the
    /// template's `tree_shape`.
    tree: Option<CombinationTree>,
    /// An explicit host roster; `None` is the paper's one host per server
    /// plus the client.
    roster: Option<HostRoster>,
    /// Lazily synthesized once per experiment and shared (`Arc`) across
    /// every run of it: the workload depends only on the template's
    /// workload params, server count and seed — all fixed here — so the
    /// four runs of a study config need not generate it four times.
    /// Invalidated whenever the template is mutated.
    workload: OnceLock<Arc<Workload>>,
}

impl Experiment {
    /// Builds an experiment over an explicit link table and config
    /// template: the paper's per-pair world, each pair's trace on a
    /// private link of its own. The template's `algorithm` field is
    /// replaced by [`Experiment::run`].
    ///
    /// # Panics
    ///
    /// Panics if the table leaves a host pair without a trace.
    pub fn new(links: LinkTable, template: EngineConfig) -> Self {
        Experiment::over(Arc::new(Topology::per_pair(links)), template)
    }

    fn over(topology: Arc<Topology>, template: EngineConfig) -> Self {
        Experiment {
            topology,
            template,
            tree: None,
            roster: None,
            workload: OnceLock::new(),
        }
    }

    /// Builds configuration number `index` of a paper-style study — the
    /// paper's construction: traces from `pool` (a study's noon-aligned
    /// trace pool, extracted once by the caller) assigned uniformly at
    /// random to the links of the complete graph over `n_servers + 1`
    /// hosts, with the paper's default workload. Every seed derives from
    /// `(master_seed, index)`, so a configuration is the same world
    /// whichever driver builds it.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn from_study_pool(
        n_servers: usize,
        pool: &[Arc<BandwidthTrace>],
        index: u64,
        master_seed: u64,
    ) -> Self {
        let links = LinkTable::random_from_pool(
            n_servers + 1,
            pool,
            derive_seed2(master_seed, STREAM_LINKS, index),
        );
        let template = EngineConfig::new(n_servers, Algorithm::DownloadAll)
            .with_seed(derive_seed2(master_seed, STREAM_WORKLOAD, index));
        Experiment::new(links, template)
    }

    /// [`Experiment::from_study_pool`] over an explicit shared-bottleneck
    /// topology: instead of assigning pool traces to the complete graph's
    /// links independently, `preset` builds an access-link + backbone
    /// graph from the pool, whose nominal path-bottleneck traces become
    /// the link table. The workload seed derivation is identical to
    /// `from_study_pool`, so the two constructors compare the same demand
    /// over different networks.
    pub fn from_study_pool_topo(
        n_servers: usize,
        pool: &[Arc<BandwidthTrace>],
        preset: TopoPreset,
        index: u64,
        master_seed: u64,
    ) -> Self {
        let topology = Arc::new(build_preset(
            preset,
            n_servers + 1,
            pool,
            derive_seed2(master_seed, STREAM_LINKS, index),
        ));
        let template = EngineConfig::new(n_servers, Algorithm::DownloadAll)
            .with_seed(derive_seed2(master_seed, STREAM_WORKLOAD, index));
        Experiment::over(topology, template)
    }

    /// A deliberately small world for unit tests and doctests: a handful
    /// of short synthetic traces, 8 images of ~16 KB per server.
    pub fn quick(n_servers: usize, seed: u64) -> Self {
        Experiment::from_study_pool(n_servers, &Experiment::quick_pool(seed), 0, seed)
            .with_workload(Experiment::quick_workload())
    }

    /// [`Experiment::quick`] over the paper-WAN shared-bottleneck
    /// topology: same trace pool and workload, but the pool feeds a
    /// [`TopoPreset::PaperWan`] graph (regional access links behind two
    /// oceanic backbones) instead of independent per-pair links.
    pub fn quick_topo(n_servers: usize, seed: u64) -> Self {
        let pool = Experiment::quick_pool(seed);
        Experiment::from_study_pool_topo(n_servers, &pool, TopoPreset::PaperWan, 0, seed)
            .with_workload(Experiment::quick_workload())
    }

    /// The quick constructors' trace pool: deliberately heterogeneous
    /// (4 KB/s … 192 KB/s) so even a tiny configuration has slow links
    /// worth routing around.
    fn quick_pool(seed: u64) -> Vec<Arc<BandwidthTrace>> {
        [4.0, 8.0, 16.0, 48.0, 96.0, 192.0]
            .iter()
            .enumerate()
            .map(|(i, &kb)| {
                Arc::new(generate(
                    &SynthParams::wide_area(kb * 1024.0),
                    SimDuration::from_hours(2),
                    derive_seed2(seed, 99, i as u64),
                ))
            })
            .collect()
    }

    /// The quick constructors' workload: 8 images of ~16 KB per server.
    pub fn quick_workload() -> WorkloadParams {
        WorkloadParams {
            images_per_server: 8,
            sizes: SizeDistribution {
                mean_bytes: 16.0 * 1024.0,
                rel_std_dev: 0.25,
                aspect: 4.0 / 3.0,
            },
        }
    }

    /// Replaces the network with an explicit topology (builder-style);
    /// its nominal path-bottleneck traces become the link table that
    /// planner, probes and uncontended transfers see.
    ///
    /// # Panics
    ///
    /// Panics if the topology's host count is not `n_servers + 1`.
    pub fn with_topology(mut self, topology: Arc<Topology>) -> Self {
        assert_eq!(
            topology.host_count(),
            self.template.n_servers + 1,
            "topology must cover the client and every server"
        );
        self.topology = topology;
        self
    }

    /// The experiment's topology when some link is shared; `None` on a
    /// per-pair world, where no two routes meet.
    pub fn topology(&self) -> Option<&Arc<Topology>> {
        self.topology.has_shared_link().then_some(&self.topology)
    }

    /// Sets the tree shape (builder-style).
    pub fn with_tree_shape(mut self, shape: TreeShape) -> Self {
        self.template.tree_shape = shape;
        self
    }

    /// Sets an explicitly constructed combination tree (builder-style),
    /// e.g. the bandwidth-aware ordering from
    /// [`wadc_plan::ordering::bandwidth_aware_binary`]. The template's
    /// `tree_shape` is then ignored; the tree must cover exactly the
    /// template's servers.
    pub fn with_tree(mut self, tree: CombinationTree) -> Self {
        self.tree = Some(tree);
        self
    }

    /// Sets an explicit host roster (builder-style). The roster may place
    /// several servers on one host or bind a server to a host other than
    /// its own; the topology must cover exactly the roster's hosts.
    pub fn with_roster(mut self, roster: HostRoster) -> Self {
        self.roster = Some(roster);
        self
    }

    /// Sets the knowledge mode (builder-style).
    pub fn with_knowledge(mut self, knowledge: KnowledgeMode) -> Self {
        self.template.knowledge = knowledge;
        self
    }

    /// Sets the workload (builder-style); the planning cost model's size
    /// estimates follow the workload's mean image size.
    pub fn with_workload(mut self, workload: WorkloadParams) -> Self {
        self.template = self.template.with_workload(workload);
        self.workload = OnceLock::new();
        self
    }

    /// Read access to the configuration template.
    pub fn template(&self) -> &EngineConfig {
        &self.template
    }

    /// Mutable access to the configuration template, for parameters
    /// without a dedicated builder. Conservatively drops the cached
    /// shared workload (the caller may change its seed or params).
    pub fn template_mut(&mut self) -> &mut EngineConfig {
        self.workload = OnceLock::new();
        &mut self.template
    }

    /// The lazily-built workload every run of this experiment shares. It
    /// is exactly what each engine would otherwise synthesize for itself,
    /// so sharing changes nothing observable.
    fn shared_workload(&self) -> Arc<Workload> {
        self.workload
            .get_or_init(|| {
                Arc::new(Workload::generate(
                    &self.template.workload,
                    self.template.n_servers,
                    derive_seed(self.template.seed, 1),
                ))
            })
            .clone()
    }

    /// The experiment's link table: every pair's nominal trace.
    pub fn links(&self) -> &LinkTable {
        self.topology.nominal()
    }

    /// Sets the placement-search objective (builder-style).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.template.objective = objective;
        self
    }

    /// Checks that `algorithm` can run on this world: the run's
    /// configuration passes [`EngineConfig::validate`] and its combination
    /// tree can be built.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found, the message
    /// [`Experiment::engine_scratch`] would panic with.
    pub fn validate(&self, algorithm: Algorithm) -> Result<(), String> {
        self.run_spec(algorithm).map(drop)
    }

    /// The configuration and combination tree of one run of `algorithm`,
    /// validated before the tree is built.
    fn run_spec(&self, algorithm: Algorithm) -> Result<(EngineConfig, CombinationTree), String> {
        let mut cfg = self.template.clone();
        cfg.algorithm = algorithm;
        cfg.validate()?;
        let tree = match &self.tree {
            Some(tree) => tree.clone(),
            None => CombinationTree::build(cfg.tree_shape, cfg.n_servers)
                .map_err(|e| format!("engine config: {e}"))?,
        };
        Ok((cfg, tree))
    }

    /// Runs `algorithm` against this world on a cold arena.
    pub fn run(&self, algorithm: Algorithm) -> RunResult {
        self.run_scratch(algorithm, &mut RunScratch::new())
    }

    /// [`Experiment::run`] with a caller-owned [`RunScratch`] arena: the
    /// engine acquires *all* of its growable state — message pool, event
    /// queue slab, per-node and per-host structures, every scratch buffer
    /// — from `scratch` and hands it back when the run ends. A sequence
    /// of runs reaches a steady state where world setup allocates nothing
    /// beyond the handful of buffers that move into the [`RunResult`].
    /// Results are bit-identical to [`Experiment::run`].
    pub fn run_scratch(&self, algorithm: Algorithm, scratch: &mut RunScratch) -> RunResult {
        let engine = self.engine_scratch(algorithm, std::mem::take(scratch));
        let (result, reclaimed) = engine.run_reclaim_scratch();
        *scratch = reclaimed;
        result
    }

    /// Runs `algorithm` with an observability recorder attached (see
    /// [`wadc_obs`]). Instrumentation is purely passive, so the result —
    /// including its digest — is identical to [`Experiment::run`].
    pub fn run_observed(&self, algorithm: Algorithm, obs: wadc_obs::recorder::Obs) -> RunResult {
        let mut engine = self.engine_scratch(algorithm, RunScratch::new());
        engine.attach_obs(obs);
        engine.run_reclaim_scratch().0
    }

    /// Builds (without running) the world for one run of `algorithm`,
    /// drawing its growable state from `scratch`; run it with
    /// [`Engine::run_reclaim_scratch`]. Every engine is built here. The
    /// repository benchmark calls it alone to time world setup apart from
    /// the run (`core.world_build`); normal callers want
    /// [`Experiment::run_scratch`].
    ///
    /// # Panics
    ///
    /// Panics with the message of [`Experiment::validate`] if `algorithm`
    /// cannot run on this world, or if the tree, roster and topology
    /// disagree about server and host counts.
    pub fn engine_scratch(&self, algorithm: Algorithm, scratch: RunScratch) -> Engine {
        let (cfg, tree) = self.run_spec(algorithm).unwrap_or_else(|e| panic!("{e}"));
        let roster = self
            .roster
            .clone()
            .unwrap_or_else(|| HostRoster::one_host_per_server(cfg.n_servers));
        Engine::build(
            cfg,
            self.topology.clone(),
            tree,
            roster,
            self.shared_workload(),
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_completes_under_all_algorithms() {
        let exp = Experiment::quick(4, 3);
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
            let r = exp.run(alg);
            assert!(r.completed, "{} did not complete", alg.name());
            assert_eq!(r.images_delivered, 8, "{}", alg.name());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let exp = Experiment::quick(4, 5);
        let a = exp.run(Algorithm::OneShot);
        let b = exp.run(Algorithm::OneShot);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.relocations, b.relocations);
    }

    #[test]
    fn same_seed_same_world() {
        let a = Experiment::quick(4, 5).run(Algorithm::DownloadAll);
        let b = Experiment::quick(4, 5).run(Algorithm::DownloadAll);
        assert_eq!(a.completion_time, b.completion_time);
    }

    #[test]
    fn different_seed_different_world() {
        let a = Experiment::quick(4, 5).run(Algorithm::DownloadAll);
        let b = Experiment::quick(4, 6).run(Algorithm::DownloadAll);
        assert_ne!(a.completion_time, b.completion_time);
    }

    #[test]
    fn arrivals_are_monotone_and_complete() {
        let r = Experiment::quick(4, 9).run(Algorithm::OneShot);
        assert_eq!(r.arrivals.len(), 8);
        for w in r.arrivals.windows(2) {
            assert!(w[0] < w[1], "arrivals must be strictly increasing");
        }
        assert_eq!(
            r.completion_time.as_secs_f64(),
            r.arrivals.last().unwrap().as_secs_f64()
        );
    }

    #[test]
    fn one_shot_beats_download_all_on_skewed_network() {
        // Build a pool with one dreadful trace; with 5 hosts most
        // configurations will hand some server a bad client link that
        // placement can route around.
        let mut badly_worse = 0;
        let mut total = 0.0;
        for seed in 0..5 {
            let exp = Experiment::quick(4, seed);
            let da = exp.run(Algorithm::DownloadAll);
            let os = exp.run(Algorithm::OneShot);
            let s = os.speedup_over(&da);
            total += s;
            if s < 0.95 {
                badly_worse += 1;
            }
        }
        assert!(
            total / 5.0 > 1.05,
            "one-shot should help on average (mean speedup {})",
            total / 5.0
        );
        assert_eq!(
            badly_worse, 0,
            "one-shot should never hurt noticeably at this scale"
        );
    }

    #[test]
    fn validate_names_the_problem_before_any_world_is_built() {
        let exp = Experiment::quick(4, 22);
        assert_eq!(exp.validate(Algorithm::OneShot), Ok(()));
        let zero_period = Algorithm::Global {
            period: SimDuration::ZERO,
        };
        assert!(exp.validate(zero_period).unwrap_err().contains("zero"));
        let mut no_images = exp.clone();
        no_images.template_mut().workload.images_per_server = 0;
        assert!(no_images.validate(Algorithm::DownloadAll).is_err());
        let custom = exp.with_tree_shape(TreeShape::Custom);
        assert!(custom
            .validate(Algorithm::DownloadAll)
            .unwrap_err()
            .contains("custom"));
    }

    #[test]
    fn left_deep_shape_is_runnable() {
        let exp = Experiment::quick(4, 11).with_tree_shape(TreeShape::LeftDeep);
        let r = exp.run(Algorithm::OneShot);
        assert!(r.completed);
    }

    #[test]
    fn quick_topo_completes_under_all_algorithms() {
        let exp = Experiment::quick_topo(4, 3);
        assert!(exp.topology().is_some());
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
            let r = exp.run(alg);
            assert!(r.completed, "{} did not complete", alg.name());
            assert_eq!(r.images_delivered, 8, "{}", alg.name());
        }
    }

    #[test]
    fn topo_runs_are_deterministic() {
        let exp = Experiment::quick_topo(4, 5);
        let a = exp.run(Algorithm::OneShot);
        let b = exp.run(Algorithm::OneShot);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn star_topology_with_private_links_equals_link_table() {
        // A hand-built topology where every pair's path is one named
        // private link is the per-pair world: no link is shared, so no
        // flow is ever fair-shared — not even two flows of one pair at
        // NIC capacity 2 — and the nominal traces are the same Arcs. The
        // digests must match exactly under every algorithm.
        use wadc_net::network::NetworkParams;
        use wadc_plan::ids::HostId;
        use wadc_topo::graph::TopologyBuilder;
        let thirty = SimDuration::from_secs(30);
        let algorithms = [
            Algorithm::DownloadAll,
            Algorithm::OneShot,
            Algorithm::Global { period: thirty },
            Algorithm::Local {
                period: thirty,
                extra_candidates: 0,
            },
        ];
        for nic_capacity in [1, 2] {
            let mut exp = Experiment::quick(4, 17);
            exp.template_mut().net = NetworkParams::with_nic_capacity(nic_capacity);
            let n = exp.template().n_servers + 1;
            let mut b = TopologyBuilder::new(n);
            for lo in 0..n {
                for hi in (lo + 1)..n {
                    let (x, y) = (HostId::new(lo), HostId::new(hi));
                    let trace = exp.links().trace(x, y).expect("complete table");
                    let link = b.add_link(&format!("private-{lo}-{hi}"), trace.clone());
                    b.route(x, y, &[link]);
                }
            }
            let star = exp.clone().with_topology(Arc::new(b.build()));
            assert!(exp.topology().is_none() && star.topology().is_none());
            for alg in algorithms {
                assert_eq!(
                    exp.run(alg).digest(),
                    star.run(alg).digest(),
                    "{} diverged on a shared-nothing topology at NIC capacity {nic_capacity}",
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn gauged_knowledge_is_runnable_on_topology() {
        let exp = Experiment::quick_topo(4, 13).with_knowledge(KnowledgeMode::Gauged);
        let r = exp.run(Algorithm::Global {
            period: SimDuration::from_secs(20),
        });
        assert!(r.completed);
    }

    #[test]
    fn oracle_knowledge_is_runnable() {
        let exp = Experiment::quick(4, 12).with_knowledge(KnowledgeMode::Oracle);
        let r = exp.run(Algorithm::Global {
            period: SimDuration::from_secs(20),
        });
        assert!(r.completed);
    }
}
