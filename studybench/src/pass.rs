//! One pass over a workload, made with the same public calls as
//! `wadc study`. For each of the workload's studies: the noon trace pool
//! is extracted once, each configuration's [`Experiment`] is built once,
//! and every algorithm runs through `Experiment::engine_scratch` and
//! `Engine::run_reclaim_scratch` on one warm [`RunScratch`].

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use wadc_bench::alloc::AllocScope;
use wadc_core::algorithms::one_shot_placement;
use wadc_core::engine::{Algorithm, AuditEvent, Engine, RunResult, RunScratch};
use wadc_core::experiment::Experiment;
use wadc_core::study::{run_study, StudyParams};
use wadc_obs::recorder::{Obs, Recorder};
use wadc_plan::bandwidth::BwMatrix;
use wadc_plan::placement::HostRoster;
use wadc_plan::tree::CombinationTree;
use wadc_sim::digest::Digest;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_trace::model::BandwidthTrace;
use wadc_trace::study::BandwidthStudy;

use crate::recorder::CountingRecorder;
use crate::spans::SpanLog;
use crate::workload::{algorithm_key, Workload};

/// One study's bandwidth traces: what `wadc study` extracts once before
/// its first configuration.
struct Setup {
    /// Kept alive for the study, as `run_study` keeps it, so that it
    /// counts toward the peak heap.
    _study: BandwidthStudy,
    /// The noon-aligned trace pool every configuration draws from.
    pool: Vec<Arc<BandwidthTrace>>,
}

impl Setup {
    /// `BandwidthStudy::default_study` then `noon_trace_pool`, each inside
    /// a span when tracing.
    fn build(params: &StudyParams, probe: &mut Probe<'_>) -> Setup {
        let study = within(probe, "trace.synth", None, || {
            BandwidthStudy::default_study(params.master_seed)
        });
        let pool = within(probe, "trace.pool", None, || {
            study.noon_trace_pool(params.trace_window)
        });
        Setup {
            _study: study,
            pool,
        }
    }
}

/// Host time of one study's set-up; the set-up is dropped untimed.
pub fn time_setup(params: &StudyParams) -> u64 {
    let t = Instant::now();
    let setup = Setup::build(params, &mut Probe::Timed);
    let ns = t.elapsed().as_nanos() as u64;
    drop(setup);
    ns
}

/// Every study's trace pool, kept for the passes that only re-time runs.
pub struct Pools(Vec<Vec<Arc<BandwidthTrace>>>);

impl Pools {
    /// Builds every study's pool, untimed.
    pub fn build(studies: &[StudyParams]) -> Pools {
        Pools(
            studies
                .iter()
                .map(|p| Setup::build(p, &mut Probe::Timed).pool)
                .collect(),
        )
    }
}

/// Configuration `index` of a study, built as `run_study` builds it.
fn build_experiment(
    params: &StudyParams,
    pool: &[Arc<BandwidthTrace>],
    index: usize,
) -> Experiment {
    let base = match params.topology {
        Some(preset) => Experiment::from_study_pool_topo(
            params.n_servers,
            pool,
            preset,
            index as u64,
            params.master_seed,
        ),
        None => {
            Experiment::from_study_pool(params.n_servers, pool, index as u64, params.master_seed)
        }
    };
    let mut exp = base
        .with_tree_shape(params.tree_shape)
        .with_knowledge(params.knowledge)
        .with_workload(params.workload);
    if !params.faults.is_empty() {
        exp.template_mut().faults = params.faults.clone();
    }
    exp
}

/// What `wadc study` produces for one study.
#[derive(Default)]
pub struct Reference {
    /// `run_study(params).digest()`.
    pub study_digest: u64,
    /// Every run's digest, configuration-major, in algorithm order.
    pub run_digests: Vec<u64>,
}

impl Reference {
    /// Runs the study through `run_study`; `None` if it panicked.
    pub fn compute(params: &StudyParams) -> Option<Reference> {
        let results = catch_unwind(|| run_study(params)).ok()?;
        let run_digests = results
            .outcomes
            .iter()
            .flat_map(|o| std::iter::once(&o.download_all).chain(&o.results))
            .map(RunResult::digest)
            .collect();
        Some(Reference {
            study_digest: results.digest(),
            run_digests,
        })
    }
}

/// Folds run digests in (configuration, algorithm) order into exactly the
/// value `StudyResults::digest` gives for the same runs.
struct StudyFold {
    digest: Digest,
    runs_per_config: usize,
}

impl StudyFold {
    /// A fold over `n_configs` configurations of `runs_per_config` runs,
    /// download-all first.
    fn new(n_configs: usize, runs_per_config: usize) -> StudyFold {
        let mut digest = Digest::new();
        digest.write_usize(n_configs);
        StudyFold {
            digest,
            runs_per_config,
        }
    }

    /// Adds run `alg` (its index in the configuration) of `config`.
    fn push(&mut self, config: usize, alg: usize, run_digest: u64) {
        if alg == 0 {
            self.digest.write_usize(config);
            self.digest.write_u64(run_digest);
            self.digest.write_usize(self.runs_per_config - 1);
        } else {
            self.digest.write_u64(run_digest);
        }
    }

    /// The folded digest.
    fn finish(&self) -> u64 {
        self.digest.finish()
    }
}

/// What a pass does beside running the program.
pub enum Probe<'a> {
    /// Nothing: the end-to-end pass, timed on the host clock.
    Timed,
    /// Spans around every call into the program, under span `parent`,
    /// and every run checked against the invariants.
    Traced {
        /// The span store.
        log: &'a mut SpanLog,
        /// The enclosing span.
        parent: usize,
    },
    /// A counting recorder attached to every engine, and the placement
    /// search timed on each configuration's t = 0 bandwidths.
    Observed {
        /// The recorder.
        recorder: &'a Rc<RefCell<CountingRecorder>>,
        /// The side measurement of the placement search.
        search: &'a mut SearchTiming,
    },
}

/// Host time of direct `one_shot_placement` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTiming {
    /// Searches made.
    pub searches: u64,
    /// Host nanoseconds they took.
    pub ns: u64,
}

impl SearchTiming {
    /// Searches per configuration: enough to lift one configuration's
    /// measurement well above the clock's resolution.
    const REPEATS: u64 = 10;

    /// Times the one-shot placement search from download-all on `exp`'s
    /// bandwidths at t = 0, the search every relocating run starts with.
    fn measure(&mut self, exp: &Experiment) {
        let cfg = exp.template();
        let tree = CombinationTree::build(cfg.tree_shape, cfg.n_servers)
            .expect("the study's server count builds its tree");
        let roster = HostRoster::one_host_per_server(cfg.n_servers);
        let bw = BwMatrix::from_fn(cfg.n_servers + 1, |a, b| {
            exp.links()
                .bandwidth_at(a, b, SimTime::ZERO)
                .expect("study link tables are complete")
        });
        let t = Instant::now();
        for _ in 0..Self::REPEATS {
            std::hint::black_box(one_shot_placement(&tree, &roster, &bw, &cfg.cost_model));
        }
        self.ns += t.elapsed().as_nanos() as u64;
        self.searches += Self::REPEATS;
    }

    /// Mean host microseconds per search.
    pub fn mean_us(&self) -> f64 {
        self.ns as f64 / 1e3 / self.searches.max(1) as f64
    }
}

/// Counts read from each run's [`RunResult`] and audit log.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Runs per algorithm index.
    pub runs: Vec<u64>,
    /// `planner_runs` summed per algorithm index.
    pub planner_runs: Vec<u64>,
    /// `PlannerRan` audit events.
    pub planner_ran: u64,
    /// `PlannerRan { changed: true }` audit events.
    pub planner_changed: u64,
    /// `ChangeoverProposed` audit events.
    pub proposed: u64,
    /// `ChangeoverCommitted` audit events.
    pub committed: u64,
    /// Transfers submitted (retransmissions included).
    pub transfers: u64,
    /// Bytes submitted.
    pub bytes: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Transfers dropped by fault injection.
    pub dropped: u64,
    /// Operator relocations.
    pub relocations: u64,
    /// Committed change-overs.
    pub changeovers: u64,
    /// Hosts declared dead.
    pub declared_dead: u64,
    /// Operators respawned.
    pub respawned: u64,
}

impl Counts {
    fn add(&mut self, alg: usize, r: &RunResult) {
        if self.runs.len() <= alg {
            self.runs.resize(alg + 1, 0);
            self.planner_runs.resize(alg + 1, 0);
        }
        self.runs[alg] += 1;
        self.planner_runs[alg] += u64::from(r.planner_runs);
        for e in r.audit.events() {
            match e {
                AuditEvent::PlannerRan { changed, .. } => {
                    self.planner_ran += 1;
                    self.planner_changed += u64::from(*changed);
                }
                AuditEvent::ChangeoverProposed { .. } => self.proposed += 1,
                AuditEvent::ChangeoverCommitted { .. } => self.committed += 1,
                _ => {}
            }
        }
        self.transfers += r.net_stats.submitted;
        self.bytes += r.net_stats.bytes_submitted;
        self.retransmits += r.net_stats.retransmits;
        self.dropped += r.net_stats.dropped;
        self.relocations += u64::from(r.relocations);
        self.changeovers += u64::from(r.changeovers);
        self.declared_dead += u64::from(r.hosts_declared_dead);
        self.respawned += u64::from(r.operators_respawned);
    }

    /// Runs counted.
    pub fn total_runs(&self) -> u64 {
        self.runs.iter().sum()
    }
}

/// The outcome of one pass. Per-study, per-configuration and per-run
/// vectors are in pass order, which is the same in every pass.
pub struct PassResult {
    /// Host time of the whole pass, set-ups included.
    pub wall_ns: u64,
    /// Each study's set-up (none when the pass reused [`Pools`]).
    pub setup_ns: Vec<u64>,
    /// Each configuration's experiment build.
    pub experiment_ns: Vec<u64>,
    /// Each run's host time: `engine_scratch` (plus `attach_obs` when
    /// observed) and `run_reclaim_scratch`. A run that panicked is timed
    /// up to its last completed step.
    pub runs: Vec<u64>,
    /// Heap allocations outside the set-ups.
    pub allocs: u64,
    /// Highest live heap any one study reached above the heap it started
    /// from, its set-up included.
    pub peak_bytes: u64,
    /// Runs that panicked, broke an invariant, changed digest, or ended
    /// in an outcome the workload does not accept.
    pub failed: usize,
    /// Up to five failure descriptions.
    pub failures: Vec<String>,
    /// Each study's [`StudyFold`]; none when the pass ran only some of
    /// each study's configurations.
    pub folds: Vec<u64>,
    /// Per configuration: download-all time over global time (simulated).
    pub global_speedups: Vec<f64>,
    /// Result and audit counts (traced passes only).
    pub counts: Counts,
}

/// One workload, ready to be passed over.
pub struct Pass<'a> {
    /// The workload whose outcomes are judged.
    pub workload: Workload,
    /// Its studies.
    pub studies: &'a [StudyParams],
    /// Download-all, then the studies' algorithms.
    pub algorithms: &'a [Algorithm],
    /// One per study: the digests every run must reproduce.
    pub references: &'a [Reference],
}

impl Pass<'_> {
    /// Sets up every study and runs each of its configurations once, on
    /// `scratch`.
    pub fn run(&self, scratch: &mut RunScratch, probe: &mut Probe<'_>) -> PassResult {
        self.run_studies(None, usize::MAX, scratch, probe)
    }

    /// Runs the first `configs` configurations of each study once, over
    /// pools built beforehand: no set-ups.
    pub fn run_on(&self, pools: &Pools, configs: usize, scratch: &mut RunScratch) -> PassResult {
        self.run_studies(Some(pools), configs, scratch, &mut Probe::Timed)
    }

    fn run_studies(
        &self,
        pools: Option<&Pools>,
        configs: usize,
        scratch: &mut RunScratch,
        probe: &mut Probe<'_>,
    ) -> PassResult {
        let start = Instant::now();
        let total: usize = self.studies.iter().map(|p| configs.min(p.n_configs)).sum();
        let mut out = PassResult {
            wall_ns: 0,
            setup_ns: Vec::with_capacity(self.studies.len()),
            experiment_ns: Vec::with_capacity(total),
            runs: Vec::with_capacity(total * self.algorithms.len()),
            allocs: 0,
            peak_bytes: 0,
            failed: 0,
            failures: Vec::new(),
            folds: Vec::with_capacity(self.studies.len()),
            global_speedups: Vec::with_capacity(total),
            counts: Counts::default(),
        };
        for (j, (params, reference)) in self.studies.iter().zip(self.references).enumerate() {
            // Both scopes start from the same live heap, so opening the
            // inner one loses nothing from the outer one's peak.
            let study_heap = AllocScope::begin();
            let setup_heap = AllocScope::begin();
            let setup = match pools {
                Some(_) => None,
                None => {
                    let t = Instant::now();
                    let setup = Setup::build(params, probe);
                    out.setup_ns.push(t.elapsed().as_nanos() as u64);
                    Some(setup)
                }
            };
            let setup_allocs = setup_heap.finish().allocs;
            let pool = match (&setup, pools) {
                (Some(setup), _) => &setup.pool,
                (None, Some(pools)) => &pools.0[j],
                (None, None) => unreachable!("a pass without pools sets up every study"),
            };
            let study = Study {
                workload: self.workload,
                params,
                algorithms: self.algorithms,
                pool,
                reference,
            };
            let n = configs.min(params.n_configs);
            let fold = study.run(n, scratch, probe, &mut out);
            if n == params.n_configs {
                out.folds.push(fold);
            }
            within(probe, "bench.own", None, || drop(setup));
            let heap = study_heap.finish();
            out.allocs += heap.allocs - setup_allocs;
            out.peak_bytes = out.peak_bytes.max(heap.peak_bytes);
        }
        out.wall_ns = start.elapsed().as_nanos() as u64;
        out
    }
}

/// One study of a pass, its set-up done.
struct Study<'a> {
    workload: Workload,
    params: &'a StudyParams,
    algorithms: &'a [Algorithm],
    pool: &'a [Arc<BandwidthTrace>],
    reference: &'a Reference,
}

impl Study<'_> {
    /// Runs the first `configs` configurations once, appending to `out`,
    /// and returns the study's fold, which is complete only when that is
    /// every configuration.
    fn run(
        &self,
        configs: usize,
        scratch: &mut RunScratch,
        probe: &mut Probe<'_>,
        out: &mut PassResult,
    ) -> u64 {
        let n_algs = self.algorithms.len();
        let global = self
            .algorithms
            .iter()
            .position(|a| matches!(a, Algorithm::Global { .. }));
        let mut fold = StudyFold::new(self.params.n_configs, n_algs);
        for config in 0..configs {
            let (exp, ns) = timed(probe, "core.experiment_build", None, || {
                build_experiment(self.params, self.pool, config)
            });
            out.experiment_ns.push(ns);
            if let Probe::Observed { search, .. } = probe {
                search.measure(&exp);
            }
            let mut download_all = None;
            for (a, &alg) in self.algorithms.iter().enumerate() {
                let mut ns = 0;
                let run = catch_unwind(AssertUnwindSafe(|| {
                    one_run(&exp, alg, scratch, probe, &mut ns)
                }));
                out.runs.push(ns);
                let check = match probe {
                    Probe::Traced { log, parent } => {
                        Some(log.open("bench.own", None, Some(*parent)))
                    }
                    _ => None,
                };
                let (digest, failure) = match run {
                    Ok(result) => {
                        let digest = result.digest();
                        let traced = matches!(probe, Probe::Traced { .. });
                        let index = config * n_algs + a;
                        let failure = self.judge(&exp, alg, &result, digest, index, traced);
                        if traced {
                            out.counts.add(a, &result);
                        }
                        if a == 0 {
                            download_all = Some(result.completion_time);
                        } else if Some(a) == global && result.completion_time > SimDuration::ZERO {
                            if let Some(da) = download_all {
                                out.global_speedups
                                    .push(da.as_secs_f64() / result.completion_time.as_secs_f64());
                            }
                        }
                        (digest, failure)
                    }
                    Err(_) => {
                        // The arena went down with the engine.
                        *scratch = RunScratch::new();
                        (0, Some("panicked".to_string()))
                    }
                };
                fold.push(config, a, digest);
                if let Some(failure) = failure {
                    out.failed += 1;
                    if out.failures.len() < 5 {
                        out.failures.push(format!(
                            "seed {} configuration {config} {}: {failure}",
                            self.params.master_seed,
                            algorithm_key(alg),
                        ));
                    }
                }
                if let (Probe::Traced { log, .. }, Some(check)) = (&mut *probe, check) {
                    log.close(check);
                }
            }
            within(probe, "bench.own", None, || drop(exp));
        }
        fold.finish()
    }

    /// Why a finished run counts as failed, if it does.
    fn judge(
        &self,
        exp: &Experiment,
        alg: Algorithm,
        result: &RunResult,
        digest: u64,
        index: usize,
        check_invariants: bool,
    ) -> Option<String> {
        let expected = self.reference.run_digests.get(index).copied();
        if expected != Some(digest) {
            return Some(format!(
                "digest {digest:016x} differs from run_study's {}",
                expected.map_or("(none)".to_string(), |d| format!("{d:016x}"))
            ));
        }
        if check_invariants {
            let mut cfg = exp.template().clone();
            cfg.algorithm = alg;
            let violations = wadc_verify::invariants::check_run(&cfg, result);
            if let Some(v) = violations.first() {
                return Some(format!(
                    "{} invariant violation(s), first: {v}",
                    violations.len()
                ));
            }
        }
        let images = self.params.workload.images_per_server;
        if !self
            .workload
            .accepts(result.outcome, result.images_delivered, images)
        {
            return Some(format!(
                "ended {} with {} of {images} images",
                result.outcome.name(),
                result.images_delivered
            ));
        }
        None
    }
}

/// One run: `engine_scratch`, then `run_reclaim_scratch`, on `scratch`.
/// Adds to `ns` as it goes, so a run that panics is still timed.
fn one_run(
    exp: &Experiment,
    alg: Algorithm,
    scratch: &mut RunScratch,
    probe: &mut Probe<'_>,
    ns: &mut u64,
) -> RunResult {
    let key = Some(algorithm_key(alg));
    let arena = std::mem::take(scratch);
    let (mut engine, build_ns): (Engine, u64) = timed(probe, "core.world_build", key, || {
        exp.engine_scratch(alg, arena)
    });
    *ns = build_ns;
    if let Probe::Observed { recorder, .. } = probe {
        let t = Instant::now();
        recorder.borrow_mut().begin_run(exp.topology().cloned());
        let recorder: Rc<RefCell<dyn Recorder>> = Rc::clone(recorder) as _;
        engine.attach_obs(Obs::new(recorder));
        *ns += t.elapsed().as_nanos() as u64;
    }
    let ((result, reclaimed), loop_ns) =
        timed(probe, "core.run_loop", key, || engine.run_reclaim_scratch());
    *ns += loop_ns;
    *scratch = reclaimed;
    result
}

/// Runs `f`, inside a span when tracing, and returns its host time.
fn timed<T>(
    probe: &mut Probe<'_>,
    name: &'static str,
    tag: Option<&'static str>,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match probe {
        Probe::Traced { log, parent } => {
            let open = log.open(name, tag, Some(*parent));
            let out = f();
            let id = log.close(open);
            (out, log.spans()[id].duration_ns())
        }
        _ => {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_nanos() as u64)
        }
    }
}

/// Runs `f`, inside a span when tracing.
fn within<T>(
    probe: &mut Probe<'_>,
    name: &'static str,
    tag: Option<&'static str>,
    f: impl FnOnce() -> T,
) -> T {
    match probe {
        Probe::Traced { log, parent } => log.within(name, tag, Some(*parent), f),
        _ => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{study_algorithms, DEFAULT_SEED};

    /// The workload's first two studies, two configurations each.
    fn small(workload: Workload) -> (Vec<StudyParams>, Vec<Reference>) {
        let studies: Vec<StudyParams> = workload
            .studies(DEFAULT_SEED)
            .into_iter()
            .take(2)
            .map(|mut p| {
                p.n_configs = 2;
                p
            })
            .collect();
        let references = studies
            .iter()
            .map(|p| Reference::compute(p).expect("run_study"))
            .collect();
        (studies, references)
    }

    #[test]
    fn every_workload_folds_to_the_run_study_digests() {
        for w in Workload::ALL {
            let (studies, references) = small(w);
            let algorithms = study_algorithms(&studies[0]);
            let pass = Pass {
                workload: w,
                studies: &studies,
                algorithms: &algorithms,
                references: &references,
            };
            let out = pass.run(&mut RunScratch::new(), &mut Probe::Timed);
            let expected: Vec<u64> = references.iter().map(|r| r.study_digest).collect();
            assert_eq!(out.folds, expected, "{}", w.name());
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
            assert_eq!(out.setup_ns.len(), 2);
            assert_eq!(out.experiment_ns.len(), 4);
            assert_eq!(out.runs.len(), 4 * algorithms.len());
            assert_eq!(out.global_speedups.len(), 4);
        }
    }

    #[test]
    fn traced_and_observed_passes_reproduce_the_digests() {
        let (studies, references) = small(Workload::PaperWan);
        let expected: Vec<u64> = references.iter().map(|r| r.study_digest).collect();
        let algorithms = study_algorithms(&studies[0]);
        let pass = Pass {
            workload: Workload::PaperWan,
            studies: &studies,
            algorithms: &algorithms,
            references: &references,
        };
        let mut log = SpanLog::with_capacity(128);
        let root = log.open("bench.traced", None, None);
        let parent = root.id();
        let traced = pass.run(
            &mut RunScratch::new(),
            &mut Probe::Traced {
                log: &mut log,
                parent,
            },
        );
        log.close(root);
        assert_eq!(traced.folds, expected);
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
        assert_eq!(traced.counts.total_runs(), 16);
        let count = |name: &str| log.spans().iter().filter(|s| s.name == name).count();
        assert_eq!(count("trace.synth"), 2);
        assert_eq!(count("trace.pool"), 2);
        assert_eq!(count("core.experiment_build"), 4);
        assert_eq!(count("core.world_build"), 16);
        assert_eq!(count("core.run_loop"), 16);

        let recorder = Rc::new(RefCell::new(CountingRecorder::new()));
        let mut search = SearchTiming::default();
        let observed = pass.run(
            &mut RunScratch::new(),
            &mut Probe::Observed {
                recorder: &recorder,
                search: &mut search,
            },
        );
        assert_eq!(observed.folds, expected);
        assert_eq!(observed.failed, 0, "{:?}", observed.failures);
        assert_eq!(search.searches, 4 * SearchTiming::REPEATS);
        let recorder = recorder.borrow();
        assert!(recorder.transfers > 0 && recorder.est_error.count() > 0);
        assert!(recorder.shared_transfers > 0, "paper-wan shares backbones");
    }

    #[test]
    fn a_pass_over_some_configurations_checks_runs_but_not_folds() {
        let (studies, references) = small(Workload::PaperMain);
        let algorithms = study_algorithms(&studies[0]);
        let pass = Pass {
            workload: Workload::PaperMain,
            studies: &studies,
            algorithms: &algorithms,
            references: &references,
        };
        let pools = Pools::build(&studies);
        let out = pass.run_on(&pools, 1, &mut RunScratch::new());
        assert!(out.folds.is_empty() && out.setup_ns.is_empty());
        assert_eq!(out.experiment_ns.len(), 2);
        assert_eq!(out.runs.len(), 2 * algorithms.len());
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        let whole = pass.run_on(&pools, 2, &mut RunScratch::new());
        let expected: Vec<u64> = references.iter().map(|r| r.study_digest).collect();
        assert_eq!(whole.folds, expected);
    }

    #[test]
    fn a_run_off_its_reference_digest_counts_as_failed() {
        let (studies, mut references) = small(Workload::PaperMain);
        references[1].run_digests[5] ^= 1;
        let algorithms = study_algorithms(&studies[0]);
        let pass = Pass {
            workload: Workload::PaperMain,
            studies: &studies,
            algorithms: &algorithms,
            references: &references,
        };
        let out = pass.run(&mut RunScratch::new(), &mut Probe::Timed);
        assert_eq!(out.failed, 1);
        let seed = studies[1].master_seed;
        assert!(
            out.failures[0].starts_with(&format!("seed {seed} configuration 1 one_shot: digest")),
            "{}",
            out.failures[0]
        );
        // The fold is of what the program produced, so it still matches.
        assert_eq!(out.folds[1], references[1].study_digest);
    }
}
