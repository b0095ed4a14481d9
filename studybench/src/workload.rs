//! The four benchmark workloads: what each one feeds the program, and
//! which run outcomes it accepts.
//!
//! A workload is [`STUDIES`] studies of [`Workload::configs_per_study`]
//! configurations each, every one a [`StudyParams`] generated from the
//! workload seed, plus (on `crash_loss`) a fixed [`FaultPlan`]; the
//! program sees nothing else. One study's 45 synthetic traces decide much
//! of how fast and how well every configuration drawn from them runs, so
//! a workload spreads its configurations over many studies: that keeps
//! one seed's figures close to another's. Why each workload exists is
//! recorded in `README.md` beside this crate.

use wadc_core::engine::{Algorithm, RunOutcome};
use wadc_core::knowledge::KnowledgeMode;
use wadc_core::study::StudyParams;
use wadc_net::faults::FaultPlan;
use wadc_plan::ids::HostId;
use wadc_sim::digest::Digest;
use wadc_sim::time::SimTime;
use wadc_topo::preset::TopoPreset;

/// The repository's study seed, and the seed the digests below are pinned at.
pub const DEFAULT_SEED: u64 = 1998;

/// Studies in one workload. Study `j` of workload seed `s` runs at master
/// seed `s * STUDIES + j`, so distinct workload seeds never share a study.
pub const STUDIES: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 6 study: 300 configurations of 8 servers over
    /// per-pair links with monitored knowledge.
    PaperMain,
    /// `PaperMain` over the shared-bottleneck paper-WAN preset with
    /// gauged knowledge.
    PaperWan,
    /// `PaperMain` with 32 servers and 16 images per server.
    WideShort,
    /// `PaperMain` with 5% message loss and server host 3 crashing for
    /// good at t = 10 min.
    CrashLoss,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMain,
        Workload::PaperWan,
        Workload::WideShort,
        Workload::CrashLoss,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMain => "paper_main",
            Workload::PaperWan => "paper_wan",
            Workload::WideShort => "wide_short",
            Workload::CrashLoss => "crash_loss",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Configurations drawn from each study. A `paper_wan` configuration
    /// costs about four `paper_main` ones (each builds its topology) and a
    /// `wide_short` one about two and a half, so they draw half as many,
    /// which keeps their first pass short.
    pub fn configs_per_study(self) -> usize {
        match self {
            Workload::PaperMain | Workload::CrashLoss => 10,
            Workload::PaperWan | Workload::WideShort => 5,
        }
    }

    /// The workload's studies at workload seed `seed`.
    pub fn studies(self, seed: u64) -> Vec<StudyParams> {
        (0..STUDIES as u64)
            .map(|j| {
                let mut p = self.params(seed.wrapping_mul(STUDIES as u64).wrapping_add(j));
                p.n_configs = self.configs_per_study();
                p
            })
            .collect()
    }

    /// One study of this workload at master seed `seed`, with the paper's
    /// 300 configurations.
    pub fn params(self, seed: u64) -> StudyParams {
        let mut p = StudyParams::paper_main(seed);
        match self {
            Workload::PaperMain => {}
            Workload::PaperWan => {
                p.topology = Some(TopoPreset::PaperWan);
                p.knowledge = KnowledgeMode::Gauged;
            }
            Workload::WideShort => {
                p.n_servers = 32;
                p.workload.images_per_server = 16;
            }
            Workload::CrashLoss => {
                p.faults = FaultPlan::none()
                    .with_loss(0.05)
                    .crash(HostId::new(3), SimTime::from_secs(600));
            }
        }
        p
    }

    /// [`workload_digest`] of the studies at [`DEFAULT_SEED`]. A mismatch
    /// means the program's results changed, which a change claiming only
    /// speed must never do.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::PaperMain => 0x48ea_ff03_daa1_c4ef,
            Workload::PaperWan => 0x1f7f_6841_e923_ac4b,
            Workload::WideShort => 0xf2e9_5b71_8b42_fdac,
            Workload::CrashLoss => 0x6e68_9112_48bd_43df,
        }
    }

    /// Whether a run that returned normally ended acceptably. The clean
    /// workloads demand a `Completed` run that delivered every image. On
    /// `crash_loss` only `Aborted` is a failure: the plan never crashes
    /// the client, and a crash that no later traffic runs into is never
    /// detected, so a `Degraded` run is an expected outcome there.
    pub fn accepts(self, outcome: RunOutcome, delivered: usize, expected: usize) -> bool {
        match self {
            Workload::CrashLoss => outcome != RunOutcome::Aborted,
            _ => outcome == RunOutcome::Completed && delivered == expected,
        }
    }
}

/// Folds each study's `run_study(..).digest()`, in study order, into one
/// digest for the workload.
pub fn workload_digest(study_digests: &[u64]) -> u64 {
    let mut d = Digest::new();
    d.write_usize(study_digests.len());
    for &s in study_digests {
        d.write_u64(s);
    }
    d.finish()
}

/// The algorithms of one configuration, in the order `run_study` runs
/// and digests them: download-all first, then the study's algorithms.
pub fn study_algorithms(params: &StudyParams) -> Vec<Algorithm> {
    std::iter::once(Algorithm::DownloadAll)
        .chain(params.algorithms.iter().copied())
        .collect()
}

/// A metric-name suffix for an algorithm (`global`, `one_shot`, ...).
pub fn algorithm_key(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::DownloadAll => "download_all",
        Algorithm::OneShot => "one_shot",
        Algorithm::Global { .. } => "global",
        Algorithm::Local { .. } => "local",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper-main"), None);
    }

    #[test]
    fn degraded_is_accepted_only_on_crash_loss() {
        for w in Workload::ALL {
            let degraded = w.accepts(RunOutcome::Degraded, 180, 180);
            assert_eq!(degraded, w == Workload::CrashLoss, "{}", w.name());
            assert!(!w.accepts(RunOutcome::Aborted, 180, 180), "{}", w.name());
            assert!(w.accepts(RunOutcome::Completed, 180, 180), "{}", w.name());
        }
    }

    #[test]
    fn clean_workloads_reject_a_short_delivery() {
        for w in [Workload::PaperMain, Workload::PaperWan, Workload::WideShort] {
            assert!(!w.accepts(RunOutcome::Completed, 179, 180), "{}", w.name());
        }
        assert!(Workload::CrashLoss.accepts(RunOutcome::Completed, 179, 180));
    }

    #[test]
    fn params_follow_the_workload_definitions() {
        let main = Workload::PaperMain.params(7);
        assert_eq!((main.n_configs, main.n_servers), (300, 8));
        assert_eq!(main.master_seed, 7);
        assert!(main.faults.is_empty() && main.topology.is_none());
        let wan = Workload::PaperWan.params(7);
        assert_eq!(wan.topology, Some(TopoPreset::PaperWan));
        assert_eq!(wan.knowledge, KnowledgeMode::Gauged);
        let wide = Workload::WideShort.params(7);
        assert_eq!((wide.n_servers, wide.workload.images_per_server), (32, 16));
        let crash = Workload::CrashLoss.params(7);
        assert_eq!(crash.faults.crashes.len(), 1);
        assert_eq!(crash.faults.crashes[0].host, HostId::new(3));
        let studies = Workload::WideShort.studies(7);
        assert_eq!(studies.len(), STUDIES);
        assert!(studies
            .iter()
            .all(|p| p.n_configs == 5 && p.n_servers == 32));
        assert_eq!(studies[0].master_seed, 7 * STUDIES as u64);
        assert_eq!(studies[STUDIES - 1].master_seed, 8 * STUDIES as u64 - 1);
        assert_eq!(
            study_algorithms(&main)
                .into_iter()
                .map(algorithm_key)
                .collect::<Vec<_>>(),
            ["download_all", "one_shot", "global", "local"]
        );
    }
}
