//! Anatomy of one adaptive run: the audit log, the barrier latencies, the
//! convergence profile — the diagnostics the paper's discussion section
//! derives from its "relocation traces".
//!
//! ```sh
//! cargo run --release --example adaptation_anatomy
//! ```

use wadc::core::analysis::{converged_fraction, pacing_profile, summarize_adaptation};
use wadc::core::engine::{Algorithm, AuditEvent};
use wadc::core::experiment::Experiment;
use wadc::sim::time::SimDuration;
use wadc::trace::study::BandwidthStudy;

fn main() {
    let pool = BandwidthStudy::default_study(7).noon_trace_pool(SimDuration::from_hours(24));
    let exp = Experiment::from_study_pool(8, &pool, 3, 7);

    for alg in [
        Algorithm::OneShot,
        Algorithm::global_default(),
        Algorithm::local_default(),
    ] {
        let r = exp.run(alg);
        assert!(r.completed);
        let s = summarize_adaptation(&r);
        println!("=== {} ===", alg.name());
        println!(
            "planner: {} runs, {} found improvements (mean predicted gain {:.0}%)",
            s.planner_runs,
            s.planner_changes,
            100.0 * s.mean_predicted_improvement
        );
        println!(
            "moves: {} relocations, {:.2} s mean transit, {} barrier change-overs ({:.1} s mean barrier)",
            s.relocations, s.mean_transit_secs, s.changeovers, s.mean_barrier_secs
        );
        println!(
            "converged for the last {:.0}% of the run",
            100.0 * converged_fraction(&r)
        );
        let profile = pacing_profile(&r, 6);
        let bars: Vec<String> = profile.iter().map(|g| format!("{g:>6.1}s")).collect();
        println!("delivery pacing over the run: {}", bars.join(" "));
        println!();
    }

    // Zoom into the global run's first change-over, event by event.
    let r = exp.run(Algorithm::global_default());
    println!("=== first change-over of the global run, event by event ===");
    let mut shown = 0;
    for e in r.audit.events() {
        match e {
            AuditEvent::ChangeoverProposed { at, version, moves } => {
                println!(
                    "t={:>6.0}s  propose v{version} ({moves} moves)",
                    at.as_secs_f64()
                );
                shown = 1;
            }
            AuditEvent::ServerSuspended {
                at,
                server,
                reported_iteration,
                ..
            } if shown == 1 => println!(
                "t={:>6.0}s  server {server} reports iteration {reported_iteration} and suspends",
                at.as_secs_f64()
            ),
            AuditEvent::ChangeoverCommitted {
                at,
                version,
                switch_iteration,
            } if shown == 1 => {
                println!(
                    "t={:>6.0}s  commit v{version}: switch at iteration {switch_iteration}",
                    at.as_secs_f64()
                );
                shown = 2;
            }
            AuditEvent::RelocationStarted {
                at, op, from, to, ..
            } if shown == 2 => {
                println!("t={:>6.0}s  {op} departs {from} for {to}", at.as_secs_f64())
            }
            AuditEvent::RelocationFinished { at, op, host } if shown == 2 => {
                println!("t={:>6.0}s  {op} resumes at {host}", at.as_secs_f64());
                shown = 3; // stop after the first relocation completes
            }
            _ => {}
        }
        if shown == 3 {
            break;
        }
    }
}
