//! End-to-end check of the allocation-counting harness against the
//! engine's run arena: a run on a warm [`RunScratch`] must allocate
//! strictly less than a cold run of the same world — and produce the same
//! digest.
//!
//! This is the only test in the binary: the counting allocator is
//! process-global, so a second concurrent test would perturb the counts.

use wadc_bench::alloc::{AllocScope, CountingAlloc};
use wadc_core::engine::{Algorithm, RunScratch};
use wadc_core::experiment::Experiment;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_arena_run_allocates_strictly_less_than_cold() {
    // Warm up: fills the arena and the experiment's shared workload
    // cache, exactly as a study's later runs would find them.
    let warm_exp = Experiment::quick(4, 7);
    let mut scratch = RunScratch::new();
    let _ = warm_exp.run_scratch(Algorithm::OneShot, &mut scratch);

    let cold_exp = Experiment::quick(4, 7);
    let scope = AllocScope::begin();
    let cold = cold_exp.run(Algorithm::OneShot);
    let cold_stats = scope.finish();

    let scope = AllocScope::begin();
    let warm = warm_exp.run_scratch(Algorithm::OneShot, &mut scratch);
    let warm_stats = scope.finish();

    assert_eq!(
        warm.digest(),
        cold.digest(),
        "arena reuse must not change results"
    );
    assert!(
        cold_stats.allocs > 0,
        "the counting allocator should be installed"
    );
    assert!(
        warm_stats.allocs < cold_stats.allocs,
        "warm run should allocate less than cold: warm {} vs cold {}",
        warm_stats.allocs,
        cold_stats.allocs
    );
}
