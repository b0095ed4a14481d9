//! A counting global allocator for the allocation gate and the benchmark.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and keeps process-wide
//! tallies of allocation traffic: calls to `alloc`, and the live bytes
//! with their high-water mark. Binaries that want the counts install it
//! with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: wadc_bench::alloc::CountingAlloc = wadc_bench::alloc::CountingAlloc;
//! ```
//!
//! and bracket the region of interest with an [`AllocScope`]; the
//! scope's [`finish`](AllocScope::finish) returns the traffic that
//! happened inside it as an [`AllocStats`] delta. When the allocator is
//! not installed the counters simply stay at zero and every scope
//! reports empty stats, so library code can call the API
//! unconditionally.
//!
//! Counting is always on (never toggled) so the live-byte gauge can
//! never underflow; scopes are snapshot deltas, which also makes them
//! cheap. The counters are process-global, so a scope observes *all*
//! threads' traffic: a scope around a threaded study counts its workers'
//! allocations too, and a scope opened while unrelated threads allocate
//! counts theirs. The `perf` gate runs one study at a time for this
//! reason.

// The one unavoidable `unsafe` in the crate: implementing
// `GlobalAlloc` requires it. Everything else stays forbidden via the
// crate-level `deny(unsafe_code)`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = CURRENT.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: u64) {
    CURRENT.fetch_sub(size, Relaxed);
}

/// A [`GlobalAlloc`] that forwards to [`System`] and counts traffic.
///
/// Zero-sized; install with `#[global_allocator]`.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size() as u64);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A successful realloc is one free of the old block plus one
            // allocation of the new one.
            on_free(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Allocation traffic observed inside one [`AllocScope`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`/`alloc_zeroed` (plus the alloc half of reallocs).
    pub allocs: u64,
    /// High-water mark of live bytes during the scope, measured from the
    /// live total at [`AllocScope::begin`].
    pub peak_bytes: u64,
}

/// A snapshot-delta window over the global allocation counters.
pub struct AllocScope {
    allocs: u64,
    base_live: u64,
}

impl AllocScope {
    /// Opens a scope: snapshots the counters and resets the peak gauge
    /// to the current live total so `peak_bytes` is relative to now.
    pub fn begin() -> Self {
        let base_live = CURRENT.load(Relaxed);
        PEAK.store(base_live, Relaxed);
        AllocScope {
            allocs: ALLOCS.load(Relaxed),
            base_live,
        }
    }

    /// Closes the scope and returns the traffic since [`begin`](Self::begin).
    pub fn finish(self) -> AllocStats {
        AllocStats {
            allocs: ALLOCS.load(Relaxed) - self.allocs,
            peak_bytes: PEAK.load(Relaxed).saturating_sub(self.base_live),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install CountingAlloc, so the counters
    // stay at zero; the scope API must still work and report empties.
    #[test]
    fn scope_without_installed_allocator_reports_zero() {
        let scope = AllocScope::begin();
        let _v: Vec<u64> = (0..1000).collect();
        let stats = scope.finish();
        assert_eq!(stats, AllocStats::default());
    }
}
