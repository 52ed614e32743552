//! Allocation gate for the simulated loops: once warm, a run allocates
//! (almost) nothing per event, however long it runs.
//!
//! Every simulated run is deterministic, so what it *counts* is a
//! noise-free cost where host time is not. A counting global allocator
//! tallies allocations and requested bytes while each loop runs at one
//! length and at four times that length; the difference, divided by the
//! difference in kernel events, is what one more event costs the heap.
//! Warm-up (record tables, the kernel's chunk pool, selector state)
//! cancels out of that difference; run-length state does not.
//!
//! The allocator's counters are process-wide, and libtest runs tests on
//! threads, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use c3::engine::Strategy;
use c3::scenarios::{ScenarioParams, ScenarioRegistry, CRASH_FLUX, MEGA_FLEET};
use c3::sim::{SimConfig, Simulation};
use c3::telemetry::Recorder;

/// The system allocator, counting every allocation and the bytes each one
/// asks for. `realloc` and `alloc_zeroed` keep their default bodies, which
/// go through `alloc`, so a regrown buffer counts as one allocation of its
/// new size.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: both calls are forwarded unchanged to `System`; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations, bytes and kernel events of one run.
#[derive(Clone, Copy, Debug)]
struct Cost {
    allocs: u64,
    bytes: u64,
    events: u64,
}

/// Run `run` (which returns its kernel event count) under the counters.
fn cost(run: impl FnOnce() -> u64) -> Cost {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let events = run();
    Cost {
        allocs: ALLOCS.load(Relaxed) - allocs,
        bytes: BYTES.load(Relaxed) - bytes,
        events,
    }
}

/// Run one loop at `ops` and at `4 × ops`; assert what each extra event
/// costs: at most `0.001` allocations and under `max_bytes` bytes.
fn check_marginal(name: &str, ops: u64, max_bytes: f64, run: impl Fn(u64) -> u64) {
    let short = cost(|| run(ops));
    let long = cost(|| run(4 * ops));
    let events = long.events.saturating_sub(short.events).max(1) as f64;
    let allocs = long.allocs.saturating_sub(short.allocs) as f64 / events;
    let bytes = long.bytes.saturating_sub(short.bytes) as f64 / events;
    eprintln!("{name}: {short:?} → {long:?}: {allocs:.6} allocations, {bytes:.3} B per event");
    assert!(
        allocs <= 0.001,
        "{name}: {allocs:.6} allocations per extra event ({short:?} → {long:?})"
    );
    assert!(
        bytes < max_bytes,
        "{name}: {bytes:.3} bytes per extra event, bound {max_bytes} ({short:?} → {long:?})"
    );
}

// Byte bounds: the debug build's measurement plus 25% (release counts a
// little less). Before the kernel's wheel drew from a chunk pool, each
// cascading coarse bucket freed its storage and regrew it by doubling:
// 18.5 B and 0.0006 allocations per extra event on the mega-fleet cell,
// 15.5 B and 0.006 allocations on the crash-flux cell.
#[test]
fn simulated_loops_allocate_nothing_per_event_once_warm() {
    // Measured 0.172 B per event (200k → 800k requests).
    check_marginal("§6 simulator", 200_000, 0.22, |requests| {
        let cfg = SimConfig {
            total_requests: requests,
            ..SimConfig::default()
        };
        let result = Simulation::new(cfg).run();
        assert_eq!(result.completed, requests);
        result.events_processed
    });
    let registry = ScenarioRegistry::with_defaults();
    // Measured 0.996 B per event (100k → 400k ops; 120k clients). Of
    // that, 0.75 B is one block: the request-record table (`fleet.rs`'s
    // `SlotTable<Request>`, 56 B a record) doubling from 8 192 to 16 384
    // slots. It is in-flight state, not result data: the table already
    // recycles every vacated slot, but this cell's queues build over the
    // run, so its in-flight high-water mark follows the run's length
    // (5 429 records at 100k ops, 15 102 at 400k, 25 743 at 800k).
    check_marginal("mega-fleet", 100_000, 1.25, |ops| {
        let params = ScenarioParams::sized(Strategy::c3(), 1, ops);
        let report = registry.run(MEGA_FLEET, &params).expect("stock scenario");
        report.events_processed
    });
    // Measured 0.143 B per event (50k → 200k ops, flight recorder on).
    check_marginal("recorded crash-flux", 50_000, 0.18, |ops| {
        let params = ScenarioParams::sized(Strategy::c3(), 1, ops);
        let (report, _recorder) = registry
            .run_recorded(CRASH_FLUX, &params, Recorder::with_default_capacity())
            .expect("stock scenario");
        report.events_processed
    });
}
