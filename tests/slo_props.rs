//! Property and determinism tests for the SLO-seeking rate controller.
//!
//! The controller's two contracts, pinned the same way the cross_crate
//! goldens pin the runner's:
//!
//! 1. **Accuracy** (property-tested): on a monotone latency-vs-rate curve
//!    the reported maximum sustainable rate is within one bisection grid
//!    step of the true threshold — below it, and by less than one
//!    resolution.
//! 2. **Determinism**: a full `SloSweep` over real scenario-registry
//!    cells produces bit-identical `SloReport` fingerprints whether the
//!    cells fan out over 1 or 4 worker threads.

use c3::engine::{RateWindow, SloCell, SloSearch, SloSweep, Strategy};
use c3::metrics::SloPredicate;
use c3::scenarios::{RunTuning, ScenarioParams, ScenarioRegistry, MULTI_TENANT};
use proptest::prelude::*;

/// The largest grid rate whose (strictly increasing) latency stays under
/// the limit — the value bisection must find.
fn true_grid_max(window: &RateWindow, limit: f64, latency: impl Fn(f64) -> f64) -> Option<f64> {
    let mut best = None;
    for k in 0..=window.steps {
        let rate = window.rate(k);
        if latency(rate) <= limit {
            best = Some(rate);
        }
    }
    best
}

proptest! {
    /// On a synthetic monotone scenario (latency = base + slope · rate),
    /// the reported maximum matches the best grid point exactly, and so
    /// sits within one bisection step of the true analytic threshold.
    #[test]
    fn reported_max_is_within_one_step_of_the_true_threshold(
        base in 1.0f64..10.0,
        slope in 0.001f64..0.1,
        limit in 5.0f64..40.0,
        steps in 4u32..128,
    ) {
        let window = RateWindow::new(50.0, 5_000.0, steps);
        let latency = |rate: f64| base + slope * rate;
        let search = SloSearch {
            window,
            slo: SloPredicate::p99_under_ms(limit),
        };
        let out = search.seek(|rate| Ok::<f64, String>(latency(rate))).unwrap();
        prop_assert!(out.monotone, "a linear curve must pass the monotone check");

        match true_grid_max(&window, limit, latency) {
            None => {
                prop_assert!(out.max_rate.is_none(), "SLO fails on the whole grid");
            }
            Some(best) => {
                let max = out.max_rate.expect("a passing grid point exists");
                prop_assert!(
                    max == best,
                    "bisection must find the best grid point: {} vs {}",
                    max, best
                );
                // Against the analytic threshold: within one grid step.
                let true_threshold = ((limit - base) / slope).min(window.hi);
                prop_assert!(max <= true_threshold + 1e-9);
                prop_assert!(
                    true_threshold - max < window.resolution() + 1e-9,
                    "max {} vs threshold {} exceeds resolution {}",
                    max, true_threshold, window.resolution()
                );
            }
        }
    }

    /// Probe spend stays logarithmic in the grid size.
    #[test]
    fn probe_count_is_logarithmic(steps in 2u32..512) {
        let window = RateWindow::new(100.0, 1_000.0, steps);
        let search = SloSearch {
            window,
            slo: SloPredicate::p99_under_ms(20.0),
        };
        let out = search.seek(|rate| Ok::<f64, String>(rate / 40.0)).unwrap();
        let budget = 2 + 32 - u32::leading_zeros(steps.max(1));
        prop_assert!(
            out.probes() <= budget,
            "{} probes for {} steps (budget {})",
            out.probes(), steps, budget
        );
    }
}

/// A real sweep over registry cells is bit-identical for any worker
/// thread count — the same guarantee (and test shape) the cross_crate
/// goldens pin for `ScenarioRunner::run_all`.
#[test]
fn slo_sweep_fingerprints_are_thread_invariant() {
    let registry = ScenarioRegistry::with_defaults();
    let slo = SloPredicate::p99_under_ms(20.0);
    let cells: Vec<SloCell> = [Strategy::c3(), Strategy::lor()]
        .iter()
        .flat_map(|s| (1..=2).map(|seed| SloCell::new(MULTI_TENANT, s.name(), seed)))
        .collect();
    let sweep = SloSweep::new(slo);
    let run = |threads: usize| {
        sweep.run(
            &cells,
            threads,
            |_| Ok(RateWindow::new(1_000.0, 6_000.0, 8)),
            |cell, rate| {
                let params = ScenarioParams::tuned(
                    Strategy::named(&cell.strategy),
                    cell.seed,
                    2_000,
                    RunTuning {
                        offered_rate: Some(rate),
                        exact_latency: true,
                    },
                );
                let report = registry
                    .run(&cell.scenario, &params)
                    .map_err(|e| e.to_string())?;
                Ok(slo.metric.value_ms(&report.headline().summary))
            },
        )
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "SloReport must be bit-identical across thread counts"
    );
    assert_eq!(serial.ran().count(), 4, "every cell runs");
    // And the sweep is reproducible outright.
    assert_eq!(serial.fingerprint(), run(1).fingerprint());
}

/// The controller's skip path mirrors the registry's unsupported-cell
/// errors instead of aborting the sweep.
#[test]
fn unsupported_cells_skip_with_the_registry_reason() {
    let registry = ScenarioRegistry::with_defaults();
    let slo = SloPredicate::p99_under_ms(50.0);
    let cells = [SloCell::new("hetero-fleet", "ORA", 1)];
    let report = SloSweep::new(slo).run(
        &cells,
        1,
        |_| Ok(RateWindow::new(500.0, 4_000.0, 4)),
        |cell, rate| {
            let params = ScenarioParams::tuned(
                Strategy::named(&cell.strategy),
                cell.seed,
                2_000,
                RunTuning {
                    offered_rate: Some(rate),
                    ..RunTuning::default()
                },
            );
            let r = registry
                .run(&cell.scenario, &params)
                .map_err(|e| e.to_string())?;
            Ok(slo.metric.value_ms(&r.headline().summary))
        },
    );
    assert_eq!(report.ran().count(), 0);
    let skipped: Vec<_> = report.skipped().collect();
    assert_eq!(skipped.len(), 1);
    assert!(
        skipped[0].reason.contains("cannot drive"),
        "skip reason must carry the registry error, got {:?}",
        skipped[0].reason
    );
}
