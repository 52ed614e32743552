//! The SLO-seeking rate controller: find the maximum sustainable offered
//! rate under a latency SLO by deterministic bisection.
//!
//! The paper's throughput-at-SLO frames ("C3 sustains a higher rate before
//! the p99 crosses the limit") need a closed loop the open-loop sweeps
//! cannot provide: a controller that *varies the offered rate* and watches
//! the SLO metric. [`SloSearch`] is that controller, kept deliberately
//! backend-agnostic — it drives any measurement function
//! `rate → metric value`, which in practice is a scenario-registry run at
//! `ScenarioParams::offered_rate` (sim or live; both implement the same
//! `Scenario` plumbing).
//!
//! Determinism: the search walks an **integer grid** of
//! [`RateWindow::steps`] + 1 rates. Probing grid indices instead of raw
//! floats keeps the probe sequence — and therefore every simulated run —
//! a pure function of `(window, slo, measure)`, so an entire
//! [`SloSweep`] is bit-identical for any worker-thread count (cells fan
//! out over [`fan_out`], each cell's bisection runs sequentially inside
//! its job). The bracketing invariant also yields the accuracy contract
//! the property tests pin: on a monotone scenario the reported maximum is
//! within **one grid step** of the true threshold.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use c3_metrics::SloPredicate;

use crate::runner::fan_out;

/// The inclusive rate bracket a search explores, discretized to
/// `steps + 1` grid points (`rate(k) = lo + (hi - lo) · k / steps`).
///
/// The grid spacing `(hi - lo) / steps` is the search resolution: the
/// reported maximum sustainable rate is exact to one step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateWindow {
    /// Lowest offered rate probed (requests/second).
    pub lo: f64,
    /// Highest offered rate probed (requests/second).
    pub hi: f64,
    /// Number of grid intervals between `lo` and `hi`.
    pub steps: u32,
}

impl RateWindow {
    /// A window over `[lo, hi]` with the given number of grid intervals.
    ///
    /// # Panics
    ///
    /// Panics when the bracket is empty, non-finite or has no steps.
    pub fn new(lo: f64, hi: f64, steps: u32) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo > 0.0 && hi > lo,
            "need a positive, non-empty rate bracket (got [{lo}, {hi}])"
        );
        assert!(steps >= 1, "need at least one grid step");
        Self { lo, hi, steps }
    }

    /// The offered rate at grid index `k` (`0 ..= steps`).
    pub fn rate(&self, k: u32) -> f64 {
        debug_assert!(k <= self.steps);
        self.lo + (self.hi - self.lo) * f64::from(k) / f64::from(self.steps)
    }

    /// The grid spacing — the resolution of the reported maximum.
    pub fn resolution(&self) -> f64 {
        (self.hi - self.lo) / f64::from(self.steps)
    }
}

/// One measured point of a search: the probed rate, the SLO metric's value
/// there, and whether the SLO passed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateProbe {
    /// Offered rate of this probe (requests/second).
    pub rate: f64,
    /// The SLO metric's measured value in milliseconds.
    pub value_ms: f64,
    /// Whether the SLO predicate passed at this rate.
    pub pass: bool,
    /// Whether the measurement shed operations to the request lifecycle
    /// (timed-out/parked past the backend's tolerance) — a shed probe
    /// fails regardless of `value_ms`. Carried per probe so a floor
    /// failure can name its cause — see [`SloOutcome::floor_reason`].
    pub timed_out: bool,
}

/// What a `measure` callback hands back to the search: the SLO metric's
/// value plus whether the run behind it shed operations to timeouts.
///
/// A shed run **cannot pass** the SLO regardless of its metric value: a
/// hardened lifecycle parks what it cannot complete, so the p99 *of the
/// completions* stays flat right through overload — judging the metric
/// alone would call a collapsing rate "sustained". Setting `timed_out`
/// makes the probe fail and records why in the trace.
///
/// `From<f64>` keeps plain-metric callbacks working unchanged (they report
/// `timed_out: false`), so only backends that track request lifecycles —
/// the fault-injection scenarios — need to construct this explicitly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeMeasurement {
    /// The SLO metric's measured value in milliseconds.
    pub value_ms: f64,
    /// Whether the run shed operations to the hardened lifecycle (parked
    /// more than the caller's tolerance). Forces the probe to fail.
    pub timed_out: bool,
}

impl From<f64> for ProbeMeasurement {
    fn from(value_ms: f64) -> Self {
        Self {
            value_ms,
            timed_out: false,
        }
    }
}

/// The result of one rate search.
#[derive(Clone, Debug, PartialEq)]
pub struct SloOutcome {
    /// Highest grid rate that satisfied the SLO, or `None` when the SLO
    /// failed even at the window's low end (the scenario is unsustainable
    /// anywhere in the bracket).
    pub max_rate: Option<f64>,
    /// True when the SLO still passed at the window's high end: the
    /// reported maximum is range-limited, not a measured breaking point.
    pub saturated: bool,
    /// Every probe, in probe order (window ends first, then bisection
    /// midpoints).
    pub trace: Vec<RateProbe>,
    /// Whether the measured metric was non-decreasing in rate across the
    /// trace — the monotone-in-rate assumption bisection rests on. A
    /// violation does not invalidate the bracket (probe outcomes stay
    /// consistent by construction) but flags a noisy or non-monotone
    /// scenario whose reported maximum deserves suspicion.
    pub monotone: bool,
}

impl SloOutcome {
    /// Probes spent on this search.
    pub fn probes(&self) -> u32 {
        self.trace.len() as u32
    }

    /// True when the SLO failed at the bracket's floor itself: no rate in
    /// the window sustains it. The explicit reason behind a reported 0 —
    /// distinguishing "probed and collapsed immediately" from a cell that
    /// was never probed at all (a skip, which has no outcome).
    pub fn fails_at_bracket_floor(&self) -> bool {
        self.max_rate.is_none()
    }

    /// Why the search collapsed at the floor, when it did:
    /// `Some("timeout")` when the failing floor probe shed operations to
    /// timeouts (the tail is parked/reaped requests, not queueing),
    /// `Some("slo-miss")` when the metric crossed the limit with every
    /// operation completing, `None` when the cell did not fail at the
    /// floor at all. Under fault injection the distinction matters: a
    /// crash-flux cell that times out at every rate is broken in a
    /// different way than one that merely queues past the SLO.
    pub fn floor_reason(&self) -> Option<&'static str> {
        if !self.fails_at_bracket_floor() {
            return None;
        }
        // A floor failure is decided by the lo probe alone, but stay
        // robust to richer traces: "timeout" when every failing probe was
        // timeout-afflicted.
        let failing = self.trace.iter().filter(|p| !p.pass);
        let mut any = false;
        let mut all_timed_out = true;
        for p in failing {
            any = true;
            all_timed_out &= p.timed_out;
        }
        Some(if any && all_timed_out {
            "timeout"
        } else {
            "slo-miss"
        })
    }
}

/// A deterministic bisection search for the maximum sustainable rate
/// under an SLO.
#[derive(Clone, Copy, Debug)]
pub struct SloSearch {
    /// The rate bracket and grid.
    pub window: RateWindow,
    /// The SLO to hold.
    pub slo: SloPredicate,
}

impl SloSearch {
    /// Run the search. `measure(rate)` produces the SLO metric's value at
    /// that offered rate (one warm-started scenario run) — either a bare
    /// milliseconds value or a [`ProbeMeasurement`] carrying the run's
    /// timeout flag; an `Err` aborts the search and is handed back to the
    /// caller — the cell-skip path for strategies a backend cannot drive.
    ///
    /// Probe order: `lo` first (unsustainable early-out), then `hi`
    /// (saturation early-out), then bisection midpoints maintaining
    /// pass-at-`lo_k` / fail-at-`hi_k` until the bracket is one step wide.
    pub fn seek<T, E>(&self, mut measure: impl FnMut(f64) -> Result<T, E>) -> Result<SloOutcome, E>
    where
        T: Into<ProbeMeasurement>,
    {
        let w = self.window;
        let mut trace: Vec<RateProbe> = Vec::new();
        let mut probe = |k: u32, trace: &mut Vec<RateProbe>| -> Result<bool, E> {
            let rate = w.rate(k);
            let m: ProbeMeasurement = measure(rate)?.into();
            let pass = self.slo.passes_ms(m.value_ms) && !m.timed_out;
            trace.push(RateProbe {
                rate,
                value_ms: m.value_ms,
                pass,
                timed_out: m.timed_out,
            });
            Ok(pass)
        };

        let outcome = |max_rate: Option<f64>, saturated: bool, trace: Vec<RateProbe>| {
            let monotone = trace_is_monotone(&trace);
            SloOutcome {
                max_rate,
                saturated,
                trace,
                monotone,
            }
        };

        if !probe(0, &mut trace)? {
            return Ok(outcome(None, false, trace));
        }
        if probe(w.steps, &mut trace)? {
            return Ok(outcome(Some(w.rate(w.steps)), true, trace));
        }
        let (mut lo_k, mut hi_k) = (0u32, w.steps);
        while hi_k - lo_k > 1 {
            let mid = lo_k + (hi_k - lo_k) / 2;
            if probe(mid, &mut trace)? {
                lo_k = mid;
            } else {
                hi_k = mid;
            }
        }
        Ok(outcome(Some(w.rate(lo_k)), false, trace))
    }
}

/// Whether the metric values are non-decreasing when the probes are
/// ordered by rate.
fn trace_is_monotone(trace: &[RateProbe]) -> bool {
    let mut by_rate: Vec<&RateProbe> = trace.iter().collect();
    by_rate.sort_by(|a, b| a.rate.partial_cmp(&b.rate).expect("finite rates"));
    by_rate.windows(2).all(|w| w[0].value_ms <= w[1].value_ms)
}

/// One `(scenario, strategy, seed)` coordinate of an SLO sweep.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SloCell {
    /// Scenario registry name.
    pub scenario: String,
    /// Strategy registry name (label form, as reports print it).
    pub strategy: String,
    /// The run seed; every probe of this cell derives its streams from it.
    pub seed: u64,
}

impl SloCell {
    /// A cell coordinate.
    pub fn new(scenario: impl Into<String>, strategy: impl Into<String>, seed: u64) -> Self {
        Self {
            scenario: scenario.into(),
            strategy: strategy.into(),
            seed,
        }
    }
}

/// A finished cell: its coordinate, the window searched, and the outcome.
#[derive(Clone, Debug)]
pub struct SloCellReport {
    /// The cell coordinate.
    pub cell: SloCell,
    /// The rate bracket searched (calibrated per cell by the caller).
    pub window: RateWindow,
    /// The search result.
    pub outcome: SloOutcome,
}

/// A cell the sweep could not run (unsupported strategy on the backend,
/// failed calibration).
#[derive(Clone, Debug)]
pub struct SkippedCell {
    /// The cell coordinate.
    pub cell: SloCell,
    /// Why it was skipped, verbatim from the backend.
    pub reason: String,
}

/// The result of a full sweep: one entry per cell, in cell order.
#[derive(Clone, Debug)]
pub struct SloReport {
    /// The SLO every cell was held to.
    pub slo: SloPredicate,
    /// Per-cell results; `Err` is the skip path.
    pub cells: Vec<Result<SloCellReport, SkippedCell>>,
}

impl SloReport {
    /// The ran cells, in order.
    pub fn ran(&self) -> impl Iterator<Item = &SloCellReport> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }

    /// The skipped cells, in order.
    pub fn skipped(&self) -> impl Iterator<Item = &SkippedCell> {
        self.cells.iter().filter_map(|c| c.as_ref().err())
    }

    /// The report of one cell, if it ran.
    pub fn cell(&self, scenario: &str, strategy: &str, seed: u64) -> Option<&SloCellReport> {
        self.ran().find(|r| {
            r.cell.scenario == scenario && r.cell.strategy == strategy && r.cell.seed == seed
        })
    }

    /// A deterministic digest of everything in the report: cell
    /// coordinates, windows, every probe (rate/value bits, outcome), the
    /// reported maxima and flags, and skip reasons. Bit-identical runs —
    /// which the sweep guarantees for any thread count — hash identically.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.slo.metric.label().hash(&mut h);
        self.slo.max_ms.to_bits().hash(&mut h);
        for cell in &self.cells {
            match cell {
                Ok(r) => {
                    r.cell.scenario.hash(&mut h);
                    r.cell.strategy.hash(&mut h);
                    r.cell.seed.hash(&mut h);
                    r.window.lo.to_bits().hash(&mut h);
                    r.window.hi.to_bits().hash(&mut h);
                    r.window.steps.hash(&mut h);
                    r.outcome.max_rate.map(f64::to_bits).hash(&mut h);
                    r.outcome.saturated.hash(&mut h);
                    r.outcome.monotone.hash(&mut h);
                    for p in &r.outcome.trace {
                        p.rate.to_bits().hash(&mut h);
                        p.value_ms.to_bits().hash(&mut h);
                        p.pass.hash(&mut h);
                        // Hashed only when set, so reports predating the
                        // timeout flag (and all non-fault sweeps) keep
                        // their committed fingerprints bit-identical.
                        if p.timed_out {
                            p.timed_out.hash(&mut h);
                        }
                    }
                }
                Err(s) => {
                    s.cell.scenario.hash(&mut h);
                    s.cell.strategy.hash(&mut h);
                    s.cell.seed.hash(&mut h);
                    s.reason.hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

/// Fans independent cell searches out over worker threads.
#[derive(Clone, Copy, Debug)]
pub struct SloSweep {
    /// The SLO every cell is held to.
    pub slo: SloPredicate,
}

impl SloSweep {
    /// A sweep under one SLO.
    pub fn new(slo: SloPredicate) -> Self {
        Self { slo }
    }

    /// Search every cell, fanning the independent searches out over up to
    /// `threads` workers via [`fan_out`] — results come back in cell
    /// order and are bit-identical for any thread count, because each
    /// cell's search is a pure sequential function of its inputs.
    ///
    /// `window(cell)` calibrates the cell's rate bracket (e.g. from a
    /// closed-loop run at the cell's seed); `measure(cell, rate)` runs the
    /// scenario at an offered rate and returns the SLO metric's value —
    /// bare milliseconds or a [`ProbeMeasurement`] with the run's timeout
    /// flag. Either returning `Err` skips the cell with that reason — the
    /// same skip path for every backend.
    pub fn run<W, M, T>(
        &self,
        cells: &[SloCell],
        threads: usize,
        window: W,
        measure: M,
    ) -> SloReport
    where
        W: Fn(&SloCell) -> Result<RateWindow, String> + Sync,
        M: Fn(&SloCell, f64) -> Result<T, String> + Sync,
        T: Into<ProbeMeasurement>,
    {
        let slo = self.slo;
        let results = fan_out(cells.len(), threads, |i| {
            let cell = &cells[i];
            let w = match window(cell) {
                Ok(w) => w,
                Err(reason) => {
                    return Err(SkippedCell {
                        cell: cell.clone(),
                        reason,
                    })
                }
            };
            let search = SloSearch { window: w, slo };
            match search.seek(|rate| measure(cell, rate)) {
                Ok(outcome) => Ok(SloCellReport {
                    cell: cell.clone(),
                    window: w,
                    outcome,
                }),
                Err(reason) => Err(SkippedCell {
                    cell: cell.clone(),
                    reason,
                }),
            }
        });
        SloReport {
            slo: self.slo,
            cells: results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(lo: f64, hi: f64, steps: u32, max_ms: f64) -> SloSearch {
        SloSearch {
            window: RateWindow::new(lo, hi, steps),
            slo: SloPredicate::p99_under_ms(max_ms),
        }
    }

    /// A latency curve that crosses 20 ms exactly at rate 1000.
    fn linear(rate: f64) -> Result<f64, String> {
        Ok(rate / 50.0)
    }

    #[test]
    fn bisection_lands_within_one_step_of_the_threshold() {
        // True threshold: p99(r) = r/50 <= 20  ⇔  r <= 1000.
        let s = search(100.0, 2000.0, 100, 20.0); // resolution 19/step
        let out = s.seek(linear).unwrap();
        let max = out.max_rate.unwrap();
        assert!(!out.saturated);
        assert!(out.monotone);
        assert!(
            max <= 1000.0 && 1000.0 - max <= s.window.resolution(),
            "max {max} must sit within one step below 1000"
        );
    }

    #[test]
    fn unsustainable_window_reports_none() {
        let s = search(2000.0, 4000.0, 8, 20.0); // even lo breaks the SLO
        let out = s.seek(linear).unwrap();
        assert_eq!(out.max_rate, None);
        assert!(out.fails_at_bracket_floor(), "None IS the floor failure");
        assert!(!out.saturated);
        assert_eq!(out.probes(), 1, "lo probe alone settles it");
    }

    #[test]
    fn saturated_window_reports_the_ceiling() {
        let s = search(100.0, 900.0, 8, 20.0); // even hi passes
        let out = s.seek(linear).unwrap();
        assert_eq!(out.max_rate, Some(900.0));
        assert!(!out.fails_at_bracket_floor());
        assert!(out.saturated);
        assert_eq!(out.probes(), 2, "lo + hi probes settle it");
    }

    #[test]
    fn floor_reason_distinguishes_timeout_from_slo_miss() {
        let s = search(2000.0, 4000.0, 8, 20.0); // even lo breaks the SLO
        let miss = s.seek(linear).unwrap();
        assert!(miss.fails_at_bracket_floor());
        assert_eq!(miss.floor_reason(), Some("slo-miss"));
        let timed = s
            .seek(|rate| {
                Ok::<_, String>(ProbeMeasurement {
                    value_ms: rate / 50.0,
                    timed_out: true,
                })
            })
            .unwrap();
        assert!(timed.fails_at_bracket_floor());
        assert_eq!(timed.floor_reason(), Some("timeout"));
        // Cells that sustain some rate have no floor reason at all.
        let ok = search(100.0, 2000.0, 8, 20.0).seek(linear).unwrap();
        assert_eq!(ok.floor_reason(), None);
        // A shed probe fails even when its metric value passes: the p99
        // of the completions is meaningless once ops are being parked.
        let shed = search(100.0, 2000.0, 8, 20.0)
            .seek(|_| {
                Ok::<_, String>(ProbeMeasurement {
                    value_ms: 1.0, // comfortably under the SLO
                    timed_out: true,
                })
            })
            .unwrap();
        assert!(shed.fails_at_bracket_floor());
        assert_eq!(shed.floor_reason(), Some("timeout"));
    }

    #[test]
    fn timeout_flag_changes_the_fingerprint_only_when_set() {
        let sweep = SloSweep::new(SloPredicate::p99_under_ms(20.0));
        let cells = [SloCell::new("toy", "C3", 1)];
        let window = |_: &SloCell| Ok(RateWindow::new(100.0, 2000.0, 16));
        let plain = sweep.run(&cells, 1, window, |_, rate| Ok(rate / 50.0));
        let flagged_false = sweep.run(&cells, 1, window, |_, rate| {
            Ok(ProbeMeasurement {
                value_ms: rate / 50.0,
                timed_out: false,
            })
        });
        let flagged_true = sweep.run(&cells, 1, window, |_, rate| {
            Ok(ProbeMeasurement {
                value_ms: rate / 50.0,
                timed_out: true,
            })
        });
        // An unset flag is invisible — committed pre-flag fingerprints
        // stay valid. A set flag is a different measurement.
        assert_eq!(plain.fingerprint(), flagged_false.fingerprint());
        assert_ne!(plain.fingerprint(), flagged_true.fingerprint());
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let s = search(100.0, 2000.0, 128, 20.0);
        let out = s.seek(linear).unwrap();
        // lo + hi + ceil(log2(128)) midpoints.
        assert!(
            out.probes() <= 2 + 7,
            "bisection must stay logarithmic, spent {}",
            out.probes()
        );
    }

    #[test]
    fn non_monotone_measurements_are_flagged() {
        // A dip: latency falls back under the limit above the first
        // crossing. Bisection still brackets deterministically, but the
        // monotone flag must report the violation.
        let dip = |rate: f64| -> Result<f64, String> {
            Ok(if (1200.0..1400.0).contains(&rate) {
                5.0
            } else {
                rate / 50.0
            })
        };
        let s = search(100.0, 2000.0, 100, 20.0);
        let out = s.seek(dip).unwrap();
        if out.trace.iter().any(|p| (1200.0..1400.0).contains(&p.rate)) {
            assert!(!out.monotone, "the dip must be flagged when probed");
        }
    }

    #[test]
    fn errors_abort_and_propagate() {
        let s = search(100.0, 2000.0, 10, 20.0);
        let err = s
            .seek(|_| Err::<f64, _>("unsupported".to_string()))
            .unwrap_err();
        assert_eq!(err, "unsupported");
    }

    #[test]
    fn sweep_is_cell_ordered_thread_invariant_and_skips_cleanly() {
        let cells: Vec<SloCell> = (1..=6)
            .flat_map(|seed| {
                [
                    SloCell::new("toy", "C3", seed),
                    SloCell::new("toy", "ORA", seed),
                ]
            })
            .collect();
        let sweep = SloSweep::new(SloPredicate::p99_under_ms(20.0));
        let run = |threads: usize| {
            sweep.run(
                &cells,
                threads,
                |_| Ok(RateWindow::new(100.0, 2000.0, 64)),
                |cell, rate| {
                    if cell.strategy == "ORA" {
                        return Err("toy cannot drive ORA".to_string());
                    }
                    // Seed shifts the threshold so cells differ.
                    Ok(rate / (50.0 + cell.seed as f64))
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        assert_eq!(serial.cells.len(), 12);
        assert_eq!(serial.skipped().count(), 6);
        assert_eq!(serial.ran().count(), 6);
        for s in serial.skipped() {
            assert_eq!(s.cell.strategy, "ORA");
            assert_eq!(s.reason, "toy cannot drive ORA");
        }
        // Larger seeds tolerate more rate: maxima must be non-decreasing.
        let rates: Vec<f64> = serial.ran().map(|r| r.outcome.max_rate.unwrap()).collect();
        assert!(rates.windows(2).all(|w| w[0] <= w[1]), "{rates:?}");
        // Lookup helpers.
        assert!(serial.cell("toy", "C3", 3).is_some());
        assert!(serial.cell("toy", "ORA", 3).is_none());
    }

    #[test]
    fn fingerprint_sees_probe_values() {
        let sweep = SloSweep::new(SloPredicate::p99_under_ms(20.0));
        let cells = [SloCell::new("toy", "C3", 1)];
        let a = sweep.run(
            &cells,
            1,
            |_| Ok(RateWindow::new(100.0, 2000.0, 16)),
            |_, rate| Ok(rate / 50.0),
        );
        let b = sweep.run(
            &cells,
            1,
            |_| Ok(RateWindow::new(100.0, 2000.0, 16)),
            |_, rate| Ok(rate / 49.0),
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    #[should_panic(expected = "non-empty rate bracket")]
    fn window_rejects_inverted_brackets() {
        let _ = RateWindow::new(2000.0, 100.0, 8);
    }
}
