//! The seven workloads: what each runs, how its size follows from
//! `--seconds`, and how a run's cells or windows fold into the metrics.
//!
//! Sizes, rates and window lengths are constants here — never calibrated
//! at run time, so faster code is not handed more load. `--seconds` only
//! picks how many cells or windows of the constant size are run; the
//! reference host fills roughly that many seconds with them.
//!
//! Every run is a sequence of *units* — simulated cells or live windows —
//! each set up from scratch. Set-up is measured once per unit and reported
//! as a median. Every other host-time metric is read from the run's
//! **least-disturbed** units: interference (a noisy neighbour, a
//! descheduled thread, a host hiccup) only ever takes time away, and on the
//! shared hosts this repo is built on it arrives in bursts of seconds to
//! minutes — a median over a few units then measures the neighbours, not
//! the code (the conclusion `bench_engine` reached before). So throughput
//! is the fastest unit's, live latency the calmest window's, and CPU per
//! operation is pooled over the cheaper half of the units (pooled because
//! one unit's CPU reading is quantised to 10 ms ticks). Simulated
//! latencies are exact for a seed and reported as means over cells.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{self, Latency, LiveShape, LiveWindow, Scenarios, SimCell, SteadySim};
use crate::procfs::{self, CpuMs};
use crate::stats::{self, cell_seed, cheaper_half_pooled, mean, median};
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 7] = [
    "sim-steady",
    "sim-mega-fleet",
    "cluster-faults-recorded",
    "live-open-read",
    "live-open-write",
    "live-closed",
    "node-closed",
];

// ---- simulated workloads: cell sizes and cells per second of budget ----

/// `sim-steady`: requests per cell (≈ 0.8 s of host time on the reference
/// host) and cells per `--seconds`.
const STEADY_REQUESTS: u64 = 2_000_000;
const STEADY_CELLS_PER_S: f64 = 1.0;

/// `sim-mega-fleet`: ops per cell (≈ 1.3 s) and cells per `--seconds`.
const MEGA_OPS: u64 = 1_000_000;
const MEGA_CELLS_PER_S: f64 = 0.6;

/// `cluster-faults-recorded`: ops per cell (≈ 0.35 s; 200k ops keep a cell
/// inside the fault plan's 60 s horizon) and cells per `--seconds`.
const FAULTS_OPS: u64 = 200_000;
const FAULTS_CELLS_PER_S: f64 = 2.4;

/// A simulated cell spends its first twentieth warming up, unmeasured.
/// Set-up is "until the first measured operation", which from outside is
/// the host time of a cell that ends where measurement would begin: the
/// same seed at warm-up size (fleet, selector and key-table construction
/// plus the warm-up's own events).
const WARMUP_DIVISOR: u64 = 20;

// ---- live workloads: fleet shapes, rates and window lengths ----

/// Open-loop rate: ≈ 11% of the default fleet's slot capacity, ≈ 0.25
/// core. Sizing runs put C3's p99 on a cliff at 8000 ops/s (5–10 ms from
/// run to run, against LOR's steady 3.5 ms: a backpressure wait blocks
/// the issuer thread and delays every arrival queued behind it), and at
/// 5000–6000 ops/s one window in twenty collapsed to a p99 above 100 ms.
/// At 4000 ops/s the p99 repeats within a few percent, which a bounded
/// metric needs.
const OPEN_RATE: f64 = 4_000.0;
/// Warm-up of a live window, by issue index: a quarter second of the open
/// loop, a thirtieth of a second of the closed one.
const OPEN_WARMUP_OPS: u64 = 1_000;
const CLOSED_WARMUP_OPS: u64 = 2_000;
/// Target length of one live window; a run holds `seconds / this` of them.
/// An open-loop window must hold enough GETs (or PUTs) past warm-up for its
/// p99. A closed-loop window completes ~60k ops a second, so it can be half
/// as long, and the run then has twice as many windows to find a calm one
/// among: interleaved against 4 × 2.5 s over ten seeds, 8 × 1.25 s took the
/// spread of `live-closed`'s `ops_per_s` from 11% to 5% and of its p99 from
/// 10% to 8%.
const OPEN_WINDOW_S: f64 = 2.5;
const CLOSED_WINDOW_S: f64 = 1.25;
/// Latency limit recorded beside the open-loop p99.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// An open-loop run whose generator issued less than this share of the
/// schedule is invalid: its latencies describe a lighter load. (A Poisson
/// schedule of 40k arrivals is itself within ±1.5% of its mean.)
const MAX_ISSUE_SHORTFALL: f64 = 0.02;

const OPEN_READ: LiveShape = LiveShape {
    executors: 4,
    in_flight: 256,
    read_fraction: 0.9,
    offered_rate: Some(OPEN_RATE),
    warmup_ops: OPEN_WARMUP_OPS,
    strategy: "C3",
};
const OPEN_WRITE: LiveShape = LiveShape {
    read_fraction: 0.1,
    ..OPEN_READ
};
/// 32 executors per replica put slot capacity far above what two cores
/// can push, so throughput is set by CPU per request, not by sleeps.
pub const CLOSED: LiveShape = LiveShape {
    executors: 32,
    in_flight: 512,
    read_fraction: 0.9,
    offered_rate: None,
    warmup_ops: CLOSED_WARMUP_OPS,
    strategy: "C3",
};
const CLOSED_LOR: LiveShape = LiveShape {
    strategy: "LOR",
    ..CLOSED
};

/// The end-to-end metrics of one run, in `BENCHMARK.json` order.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Process start → first measured operation, seconds.
    pub setup_s: f64,
    /// Completed operations per host (wall) second.
    pub ops_per_s: f64,
    /// Headline-operation latency median, ms.
    pub op_p50_ms: f64,
    /// Headline-operation latency p99, ms.
    pub op_p99_ms: f64,
    /// Completed share of the operations attempted past warm-up.
    pub ok_frac: f64,
    /// CPU (user + sys, this process and reaped children) per 1000 ops.
    pub cpu_ms_per_kop: f64,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// `(name, value, unit)` rows in `BENCHMARK.json` order.
    pub fn rows(&self) -> [(&'static str, f64, &'static str); 7] {
        [
            ("setup_s", self.setup_s, "s"),
            ("ops_per_s", self.ops_per_s, "ops/s"),
            ("op_p50_ms", self.op_p50_ms, "ms"),
            ("op_p99_ms", self.op_p99_ms, "ms"),
            ("ok_frac", self.ok_frac, "fraction"),
            ("cpu_ms_per_kop", self.cpu_ms_per_kop, "ms/kop"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// One check: what was checked, whether it held, and the numbers.
///
/// An *output* check asks whether the program answered correctly — every
/// operation accounted for, stored values read back, a recorded run
/// bit-identical to its unrecorded twin — and decides `correct`. A
/// *validity* check (`advisory`) asks whether the host let the run
/// describe the intended load: the open loop kept its schedule, the p99
/// stayed under the latency limit, the closed loop kept its budget busy.
/// A busy neighbour on a shared host can break those while every output
/// is right, so they are printed and filed but leave `correct` alone; the
/// numbers they guard are metrics with bounds of their own.
#[derive(Clone, Debug)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// A validity check: reported, but no part of `correct`.
    pub advisory: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted past warm-up.
    pub attempted: u64,
    /// Operations the *program* failed: unanswered or errored live
    /// requests, or simulated operations the simulator lost track of.
    /// Simulated abandonments (parks) are an outcome the fault workload
    /// measures (`ok_frac`), not a failure of the simulator.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: EndToEnd,
    /// Per-layer metrics this run could derive from its own reports
    /// (the traced run adds the probes).
    pub layer: BTreeMap<&'static str, f64>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Per-unit numbers for the result file.
    pub units: Vec<BTreeMap<&'static str, f64>>,
    /// Workload constants for the result file's provenance.
    pub constants: Vec<(&'static str, String)>,
    /// Wall seconds the measured units took (the traced run's overhead
    /// base).
    pub run_wall_s: f64,
    /// Samples behind `op_p99_ms` per unit, smallest unit.
    pub p99_samples_min: u64,
}

impl Outcome {
    /// Record one output check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check {
            name,
            ok,
            advisory: false,
            detail,
        });
    }

    /// Record one validity check (see [`Check`]).
    pub fn advise(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check {
            name,
            ok,
            advisory: true,
            detail,
        });
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok || c.advisory)
    }
}

fn units_for(seconds: u64, per_second: f64) -> usize {
    ((seconds as f64 * per_second).round() as usize).max(1)
}

/// Run `workload`. `origin` is process start. `twins` also runs the
/// comparison twins (recorder off, LOR) that feed per-layer metrics; only
/// the traced run pays for them.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    twins: bool,
    origin: Instant,
    tracer: &mut Tracer,
) -> Option<Outcome> {
    Some(match workload {
        "sim-steady" => sim_steady(seed, seconds, origin, tracer),
        "sim-mega-fleet" => scenario_cells(
            &ScenarioCells {
                scenario: "mega-fleet",
                ops: MEGA_OPS,
                cells: units_for(seconds, MEGA_CELLS_PER_S),
                recorded: false,
                ns_per_event_metric: "scenarios.mega_fleet_ns_per_event",
            },
            seed,
            twins,
            origin,
            tracer,
        ),
        "cluster-faults-recorded" => scenario_cells(
            &ScenarioCells {
                scenario: "crash-flux",
                ops: FAULTS_OPS,
                cells: units_for(seconds, FAULTS_CELLS_PER_S),
                recorded: true,
                ns_per_event_metric: "cluster.ns_per_event",
            },
            seed,
            twins,
            origin,
            tracer,
        ),
        "live-open-read" => live(&OPEN_READ, false, seed, seconds, twins, origin, tracer),
        "live-open-write" => live(&OPEN_WRITE, false, seed, seconds, twins, origin, tracer),
        "live-closed" => live(&CLOSED, false, seed, seconds, twins, origin, tracer),
        "node-closed" => live(&CLOSED, true, seed, seconds, twins, origin, tracer),
        _ => return None,
    })
}

// ------------------------------------------------------------- simulated

/// Host-side timing of one simulated cell.
struct TimedCell {
    cell: SimCell,
    setup_s: f64,
    host_s: f64,
    /// CPU spent inside the measured run (not its set-up).
    cpu: CpuMs,
}

/// Time `run` and read the CPU it burned.
fn timed<T>(run: impl FnOnce() -> T) -> (T, f64, CpuMs) {
    let cpu0 = procfs::cpu_now();
    let start = Instant::now();
    let out = run();
    (
        out,
        start.elapsed().as_secs_f64(),
        procfs::cpu_now().since(&cpu0),
    )
}

/// Fold simulated cells into an outcome. `total_ops` is a cell's size
/// including warm-up.
fn fold_cells(cells: &[TimedCell], total_ops: u64, preamble_s: f64, out: &mut Outcome) {
    let per_cell = |f: &dyn Fn(&TimedCell) -> f64| cells.iter().map(f).collect::<Vec<f64>>();
    let attempted: u64 = cells.iter().map(|c| c.cell.attempted).sum();
    let completed: u64 = cells.iter().map(|c| c.cell.completed).sum();
    let parked: u64 = cells.iter().map(|c| c.cell.parked).sum();
    let all_ops = total_ops * cells.len() as u64;
    let warmup = all_ops - attempted;
    let timeouts: u64 = cells.iter().map(|c| c.cell.timeouts).sum();
    let events: u64 = cells.iter().map(|c| c.cell.events).sum();
    let cpu_per_op = cheaper_half_pooled(
        &cells
            .iter()
            .map(|c| (c.cpu.total(), total_ops as f64))
            .collect::<Vec<_>>(),
    );

    out.attempted = attempted;
    // Every operation past warm-up must be a measured completion or a
    // simulated park; anything else the simulator lost. The report counts
    // parks over the whole cell, warm-up included, so parks may exceed the
    // measured shortfall by at most the warm-up's size.
    let shortfall = attempted.saturating_sub(completed);
    out.failed = shortfall.saturating_sub(parked) + completed.saturating_sub(attempted);
    let parks_explained = parked <= shortfall + warmup;
    out.e2e = EndToEnd {
        setup_s: preamble_s + median(&per_cell(&|c| c.setup_s)),
        ops_per_s: stats::max(&per_cell(&|c| c.cell.completed as f64 / c.host_s)),
        // Simulated latencies repeat exactly for a seed, so the mean over
        // cells is as steady as any estimator and keeps every cell's say.
        op_p50_ms: mean(&per_cell(&|c| c.cell.p50_ms)),
        op_p99_ms: mean(&per_cell(&|c| c.cell.p99_ms)),
        ok_frac: completed as f64 / attempted as f64,
        cpu_ms_per_kop: cpu_per_op * 1e3,
        peak_rss_mb: procfs::peak_rss_mb(),
    };
    out.run_wall_s = cells.iter().map(|c| c.setup_s + c.host_s).sum();
    out.p99_samples_min = cells.iter().map(|c| c.cell.samples).min().unwrap_or(0);
    out.layer
        .insert("engine.events_per_op", events as f64 / all_ops as f64);
    out.layer.insert(
        "cluster.timeouts_per_kop",
        timeouts as f64 / (all_ops as f64 / 1e3),
    );
    out.layer.insert(
        "cluster.parked_per_kop",
        parked as f64 / (all_ops as f64 / 1e3),
    );
    for (i, c) in cells.iter().enumerate() {
        out.units.push(BTreeMap::from([
            ("unit", i as f64),
            ("setup_s", c.setup_s),
            ("host_s", c.host_s),
            ("completed", c.cell.completed as f64),
            ("parked", c.cell.parked as f64),
            ("events", c.cell.events as f64),
            ("op_p50_ms", c.cell.p50_ms),
            ("op_p99_ms", c.cell.p99_ms),
        ]));
    }
    out.check(
        "ops-accounted",
        out.failed == 0 && parks_explained,
        format!(
            "past warm-up: attempted {attempted}, completed {completed}; parked {parked} over the whole run \
             (warm-up {warmup})"
        ),
    );
    out.check(
        "p99-supported",
        crate::stats::supports(out.p99_samples_min as usize, 0.99),
        format!("smallest cell has {} latency samples", out.p99_samples_min),
    );
}

/// Host ns per kernel event over the cells' run time.
fn ns_per_event(cells: &[TimedCell]) -> f64 {
    let events: u64 = cells.iter().map(|c| c.cell.events).sum();
    cells.iter().map(|c| c.host_s).sum::<f64>() * 1e9 / events as f64
}

fn sim_steady(seed: u64, seconds: u64, origin: Instant, tracer: &mut Tracer) -> Outcome {
    let n = units_for(seconds, STEADY_CELLS_PER_S);
    let mut out = Outcome {
        constants: vec![
            ("cells", n.to_string()),
            ("requests_per_cell", STEADY_REQUESTS.to_string()),
            (
                "shape",
                "20 servers / 40 clients / 40 generators, 100 ms fluctuation, C3".into(),
            ),
        ],
        ..Outcome::default()
    };
    let preamble_s = origin.elapsed().as_secs_f64();
    let cells: Vec<TimedCell> = tracer.scope("run", |tracer| {
        (0..n)
            .map(|i| {
                tracer.scope("cell", |tracer| {
                    let cell_seed = cell_seed(seed, i);
                    let (_, warmup_s, _) = timed(|| {
                        tracer.scope("sim.warmup_sized_cell", |_| {
                            SteadySim::build(cell_seed, STEADY_REQUESTS / WARMUP_DIVISOR).run()
                        })
                    });
                    let (sim, new_s, _) = timed(|| {
                        tracer.scope("sim.new", |_| SteadySim::build(cell_seed, STEADY_REQUESTS))
                    });
                    let (cell, host_s, cpu) = timed(|| tracer.scope("sim.run", |_| sim.run()));
                    TimedCell {
                        cell,
                        setup_s: new_s + warmup_s,
                        host_s,
                        cpu,
                    }
                })
            })
            .collect()
    });
    fold_cells(&cells, STEADY_REQUESTS, preamble_s, &mut out);
    out.layer.insert("sim.ns_per_event", ns_per_event(&cells));
    out
}

struct ScenarioCells {
    scenario: &'static str,
    ops: u64,
    cells: usize,
    recorded: bool,
    ns_per_event_metric: &'static str,
}

fn scenario_cells(
    spec: &ScenarioCells,
    seed: u64,
    twins: bool,
    origin: Instant,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome {
        constants: vec![
            ("scenario", spec.scenario.to_string()),
            ("cells", spec.cells.to_string()),
            ("ops_per_cell", spec.ops.to_string()),
            (
                "recorder",
                if spec.recorded {
                    "default capacity"
                } else {
                    "off"
                }
                .into(),
            ),
        ],
        ..Outcome::default()
    };
    let registry = tracer.scope("setup", |t| {
        t.scope("scenarios.registry", |_| Scenarios::new())
    });
    let preamble_s = origin.elapsed().as_secs_f64();
    let mut flight0 = None;
    let mut recorded_events = 0u64;
    let mut dropped_events = 0u64;
    let cells: Vec<TimedCell> = tracer.scope("run", |tracer| {
        (0..spec.cells)
            .map(|i| {
                let cell_seed = cell_seed(seed, i);
                tracer.scope("cell", |tracer| {
                    let (_, setup_s, _) = timed(|| {
                        tracer.scope("scenarios.warmup_sized_cell", |_| {
                            registry.cell(
                                spec.scenario,
                                cell_seed,
                                spec.ops / WARMUP_DIVISOR,
                                false,
                            )
                        })
                    });
                    let ((cell, flight), host_s, cpu) = timed(|| {
                        tracer.scope("scenarios.run", |_| {
                            registry.cell(spec.scenario, cell_seed, spec.ops, spec.recorded)
                        })
                    });
                    if let Some(flight) = flight {
                        recorded_events += flight.held() + flight.dropped();
                        dropped_events += flight.dropped();
                        flight0.get_or_insert(flight);
                    }
                    TimedCell {
                        cell,
                        setup_s,
                        host_s,
                        cpu,
                    }
                })
            })
            .collect()
    });
    fold_cells(&cells, spec.ops, preamble_s, &mut out);
    out.layer
        .insert(spec.ns_per_event_metric, ns_per_event(&cells));

    if spec.recorded {
        out.layer
            .insert("telemetry.events_recorded", recorded_events as f64);
        out.layer
            .insert("telemetry.events_dropped", dropped_events as f64);
        // Recording is observation only: cell 0 without the recorder must
        // report bit-identically. Outside the measured window.
        let twin = tracer.scope("teardown", |t| {
            t.scope("scenarios.unrecorded_twin", |_| {
                registry
                    .cell(spec.scenario, cell_seed(seed, 0), spec.ops, false)
                    .0
            })
        });
        out.check(
            "recorder-neutral",
            twin.fingerprint == cells[0].cell.fingerprint,
            format!(
                "cell 0 fingerprint recorded {:#x} / unrecorded {:#x}",
                cells[0].cell.fingerprint, twin.fingerprint
            ),
        );
        if let Some(flight) = flight0 {
            let start = Instant::now();
            let joined = tracer.scope("report", |t| {
                t.scope("telemetry.attribute_tail", |_| {
                    flight.attribute_tail(spec.scenario)
                })
            });
            out.layer.insert(
                "telemetry.attribute_tail_ms",
                start.elapsed().as_secs_f64() * 1e3,
            );
            out.check(
                "tail-attributed",
                joined > 0,
                format!("{joined} requests joined"),
            );
        }
        if twins {
            // The recorder's on-path cost: half the cells again without
            // it, each paired by seed with its recorded run above.
            let ratios: Vec<f64> = tracer.scope("twins", |tracer| {
                (0..spec.cells.div_ceil(2))
                    .map(|i| {
                        let start = Instant::now();
                        tracer.scope("scenarios.run_unrecorded", |_| {
                            registry.cell(spec.scenario, cell_seed(seed, i), spec.ops, false)
                        });
                        start.elapsed().as_secs_f64() / cells[i].host_s
                    })
                    .collect()
            });
            out.layer
                .insert("telemetry.recorder_cost_frac", 1.0 - median(&ratios));
        }
    }
    out
}

// ------------------------------------------------------------------ live

/// Host-side view of one live window.
struct TimedWindow {
    window: LiveWindow,
    /// Window start → first measured completion: fleet spawn, connect and
    /// warm-up. The run ends `run_for` after the product starts its
    /// clock, and the measured span ends there too.
    setup_s: f64,
    wall_s: f64,
    cpu: CpuMs,
}

fn headline(shape: &LiveShape, w: &LiveWindow) -> Latency {
    if shape.read_fraction >= 0.5 {
        w.get
    } else {
        w.put
    }
}

/// `n` windows of `run_for` each, against a process fleet when `node_bin`
/// names the node binary and an in-process one otherwise.
fn run_windows(
    shape: &LiveShape,
    node_bin: Option<&Path>,
    seed: u64,
    n: usize,
    run_for: Duration,
    tracer: &mut Tracer,
) -> Vec<TimedWindow> {
    (0..n)
        .map(|i| {
            let seed = cell_seed(seed, i);
            let (window, wall_s, cpu) = timed(|| {
                tracer.scope("window", |tracer| match node_bin {
                    None => tracer.scope("live.run_live", |_| {
                        adapter::live_window(shape, seed, run_for)
                    }),
                    Some(bin) => tracer.scope("node.run_node", |_| {
                        adapter::node_window(shape, seed, run_for, bin)
                    }),
                })
            });
            TimedWindow {
                setup_s: (run_for.as_secs_f64() - window.measured_s).max(0.0),
                window,
                wall_s,
                cpu,
            }
        })
        .collect()
}

fn live(
    shape: &LiveShape,
    processes: bool,
    seed: u64,
    seconds: u64,
    twins: bool,
    origin: Instant,
    tracer: &mut Tracer,
) -> Outcome {
    let window_s = match shape.offered_rate {
        Some(_) => OPEN_WINDOW_S,
        None => CLOSED_WINDOW_S,
    };
    let n = units_for(seconds, 1.0 / window_s);
    let run_for = Duration::from_secs_f64(seconds as f64 / n as f64);
    let mut out = Outcome {
        constants: vec![
            ("windows", n.to_string()),
            ("window_s", format!("{}", run_for.as_secs_f64())),
            (
                "fleet",
                format!(
                    "6 replicas x {} executors, {}",
                    shape.executors,
                    if processes {
                        "one process each"
                    } else {
                        "in-process"
                    }
                ),
            ),
            ("strategy", shape.strategy.to_string()),
            (
                "loop",
                match shape.offered_rate {
                    Some(rate) => {
                        format!("open, Poisson {rate} ops/s, timed from intended arrival")
                    }
                    None => "closed".to_string(),
                },
            ),
            ("in_flight", shape.in_flight.to_string()),
            ("read_fraction", shape.read_fraction.to_string()),
            ("warmup_ops", shape.warmup_ops.to_string()),
            ("issuer_threads", adapter::ISSUER_THREADS.to_string()),
            ("latency_limit_ms", LATENCY_LIMIT_MS.to_string()),
        ],
        ..Outcome::default()
    };

    let node_bin = processes.then(adapter::node_binary).flatten();
    if processes && node_bin.is_none() {
        out.attempted = 1;
        out.failed = 1;
        out.check(
            "node-binary",
            false,
            "c3-live-node not found (set C3_NODE_BIN or build it beside this binary)".into(),
        );
        return out;
    }
    let preamble_s = origin.elapsed().as_secs_f64();
    // A process fleet is spawned before the product starts the clock the
    // window's set-up is read from, so its spawn is timed on its own.
    let mut node_spawn_s = 0.0;
    if let Some(bin) = node_bin.as_deref() {
        let (spawn_ms, drain_ms, leaked) = tracer.scope("setup", |t| {
            t.scope("node.spawn_drain", |_| {
                adapter::node_spawn_drain_ms(shape, bin)
            })
        });
        node_spawn_s = spawn_ms / 1e3;
        out.layer.insert("node.spawn_ms", spawn_ms);
        out.layer.insert("node.drain_ms", drain_ms);
        out.layer.insert("node.leaked_children", leaked as f64);
        out.check(
            "no-leaked-children",
            leaked == 0,
            format!("{leaked} children needed SIGKILL"),
        );
    }
    let windows = tracer.scope("run", |tracer| {
        run_windows(shape, node_bin.as_deref(), seed, n, run_for, tracer)
    });

    let per_window = |f: &dyn Fn(&TimedWindow) -> f64| windows.iter().map(f).collect::<Vec<f64>>();
    let issued: u64 = windows.iter().map(|w| w.window.issued).sum();
    let completed: u64 = windows.iter().map(|w| w.window.completed).sum();
    // The product hands out an issue index before it selects a replica;
    // an issuer the window closes on at that point has counted an
    // operation it never sends. At most one per issuer per window, these
    // are not attempts.
    let past_warmup = issued.saturating_sub(shape.warmup_ops * n as u64);
    let closing_edge = past_warmup
        .saturating_sub(completed)
        .min((adapter::ISSUER_THREADS * n) as u64);
    let attempted = past_warmup - closing_edge;
    let cpu = windows.iter().fold(CpuMs::default(), |acc, w| CpuMs {
        user: acc.user + w.cpu.user,
        sys: acc.sys + w.cpu.sys,
    });
    let kops = issued as f64 / 1e3;
    let node_rss_mb = windows
        .iter()
        .map(|w| w.window.node_rss_kb_max)
        .fold(0.0, f64::max)
        / 1024.0;

    out.attempted = attempted.max(1);
    out.failed = attempted.saturating_sub(completed);
    out.e2e = EndToEnd {
        setup_s: preamble_s + node_spawn_s + median(&per_window(&|w| w.setup_s)),
        ops_per_s: stats::max(&per_window(&|w| {
            w.window.completed as f64 / w.window.measured_s
        })),
        // A tail percentile sits where a handful of stalls per window
        // decide it. (Sizing sweeps, spread of the p99 over ten seeds,
        // median over windows → calmest window: 7% → 4% on
        // live-open-read, 24% → 7% on live-open-write.)
        op_p50_ms: stats::min(&per_window(&|w| headline(shape, &w.window).p50_ms)),
        op_p99_ms: stats::min(&per_window(&|w| headline(shape, &w.window).p99_ms)),
        ok_frac: completed as f64 / attempted.max(1) as f64,
        cpu_ms_per_kop: 1e3
            * cheaper_half_pooled(
                &windows
                    .iter()
                    .map(|w| (w.cpu.total(), w.window.issued as f64))
                    .collect::<Vec<_>>(),
            ),
        peak_rss_mb: procfs::peak_rss_mb() + node_rss_mb,
    };
    out.run_wall_s = windows.iter().map(|w| w.wall_s).sum();
    out.p99_samples_min = windows
        .iter()
        .map(|w| headline(shape, &w.window).count)
        .min()
        .unwrap_or(0);

    let waits: u64 = windows.iter().map(|w| w.window.backpressure_waits).sum();
    out.layer
        .insert("core.backpressure_frac", waits as f64 / issued as f64);
    for (name, f) in [
        (
            "live.get_p50_ms",
            (|w| w.window.get.p50_ms) as fn(&TimedWindow) -> f64,
        ),
        ("live.get_p99_ms", |w| w.window.get.p99_ms),
        ("live.put_p50_ms", |w| w.window.put.p50_ms),
        ("live.put_p99_ms", |w| w.window.put.p99_ms),
        ("live.feedback_lag_ns_p50", |w| w.window.feedback_lag_ns_p50),
        ("live.feedback_lag_ns_p99", |w| w.window.feedback_lag_ns_p99),
        ("live.occupancy_p50", |w| w.window.occupancy_p50),
        ("live.occupancy_p99", |w| w.window.occupancy_p99),
    ] {
        out.layer.insert(name, median(&per_window(&f)));
    }
    out.layer
        .insert("live.cpu_user_ms_per_kop", cpu.user / kops);
    out.layer.insert("live.cpu_sys_ms_per_kop", cpu.sys / kops);
    if processes {
        let node_cpu: f64 = windows.iter().map(|w| w.window.node_cpu_ms).sum();
        out.layer
            .insert("node.cpu_ms_per_kop_nodes", node_cpu / kops);
        out.layer
            .insert("node.rss_kb_peak_max", node_rss_mb * 1024.0);
    }
    for (i, w) in windows.iter().enumerate() {
        out.units.push(BTreeMap::from([
            ("unit", i as f64),
            ("setup_s", w.setup_s),
            ("wall_s", w.wall_s),
            ("measured_s", w.window.measured_s),
            ("issued", w.window.issued as f64),
            ("completed", w.window.completed as f64),
            ("get_p50_ms", w.window.get.p50_ms),
            ("get_p99_ms", w.window.get.p99_ms),
            ("put_p50_ms", w.window.put.p50_ms),
            ("put_p99_ms", w.window.put.p99_ms),
            ("cpu_ms", w.cpu.total()),
        ]));
    }

    out.check(
        "ops-accounted",
        out.failed == 0,
        format!(
            "issued {issued} − warm-up {} − unsent at a window's close {closing_edge} = completed {completed} + failed {}",
            shape.warmup_ops * n as u64,
            out.failed
        ),
    );
    out.check(
        "p99-supported",
        crate::stats::supports(out.p99_samples_min as usize, 0.99),
        format!(
            "smallest window has {} headline samples",
            out.p99_samples_min
        ),
    );
    match shape.offered_rate {
        Some(rate) => {
            // How late the generator ran: the share of the schedule that
            // was never issued.
            let scheduled = rate * run_for.as_secs_f64() * n as f64;
            let shortfall = (1.0 - issued as f64 / scheduled).max(0.0);
            out.layer.insert("live.issue_shortfall_frac", shortfall);
            out.advise(
                "open-loop-kept-schedule",
                shortfall <= MAX_ISSUE_SHORTFALL,
                format!("issued {issued} of {scheduled:.0} scheduled ({shortfall:.4} short)"),
            );
            out.advise(
                "latency-limit",
                out.e2e.op_p99_ms <= LATENCY_LIMIT_MS,
                format!(
                    "op_p99_ms {:.3} against the {LATENCY_LIMIT_MS} ms limit",
                    out.e2e.op_p99_ms
                ),
            );
        }
        None => {
            let occ = out.layer["live.occupancy_p50"];
            out.advise(
                "closed-loop-kept-budget-busy",
                occ >= shape.in_flight as f64 / 2.0,
                format!("occupancy p50 {occ} of budget {}", shape.in_flight),
            );
        }
    }

    if twins && shape.offered_rate.is_none() && !processes {
        // The selector-attributable part of closed-loop throughput: the
        // same shape under LOR, for half the run length.
        let twin_n = n.div_ceil(2);
        let twins = tracer.scope("twins", |tracer| {
            run_windows(&CLOSED_LOR, None, seed, twin_n, run_for, tracer)
        });
        let rate: Vec<f64> = twins
            .iter()
            .map(|w| w.window.completed as f64 / w.window.measured_s)
            .collect();
        let cpu: f64 = twins.iter().map(|w| w.cpu.total()).sum();
        let kops = twins.iter().map(|w| w.window.issued).sum::<u64>() as f64 / 1e3;
        out.layer.insert("live.lor_twin_ops_per_s", median(&rate));
        out.layer.insert("live.lor_twin_cpu_ms_per_kop", cpu / kops);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_output_checks_decide_correct() {
        let mut out = Outcome::default();
        out.check("ops-accounted", true, String::new());
        out.advise("latency-limit", false, String::new());
        assert!(out.correct(), "a broken validity check is a warning");
        out.check("recorder-neutral", false, String::new());
        assert!(!out.correct(), "a broken output check is not");
    }

    #[test]
    fn closed_loop_runs_hold_twice_the_windows() {
        assert_eq!(units_for(10, 1.0 / OPEN_WINDOW_S), 4);
        assert_eq!(units_for(10, 1.0 / CLOSED_WINDOW_S), 8);
        assert_eq!(units_for(1, 1.0 / OPEN_WINDOW_S), 1);
    }
}
