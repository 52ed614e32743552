//! The per-layer metric list, and the probe pass of the traced run.
//!
//! A *probe* calls one layer's public functions in isolation (through
//! `adapter`), in a loop sized like the workload that leans on that
//! layer, and reports a unit cost. Each probe runs [`REPS`] batches and
//! reports their median, under its own span. Probes are the same on every
//! workload — a unit cost does not depend on who asks — so a traced run
//! of any workload carries every layer's number measured on that host at
//! that moment, next to the run-derived counts that only apply to it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use crate::adapter;
use crate::stats::{median, supported_quantile};
use crate::trace::Tracer;
use crate::workloads::CLOSED;

/// Batches per probe; the median batch is reported.
const REPS: usize = 5;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// metric that does not apply to a workload (a count of something that
/// workload never does, a share of a loop it never enters) reads 0 there.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("engine.kernel_ns_per_event_p128", "ns"),
    ("engine.kernel_ns_per_event_p4096", "ns"),
    ("engine.kernel_ns_per_event_p65536", "ns"),
    ("engine.cancel_cycle_ns", "ns"),
    ("engine.events_per_op", "count"),
    ("core.select_cycle_ns_c3", "ns"),
    ("core.select_cycle_ns_lor", "ns"),
    ("core.shared_c3_cycle_ns_t1", "ns"),
    ("core.shared_c3_cycle_ns_t2", "ns"),
    ("core.backpressure_frac", "fraction"),
    ("workload.zipf_build_ms", "ms"),
    ("workload.zipf_sample_ns", "ns"),
    ("workload.next_request_ns", "ns"),
    ("metrics.record_ns", "ns"),
    ("metrics.summarize_ms", "ms"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.recorder_cost_frac", "fraction"),
    ("telemetry.events_recorded", "count"),
    ("telemetry.events_dropped", "count"),
    ("telemetry.attribute_tail_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("cluster.ns_per_event", "ns"),
    ("scenarios.mega_fleet_ns_per_event", "ns"),
    ("sim.kernel_share", "fraction"),
    ("sim.selector_share", "fraction"),
    ("sim.metrics_share", "fraction"),
    ("sim.workload_share", "fraction"),
    ("sim.residual_frac", "fraction"),
    ("cluster.timeouts_per_kop", "1/kop"),
    ("cluster.parked_per_kop", "1/kop"),
    ("net.encode_get_ns", "ns"),
    ("net.encode_put_ns", "ns"),
    ("net.decode_request_ns", "ns"),
    ("net.decode_response_ns", "ns"),
    ("live.permit_cycle_ns_t1", "ns"),
    ("live.permit_cycle_ns_t2", "ns"),
    ("live.correlate_cycle_ns", "ns"),
    ("live.server_rtt_us_p50", "us"),
    ("live.server_overhead_us_p50", "us"),
    ("live.server_overhead_us_p99", "us"),
    ("live.server_pipelined_ops_per_s", "ops/s"),
    ("live.client_overhead_us_p50", "us"),
    ("live.get_p50_ms", "ms"),
    ("live.get_p99_ms", "ms"),
    ("live.put_p50_ms", "ms"),
    ("live.put_p99_ms", "ms"),
    ("live.feedback_lag_ns_p50", "ns"),
    ("live.feedback_lag_ns_p99", "ns"),
    ("live.occupancy_p50", "count"),
    ("live.occupancy_p99", "count"),
    ("live.cpu_user_ms_per_kop", "ms/kop"),
    ("live.cpu_sys_ms_per_kop", "ms/kop"),
    ("live.issue_shortfall_frac", "fraction"),
    ("live.lor_twin_ops_per_s", "ops/s"),
    ("live.lor_twin_cpu_ms_per_kop", "ms/kop"),
    ("live.spawn_ms", "ms"),
    ("live.shutdown_ms", "ms"),
    ("node.spawn_ms", "ms"),
    ("node.drain_ms", "ms"),
    ("node.leaked_children", "count"),
    ("node.cpu_ms_per_kop_nodes", "ms/kop"),
    ("node.rss_kb_peak_max", "kB"),
    ("trace_overhead_frac", "fraction"),
];

/// What the probe pass hands back.
pub struct Probed {
    /// Unit costs by per-layer metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Whether the server probe read back the value it stored on every
    /// GET.
    pub server_values_intact: bool,
}

/// Median of one field over a probe's batches.
fn median_by<T>(batches: &[T], field: impl Fn(&T) -> f64) -> f64 {
    median(&batches.iter().map(field).collect::<Vec<_>>())
}

/// Median of [`REPS`] batches of `batch`, under a span named `name`.
fn probe(tracer: &mut Tracer, name: &'static str, mut batch: impl FnMut() -> f64) -> f64 {
    tracer.scope(name, |_| {
        median(&(0..REPS).map(|_| batch()).collect::<Vec<_>>())
    })
}

/// Run every probe. `scale` in (0, 1] shrinks the loops for short runs
/// (`--check`); `node_bin` enables the process-fleet probe.
pub fn run_all(scale: f64, seed: u64, node_bin: Option<&Path>, tracer: &mut Tracer) -> Probed {
    let n = |full: u64| ((full as f64 * scale) as u64).max(1_000);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut intact = true;
    tracer.scope("probes", |t| {
        // engine: ~128 pending events is the sim-steady census, 4096 the
        // cluster's, 65536 the mega-fleet regime.
        for (name, pending) in [
            ("engine.kernel_ns_per_event_p128", 128),
            ("engine.kernel_ns_per_event_p4096", 4096),
            ("engine.kernel_ns_per_event_p65536", 65_536),
        ] {
            m.insert(
                name,
                probe(t, name, || adapter::kernel_churn_ns(pending, n(400_000))),
            );
        }
        m.insert(
            "engine.cancel_cycle_ns",
            probe(t, "engine.cancel_cycle_ns", || {
                adapter::cancel_cycle_ns(n(400_000))
            }),
        );

        // core
        for (name, strategy) in [
            ("core.select_cycle_ns_c3", "C3"),
            ("core.select_cycle_ns_lor", "LOR"),
        ] {
            m.insert(
                name,
                probe(t, name, || adapter::select_cycle_ns(strategy, n(400_000))),
            );
        }
        for (name, threads) in [
            ("core.shared_c3_cycle_ns_t1", 1),
            ("core.shared_c3_cycle_ns_t2", 2),
        ] {
            m.insert(
                name,
                probe(t, name, || adapter::shared_c3_cycle_ns(threads, n(200_000))),
            );
        }

        // workload: 1M keys is the keyspace the scenario cells run at.
        m.insert(
            "workload.zipf_build_ms",
            probe(t, "workload.zipf_build_ms", || {
                adapter::zipf_build_ms(1_000_000)
            }),
        );
        m.insert(
            "workload.zipf_sample_ns",
            probe(t, "workload.zipf_sample_ns", || {
                adapter::zipf_sample_ns(1_000_000, n(400_000))
            }),
        );
        m.insert(
            "workload.next_request_ns",
            probe(t, "workload.next_request_ns", || {
                adapter::next_request_ns(n(400_000))
            }),
        );

        // metrics
        let costs: Vec<(f64, f64)> = t.scope("metrics.histogram", |_| {
            (0..REPS)
                .map(|_| adapter::histogram_costs(n(1_000_000)))
                .collect()
        });
        m.insert("metrics.record_ns", median_by(&costs, |c| c.0));
        m.insert("metrics.summarize_ms", median_by(&costs, |c| c.1));

        // telemetry
        m.insert(
            "telemetry.record_ns",
            probe(t, "telemetry.record_ns", || {
                adapter::recorder_record_ns(n(1_000_000))
            }),
        );

        // net
        let codec: Vec<adapter::CodecCosts> = t.scope("net.codec", |_| {
            (0..REPS)
                .map(|_| adapter::codec_costs(n(100_000)))
                .collect()
        });
        m.insert("net.encode_get_ns", median_by(&codec, |c| c.encode_get_ns));
        m.insert("net.encode_put_ns", median_by(&codec, |c| c.encode_put_ns));
        m.insert(
            "net.decode_request_ns",
            median_by(&codec, |c| c.decode_request_ns),
        );
        m.insert(
            "net.decode_response_ns",
            median_by(&codec, |c| c.decode_response_ns),
        );

        // live: client-side primitives
        for (name, threads) in [
            ("live.permit_cycle_ns_t1", 1),
            ("live.permit_cycle_ns_t2", 2),
        ] {
            m.insert(
                name,
                probe(t, name, || adapter::permit_cycle_ns(threads, n(200_000))),
            );
        }
        m.insert(
            "live.correlate_cycle_ns",
            probe(t, "live.correlate_cycle_ns", || {
                adapter::correlate_cycle_ns(n(400_000))
            }),
        );

        // live: one replica server seen through one connection. 1200 GETs
        // leave 12 samples beyond the p99.
        let gets = ((1_200.0 * scale) as u64).max(1_100);
        let (trips, values_ok) = t.scope("live.server_round_trips", |_| {
            adapter::server_round_trips(seed, gets)
        });
        intact &= values_ok;
        let mut rtt_us: Vec<f64> = trips.iter().map(|&(rtt, _)| rtt / 1e3).collect();
        let mut overhead_us: Vec<f64> = trips.iter().map(|&(rtt, svc)| (rtt - svc) / 1e3).collect();
        m.insert(
            "live.server_rtt_us_p50",
            supported_quantile(&mut rtt_us, 0.5).unwrap_or(0.0),
        );
        m.insert(
            "live.server_overhead_us_p50",
            supported_quantile(&mut overhead_us, 0.5).unwrap_or(0.0),
        );
        m.insert(
            "live.server_overhead_us_p99",
            supported_quantile(&mut overhead_us, 0.99).unwrap_or(0.0),
        );
        m.insert(
            "live.server_pipelined_ops_per_s",
            t.scope("live.server_pipelined", |_| {
                adapter::server_pipelined_ops_per_s(
                    seed,
                    Duration::from_secs_f64(0.5 * scale.max(0.2)),
                )
            }),
        );

        // live / node: fleet spawn and teardown, closed-loop shape.
        let fleets: Vec<(f64, f64)> = t.scope("live.spawn_shutdown", |_| {
            (0..3)
                .map(|_| adapter::live_spawn_shutdown_ms(&CLOSED))
                .collect()
        });
        m.insert("live.spawn_ms", median_by(&fleets, |f| f.0));
        m.insert("live.shutdown_ms", median_by(&fleets, |f| f.1));
        if let Some(bin) = node_bin {
            let fleets: Vec<(f64, f64, usize)> = t.scope("node.spawn_drain", |_| {
                (0..3)
                    .map(|_| adapter::node_spawn_drain_ms(&CLOSED, bin))
                    .collect()
            });
            m.insert("node.spawn_ms", median_by(&fleets, |f| f.0));
            m.insert("node.drain_ms", median_by(&fleets, |f| f.1));
            m.insert(
                "node.leaked_children",
                fleets.iter().map(|f| f.2).sum::<usize>() as f64,
            );
        }
    });
    Probed {
        metrics: m,
        server_values_intact: intact,
    }
}

/// Cost of recording one span, ns: a scratch tracer timed over many empty
/// scopes. Multiplied by the spans a run recorded this bounds what
/// tracing added to it.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 50_000;
    let origin = std::time::Instant::now();
    let mut scratch = Tracer::new(true, origin);
    for _ in 0..SPANS {
        scratch.scope("x", |_| ());
    }
    std::hint::black_box(scratch.spans().len());
    origin.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
