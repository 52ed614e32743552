//! The repo benchmark: one workload per process, measured from outside.
//!
//! ```text
//! c3-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Run from the repo root (`benchmark/run.sh` builds and does that). The
//! run prints every metric by name with its unit, the output checks, and
//! — as the last line of stdout — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` carrying the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) that
//! `BENCHMARK.json` names. A fuller result with provenance goes to
//! `<out>/<workload>.json` (`.traced.json` and `.trace.json` when traced).

mod adapter;
mod json;
mod probes;
mod procfs;
mod provenance;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use trace::{self_times_ns, Tracer};
use workloads::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// The per-layer metrics of a traced run: every name of
/// [`probes::PER_LAYER`], 0 where nothing applies, then the run's own
/// counts, the probes, and what follows from the two.
fn per_layer(
    outcome: &mut Outcome,
    args: &Args,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = probes::PER_LAYER
        .iter()
        .map(|&(name, _)| (name, 0.0))
        .collect();
    let run_spans = tracer.spans().len();
    let node_bin = adapter::node_binary();
    // Probe loops shrink with short runs so `--check` stays quick.
    let scale = (args.seconds as f64 / 10.0).min(1.0);
    let probed = probes::run_all(scale, args.seed, node_bin.as_deref(), tracer);
    outcome.check(
        "server-returns-stored-value",
        probed.server_values_intact,
        "every probe GET returned the 1 KiB value stored under its key".into(),
    );
    // Probes first, so a run's own reading of a shared name (the node
    // workload's fleet spawn) wins.
    m.extend(probed.metrics);
    m.extend(outcome.layer.iter().map(|(&k, &v)| (k, v)));

    if args.workload == "sim-steady" {
        // Where the host time of the §6 loop goes, from outside: a
        // layer's unit cost times how often the loop calls it, over the
        // loop's host time per request. What the four do not explain is
        // the event loop's own time.
        let events_per_op = m["engine.events_per_op"];
        let host_ns_per_op = m["sim.ns_per_event"] * events_per_op;
        let shares = [
            (
                "sim.kernel_share",
                m["engine.kernel_ns_per_event_p128"] * events_per_op,
            ),
            ("sim.selector_share", m["core.select_cycle_ns_c3"]),
            ("sim.metrics_share", m["metrics.record_ns"]),
            ("sim.workload_share", m["workload.next_request_ns"]),
        ];
        let mut explained = 0.0;
        for (name, ns_per_op) in shares {
            m.insert(name, ns_per_op / host_ns_per_op);
            explained += ns_per_op / host_ns_per_op;
        }
        m.insert("sim.residual_frac", 1.0 - explained);
    }
    if m["live.get_p50_ms"] > 0.0 {
        m.insert(
            "live.client_overhead_us_p50",
            m["live.get_p50_ms"] * 1e3 - m["live.server_rtt_us_p50"],
        );
    }
    // What tracing added to the measured run: spans recorded during it
    // times the cost of recording one.
    m.insert(
        "trace_overhead_frac",
        run_spans as f64 * probes::span_cost_ns() / (outcome.run_wall_s * 1e9),
    );
    m
}

fn print_metrics(title: &str, rows: &[(&str, f64, &str)]) {
    println!("{title}");
    for (name, value, unit) in rows {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
}

fn metrics_json(rows: &[(&str, f64, &str)]) -> Json {
    Json::Object(
        rows.iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::object([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

fn trace_json(workload: &str, tracer: &Tracer) -> Json {
    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    Json::Array(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                Json::object([
                    ("name", Json::str(&s.name)),
                    ("workload", Json::str(workload)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("c3-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let profile = match provenance::guarded_release_profile() {
        Ok(profile) => profile,
        Err(e) => {
            eprintln!("c3-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    let mut tracer = Tracer::new(args.trace, origin);
    let mut outcome = workloads::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        origin,
        &mut tracer,
    )
    .expect("workload name was validated");
    let layer = args
        .trace
        .then(|| per_layer(&mut outcome, &args, &mut tracer));

    let e2e_rows = outcome.e2e.rows();
    let layer_rows: Vec<(&str, f64, &str)> = layer
        .iter()
        .flat_map(|m| {
            probes::PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, m[name], unit))
        })
        .collect();
    let reported: &[(&str, f64, &str)] = if args.trace { &layer_rows } else { &e2e_rows };
    let finite = reported.iter().all(|(_, v, _)| v.is_finite());
    outcome.check(
        "metrics-finite",
        finite,
        "every reported metric is a finite number".into(),
    );

    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print_metrics(
        "end-to-end (measured with tracing off unless --trace 1):",
        &e2e_rows,
    );
    println!(
        "  op_p99_ms rests on at least {} samples per unit; latency limit {} ms",
        outcome.p99_samples_min,
        workloads::LATENCY_LIMIT_MS
    );
    if args.trace {
        print_metrics("per-layer:", &layer_rows);
        if args.workload == "sim-steady" {
            println!("where sim-steady's host time goes (shares sum to 1):");
            for name in [
                "sim.kernel_share",
                "sim.selector_share",
                "sim.metrics_share",
                "sim.workload_share",
                "sim.residual_frac",
            ] {
                println!(
                    "  {name:<24} {:>8.4}",
                    layer.as_ref().expect("traced")[name]
                );
            }
        }
    }
    println!("checks:");
    for c in &outcome.checks {
        let verdict = match (c.ok, c.advisory) {
            (true, _) => "ok",
            (false, true) => "warn",
            (false, false) => "FAILED",
        };
        println!("  [{verdict}] {:<32} {}", c.name, c.detail);
    }

    // The result files. Host provenance last: it spawns git and rustc.
    let correct = outcome.correct();
    let result = Json::object([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("traced", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("end_to_end", metrics_json(&e2e_rows)),
        ("per_layer", metrics_json(&layer_rows)),
        (
            "checks",
            Json::Array(
                outcome
                    .checks
                    .iter()
                    .map(|c| {
                        Json::object([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("advisory", Json::Bool(c.advisory)),
                            ("detail", Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "units",
            Json::Array(
                outcome
                    .units
                    .iter()
                    .map(|u| {
                        Json::Object(
                            u.iter()
                                .map(|(&k, &v)| (k.to_string(), Json::Num(v)))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "provenance",
            Json::Object(
                provenance::host()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::str(&v)))
                    .chain([(
                        "release_profile".to_string(),
                        Json::Object(
                            profile
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::str(v)))
                                .collect(),
                        ),
                    )])
                    .chain([(
                        "constants".to_string(),
                        Json::Object(
                            outcome
                                .constants
                                .iter()
                                .map(|(k, v)| (k.to_string(), Json::str(v)))
                                .collect(),
                        ),
                    )])
                    .collect(),
            ),
        ),
    ]);
    let stem = args.out.join(&args.workload);
    let write = |suffix: &str, body: &Json| {
        std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(stem.with_extension(suffix), format!("{body}\n")))
    };
    let written = if args.trace {
        write("traced.json", &result)
            .and_then(|()| write("trace.json", &trace_json(&args.workload, &tracer)))
    } else {
        write("json", &result)
    };
    if let Err(e) = written {
        eprintln!(
            "c3-benchmark: cannot write results under {}: {e}",
            args.out.display()
        );
        return ExitCode::from(2);
    }

    // The contract line: last on stdout.
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics_json(reported)),
        ])
    );
    ExitCode::SUCCESS
}
