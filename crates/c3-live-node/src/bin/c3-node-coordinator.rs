//! The fleet coordinator: spawn (or attach to) a `c3-live-node` fleet
//! and drive a scenario at it with the unchanged c3-live client.
//!
//! Modes:
//!
//! - **`--smoke`** (the default): spawn a 3-node fleet, run a short
//!   `node-hetero-fleet` cell, print the headline numbers and per-node
//!   RSS/CPU, and exit nonzero unless the run completed and the fleet
//!   drained without leaking a process. This is the CI one-liner.
//! - **`--emit-configs <dir>`**: write one `node-<id>.kv` config file
//!   per replica for the chosen scenario, for operators starting nodes
//!   by hand (each node prints its `<id>=<addr>` line; collect them
//!   into an address file).
//! - **`--attach <address-file>`** (or the `C3_NODES` environment
//!   variable with no `--attach`): run the scenario against an
//!   already-running fleet discovered from the file/env instead of
//!   spawning one. Node identity and fleet-config digest are verified
//!   via the hello handshake, so attaching to the wrong fleet fails
//!   loudly rather than measuring it.
//!
//! Shared flags: `--scenario <name>` (node-hetero-fleet,
//! node-partition-flux, node-crash-flux), `--strategy <name>`,
//! `--seed <n>`, `--ops <n>`.

use std::path::PathBuf;
use std::process::ExitCode;

use c3_cluster::FaultKind;
use c3_engine::Strategy;
use c3_live::{run_live_on, LiveReport, Transport};
use c3_live_node::{
    node_bin, node_config, parse_addresses, parse_env, run_node, FleetConfig, NodeConfig,
    NODES_ENV, NODE_HETERO_FLEET,
};
use c3_scenarios::ScenarioParams;

struct Args {
    scenario: String,
    strategy: String,
    seed: u64,
    ops: u64,
    attach: Option<PathBuf>,
    emit_configs: Option<PathBuf>,
}

const USAGE: &str = "usage: c3-node-coordinator [--smoke] [--attach <address-file>] \
[--emit-configs <dir>] [--scenario <name>] [--strategy <name>] [--seed <n>] [--ops <n>]";

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("c3-node-coordinator: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: NODE_HETERO_FLEET.to_string(),
        strategy: "C3".to_string(),
        seed: 1,
        ops: 40_000,
        attach: None,
        emit_configs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--smoke" => {} // the default mode; accepted for explicitness
            "--attach" => args.attach = Some(PathBuf::from(value("--attach")?)),
            "--emit-configs" => {
                args.emit_configs = Some(PathBuf::from(value("--emit-configs")?));
            }
            "--scenario" => args.scenario = value("--scenario")?,
            "--strategy" => args.strategy = value("--strategy")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a u64".to_string())?;
            }
            "--ops" => {
                args.ops = value("--ops")?
                    .parse()
                    .map_err(|_| "--ops wants a u64".to_string())?;
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<(), String> {
    let params = ScenarioParams::sized(Strategy::named(&args.strategy), args.seed, args.ops);
    let cfg = node_config(&args.scenario, &params).ok_or_else(|| {
        format!(
            "unknown node scenario {:?} (or unsupported strategy {:?})",
            args.scenario, args.strategy
        )
    })?;

    if let Some(dir) = args.emit_configs {
        return emit_configs(&dir, &cfg);
    }

    let live = if let Some(source) = args.attach {
        attach(&source, cfg, &args.scenario)?
    } else {
        let bin = node_bin().ok_or(
            "no c3-live-node binary found (build it, or point C3_NODE_BIN at one)".to_string(),
        )?;
        run_node(&args.scenario, cfg, &bin)
    };
    summarize(&args.scenario, &live);
    Ok(())
}

/// Attach to an already-running fleet: addresses from the file (or
/// `C3_NODES`), crashes cannot be delivered (we own no pids), so the
/// fault plan must carry none — the nodes were configured separately.
fn attach(
    source: &std::path::Path,
    cfg: c3_live::LiveConfig,
    scenario: &str,
) -> Result<LiveReport, String> {
    let text = if source.as_os_str() == NODES_ENV {
        std::env::var(NODES_ENV).map_err(|_| format!("{NODES_ENV} is not set"))?
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("reading {}: {e}", source.display()))?
    };
    let addrs = if source.as_os_str() == NODES_ENV {
        parse_env(&text)
    } else {
        parse_addresses(&text)
    }
    .map_err(|e| e.to_string())?;
    if cfg.faults.events.iter().any(|e| e.kind == FaultKind::Crash) {
        return Err(format!(
            "{scenario} schedules real crashes; attach mode owns no processes to kill — \
             spawn the fleet instead (drop --attach)"
        ));
    }
    let digest = FleetConfig::from_live(&cfg).digest();
    Ok(run_live_on(
        scenario,
        cfg,
        Transport::Remote {
            addrs,
            config_digest: digest,
        },
    ))
}

/// Write one node config file per replica, for hand-started fleets.
fn emit_configs(dir: &std::path::Path, cfg: &c3_live::LiveConfig) -> Result<(), String> {
    let fleet = FleetConfig::from_live(cfg);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for id in 0..fleet.replicas {
        let node = NodeConfig {
            replica_id: id as u32,
            bind: "127.0.0.1:0".parse().expect("literal address"),
            fleet: fleet.clone(),
        };
        let path = dir.join(format!("node-{id}.kv"));
        std::fs::write(&path, node.to_kv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{}", path.display());
    }
    println!(
        "# start each with: c3-live-node --config <file>   (collect the id=addr lines \
         into an address file for --attach); fleet digest {:#018x}",
        fleet.digest()
    );
    Ok(())
}

fn summarize(scenario: &str, live: &LiveReport) {
    let report = &live.report;
    let head = report.headline();
    println!(
        "{scenario} [{}] seed {}: {} completions, {:.0} ops/s, p50 {:.2} ms, p99 {:.2} ms, p99.9 {:.2} ms",
        report.strategy,
        report.seed,
        head.completions,
        report.channels.iter().map(|c| c.throughput).sum::<f64>(),
        head.summary.p50_ns as f64 / 1e6,
        head.summary.p99_ns as f64 / 1e6,
        head.summary.p999_ns as f64 / 1e6,
    );
    for channel in &live.health {
        // Per-node resource gauges: report the peak RSS / final CPU the
        // sampler saw, which for a gauge summary is the max.
        if channel.name.starts_with("node") {
            println!(
                "  {}: max {} ({} samples)",
                channel.name, channel.summary.max_ns, channel.completions
            );
        }
    }
    // A smoke that measured nothing is a failure even if nothing panicked.
    assert!(
        head.completions > 0,
        "scenario completed zero measured operations"
    );
}
