//! Multi-process scenarios: the node-fleet twins of the live scenario
//! library, registered as ordinary [`ScenarioRegistry`] names.
//!
//! [`run_node`] is [`run_live_on`] with a process fleet around it: it
//! spawns one `c3-live-node` process per replica, drives the unchanged
//! multiplexed client at them over [`Transport::Remote`], samples each
//! process's RSS/CPU into recorder gauge channels, and — for fault
//! plans carrying [`FaultKind::Crash`] windows — delivers those crashes
//! as **real SIGKILLs** with a supervisor respawning the node on its
//! learned port when the window closes. The crash windows are stripped
//! from the fleet config the nodes receive (a node must not *emulate* a
//! crash the supervisor is about to inflict for real), while the
//! client's config keeps the full plan so its dial/redial tolerance
//! engages exactly as in the in-process crash-flux scenario.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use c3_cluster::{FaultEvent, FaultKind};
use c3_core::Nanos;
use c3_live::{
    crash_flux_config, hetero_fleet_config, partition_flux_config, run_live_on, LiveConfig,
    LiveReport, Transport,
};
use c3_scenarios::{ChannelReport, ScenarioParams, ScenarioRegistry};
use c3_telemetry::{node_cpu_gauge, node_rss_gauge, sample_process, summarize_gauge};

use crate::config::FleetConfig;
use crate::fleet::NodeFleet;

/// Registry name: the hetero-fleet script over a process fleet.
pub const NODE_HETERO_FLEET: &str = "node-hetero-fleet";
/// Registry name: the partition/flux blackout script over a process fleet.
pub(crate) const NODE_PARTITION_FLUX: &str = "node-partition-flux";
/// Registry name: crash-flux with real SIGKILL crashes and supervised
/// respawns.
pub const NODE_CRASH_FLUX: &str = "node-crash-flux";

/// How often the coordinator samples each node's RSS/CPU from procfs.
const GAUGE_EVERY: Duration = Duration::from_millis(50);

/// Run `cfg` against a freshly spawned fleet of `c3-live-node`
/// processes (binary at `bin`), through the same engine-runner plumbing
/// as [`run_live`](c3_live::run_live). Per-node RSS/CPU gauge series
/// land in the report's recorder and health channels.
///
/// # Panics
///
/// As [`run_live_on`]; additionally when the fleet fails to spawn or
/// leaks a process past the graceful drain.
pub fn run_node(scenario_name: &str, cfg: LiveConfig, bin: &Path) -> LiveReport {
    // Crashes are the supervisor's job — delivered as real SIGKILLs on
    // the plan's timeline; `from_live` keeps them from the nodes.
    let fleet_cfg = FleetConfig::from_live(&cfg);
    let crashes: Vec<FaultEvent> = cfg
        .faults
        .events
        .iter()
        .filter(|e| e.kind == FaultKind::Crash)
        .copied()
        .collect();

    let fleet = NodeFleet::spawn(bin, &fleet_cfg).expect("node fleet failed to spawn");
    let addrs = fleet.addrs().to_vec();
    let config_digest = fleet.digest();
    let replicas = fleet_cfg.replicas;
    let fleet = Arc::new(Mutex::new(Some(fleet)));
    let stop = Arc::new(AtomicBool::new(false));

    let sampler = spawn_gauge_sampler(Arc::clone(&fleet), Arc::clone(&stop), replicas);
    let supervisor = (!crashes.is_empty())
        .then(|| spawn_crash_supervisor(Arc::clone(&fleet), Arc::clone(&stop), crashes));

    let mut live = run_live_on(
        scenario_name,
        cfg,
        Transport::Remote {
            addrs,
            config_digest,
        },
    );

    stop.store(true, Ordering::Relaxed);
    let (rss, cpu) = sampler.join().expect("gauge sampler panicked");
    if let Some(handle) = supervisor {
        handle.join().expect("crash supervisor panicked");
    }
    let forced = fleet
        .lock()
        .expect("fleet lock")
        .take()
        .expect("fleet still owned")
        .shutdown();
    assert_eq!(
        forced, 0,
        "node fleet leaked {forced} process(es) past the graceful drain"
    );

    let duration = live.report.duration;
    for replica in 0..replicas {
        for (name, values) in [
            (node_rss_gauge(replica), &rss[replica]),
            (node_cpu_gauge(replica), &cpu[replica]),
        ] {
            live.recorder.gauge_extend(&name, values);
            let gauge = summarize_gauge(values, duration.into());
            live.health.push(ChannelReport {
                name,
                completions: gauge.count,
                throughput: gauge.throughput,
                summary: gauge.summary,
            });
        }
    }
    live
}

type GaugeSeriesSet = (Vec<Vec<(Nanos, u64)>>, Vec<Vec<(Nanos, u64)>>);

/// Poll procfs for every node's RSS/CPU until stopped. A crashed (dead)
/// node samples as `None` and its series simply pauses until respawn.
fn spawn_gauge_sampler(
    fleet: Arc<Mutex<Option<NodeFleet>>>,
    stop: Arc<AtomicBool>,
    replicas: usize,
) -> JoinHandle<GaugeSeriesSet> {
    thread::spawn(move || {
        let t0 = Instant::now();
        let mut rss = vec![Vec::new(); replicas];
        let mut cpu = vec![Vec::new(); replicas];
        loop {
            let pids = fleet
                .lock()
                .expect("fleet lock")
                .as_ref()
                .map(|f| f.pids())
                .unwrap_or_default();
            let at = Nanos(t0.elapsed().as_nanos() as u64);
            for (replica, pid) in pids.into_iter().enumerate() {
                if let Some(sample) = sample_process(pid) {
                    rss[replica].push((at, sample.rss_kb));
                    cpu[replica].push((at, sample.cpu_ms));
                }
            }
            if stop.load(Ordering::Relaxed) {
                return (rss, cpu);
            }
            thread::sleep(GAUGE_EVERY);
        }
    })
}

/// Replay crash windows as real process deaths: SIGKILL at each window's
/// start, respawn on the learned port at its end. Windows are flattened
/// into one time-sorted action list so overlapping windows on different
/// nodes interleave correctly.
fn spawn_crash_supervisor(
    fleet: Arc<Mutex<Option<NodeFleet>>>,
    stop: Arc<AtomicBool>,
    crashes: Vec<FaultEvent>,
) -> JoinHandle<()> {
    enum Action {
        Kill(usize),
        Respawn(usize),
    }
    let mut timeline: Vec<(Nanos, Action)> = crashes
        .iter()
        .flat_map(|e| {
            [
                (e.start, Action::Kill(e.node)),
                (e.end, Action::Respawn(e.node)),
            ]
        })
        .collect();
    timeline.sort_by_key(|(at, _)| *at);
    thread::spawn(move || {
        let t0 = Instant::now();
        for (at, action) in timeline {
            // Sleep to the action's time in short hops so a finished run
            // stops the supervisor without waiting out far-future
            // windows (fault plans span minutes; runs last ~1.5 s).
            loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let elapsed = Nanos(t0.elapsed().as_nanos() as u64);
                if elapsed >= at {
                    break;
                }
                let left = Duration::from_nanos(at.as_nanos() - elapsed.as_nanos());
                thread::sleep(left.min(Duration::from_millis(5)));
            }
            let mut guard = fleet.lock().expect("fleet lock");
            let Some(f) = guard.as_mut() else { return };
            // Best-effort on both edges: a node that failed to respawn
            // is indistinguishable from a long crash, which the client's
            // fault tolerance already covers.
            let _ = match action {
                Action::Kill(node) => f.kill(node),
                Action::Respawn(node) => f.respawn(node),
            };
        }
    })
}

/// Register the node-fleet scenarios into a registry, binding them to a
/// node binary. `scenario_sweep`-style callers then fan multi-process
/// cells out by name exactly like sim or in-process live cells.
pub(crate) fn register_node_scenarios(registry: &mut ScenarioRegistry, bin: &Path) {
    let node_bin: PathBuf = bin.to_path_buf();
    let bin = node_bin.clone();
    registry.register(NODE_HETERO_FLEET, move |p: &ScenarioParams| {
        Ok(run_node(NODE_HETERO_FLEET, hetero_fleet_config(p)?, &bin).report)
    });
    let bin = node_bin.clone();
    registry.register(NODE_PARTITION_FLUX, move |p: &ScenarioParams| {
        Ok(run_node(NODE_PARTITION_FLUX, partition_flux_config(p)?, &bin).report)
    });
    let bin = node_bin;
    registry.register(NODE_CRASH_FLUX, move |p: &ScenarioParams| {
        Ok(run_node(NODE_CRASH_FLUX, crash_flux_config(p)?, &bin).report)
    });
}

/// The full registry — sim library, in-process live backends, and the
/// node-fleet scenarios bound to `bin`.
pub fn node_registry(bin: &Path) -> ScenarioRegistry {
    let mut registry = c3_live::live_registry();
    register_node_scenarios(&mut registry, bin);
    registry
}

/// Convenience: a config for `scenario` built by the matching live
/// config builder (node scenarios reuse the live scripts verbatim).
pub fn node_config(scenario: &str, params: &ScenarioParams) -> Option<LiveConfig> {
    match scenario {
        NODE_HETERO_FLEET => hetero_fleet_config(params).ok(),
        NODE_PARTITION_FLUX => partition_flux_config(params).ok(),
        NODE_CRASH_FLUX => crash_flux_config(params).ok(),
        _ => None,
    }
}
