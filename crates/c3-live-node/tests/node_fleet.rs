//! Multi-process integration: real `c3-live-node` child processes, the
//! unchanged c3-live client driven at them over loopback.
//!
//! These tests spawn actual OS processes (cargo points
//! `CARGO_BIN_EXE_c3-live-node` at the built binary), so they also pin
//! the supervision contract: fleets drain without leaking children
//! (`run_node` asserts zero forced kills), crashed nodes really die and
//! really come back, and a client refuses to measure a fleet whose
//! config digest does not match its own.

use std::path::Path;
use std::time::Duration;

use c3_engine::Strategy;
use c3_live::{
    crash_flux_config, hetero_fleet_config, run_live, run_live_on, LiveConfig, Transport,
    LIVE_HETERO_FLEET,
};
use c3_live_node::{
    node_registry, run_node, FleetConfig, NodeFleet, NODE_CRASH_FLUX, NODE_HETERO_FLEET,
};
use c3_scenarios::ScenarioParams;
use c3_telemetry::{node_cpu_gauge, node_rss_gauge};

fn node_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_c3-live-node"))
}

/// A small fleet and short run, to keep process-spawning tests brisk.
fn shrink(mut cfg: LiveConfig, replicas: usize, run_ms: u64) -> LiveConfig {
    cfg.replicas = replicas;
    cfg.run_for = Duration::from_millis(run_ms);
    cfg.faults.events.retain(|e| e.node < replicas);
    cfg
}

#[test]
fn node_fleet_runs_the_hetero_scenario_with_process_gauges() {
    let params = ScenarioParams::sized(Strategy::c3(), 11, 2_000);
    let cfg = shrink(hetero_fleet_config(&params).unwrap(), 3, 500);
    let live = run_node(NODE_HETERO_FLEET, cfg, node_bin());
    assert!(
        live.report.total_completions() > 0,
        "a process fleet serves real operations"
    );
    for replica in 0..3 {
        let rss = live
            .recorder
            .gauge_series(&node_rss_gauge(replica))
            .unwrap_or_else(|| panic!("node {replica} must have an RSS gauge series"));
        assert!(
            !rss.values.is_empty(),
            "node {replica} RSS was sampled at least once"
        );
        assert!(
            rss.values.iter().all(|(_, kb)| *kb > 0),
            "a live process has resident memory"
        );
        assert!(
            live.health
                .iter()
                .any(|c| c.name == node_cpu_gauge(replica)),
            "node {replica} CPU summary lands in the health channels"
        );
    }
}

#[test]
fn node_and_thread_fleets_agree_on_report_shape() {
    let params = ScenarioParams::sized(Strategy::c3(), 5, 2_000);
    let node_cfg = shrink(hetero_fleet_config(&params).unwrap(), 3, 500);
    let thread_cfg = node_cfg.clone();
    let node = run_node(NODE_HETERO_FLEET, node_cfg, node_bin());
    let thread = run_live(LIVE_HETERO_FLEET, thread_cfg);
    let node_channels: Vec<&str> = node
        .report
        .channels
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    let thread_channels: Vec<&str> = thread
        .report
        .channels
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        node_channels, thread_channels,
        "process and thread fleets report through identical channels"
    );
    assert!(node.report.total_completions() > 0);
    assert!(thread.report.total_completions() > 0);
    // Same script, same disks, same client: the two fleets should be in
    // the same performance regime. Loopback-vs-pipe overheads differ, so
    // this is a sanity band, not an equality.
    let ratio = node.report.p99_ms() / thread.report.p99_ms();
    assert!(
        (0.02..50.0).contains(&ratio),
        "node p99 {:.2} ms vs thread p99 {:.2} ms is out of any plausible band",
        node.report.p99_ms(),
        thread.report.p99_ms()
    );
}

#[test]
fn digest_mismatch_aborts_instead_of_measuring_the_wrong_fleet() {
    let params = ScenarioParams::sized(Strategy::c3(), 1, 500);
    let cfg = shrink(hetero_fleet_config(&params).unwrap(), 3, 300);
    let fleet = NodeFleet::spawn(node_bin(), &FleetConfig::from_live(&cfg)).expect("fleet spawns");
    let addrs = fleet.addrs().to_vec();
    let wrong = fleet.digest() ^ 1;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_live_on(
            "node-digest-mismatch",
            cfg,
            Transport::Remote {
                addrs,
                config_digest: wrong,
            },
        )
    }));
    let forced = fleet.shutdown();
    assert_eq!(forced, 0, "aborted runs still drain the fleet cleanly");
    let err = outcome.expect_err("a digest mismatch must abort the run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(
        msg.contains("digest mismatch"),
        "panic names the handshake failure, got: {msg}"
    );
}

#[test]
fn node_scenarios_run_by_registry_name() {
    let registry = node_registry(node_bin());
    assert!(registry.contains(NODE_HETERO_FLEET));
    assert!(registry.contains(NODE_CRASH_FLUX));
    // Sim and in-process live names ride along untouched.
    assert!(registry.contains(LIVE_HETERO_FLEET));
    assert!(registry.contains("hetero-fleet"));
}

/// The PR 9 hardening claim, re-proved with *real* process deaths: under
/// crash-flux with SIGKILL crashes and supervised respawns, hardened C3
/// keeps its p99 bounded and parks almost nothing. Wall-clock scheduling
/// makes single runs noisy, so the claim must hold on 2 of 3 seeds.
#[test]
fn node_crash_flux_meets_the_hardening_claim() {
    let mut passes = 0;
    let mut observed = Vec::new();
    for seed in [3u64, 5, 7] {
        let params = ScenarioParams::sized(Strategy::c3(), seed, 10_000);
        let cfg = shrink(crash_flux_config(&params).unwrap(), 3, 700);
        assert!(
            cfg.faults
                .events
                .iter()
                .any(|e| e.start < c3_core::Nanos::from_millis(700)),
            "the crash window must fall inside the run"
        );
        let live = run_node(NODE_CRASH_FLUX, cfg, node_bin());
        let issued = live.ops_issued.max(1);
        let parked_fraction = live.lifecycle.parked as f64 / issued as f64;
        let p99_ms = live.report.p99_ms();
        let ok = live.report.total_completions() > 0
            && p99_ms > 0.0
            && p99_ms < 500.0
            && parked_fraction < 0.01;
        observed.push(format!(
            "seed {seed}: p99 {p99_ms:.2} ms, parked {:.3}% ({} of {} issued), reconnects {}",
            parked_fraction * 100.0,
            live.lifecycle.parked,
            issued,
            live.reconnects,
        ));
        if ok {
            passes += 1;
        }
    }
    assert!(
        passes >= 2,
        "hardened C3 must meet the crash-flux claim on 2 of 3 seeds:\n{}",
        observed.join("\n")
    );
}
