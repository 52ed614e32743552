//! Cross-crate integration tests: the headline claims of the paper must
//! hold end-to-end through the full stack (workload → simulator/cluster →
//! metrics), and runs must be reproducible.

use c3::cluster::{Cluster, ClusterConfig};
use c3::core::Nanos;
use c3::engine::Strategy;
use c3::sim::{SimConfig, Simulation};
use c3::workload::WorkloadMix;

fn sim_cfg(strategy: Strategy) -> SimConfig {
    SimConfig {
        servers: 20,
        clients: 50,
        generators: 50,
        total_requests: 60_000,
        fluctuation_interval: Nanos::from_millis(300),
        strategy,
        seed: 5,
        ..SimConfig::default()
    }
}

fn cluster_cfg(strategy: Strategy) -> ClusterConfig {
    ClusterConfig {
        total_ops: 60_000,
        warmup_ops: 5_000,
        seed: 5,
        ..ClusterConfig::paper(strategy, WorkloadMix::read_heavy())
    }
}

#[test]
fn c3_beats_lor_at_the_tail_in_the_simulator() {
    // The paper's central §6 claim at slow fluctuations (Figure 14).
    let c3 = Simulation::new(sim_cfg(Strategy::c3())).run();
    let lor = Simulation::new(sim_cfg(Strategy::lor())).run();
    assert!(
        c3.summary().p99_ns < lor.summary().p99_ns,
        "C3 p99 {} must beat LOR p99 {}",
        c3.summary().p99_ns,
        lor.summary().p99_ns
    );
}

#[test]
fn oracle_upper_bounds_c3() {
    let ora = Simulation::new(sim_cfg(Strategy::oracle())).run();
    let c3 = Simulation::new(sim_cfg(Strategy::c3())).run();
    assert!(
        ora.summary().p99_ns <= c3.summary().p99_ns,
        "the oracle cannot lose to C3"
    );
}

#[test]
fn c3_beats_dynamic_snitching_in_the_cluster() {
    // The paper's central §5 claims: better tail AND better throughput.
    // p99.9 over a 55k-op run rests on ~55 samples, so the tail claim is
    // checked on the mean across three seeds rather than a single draw.
    let run = |strategy: Strategy, seed: u64| {
        let mut cfg = cluster_cfg(strategy);
        cfg.seed = seed;
        Cluster::new(cfg).run()
    };
    let mut c3_p999 = 0.0;
    let mut ds_p999 = 0.0;
    for seed in [1u64, 2, 3] {
        let c3 = run(Strategy::c3(), seed);
        let ds = run(Strategy::dynamic_snitching(), seed);
        c3_p999 += c3.summary().p999_ns as f64 / 3.0;
        ds_p999 += ds.summary().p999_ns as f64 / 3.0;
        assert!(
            c3.summary().p99_ns < ds.summary().p99_ns,
            "seed {seed}: C3 p99 {} must beat DS p99 {}",
            c3.summary().p99_ns,
            ds.summary().p99_ns
        );
        assert!(
            c3.read_throughput() > ds.read_throughput(),
            "seed {seed}: C3 throughput {} must beat DS {}",
            c3.read_throughput(),
            ds.read_throughput()
        );
    }
    assert!(
        c3_p999 < ds_p999,
        "C3 mean p99.9 {c3_p999} must beat DS mean p99.9 {ds_p999}"
    );
}

#[test]
fn c3_conditions_load_better_than_ds() {
    // Figure 8: the busiest node under C3 serves a narrower load band.
    let c3 = Cluster::new(cluster_cfg(Strategy::c3())).run();
    let ds = Cluster::new(cluster_cfg(Strategy::dynamic_snitching())).run();
    let spread = |res: &c3::cluster::ClusterResult| {
        let w = &res.server_load[res.busiest_node()];
        let e = c3::metrics::Ecdf::from_samples(w.counts().to_vec());
        e.quantile(0.99).saturating_sub(e.quantile(0.5))
    };
    assert!(
        spread(&c3) < spread(&ds),
        "C3 load spread {} must be narrower than DS {}",
        spread(&c3),
        spread(&ds)
    );
}

/// Bit-identical comparison of two latency summaries (including the f64
/// mean, compared by bits, not tolerance).
fn assert_summaries_identical(a: &c3::metrics::LatencySummary, b: &c3::metrics::LatencySummary) {
    assert_eq!(a.count, b.count);
    assert_eq!(a.mean_ns.to_bits(), b.mean_ns.to_bits(), "mean differs");
    assert_eq!(a.p50_ns, b.p50_ns);
    assert_eq!(a.p95_ns, b.p95_ns);
    assert_eq!(a.p99_ns, b.p99_ns);
    assert_eq!(a.p999_ns, b.p999_ns);
    assert_eq!(a.max_ns, b.max_ns);
}

#[test]
fn simulator_and_cluster_are_deterministic_end_to_end() {
    // Same seed + same scenario ⇒ bit-identical latency summaries, event
    // counts and durations across independent runs of both frontends.
    let a = Simulation::new(sim_cfg(Strategy::c3())).run();
    let b = Simulation::new(sim_cfg(Strategy::c3())).run();
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.duration, b.duration);
    assert_summaries_identical(&a.summary(), &b.summary());

    let x = Cluster::new(cluster_cfg(Strategy::c3())).run();
    let y = Cluster::new(cluster_cfg(Strategy::c3())).run();
    assert_eq!(x.events_processed, y.events_processed);
    assert_eq!(x.duration, y.duration);
    assert_summaries_identical(&x.summary(), &y.summary());
    assert_summaries_identical(
        &c3::metrics::LatencySummary::from_histogram(&x.update_latency),
        &c3::metrics::LatencySummary::from_histogram(&y.update_latency),
    );
}

#[test]
fn scenario_runner_matches_legacy_entry_point() {
    // The §6 scenario driven explicitly through the engine's
    // ScenarioRunner must reproduce `Simulation::run()` bit-for-bit.
    use c3::engine::{ScenarioRunner, SeedSeq};
    use c3::sim::SimScenario;

    let cfg = sim_cfg(Strategy::c3());
    let legacy = Simulation::new(cfg.clone()).run();

    let runner = ScenarioRunner::new(cfg.seed).with_warmup(cfg.warmup_requests);
    assert_eq!(runner.seeds(), &SeedSeq::new(cfg.seed));
    let mut scenario = SimScenario::new(cfg.clone());
    let (metrics, stats) = runner.run(&mut scenario, cfg.servers, cfg.load_window);
    let via_runner = scenario.into_result(metrics, stats);

    assert_eq!(via_runner.completed, legacy.completed);
    assert_eq!(via_runner.events_processed, legacy.events_processed);
    assert_eq!(via_runner.duration, legacy.duration);
    assert_eq!(
        via_runner.backpressure_activations,
        legacy.backpressure_activations
    );
    assert_summaries_identical(&via_runner.summary(), &legacy.summary());
}

#[test]
fn latency_includes_backpressure_time() {
    // With a severely under-provisioned rate cap (and growth effectively
    // frozen via a tiny s_max), C3 must park requests in backlog queues
    // and the recorded latencies must include that waiting time.
    let mut constrained = sim_cfg(Strategy::c3());
    constrained.clients = 5; // concentrate demand: ~5.6 req/δ per server pair
    constrained.c3.initial_rate = 2.0;
    constrained.c3.min_rate = 1.0;
    constrained.c3.smax = 0.2;
    constrained.total_requests = 20_000;
    let mut unconstrained = sim_cfg(Strategy::c3());
    unconstrained.clients = 5;
    unconstrained.total_requests = 20_000;
    let tight = Simulation::new(constrained).run();
    let free = Simulation::new(unconstrained).run();
    assert!(tight.backpressure_activations > free.backpressure_activations);
    assert!(
        tight.summary().mean_ns > free.summary().mean_ns,
        "a binding rate cap must show up in recorded latency: {} vs {}",
        tight.summary().mean_ns,
        free.summary().mean_ns
    );
}

#[test]
fn update_heavy_cluster_serves_both_kinds() {
    let mut cfg = cluster_cfg(Strategy::c3());
    cfg.mix = WorkloadMix::update_heavy();
    let res = Cluster::new(cfg).run();
    assert!(res.reads_completed > 20_000);
    assert!(res.updates_completed > 20_000);
    // Writes are memtable-cheap: their median must undercut reads'.
    assert!(res.update_latency.value_at_quantile(0.5) < res.read_latency.value_at_quantile(0.5));
}

#[test]
fn scenario_library_runs_are_bit_identical_across_repeats_and_thread_counts() {
    // Every scenario in the library must produce bit-identical RunMetrics
    // summaries (the fingerprint hashes every percentile, the f64 mean and
    // throughput by bits, and the kernel event counts) across repeated
    // runs AND across `run_all` fan-out thread counts (1 vs 4).
    use c3::scenarios::ScenarioRegistry;

    let reg = ScenarioRegistry::with_defaults();
    let names = reg.names();
    let strategies = [Strategy::c3(), Strategy::lor()];
    let seeds = [1u64, 2];
    let sweep = |threads: usize| -> Vec<u64> {
        reg.sweep(&names, &strategies, &seeds, 3_000, threads)
            .into_iter()
            .map(|r| r.expect("all cells supported").fingerprint())
            .collect()
    };
    let serial = sweep(1);
    assert_eq!(serial.len(), names.len() * strategies.len() * seeds.len());
    assert_eq!(serial, sweep(4), "thread count must not change results");
    assert_eq!(serial, sweep(1), "repeated runs must be bit-identical");
}

#[test]
fn parallel_run_all_matches_serial_for_the_simulator() {
    // The engine-level fan-out applied to a real frontend: per-seed §6
    // runs through `ScenarioRunner::run_all` are bit-identical whether
    // computed on one thread or four.
    use c3::engine::ScenarioRunner;

    let job = |runner: c3::engine::ScenarioRunner| {
        let mut cfg = sim_cfg(Strategy::c3());
        cfg.total_requests = 5_000;
        cfg.seed = runner.seeds().seed();
        let res = Simulation::new(cfg).run();
        (
            res.seed,
            res.events_processed,
            res.summary().p99_ns,
            res.summary().mean_ns.to_bits(),
        )
    };
    let seeds = [5u64, 6, 7, 8];
    let serial = ScenarioRunner::run_all(&seeds, 1, job);
    let parallel = ScenarioRunner::run_all(&seeds, 4, job);
    assert_eq!(serial, parallel);
}

#[test]
fn read_repair_disabled_still_completes() {
    let mut cfg = cluster_cfg(Strategy::c3());
    cfg.read_repair_prob = 0.0;
    cfg.total_ops = 20_000;
    cfg.warmup_ops = 1_000;
    let res = Cluster::new(cfg).run();
    assert_eq!(res.reads_completed + res.updates_completed, 19_000);
}
