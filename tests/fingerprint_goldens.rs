//! Determinism goldens: the exact `ScenarioReport` fingerprints of every
//! registry strategy × scenario cell, pinned as constants.
//!
//! The zero-allocation rewrite of the selector and metrics hot paths (PR 4)
//! must not change a single decision: scratch buffers replace `collect()`ed
//! vectors and the C3 ranking sort became a compute-once top-k pick, but
//! the visit order, RNG streams and recorded latencies stay bit-identical.
//! These goldens were captured *before* that rewrite and the suite asserts
//! the rewritten code reproduces them exactly — any change to a fingerprint
//! here means the hot-path "optimization" silently changed results.
//!
//! Regenerate (after an *intentional* behaviour change only) with:
//!
//! ```sh
//! cargo test --release --test fingerprint_goldens -- --ignored print_goldens --nocapture
//! ```

use c3::engine::Strategy;
use c3::scenarios::{ScenarioParams, ScenarioRegistry};

/// Scale of the golden runs: small enough to keep the suite quick, large
/// enough that every strategy exercises scoring, rate control and (for C3)
/// backpressure.
const OPS: u64 = 3_000;
const SEED: u64 = 1;

/// Fingerprint of one cell, or the marker for unsupported combinations
/// (ORA needs simulator-global state only multi-tenant provides).
const UNSUPPORTED: u64 = 0;

/// Compute the full strategy × scenario fingerprint matrix, in the
/// deterministic order `scenario (registry order) × strategy (registry
/// order)`.
fn compute_cells() -> Vec<(String, u64)> {
    let scenarios = ScenarioRegistry::with_defaults();
    let mut out = Vec::new();
    for scenario in scenarios.names() {
        for strategy in Strategy::BUILTIN {
            let params = ScenarioParams::sized(Strategy::named(strategy), SEED, OPS);
            let fp = match scenarios.run(scenario, &params) {
                Ok(report) => report.fingerprint(),
                Err(_) => UNSUPPORTED,
            };
            out.push((format!("{scenario}/{strategy}"), fp));
        }
    }
    out
}

/// Digest of a §6 simulator run: everything the selector rewrite could
/// plausibly disturb (event count, completion count, latency percentiles,
/// the f64 mean by bits).
fn sim_digest(strategy: Strategy) -> SimDigest {
    use c3::core::Nanos;
    use c3::sim::{SimConfig, Simulation};
    let cfg = SimConfig {
        servers: 10,
        clients: 20,
        generators: 20,
        total_requests: 5_000,
        fluctuation_interval: Nanos::from_millis(100),
        strategy,
        seed: 7,
        ..SimConfig::default()
    };
    let res = Simulation::new(cfg).run();
    let s = res.summary();
    (
        res.events_processed,
        s.count,
        s.p50_ns,
        s.p999_ns,
        s.mean_ns.to_bits(),
    )
}

/// Digest of a §5 cluster run (covers DS and the coordinator path).
fn cluster_digest(strategy: Strategy) -> ClusterDigest {
    use c3::cluster::{Cluster, ClusterConfig};
    let cfg = ClusterConfig {
        nodes: 9,
        generators: 30,
        total_ops: 6_000,
        warmup_ops: 500,
        keys: 100_000,
        strategy,
        seed: 11,
        ..ClusterConfig::default()
    };
    let res = Cluster::new(cfg).run();
    (
        res.events_processed,
        res.reads_completed,
        res.read_latency.value_at_quantile(0.99),
        res.summary().mean_ns.to_bits(),
    )
}

/// Print the current values in golden-table form (regeneration helper).
#[test]
#[ignore]
fn print_goldens() {
    println!("const SCENARIO_GOLDENS: &[(&str, u64)] = &[");
    for (cell, fp) in compute_cells() {
        println!("    (\"{cell}\", {fp}),");
    }
    println!("];");
    for s in SIM_STRATEGIES {
        println!("sim {s}: {:?}", sim_digest(Strategy::named(*s)));
    }
    for s in CLUSTER_STRATEGIES {
        println!("cluster {s}: {:?}", cluster_digest(Strategy::named(*s)));
    }
}

const SIM_STRATEGIES: &[&str] = &["C3", "LOR", "LRT", "WRand", "P2C", "ORA"];
const CLUSTER_STRATEGIES: &[&str] = &["C3", "DS", "LOR"];

/// `(events_processed, count, p50, p99.9, mean_bits)` of a pinned sim run.
type SimDigest = (u64, u64, u64, u64, u64);
/// `(events_processed, reads, p99, mean_bits)` of a pinned cluster run.
type ClusterDigest = (u64, u64, u64, u64);

// ---- goldens captured before the zero-allocation rewrite -----------------
// (mega-fleet rows pinned at that scenario's introduction, alongside the
// three-tier kernel; crash-flux/flaky-net rows pinned at the
// request-lifecycle hardening's introduction; every older row is
// bit-identical across all three changes)

const SCENARIO_GOLDENS: &[(&str, u64)] = &[
    ("crash-flux/C3", 2043877774330935434),
    ("crash-flux/C3-noCC", 6431961928732625900),
    ("crash-flux/C3-noRC", 15002264132766175299),
    ("crash-flux/DS", 13093105039088276574),
    ("crash-flux/LOR", 14827472713032882375),
    ("crash-flux/LRT", 17154799870675725317),
    ("crash-flux/Nearest", 14533448508562729873),
    ("crash-flux/ORA", 0),
    ("crash-flux/P2C", 16626941724014691916),
    ("crash-flux/Primary", 12649903060600385671),
    ("crash-flux/RR", 16775129784544419603),
    ("crash-flux/Random", 11176400021246524490),
    ("crash-flux/WRand", 5713682082301649854),
    ("flaky-net/C3", 4031593305840699500),
    ("flaky-net/C3-noCC", 5394718398890976770),
    ("flaky-net/C3-noRC", 3207569583367091303),
    ("flaky-net/DS", 12758352570785813365),
    ("flaky-net/LOR", 1372026281614900520),
    ("flaky-net/LRT", 12931143494619906874),
    ("flaky-net/Nearest", 4492042859659148074),
    ("flaky-net/ORA", 0),
    ("flaky-net/P2C", 9298709928205131138),
    ("flaky-net/Primary", 3093964459137379615),
    ("flaky-net/RR", 5298536402458944883),
    ("flaky-net/Random", 17800054528881913395),
    ("flaky-net/WRand", 14905555092383374880),
    ("hetero-fleet/C3", 7050262698758109882),
    ("hetero-fleet/C3-noCC", 18279527324888245155),
    ("hetero-fleet/C3-noRC", 6772007575759189173),
    ("hetero-fleet/DS", 12470303762323777609),
    ("hetero-fleet/LOR", 8634786776414953962),
    ("hetero-fleet/LRT", 17785240299269616365),
    ("hetero-fleet/Nearest", 3997859243813752226),
    ("hetero-fleet/ORA", 0),
    ("hetero-fleet/P2C", 5218330690618766646),
    ("hetero-fleet/Primary", 5310932635249755573),
    ("hetero-fleet/RR", 4413659735633985249),
    ("hetero-fleet/Random", 1819907086238340354),
    ("hetero-fleet/WRand", 12106456419154545558),
    ("mega-fleet/C3", 3328357399988597455),
    ("mega-fleet/C3-noCC", 17322654640519654979),
    ("mega-fleet/C3-noRC", 1418286848514427208),
    ("mega-fleet/DS", 1203729500023910457),
    ("mega-fleet/LOR", 7597553776627808979),
    ("mega-fleet/LRT", 6562588991307864533),
    ("mega-fleet/Nearest", 18121773560648049824),
    ("mega-fleet/ORA", 9407041454031528839),
    ("mega-fleet/P2C", 17284629313583644851),
    ("mega-fleet/Primary", 3444066750861978085),
    ("mega-fleet/RR", 6277884077171246735),
    ("mega-fleet/Random", 8084691762338802668),
    ("mega-fleet/WRand", 10175098223761098140),
    ("multi-tenant/C3", 10320501728810496735),
    ("multi-tenant/C3-noCC", 7899227759370894826),
    ("multi-tenant/C3-noRC", 5198472214331896130),
    ("multi-tenant/DS", 17202452324515092241),
    ("multi-tenant/LOR", 11654545539142169525),
    ("multi-tenant/LRT", 15499363093663498861),
    ("multi-tenant/Nearest", 2065886965480563253),
    ("multi-tenant/ORA", 3503402422760651018),
    ("multi-tenant/P2C", 15726202817119232887),
    ("multi-tenant/Primary", 15248606952415660072),
    ("multi-tenant/RR", 6273110374646841913),
    ("multi-tenant/Random", 14776009371306420071),
    ("multi-tenant/WRand", 1758633105657830692),
    ("partition-flux/C3", 11418462125612477239),
    ("partition-flux/C3-noCC", 3671199638997418444),
    ("partition-flux/C3-noRC", 10656571227925946722),
    ("partition-flux/DS", 1596460537576233508),
    ("partition-flux/LOR", 4464348325114565251),
    ("partition-flux/LRT", 18027227600460906791),
    ("partition-flux/Nearest", 17901192505746482640),
    ("partition-flux/ORA", 0),
    ("partition-flux/P2C", 8660254727305619737),
    ("partition-flux/Primary", 3533695213404066039),
    ("partition-flux/RR", 6227154151659620025),
    ("partition-flux/Random", 11679460795533047847),
    ("partition-flux/WRand", 11480068889047646183),
];

const SIM_GOLDENS: &[(&str, SimDigest)] = &[
    ("C3", (23128, 5000, 2244608, 31064064, 4705223348656462522)),
    ("LOR", (23131, 5000, 3031040, 42729472, 4709330185231726648)),
    ("LRT", (23131, 5000, 3555328, 95944704, 4710897510025075150)),
    (
        "WRand",
        (23131, 5000, 2899968, 64225280, 4711154031152568100),
    ),
    ("P2C", (23131, 5000, 2801664, 53215232, 4710802122595927222)),
    ("ORA", (23114, 5000, 5799936, 39583744, 4709960860688340065)),
];

const CLUSTER_GOLDENS: &[(&str, ClusterDigest)] = &[
    ("C3", (40831, 5244, 41680896, 4710506973190377938)),
    ("DS", (40883, 5246, 47448064, 4711667718326740203)),
    ("LOR", (40844, 5248, 48496640, 4710766269355645577)),
];

#[test]
fn scenario_fingerprints_match_pre_rewrite_goldens() {
    let got = compute_cells();
    assert_eq!(
        got.len(),
        SCENARIO_GOLDENS.len(),
        "registry shape changed; regenerate the goldens deliberately"
    );
    for ((cell, fp), (gold_cell, gold_fp)) in got.iter().zip(SCENARIO_GOLDENS) {
        assert_eq!(cell, gold_cell, "cell order changed");
        assert_eq!(
            fp, gold_fp,
            "{cell}: fingerprint drifted from the pre-rewrite golden"
        );
    }
}

/// Flight-recorder neutrality: every cell, re-run with a recorder
/// attached, must reproduce the SAME pinned fingerprints as the plain
/// runs — the recorder is purely observational (no RNG draws, no
/// scheduling, read-only selector snapshots), so attaching it cannot
/// move a single decision. A drift here means telemetry changed results.
#[test]
fn scenario_fingerprints_are_recorder_neutral() {
    use c3::telemetry::Recorder;
    let scenarios = ScenarioRegistry::with_defaults();
    let mut traced_cells = 0u32;
    let mut got = Vec::new();
    for scenario in scenarios.names() {
        for strategy in Strategy::BUILTIN {
            let params = ScenarioParams::sized(Strategy::named(strategy), SEED, OPS);
            let fp = match scenarios.run_recorded(
                scenario,
                &params,
                Recorder::with_default_capacity(),
            ) {
                Ok((report, rec)) => {
                    if !rec.is_empty() {
                        traced_cells += 1;
                    }
                    report.fingerprint()
                }
                Err(_) => UNSUPPORTED,
            };
            got.push((format!("{scenario}/{strategy}"), fp));
        }
    }
    assert_eq!(got.len(), SCENARIO_GOLDENS.len(), "registry shape changed");
    for ((cell, fp), (gold_cell, gold_fp)) in got.iter().zip(SCENARIO_GOLDENS) {
        assert_eq!(cell, gold_cell, "cell order changed");
        assert_eq!(
            fp, gold_fp,
            "{cell}: attaching a recorder changed the fingerprint"
        );
    }
    assert!(
        traced_cells > 0,
        "recorder-neutrality must be proven on runs that actually traced"
    );
}

#[test]
fn simulator_digests_match_pre_rewrite_goldens() {
    for (name, gold) in SIM_GOLDENS {
        let got = sim_digest(Strategy::named(*name));
        assert_eq!(&got, gold, "sim {name}: digest drifted");
    }
}

#[test]
fn cluster_digests_match_pre_rewrite_goldens() {
    for (name, gold) in CLUSTER_GOLDENS {
        let got = cluster_digest(Strategy::named(*name));
        assert_eq!(&got, gold, "cluster {name}: digest drifted");
    }
}
