//! Paper-claim test tier: slower, multi-seed assertions of the headline
//! C3-vs-baseline claims under the scenario library's adverse conditions.
//!
//! Ignored by default (they re-run whole scenario sweeps); execute with
//!
//! ```sh
//! cargo test --release --test claims -- --ignored
//! ```
//!
//! Every claim averages at least three seeds — single-seed tails at these
//! run lengths rest on a few dozen samples and can flip on one draw (the
//! same reason the tier-1 DS claim averages three seeds).

use c3::engine::Strategy;
use c3::scenarios::{
    run_fault_flux, FaultFluxConfig, RunOptions, ScenarioParams, ScenarioRegistry, CRASH_FLUX,
    HETERO_FLEET, MULTI_TENANT, PARTITION_FLUX,
};
use c3::telemetry::{attribute_tail, Recorder, TracePoint};

const OPS: u64 = 20_000;

/// The claim seeds: `1..=C3_CLAIM_SEEDS` (default 3). The nightly tier
/// widens the set to harden the averaged claims against single-draw luck.
/// Unset means the default; a set value that is not a positive integer
/// aborts the tier instead of quietly running three seeds.
fn claim_seeds() -> Vec<u64> {
    let value = std::env::var_os("C3_CLAIM_SEEDS").map(|v| v.to_string_lossy().into_owned());
    let n = parse_claim_seeds(value.as_deref()).unwrap_or_else(|e| panic!("{e}"));
    (1..=n).collect()
}

fn parse_claim_seeds(value: Option<&str>) -> Result<u64, String> {
    let Some(v) = value else { return Ok(3) };
    match v.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("C3_CLAIM_SEEDS={v:?}: expected a positive integer")),
    }
}

#[test]
fn claim_seed_count_parses_positive_integers_and_rejects_the_rest() {
    assert_eq!(parse_claim_seeds(None), Ok(3));
    assert_eq!(parse_claim_seeds(Some("5")), Ok(5));
    for bad in ["0", "five", "-1", ""] {
        let err = parse_claim_seeds(Some(bad)).unwrap_err();
        assert!(err.contains("C3_CLAIM_SEEDS") && err.contains(&format!("{bad:?}")));
        assert!(err.contains("positive integer"), "{err}");
    }
}

/// Mean headline-channel p99 (ms) across the claim seeds.
fn mean_p99(reg: &ScenarioRegistry, scenario: &str, strategy: Strategy) -> f64 {
    let seeds = claim_seeds();
    seeds
        .iter()
        .map(|&seed| {
            reg.run(
                scenario,
                &ScenarioParams::sized(strategy.clone(), seed, OPS),
            )
            .unwrap_or_else(|e| panic!("{scenario}/{strategy}: {e}"))
            .p99_ms()
        })
        .sum::<f64>()
        / seeds.len() as f64
}

#[test]
#[ignore = "paper-claim tier: multi-seed scenario sweeps; run with --ignored"]
fn c3_beats_dynamic_snitching_p99_under_partition_flux() {
    // The recovery-path claim: when replicas black out and return, C3's
    // rate control collapses traffic into the hole and re-probes on
    // recovery, while DS's interval-frozen rankings keep herding into the
    // dark node. The paper's §5 advantage must survive — and widen — here.
    let reg = ScenarioRegistry::with_defaults();
    let c3 = mean_p99(&reg, PARTITION_FLUX, Strategy::c3());
    let ds = mean_p99(&reg, PARTITION_FLUX, Strategy::dynamic_snitching());
    assert!(
        c3 < ds,
        "partition-flux: C3 mean p99 {c3:.2} ms must beat DS {ds:.2} ms"
    );
}

#[test]
#[ignore = "paper-claim tier: multi-seed scenario sweeps; run with --ignored"]
fn c3_beats_dynamic_snitching_p99_on_a_heterogeneous_fleet() {
    // Permanent hardware tiers: C3's μ̄-aware ranking must learn the slow
    // tier from feedback and keep the read tail below DS's.
    let reg = ScenarioRegistry::with_defaults();
    let c3 = mean_p99(&reg, HETERO_FLEET, Strategy::c3());
    let ds = mean_p99(&reg, HETERO_FLEET, Strategy::dynamic_snitching());
    assert!(
        c3 < ds,
        "hetero-fleet: C3 mean p99 {c3:.2} ms must beat DS {ds:.2} ms"
    );
}

#[test]
#[ignore = "paper-claim tier: multi-seed scenario sweeps; run with --ignored"]
fn hardening_bounds_every_strategy_under_crash_flux_where_naked_ds_parks() {
    // The robustness headline: a selection strategy alone cannot bound
    // the tail when replicas crash and eat requests — the hardened
    // lifecycle (75 ms deadline, 3 retries, 30 ms hedge) can, for *every*
    // strategy. The bound is the worst retry chain the lifecycle permits
    // (deadline × (1 + retries) plus backoff ≈ 350 ms), with headroom.
    const P99_BOUND_MS: f64 = 400.0;
    let reg = ScenarioRegistry::with_defaults();
    let seeds = claim_seeds();
    for strategy in [
        Strategy::c3(),
        Strategy::dynamic_snitching(),
        Strategy::lor(),
        Strategy::power_of_two(),
        Strategy::primary_only(),
    ] {
        let bounded = seeds
            .iter()
            .filter(|&&seed| {
                let report = reg
                    .run(
                        CRASH_FLUX,
                        &ScenarioParams::sized(strategy.clone(), seed, OPS),
                    )
                    .expect("crash-flux drives every cluster strategy");
                report.p99_ms() < P99_BOUND_MS
            })
            .count();
        assert!(
            bounded * 3 >= seeds.len() * 2,
            "{}: hardened crash-flux p99 must stay under {P99_BOUND_MS} ms \
             on at least 2/3 of seeds, got {bounded}/{}",
            strategy.name(),
            seeds.len()
        );
    }

    // Naked DS — deadline only, no retries, no hedging — parks over 1% of
    // its ops in the crash windows: the PR 6 live-partition-flux zero as a
    // measured mechanism rather than a mystery.
    let mut parked_frac_sum = 0.0;
    for &seed in &seeds {
        let mut naked = FaultFluxConfig::crash_flux();
        naked.lifecycle.retries = 0;
        naked.lifecycle.hedge_after = None;
        naked.cluster.strategy = Strategy::dynamic_snitching();
        naked.cluster.seed = seed;
        naked.cluster.total_ops = OPS;
        naked.cluster.warmup_ops = OPS / 20;
        let report = run_fault_flux(&naked, RunOptions::default()).report;
        let ops = report.total_completions() + report.parked;
        parked_frac_sum += report.parked as f64 / ops as f64;
    }
    let mean_parked = parked_frac_sum / seeds.len() as f64;
    assert!(
        mean_parked > 0.01,
        "naked DS must park >1% of crash-flux ops, parked {:.3}%",
        mean_parked * 100.0
    );
}

#[test]
#[ignore = "paper-claim tier: multi-seed scenario sweeps; run with --ignored"]
fn hedging_ledger_appears_in_crash_flux_tail_attribution() {
    // The hedge cost/benefit must be measurable, not just asserted: the
    // recorder's lifecycle events land in `attribute_tail`'s hedging
    // ledger (issues, wins, latency bought back vs duplicate service
    // burned), and the worst requests carry timeout/retry/hedge events —
    // what `trace_explain` prints for this scenario.
    let reg = ScenarioRegistry::with_defaults();
    let params = ScenarioParams::sized(Strategy::c3(), 1, OPS);
    let (_report, rec) = reg
        .run_recorded(CRASH_FLUX, &params, Recorder::new(256 * 1024))
        .expect("crash-flux supports C3");
    let (mut timeouts, mut retries, mut hedge_issues) = (0u64, 0u64, 0u64);
    for ev in rec.events() {
        match ev.point {
            TracePoint::Timeout { .. } => timeouts += 1,
            TracePoint::Retry { .. } => retries += 1,
            TracePoint::HedgeIssue { .. } => hedge_issues += 1,
            _ => {}
        }
    }
    assert!(timeouts > 0, "crash windows must expire deadlines");
    assert!(retries > 0, "expired reads must retry");
    assert!(hedge_issues > 0, "slow reads must hedge");

    let attr = attribute_tail(rec.events(), CRASH_FLUX, "C3", 0.99);
    assert!(attr.joined > 0, "lifecycles must join");
    assert!(attr.hedges > 0, "the ledger must count hedge issues");
    assert!(
        attr.hedge_wins > 0,
        "some hedges must win the race under crash-flux"
    );
    assert!(
        attr.mean_hedge_saved_ns.is_finite() || attr.hedge_rescues > 0,
        "hedge benefit must be measured: saved {} ns, rescues {}",
        attr.mean_hedge_saved_ns,
        attr.hedge_rescues
    );
}

#[test]
#[ignore = "paper-claim tier: multi-seed scenario sweeps; run with --ignored"]
fn c3_protects_the_interactive_tenant_against_dynamic_snitching() {
    // Multi-tenant: the latency-sensitive tenant's own named channel —
    // not just the aggregate — must be better off under C3 than DS.
    let reg = ScenarioRegistry::with_defaults();
    let tenant_p99 = |strategy: Strategy| -> f64 {
        let seeds = claim_seeds();
        seeds
            .iter()
            .map(|&seed| {
                reg.run(
                    MULTI_TENANT,
                    &ScenarioParams::sized(strategy.clone(), seed, OPS),
                )
                .expect("supported")
                .channel("interactive")
                .expect("named tenant channel")
                .summary
                .metric_ms("p99")
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let c3 = tenant_p99(Strategy::c3());
    let ds = tenant_p99(Strategy::dynamic_snitching());
    assert!(
        c3 < ds,
        "multi-tenant interactive channel: C3 mean p99 {c3:.2} ms must beat DS {ds:.2} ms"
    );
}
