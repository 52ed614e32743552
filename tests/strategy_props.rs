//! Property tests over strategy names (via the proptest shim): every
//! built-in name resolves, resolution is case-stable, two selectors built
//! from the same name behave identically on a shared replay trace, and
//! each `Selector` variant dispatches exactly as its bare type does.

use c3::core::strategies::{
    LeastOutstanding, LeastResponseTime, NearestRank, PowerOfTwoChoices, PrimaryFirst,
    RoundRobinRate, UniformRandom, WeightedRandom,
};
use c3::core::{
    C3Config, C3Selector, Feedback, Nanos, ReplicaSelector, ReplicaView, ResponseInfo, Selection,
    Selector, SnitchConfig, SnitchSelector,
};
use c3::engine::Strategy;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SERVERS: usize = 6;

fn c3() -> C3Config {
    C3Config::for_clients(10)
}

fn build(name: &str, seed: u64) -> Option<Selector> {
    Strategy::named(name)
        .build(SERVERS, c3(), seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The selection made at one step of a replay trace.
#[derive(Debug, PartialEq)]
enum Decision {
    Sent(usize),
    Backpressure(Nanos),
}

/// One step as the driver observes it: the decision, then every
/// replica's view (as bit patterns, so `NaN` compares equal).
type Observation = (Decision, Vec<Option<[u64; 6]>>);

fn view_bits(view: Option<ReplicaView>) -> Option<[u64; 6]> {
    view.map(|v| {
        [
            v.score.to_bits(),
            v.fresh_score.to_bits(),
            v.ewma_latency_ms.to_bits(),
            v.ewma_queue.to_bits(),
            u64::from(v.outstanding),
            v.srate.to_bits(),
        ]
    })
}

/// Drive a selector through a deterministic trace derived from
/// `$trace_seed`: rotating replica groups, per-step response times and
/// piggybacked feedback, and one send in four abandoned instead of
/// answered. A macro, so one body drives both the `Selector` enum (its
/// inherent methods) and a bare strategy type (the `ReplicaSelector`
/// methods).
macro_rules! observe {
    ($selector:expr, $steps:expr, $trace_seed:expr) => {{
        let selector = $selector;
        let mut rng = SmallRng::seed_from_u64($trace_seed);
        let mut seen: Vec<Observation> = Vec::with_capacity($steps);
        for step in 0..$steps {
            let now = Nanos::from_micros(500 * (step as u64 + 1));
            let g = rng.gen_range(0..SERVERS);
            let group: Vec<usize> = (0..3).map(|k| (g + k) % SERVERS).collect();
            // Draw every step's randomness up front so the sent and the
            // backpressured paths stay aligned across replays.
            let feedback = Feedback::new(
                rng.gen_range(0u32..12),
                Nanos::from_micros(rng.gen_range(200u64..8_000)),
            );
            let response_time = Nanos::from_micros(rng.gen_range(300u64..20_000));
            let abandon = rng.gen_range(0u32..4) == 0;
            let decision = match selector.select(&group, now) {
                Selection::Server(server) => {
                    selector.on_send(server, now);
                    if abandon {
                        selector.on_abandoned(server, now);
                    } else {
                        let info = ResponseInfo {
                            response_time,
                            feedback: Some(feedback),
                        };
                        selector.on_response(server, &info, now);
                    }
                    Decision::Sent(server)
                }
                Selection::Backpressure { retry_at } => Decision::Backpressure(retry_at),
            };
            let views = (0..SERVERS)
                .map(|s| view_bits(selector.replica_view(s)))
                .collect();
            seen.push((decision, views));
        }
        seen
    }};
}

fn replay(selector: &mut Selector, steps: usize, trace_seed: u64) -> Vec<Observation> {
    observe!(selector, steps, trace_seed)
}

/// Every fixed name, plus a few members of the `C3-b{n}` family.
fn all_names() -> Vec<String> {
    let mut names: Vec<String> = Strategy::BUILTIN.map(String::from).to_vec();
    names.extend(["C3-b1", "C3-b2", "C3-b4"].map(String::from));
    names
}

proptest! {
    /// Every name resolves — client-local strategies to a working
    /// selector, the simulator-global `ORA` to no selector — and
    /// `is_known` agrees with `build`.
    #[test]
    fn every_registered_name_resolves(seed in 0u64..1_000) {
        for name in all_names() {
            let strategy = Strategy::named(name.clone());
            prop_assert!(strategy.is_known(), "{name} not known");
            match strategy.build(SERVERS, c3(), seed) {
                Ok(Some(s)) => prop_assert!(!s.name().is_empty(), "{name} has no label"),
                Ok(None) => prop_assert!(strategy.is_oracle(), "only ORA may be global: {name}"),
                Err(e) => prop_assert!(false, "{name} failed to build: {e}"),
            }
        }
    }

    /// Resolution is case-stable: a name round-trips through
    /// `Strategy::named` unchanged, repeated lookups agree, and no two
    /// names collide when case is folded — so a name is never one
    /// case-flip away from silently resolving to a different strategy.
    #[test]
    fn resolution_is_case_stable(seed in 0u64..1_000) {
        let names = all_names();
        for name in &names {
            let a = Strategy::named(name.clone());
            let b = Strategy::named(name.to_string());
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.name(), name.as_str());
            prop_assert_eq!(a.label(), name.as_str());
            prop_assert_eq!(a.is_known(), b.is_known());
            prop_assert_eq!(
                a.build(SERVERS, c3(), seed).is_ok(),
                b.build(SERVERS, c3(), seed).is_ok()
            );
        }
        for (i, x) in names.iter().enumerate() {
            for y in &names[i + 1..] {
                prop_assert!(
                    x.to_lowercase() != y.to_lowercase(),
                    "names {x:?} and {y:?} collide under case folding"
                );
            }
        }
    }

    /// Two selectors built from the same name (and the same client seed)
    /// make identical choices on a shared replay trace — resolution has no
    /// hidden per-build state.
    #[test]
    fn same_name_same_choices_on_shared_trace(
        seed in 0u64..10_000,
        trace_seed in 0u64..10_000,
        steps in 1usize..200,
    ) {
        for name in all_names() {
            let (Some(mut first), Some(mut second)) = (build(&name, seed), build(&name, seed))
            else {
                prop_assert!(build(&name, seed).is_none(), "{name} resolved to different kinds");
                continue;
            };
            let a = replay(&mut first, steps, trace_seed);
            let b = replay(&mut second, steps, trace_seed);
            prop_assert_eq!(a, b, "{} diverged on the shared trace", name);
        }
    }

    /// Each name's `Selector` and the bare type it should wrap, built
    /// alike, make the same decisions and expose the same replica views
    /// at every step of one trace (abandons included): a mis-wired
    /// dispatch arm or name fails here.
    #[test]
    fn selector_dispatch_matches_the_bare_type(
        seed in 0u64..10_000,
        trace_seed in 0u64..10_000,
    ) {
        const STEPS: usize = 150;
        macro_rules! parity {
            ($name:expr, $bare:expr) => {{
                let mut bare = $bare;
                let mut selector = build($name, seed).expect("a client-local selector");
                prop_assert_eq!(selector.name(), ReplicaSelector::name(&bare));
                prop_assert_eq!(
                    replay(&mut selector, STEPS, trace_seed),
                    observe!(&mut bare, STEPS, trace_seed),
                    "{} dispatches differently from its bare type",
                    $name
                );
            }};
        }
        let c3 = c3();
        parity!("C3", C3Selector::new(SERVERS, c3, Nanos::ZERO));
        parity!("C3-noRC", C3Selector::new(SERVERS, c3.without_rate_control(), Nanos::ZERO));
        parity!(
            "C3-noCC",
            C3Selector::new(SERVERS, c3.without_concurrency_compensation(), Nanos::ZERO)
        );
        parity!("C3-b2", C3Selector::new(SERVERS, c3.with_queue_exponent(2), Nanos::ZERO));
        parity!("LOR", LeastOutstanding::new(SERVERS, seed));
        parity!("RR", RoundRobinRate::new(SERVERS, &c3, Nanos::ZERO));
        parity!("Random", UniformRandom::new(seed));
        parity!("LRT", LeastResponseTime::new(SERVERS, c3.ewma_alpha, seed));
        parity!("WRand", WeightedRandom::new(SERVERS, c3.ewma_alpha, seed));
        parity!("P2C", PowerOfTwoChoices::new(SERVERS, seed));
        parity!("Primary", PrimaryFirst::new());
        parity!("Nearest", NearestRank::new(SERVERS, seed));
        parity!("DS", SnitchSelector::new(SERVERS, SnitchConfig::default()));
    }
}
