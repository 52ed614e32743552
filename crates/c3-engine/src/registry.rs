//! Strategy names, resolved in one place.
//!
//! Every replica-selection strategy in the workspace is reachable by name:
//! the C3 family (including its ablations and the parameterized `C3-b{n}`
//! queue-exponent variants), every client-local baseline from
//! `c3_core::strategies`, and Dynamic Snitching. [`Strategy::build`] turns
//! a name into the matching [`Selector`] variant with one `match`. The §6
//! Oracle is the one strategy that is not a client-side selector at all —
//! it reads global simulator state — so it builds to `None` and the
//! frontend supplies the global view.

use std::fmt;

use c3_core::strategies::{
    LeastOutstanding, LeastResponseTime, NearestRank, PowerOfTwoChoices, PrimaryFirst,
    RoundRobinRate, UniformRandom, WeightedRandom,
};
use c3_core::{C3Config, C3Selector, Nanos, Selector, SnitchConfig, SnitchSelector};

use crate::runner::SeedSeq;

/// A replica-selection strategy, referenced by name.
///
/// A `Strategy` is just a name that [`Strategy::build`] resolves to a
/// [`Selector`], so frontends, benches, examples and command lines all
/// speak the same vocabulary.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Strategy(String);

impl Strategy {
    /// Every fixed name, sorted. `C3-b{n}` (1 ≤ n ≤ `i32::MAX`, written
    /// without sign or leading zeros) resolves too.
    pub const BUILTIN: [&'static str; 13] = [
        "C3", "C3-noCC", "C3-noRC", "DS", "LOR", "LRT", "Nearest", "ORA", "P2C", "Primary", "RR",
        "Random", "WRand",
    ];

    /// A strategy by name (e.g. `"C3"`, `"DS"`, `"LOR"`).
    pub fn named(name: impl Into<String>) -> Self {
        Strategy(name.into())
    }

    /// Full C3: cubic ranking + rate control + backpressure.
    pub fn c3() -> Self {
        Self::named("C3")
    }

    /// The §6 Oracle (instantaneous global `q/μ` knowledge).
    pub fn oracle() -> Self {
        Self::named("ORA")
    }

    /// Least-outstanding-requests.
    pub fn lor() -> Self {
        Self::named("LOR")
    }

    /// Rate-limited round-robin (C3's rate control without ranking).
    pub fn round_robin() -> Self {
        Self::named("RR")
    }

    /// Uniform random.
    pub fn random() -> Self {
        Self::named("Random")
    }

    /// Least EWMA response time.
    pub fn least_response_time() -> Self {
        Self::named("LRT")
    }

    /// Response-time-weighted random.
    pub fn weighted_random() -> Self {
        Self::named("WRand")
    }

    /// Power-of-two-choices on outstanding requests.
    pub fn power_of_two() -> Self {
        Self::named("P2C")
    }

    /// C3 without the rate-control component (ablation).
    pub fn c3_no_rate_control() -> Self {
        Self::named("C3-noRC")
    }

    /// C3 without concurrency compensation (ablation).
    pub fn c3_no_concurrency_comp() -> Self {
        Self::named("C3-noCC")
    }

    /// C3 with queue exponent `b` (b = 3 is C3 itself).
    pub fn c3_exponent(b: u32) -> Self {
        Self::named(format!("C3-b{b}"))
    }

    /// Cassandra's Dynamic Snitching.
    pub fn dynamic_snitching() -> Self {
        Self::named("DS")
    }

    /// Always read from the primary replica (OpenStack Swift style).
    pub fn primary_only() -> Self {
        Self::named("Primary")
    }

    /// Statically nearest replica (MongoDB nearest-member style).
    pub fn nearest_node() -> Self {
        Self::named("Nearest")
    }

    /// The name (also the display label used in tables).
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Alias of [`Strategy::name`], matching the old enums' `label()`.
    pub fn label(&self) -> &str {
        &self.0
    }

    /// Whether this is the simulator-global Oracle.
    pub fn is_oracle(&self) -> bool {
        self.0 == "ORA"
    }

    /// Whether the name resolves.
    pub fn is_known(&self) -> bool {
        Self::BUILTIN.contains(&self.name()) || parse_exponent(self.name()).is_some()
    }

    /// Build this strategy's selector over `servers` servers: C3 (and the
    /// baselines' rate and EWMA parameters) from `c3`, randomness from
    /// `seed`, Dynamic Snitching with [`SnitchConfig::default`]. `Ok(None)`
    /// is the Oracle: the frontend supplies the global view itself.
    pub fn build(
        &self,
        servers: usize,
        c3: C3Config,
        seed: u64,
    ) -> Result<Option<Selector>, UnknownStrategy> {
        let c3_with = |cfg| Selector::C3(C3Selector::new(servers, cfg, Nanos::ZERO));
        Ok(Some(match self.name() {
            "C3" => c3_with(c3),
            "C3-noRC" => c3_with(c3.without_rate_control()),
            "C3-noCC" => c3_with(c3.without_concurrency_compensation()),
            "LOR" => Selector::Lor(LeastOutstanding::new(servers, seed)),
            "RR" => Selector::Rr(RoundRobinRate::new(servers, &c3, Nanos::ZERO)),
            "Random" => Selector::Random(UniformRandom::new(seed)),
            "LRT" => Selector::Lrt(LeastResponseTime::new(servers, c3.ewma_alpha, seed)),
            "WRand" => Selector::WRand(WeightedRandom::new(servers, c3.ewma_alpha, seed)),
            "P2C" => Selector::P2c(PowerOfTwoChoices::new(servers, seed)),
            "Primary" => Selector::Primary(PrimaryFirst::new()),
            "Nearest" => Selector::Nearest(NearestRank::new(servers, seed)),
            "DS" => Selector::Ds(SnitchSelector::new(servers, SnitchConfig::default())),
            "ORA" => return Ok(None),
            name => match parse_exponent(name) {
                Some(b) => c3_with(c3.with_queue_exponent(b)),
                None => return Err(UnknownStrategy(name.to_string())),
            },
        }))
    }

    /// Build selector instance `index` for a frontend that keeps one
    /// selector per client (or coordinator, or shard), seeding the
    /// instance's randomness from the seed sequence's per-client seed.
    /// `None` is the Oracle.
    ///
    /// # Panics
    ///
    /// Panics when the name does not resolve.
    pub fn build_client(
        &self,
        servers: usize,
        c3: C3Config,
        seeds: &SeedSeq,
        index: usize,
    ) -> Option<Selector> {
        self.build(servers, c3, seeds.client_seed(index as u64))
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Strategy {
    fn from(name: &str) -> Self {
        Strategy::named(name)
    }
}

/// Error returned when a strategy name does not resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownStrategy(pub String);

impl fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown strategy {:?}", self.0)
    }
}

impl std::error::Error for UnknownStrategy {}

/// Construction inputs of [`StrategyRegistry::build`].
///
/// Benchmark adapter only; ROADMAP item 8 deletes it.
#[derive(Clone, Copy, Debug)]
pub struct SelectorCtx {
    /// Number of servers in the client's view.
    pub servers: usize,
    /// C3 parameters (also supplies rate/EWMA parameters to baselines).
    pub c3: C3Config,
    /// Deterministic seed for this client's selector randomness.
    pub seed: u64,
    /// Unused: every selector is built at time zero.
    pub now: Nanos,
}

/// What [`StrategyRegistry::build`] resolves a name to.
///
/// Benchmark adapter only; ROADMAP item 8 deletes it.
pub enum BuiltSelector {
    /// A client-local selector, ready to use.
    Selector(Selector),
    /// The §6 Oracle: the frontend must provide the global view.
    Oracle,
}

/// [`Strategy::build`] under its old name and signature.
///
/// Benchmark adapter only; ROADMAP item 8 deletes it.
pub struct StrategyRegistry;

impl StrategyRegistry {
    /// The one resolver there is.
    pub fn with_defaults() -> Self {
        StrategyRegistry
    }

    /// [`Strategy::build`] with its inputs in a [`SelectorCtx`].
    pub fn build(
        &self,
        strategy: &Strategy,
        ctx: &SelectorCtx,
    ) -> Result<BuiltSelector, UnknownStrategy> {
        Ok(match strategy.build(ctx.servers, ctx.c3, ctx.seed)? {
            Some(selector) => BuiltSelector::Selector(selector),
            None => BuiltSelector::Oracle,
        })
    }
}

/// Parse the parameterized `C3-b{n}` family (queue-exponent ablation).
/// Only the canonical spelling resolves — `C3-b+3` and `C3-b03` do not, so
/// one exponent has one label — and only exponents the score's `powi` can
/// take: `1 ≤ b ≤ i32::MAX`.
fn parse_exponent(name: &str) -> Option<u32> {
    let b: u32 = name.strip_prefix("C3-b")?.parse().ok()?;
    let in_range = (1..=i32::MAX as u32).contains(&b);
    (in_range && Strategy::c3_exponent(b).name() == name).then_some(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(name: &str) -> Result<Option<Selector>, UnknownStrategy> {
        Strategy::named(name).build(5, C3Config::for_clients(10), 7)
    }

    #[test]
    fn builtin_names_are_sorted_and_every_one_builds() {
        let mut sorted = Strategy::BUILTIN;
        sorted.sort_unstable();
        assert_eq!(sorted, Strategy::BUILTIN);
        for name in Strategy::BUILTIN {
            assert!(Strategy::named(name).is_known(), "{name}");
            match build(name).unwrap_or_else(|e| panic!("{e}")) {
                Some(s) => assert!(!s.name().is_empty()),
                None => assert_eq!(name, "ORA", "only the Oracle builds no selector"),
            }
        }
    }

    #[test]
    fn each_name_builds_its_variant() {
        let variant = |name: &str| build(name).unwrap().expect("a selector").name();
        for (name, label) in [
            ("C3", "C3"),
            ("C3-noRC", "C3"),
            ("C3-noCC", "C3"),
            ("DS", "DS"),
            ("LOR", "LOR"),
            ("LRT", "LRT"),
            ("Nearest", "Nearest"),
            ("P2C", "P2C"),
            ("Primary", "Primary"),
            ("RR", "RR"),
            ("Random", "Random"),
            ("WRand", "WRand"),
        ] {
            assert_eq!(variant(name), label);
        }
        let cfg = |name: &str| {
            *build(name)
                .unwrap()
                .unwrap()
                .as_c3()
                .unwrap()
                .state()
                .config()
        };
        assert!(!cfg("C3-noRC").rate_control);
        assert!(!cfg("C3-noCC").concurrency_compensation);
        assert!(cfg("C3").rate_control && cfg("C3").concurrency_compensation);
    }

    #[test]
    fn oracle_resolves_to_marker() {
        assert!(matches!(build("ORA"), Ok(None)));
        assert!(Strategy::oracle().is_oracle());
    }

    #[test]
    fn exponent_names_resolve_dynamically() {
        assert!(Strategy::c3_exponent(2).is_known());
        let built = Strategy::c3_exponent(2)
            .build(5, C3Config::for_clients(10), 7)
            .unwrap()
            .expect("C3-b2 is a selector");
        let c3 = built.as_c3().expect("C3 family");
        assert_eq!(c3.state().config().queue_exponent, 2);
        assert!(Strategy::c3_exponent(i32::MAX as u32).is_known());
    }

    #[test]
    fn non_canonical_or_out_of_range_exponents_are_unknown() {
        // `+3` and `03` would alias `C3-b3` under another label; `0` has
        // no queue penalty; past `i32::MAX` the score's `powi` wraps to a
        // negative exponent (`u32::MAX` → −1, `2^31` → `i32::MIN`).
        for name in [
            "C3-b+3",
            "C3-b03",
            "C3-b0",
            "C3-b4294967295",
            "C3-b2147483648",
            "C3-b",
            "C3-bx",
        ] {
            assert!(!Strategy::named(name).is_known(), "{name}");
            assert_eq!(build(name).err(), Some(UnknownStrategy(name.into())));
        }
    }

    #[test]
    fn unknown_names_error() {
        assert_eq!(
            build("NoSuch").err(),
            Some(UnknownStrategy("NoSuch".into()))
        );
        assert!(!Strategy::named("NoSuch").is_known());
    }

    #[test]
    fn default_registry_covers_core_strategies() {
        // The benchmark adapter's shims: every name resolves exactly as
        // through `Strategy::build`.
        let ctx = SelectorCtx {
            servers: 5,
            c3: C3Config::for_clients(10),
            seed: 7,
            now: Nanos::ZERO,
        };
        let reg = StrategyRegistry::with_defaults();
        for name in Strategy::BUILTIN {
            match reg.build(&Strategy::named(name), &ctx) {
                Ok(BuiltSelector::Selector(s)) => {
                    assert_eq!(Some(s.name()), build(name).unwrap().map(|b| b.name()))
                }
                Ok(BuiltSelector::Oracle) => assert_eq!(name, "ORA"),
                Err(e) => panic!("{e}"),
            }
        }
        assert!(reg.build(&Strategy::named("NoSuch"), &ctx).is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Strategy::c3().label(), "C3");
        assert_eq!(Strategy::oracle().label(), "ORA");
        assert_eq!(Strategy::c3_exponent(2).label(), "C3-b2");
        assert_eq!(Strategy::dynamic_snitching().to_string(), "DS");
    }
}
