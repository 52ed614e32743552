//! Strategy names and the selector registry.
//!
//! Every replica-selection strategy in the workspace is reachable by name
//! through one [`StrategyRegistry`]: the C3 family (including its
//! ablations and the parameterized `C3-b{n}` queue-exponent variants),
//! every client-local baseline from `c3_core::strategies`, and frontends'
//! own additions (c3-cluster registers Dynamic Snitching, which needs
//! gossip plumbing the registry cannot know about). The §6 Oracle is the
//! one strategy that is not a client-side selector at all — it reads
//! global simulator state — so the registry resolves it to
//! [`BuiltSelector::Oracle`] and the frontend supplies the global view.

use std::collections::BTreeMap;
use std::fmt;

use c3_core::strategies::{
    LeastOutstanding, LeastResponseTime, NearestRank, PowerOfTwoChoices, PrimaryFirst,
    RoundRobinRate, UniformRandom, WeightedRandom,
};
use c3_core::{C3Config, C3Selector, Nanos, ReplicaSelector};

use crate::runner::SeedSeq;

/// A replica-selection strategy, referenced by its registry name.
///
/// This replaces the per-crate `StrategyKind`/`ClusterStrategy` enums the
/// simulators used to hand-roll: a `Strategy` is just a name that a
/// [`StrategyRegistry`] resolves to a selector factory, so frontends,
/// benches and examples all speak the same vocabulary.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Strategy(String);

impl Strategy {
    /// A strategy by registry name (e.g. `"C3"`, `"DS"`, `"LOR"`).
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

    /// Cassandra's Dynamic Snitching (registered by `c3-cluster`).
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

    /// The registry name (also the display label used in tables).
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

/// Everything a selector factory may need to build an instance.
#[derive(Clone, Copy, Debug)]
pub struct SelectorCtx {
    /// Number of servers in the client's view.
    pub servers: usize,
    /// C3 parameters (also supplies rate/EWMA parameters to baselines).
    pub c3: C3Config,
    /// Deterministic seed for this client's selector randomness.
    pub seed: u64,
    /// Construction time.
    pub now: Nanos,
}

/// Result of resolving a [`Strategy`] through the registry.
pub enum BuiltSelector {
    /// A client-local selector, ready to use.
    Selector(Box<dyn ReplicaSelector>),
    /// The strategy requires simulator-global knowledge (the §6 ORA
    /// baseline); the frontend must provide it.
    Oracle,
}

impl BuiltSelector {
    /// Unwrap the client-local selector.
    ///
    /// # Panics
    ///
    /// Panics on [`BuiltSelector::Oracle`].
    pub fn expect_selector(self, strategy: &Strategy) -> Box<dyn ReplicaSelector> {
        match self {
            BuiltSelector::Selector(s) => s,
            BuiltSelector::Oracle => {
                panic!("strategy {strategy} needs global state this frontend does not provide")
            }
        }
    }
}

/// Error returned when a strategy name is not registered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownStrategy(pub String);

impl fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown strategy {:?}", self.0)
    }
}

impl std::error::Error for UnknownStrategy {}

type Factory = Box<dyn Fn(&SelectorCtx) -> Box<dyn ReplicaSelector> + Send + Sync>;

enum Entry {
    Factory(Factory),
    Oracle,
}

/// Name → selector-factory table.
pub struct StrategyRegistry {
    entries: BTreeMap<String, Entry>,
}

impl Default for StrategyRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl StrategyRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// A registry with every strategy `c3-core` provides: the C3 family
    /// and all client-local baselines, plus the `ORA` marker. `C3-b{n}`
    /// names resolve dynamically without registration.
    pub fn with_defaults() -> Self {
        let mut reg = Self::empty();
        reg.register("C3", |ctx: &SelectorCtx| {
            Box::new(C3Selector::new(ctx.servers, ctx.c3, ctx.now)) as Box<dyn ReplicaSelector>
        });
        reg.register("C3-noRC", |ctx: &SelectorCtx| {
            Box::new(C3Selector::new(
                ctx.servers,
                ctx.c3.without_rate_control(),
                ctx.now,
            )) as Box<dyn ReplicaSelector>
        });
        reg.register("C3-noCC", |ctx: &SelectorCtx| {
            Box::new(C3Selector::new(
                ctx.servers,
                ctx.c3.without_concurrency_compensation(),
                ctx.now,
            )) as Box<dyn ReplicaSelector>
        });
        reg.register("LOR", |ctx: &SelectorCtx| {
            Box::new(LeastOutstanding::new(ctx.servers, ctx.seed)) as Box<dyn ReplicaSelector>
        });
        reg.register("RR", |ctx: &SelectorCtx| {
            Box::new(RoundRobinRate::new(ctx.servers, &ctx.c3, ctx.now)) as Box<dyn ReplicaSelector>
        });
        reg.register("Random", |ctx: &SelectorCtx| {
            Box::new(UniformRandom::new(ctx.seed)) as Box<dyn ReplicaSelector>
        });
        reg.register("LRT", |ctx: &SelectorCtx| {
            Box::new(LeastResponseTime::new(
                ctx.servers,
                ctx.c3.ewma_alpha,
                ctx.seed,
            )) as Box<dyn ReplicaSelector>
        });
        reg.register("WRand", |ctx: &SelectorCtx| {
            Box::new(WeightedRandom::new(
                ctx.servers,
                ctx.c3.ewma_alpha,
                ctx.seed,
            )) as Box<dyn ReplicaSelector>
        });
        reg.register("P2C", |ctx: &SelectorCtx| {
            Box::new(PowerOfTwoChoices::new(ctx.servers, ctx.seed)) as Box<dyn ReplicaSelector>
        });
        reg.register("Primary", |_ctx: &SelectorCtx| {
            Box::new(PrimaryFirst::new()) as Box<dyn ReplicaSelector>
        });
        reg.register("Nearest", |ctx: &SelectorCtx| {
            Box::new(NearestRank::new(ctx.servers, ctx.seed)) as Box<dyn ReplicaSelector>
        });
        reg.entries.insert("ORA".to_string(), Entry::Oracle);
        reg
    }

    /// Register (or replace) a named selector factory.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn(&SelectorCtx) -> Box<dyn ReplicaSelector> + Send + Sync + 'static,
    {
        self.entries
            .insert(name.into(), Entry::Factory(Box::new(factory)));
    }

    /// Whether a name resolves (including dynamic `C3-b{n}` names).
    pub fn contains(&self, strategy: &Strategy) -> bool {
        self.entries.contains_key(strategy.name()) || parse_exponent(strategy.name()).is_some()
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Resolve a strategy name into a selector instance.
    pub fn build(
        &self,
        strategy: &Strategy,
        ctx: &SelectorCtx,
    ) -> Result<BuiltSelector, UnknownStrategy> {
        if let Some(entry) = self.entries.get(strategy.name()) {
            return Ok(match entry {
                Entry::Factory(f) => BuiltSelector::Selector(f(ctx)),
                Entry::Oracle => BuiltSelector::Oracle,
            });
        }
        if let Some(b) = parse_exponent(strategy.name()) {
            return Ok(BuiltSelector::Selector(Box::new(C3Selector::new(
                ctx.servers,
                ctx.c3.with_queue_exponent(b),
                ctx.now,
            ))));
        }
        Err(UnknownStrategy(strategy.name().to_string()))
    }

    /// Build selector instance `index` for a frontend that keeps one
    /// selector per client (or coordinator, or shard), seeding the
    /// instance's randomness from [`SeedSeq::client_seed`]. `None` is the
    /// Oracle: the frontend supplies the global view itself.
    ///
    /// # Panics
    ///
    /// Panics when the strategy is not registered.
    pub fn build_client(
        &self,
        strategy: &Strategy,
        servers: usize,
        c3: C3Config,
        seeds: &SeedSeq,
        index: usize,
    ) -> Option<Box<dyn ReplicaSelector>> {
        let ctx = SelectorCtx {
            servers,
            c3,
            seed: seeds.client_seed(index as u64),
            now: Nanos::ZERO,
        };
        match self.build(strategy, &ctx).unwrap_or_else(|e| panic!("{e}")) {
            BuiltSelector::Selector(s) => Some(s),
            BuiltSelector::Oracle => None,
        }
    }
}

/// Parse the parameterized `C3-b{n}` family (queue-exponent ablation).
fn parse_exponent(name: &str) -> Option<u32> {
    name.strip_prefix("C3-b")?.parse().ok().filter(|&b| b >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SelectorCtx {
        SelectorCtx {
            servers: 5,
            c3: C3Config::for_clients(10),
            seed: 7,
            now: Nanos::ZERO,
        }
    }

    #[test]
    fn default_registry_covers_core_strategies() {
        let reg = StrategyRegistry::with_defaults();
        for name in [
            "C3", "C3-noRC", "C3-noCC", "LOR", "RR", "Random", "LRT", "WRand", "P2C", "Primary",
            "Nearest",
        ] {
            let built = reg
                .build(&Strategy::named(name), &ctx())
                .unwrap_or_else(|e| panic!("{e}"));
            match built {
                BuiltSelector::Selector(s) => assert!(!s.name().is_empty()),
                BuiltSelector::Oracle => panic!("{name} must be a selector"),
            }
        }
    }

    #[test]
    fn oracle_resolves_to_marker() {
        let reg = StrategyRegistry::with_defaults();
        assert!(matches!(
            reg.build(&Strategy::oracle(), &ctx()),
            Ok(BuiltSelector::Oracle)
        ));
        assert!(Strategy::oracle().is_oracle());
    }

    #[test]
    fn exponent_names_resolve_dynamically() {
        let reg = StrategyRegistry::with_defaults();
        assert!(reg.contains(&Strategy::c3_exponent(2)));
        let built = reg.build(&Strategy::c3_exponent(2), &ctx()).unwrap();
        match built {
            BuiltSelector::Selector(s) => {
                let c3 = s.as_c3().expect("C3 family");
                assert_eq!(c3.state().config().queue_exponent, 2);
            }
            BuiltSelector::Oracle => panic!("C3-b2 is a selector"),
        }
    }

    #[test]
    fn unknown_names_error() {
        let reg = StrategyRegistry::with_defaults();
        let err = reg
            .build(&Strategy::named("NoSuch"), &ctx())
            .err()
            .expect("must fail");
        assert_eq!(err, UnknownStrategy("NoSuch".into()));
        assert!(!reg.contains(&Strategy::named("C3-bx")));
    }

    #[test]
    fn frontends_can_register_extensions() {
        let mut reg = StrategyRegistry::with_defaults();
        reg.register("AlwaysFirst", |_ctx: &SelectorCtx| {
            Box::new(PrimaryFirst::new()) as Box<dyn ReplicaSelector>
        });
        assert!(reg.contains(&Strategy::named("AlwaysFirst")));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Strategy::c3().label(), "C3");
        assert_eq!(Strategy::oracle().label(), "ORA");
        assert_eq!(Strategy::c3_exponent(2).label(), "C3-b2");
        assert_eq!(Strategy::dynamic_snitching().to_string(), "DS");
    }
}
