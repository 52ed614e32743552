//! Request-lifecycle hardening, shared by every backend: the knobs and
//! the policy that acts on them.
//!
//! The sim cluster, the live client, and the `c3-live-node` replica
//! fleet all enforce the same request lifecycle: a per-read deadline,
//! a bounded retry budget with jittered exponential backoff,
//! RepNet-style hedging, and a consecutive-timeout failure detector
//! with doubling eviction windows. [`LifecycleConfig`] holds the knobs
//! (once — they used to be parallel field triples on `ClusterConfig` and
//! `LiveConfig`, exactly the drift a cross-process config digest cannot
//! tolerate). The *decisions* live here too, so the simulator's event
//! handlers and the live client's reaper and reader threads cannot
//! disagree on them: [`OpLife`] (an op's expiry, retry, hedge and
//! speculative elections, and which response wins), [`FailureDetector`]
//! (who is suspected, for how long, and which candidates a selector is
//! offered meanwhile) and the [`LifecycleCounts`] ledger both report.
//! The mechanics — *when* to ask (timers against an event queue, or a
//! reaper sweeping correlation tables), *where* a send goes, records,
//! permits and traces — stay with each driver.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use crate::scheduler::ServerId;
use crate::time::Nanos;

/// The shared request-lifecycle configuration.
///
/// All durations are [`Nanos`]: the simulators already spoke
/// nanoseconds, and the live client converted its `Duration` fields on
/// entry anyway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecycleConfig {
    /// Per-read deadline, measured from dispatch. When it expires the
    /// client gives up on the outstanding attempt: it either retries
    /// (see [`LifecycleConfig::retries`]) or parks the operation.
    /// `None` disables timeout reaping entirely.
    pub deadline: Option<Nanos>,
    /// Bounded retry budget after a deadline expiry. Each retry
    /// re-selects a replica (excluding the one that just timed out)
    /// after an exponential backoff with jitter. Requires a deadline.
    pub retries: u32,
    /// Hedge a read to a second replica after this delay (RepNet-style:
    /// first response wins, the loser is discarded). `None` disables
    /// hedging.
    pub hedge_after: Option<Nanos>,
    /// Consecutive deadline expiries before the failure detector evicts
    /// a replica from candidate sets.
    pub evict_after: u32,
    /// First eviction window; every further consecutive expiry doubles
    /// it (×16 cap).
    pub eviction_base: Nanos,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self {
            deadline: None,
            retries: 0,
            hedge_after: None,
            evict_after: 3,
            eviction_base: Nanos::from_millis(250),
        }
    }
}

impl LifecycleConfig {
    /// A hardened lifecycle with the detector at its defaults.
    pub fn hardened(deadline: Nanos, retries: u32, hedge_after: Option<Nanos>) -> Self {
        Self {
            deadline: Some(deadline),
            retries,
            hedge_after,
            ..Self::default()
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range.
    pub fn validate(&self) {
        if let Some(d) = self.deadline {
            assert!(d > Nanos::ZERO, "deadline must be positive");
        }
        assert!(
            self.retries == 0 || self.deadline.is_some(),
            "retries need a deadline to trigger them; set a deadline"
        );
        assert!(
            self.retries <= u32::from(u8::MAX),
            "retry budget above {} (an op counts its attempts in a byte)",
            u8::MAX
        );
        if let Some(h) = self.hedge_after {
            assert!(h > Nanos::ZERO, "hedge delay must be positive");
        }
        assert!(self.evict_after >= 1, "detector needs a timeout threshold");
        assert!(
            self.eviction_base > Nanos::ZERO,
            "eviction window must be positive"
        );
    }

    /// The failure detector this lifecycle calls for: `None` without a
    /// deadline — nothing can time out, so nothing is ever suspected and
    /// drivers skip the detector entirely.
    pub fn detector(&self, nodes: usize) -> Option<FailureDetector> {
        self.deadline.map(|_| FailureDetector {
            evict_after: self.evict_after,
            eviction_base: self.eviction_base,
            streak: (0..nodes).map(|_| AtomicU32::new(0)).collect(),
            evicted_until: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            max_evicted_until: AtomicU64::new(0),
        })
    }

    /// Retry or park: a read whose deadline just expired for the
    /// `attempt`-th time (0 = the original send) either waits out the
    /// returned backoff and goes to a different replica, or — `None`,
    /// the retry budget is spent — is abandoned.
    ///
    /// The wait is `deadline/8 · 2^min(attempt, 6) · jitter`, with
    /// `jitter` drawn from `U[0.5, 1.5)` so synchronized expiries do not
    /// stampede the survivors. It is a closure because a parked read
    /// must not consume a draw (the simulator's random stream is pinned).
    ///
    /// # Panics
    ///
    /// Panics when no deadline is configured: nothing can have expired.
    pub(crate) fn retry_backoff(
        &self,
        attempt: u32,
        jitter: impl FnOnce() -> f64,
    ) -> Option<Nanos> {
        if attempt >= self.retries {
            return None;
        }
        let deadline = self.deadline.expect("a deadline expired");
        let base = (deadline.as_nanos() / 8).max(1) << attempt.min(6);
        Some(Nanos((base as f64 * jitter()) as u64))
    }
}

/// What the hardened lifecycle did over one run; every backend reports
/// this ledger. All zero when no deadline is configured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Deadline expiries (one per op per expiry; hedge twins excluded).
    pub timeouts: u64,
    /// Reads re-dispatched to a different replica after an expiry.
    pub retries: u64,
    /// Reads abandoned with deadline and retry budget spent. Parked ops
    /// never complete; they count toward run termination instead.
    pub parked: u64,
    /// Hedged duplicates issued.
    pub hedges: u64,
    /// Hedged reads won by the duplicate (it responded first).
    pub hedge_wins: u64,
    /// Failure-detector evictions (transitions into an eviction window).
    pub evictions: u64,
    /// Failure-detector reinstatements (a suspected node responded).
    pub reinstates: u64,
}

impl LifecycleCounts {
    /// Assert the conservation laws every run keeps by construction —
    /// `hedge_wins ≤ hedges` (a win is a hedge that went out) and
    /// `retries + parked ≤ timeouts` (each follows one counted expiry) —
    /// panicking with the counts if one breaks.
    pub fn check(&self) {
        assert!(
            self.hedge_wins <= self.hedges && self.retries + self.parked <= self.timeouts,
            "lifecycle ledger breaks hedge_wins ≤ hedges or retries + parked ≤ timeouts: {self:?}"
        );
    }
}

/// Which send of an op a response answers, as its driver tags it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// The latest selected send (original or retry); every write ack.
    Primary,
    /// The hedged duplicate.
    Hedge,
    /// Any other send — a superseded primary, a read-repair fan-out, the
    /// speculative duplicate — which completes the op only once a
    /// speculative duplicate is out (the first replica to answer wins).
    Stale,
}

/// Where an op stands; `Completed` and `Parked` are terminal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Fate {
    #[default]
    Open,
    Completed,
    Parked,
}

/// What a deadline expiry asks of the driver ([`OpLife::expire`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expiry {
    /// The op is already terminal: nothing to do, nothing counted.
    Dead,
    /// Wait this long, then re-dispatch to a different replica.
    Retry(Nanos),
    /// The retry budget is spent: this expiry parked the op.
    Park,
}

/// What a response means for its op ([`OpLife::respond`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The first response that can complete the op: it owns the op's
    /// one sample and release.
    #[allow(missing_docs)]
    Complete { hedge_win: bool },
    /// The losing half of a hedged pair, after the winner.
    HedgeLoss,
    /// Anything else: discarded.
    Late,
}

/// One operation's fate across all its sends, as a sans-I/O machine:
/// each transition returns what the driver must do, and books the counts
/// it decides (`timeouts`, `parked` at an expiry, `hedge_wins`) into the
/// ledger it is handed. `retries` and `hedges` are counted by the driver
/// when the send goes out. After a terminal fate every transition
/// answers `Dead`, `Late` (or `HedgeLoss`) or `false`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpLife {
    attempts: u8,
    hedged: bool,
    spec_sent: bool,
    fate: Fate,
}

impl OpLife {
    /// Expiries that retried so far: 0 on the original send.
    pub fn attempts(self) -> u8 {
        self.attempts
    }

    /// Where the op stands.
    pub fn fate(self) -> Fate {
        self.fate
    }

    /// The outstanding primary's deadline expired: count the timeout,
    /// then retry after `LifecycleConfig::retry_backoff`'s wait (the
    /// only case that draws `jitter`) or park once the budget is spent.
    pub fn expire(
        &mut self,
        cfg: &LifecycleConfig,
        jitter: impl FnOnce() -> f64,
        counts: &mut LifecycleCounts,
    ) -> Expiry {
        if self.fate != Fate::Open {
            return Expiry::Dead;
        }
        counts.timeouts += 1;
        if let Some(wait) = cfg.retry_backoff(self.attempts.into(), jitter) {
            self.attempts += 1;
            return Expiry::Retry(wait);
        }
        counts.parked += 1;
        self.fate = Fate::Parked;
        Expiry::Park
    }

    /// Whether a retry whose backoff ended still goes out.
    pub fn retry_due(self) -> bool {
        self.fate == Fate::Open
    }

    /// Elect a hedge: at most one per open op, unless handed back.
    pub fn elect_hedge(&mut self) -> bool {
        let elected = self.fate == Fate::Open && !self.hedged;
        self.hedged |= elected;
        elected
    }

    /// The elected hedge could not be sent: a later check may elect one.
    pub fn hedge_refused(&mut self) {
        self.hedged = false;
    }

    /// Elect a speculative duplicate: at most one per open op.
    pub fn elect_speculative(&mut self) -> bool {
        let elected = self.fate == Fate::Open && !self.spec_sent;
        self.spec_sent |= elected;
        elected
    }

    /// A response to the `from` send arrived: first response wins.
    pub fn respond(&mut self, from: Attempt, counts: &mut LifecycleCounts) -> Outcome {
        let paired = from != Attempt::Stale;
        match self.fate {
            Fate::Open if paired || self.spec_sent => {
                self.fate = Fate::Completed;
                let hedge_win = from == Attempt::Hedge;
                counts.hedge_wins += u64::from(hedge_win);
                Outcome::Complete { hedge_win }
            }
            Fate::Completed if paired && self.hedged => Outcome::HedgeLoss,
            _ => Outcome::Late,
        }
    }

    /// Abandon the op outside an expiry (the live client's teardown,
    /// dead-connection and failed-resend reaps): `true` for the one
    /// caller that made it terminal, which owns the op's release.
    pub fn park(&mut self) -> bool {
        let open = self.fate == Fate::Open;
        if open {
            self.fate = Fate::Parked;
        }
        open
    }
}

/// The consecutive-timeout failure detector of one client (a cluster
/// coordinator, or the live client).
///
/// [`LifecycleConfig::evict_after`] deadline expiries in a row evict a
/// node from candidate lists for `eviction_base · 2^min(streak −
/// evict_after, 4)`. The window lapsing is the implicit probe: the node
/// becomes selectable again and either answers or times out once more
/// (the streak kept counting, so the next window is longer). Any
/// response — reads, write acks, read-repair fan-out — proves the node
/// alive: its streak resets and a standing eviction is lifted at once.
///
/// Eviction is enforced in one place, [`FailureDetector::candidates`]:
/// selectors only ever see the list it returns.
///
/// All methods take `&self` over `Relaxed` atomics, so an event handler
/// and the live client's reader and reaper threads call the same code.
/// Every cell is a standalone count or instant that publishes no other
/// memory; a reader that races a writer sees the suspicion one call
/// early or late, which the probing policy tolerates by design.
#[derive(Debug)]
pub struct FailureDetector {
    evict_after: u32,
    eviction_base: Nanos,
    /// Consecutive deadline expiries charged to each node.
    streak: Vec<AtomicU32>,
    /// Nanos until which each node is evicted (0 = in service).
    evicted_until: Vec<AtomicU64>,
    /// Upper bound over `evicted_until`, so the nothing-evicted common
    /// case costs one comparison per dispatch.
    max_evicted_until: AtomicU64,
}

impl FailureDetector {
    /// A deadline expiry charged to `node`; `true` when it tips the node
    /// from in-service into an eviction window (not when it extends a
    /// standing one).
    pub fn note_timeout(&self, node: ServerId, now: Nanos) -> bool {
        let streak = self.streak[node].fetch_add(1, Relaxed) + 1;
        if streak < self.evict_after {
            return false;
        }
        let over = (streak - self.evict_after).min(4);
        let until = (now + Nanos(self.eviction_base.as_nanos() << over)).as_nanos();
        // `fetch_max`: a shorter window never shortens a standing one.
        let standing = self.evicted_until[node].fetch_max(until, Relaxed);
        self.max_evicted_until.fetch_max(until, Relaxed);
        standing <= now.as_nanos()
    }

    /// A response from `node`: zero its streak and lift a standing
    /// eviction; `true` when there was one to lift (reported once, even
    /// to concurrent responders — the swap elects the reporter).
    pub fn note_success(&self, node: ServerId) -> bool {
        self.streak[node].store(0, Relaxed);
        let cell = &self.evicted_until[node];
        cell.load(Relaxed) != 0 && cell.swap(0, Relaxed) != 0
    }

    /// Whether `node` is inside an eviction window at `now`.
    pub fn is_evicted(&self, node: ServerId, now: Nanos) -> bool {
        self.evicted_until[node].load(Relaxed) > now.as_nanos()
    }

    /// The candidate list to offer a selector: `group` minus evicted
    /// nodes and minus `exclude` (the replica a retry steers away from).
    /// Never empty — a suspect replica beats none: a wholly filtered
    /// group falls back to everything but `exclude`, then to the whole
    /// group. With nothing evicted and nothing excluded this is one
    /// comparison and `group` itself comes back, `scratch` untouched.
    pub fn candidates<'a>(
        &self,
        group: &'a [ServerId],
        exclude: Option<ServerId>,
        now: Nanos,
        scratch: &'a mut Vec<ServerId>,
    ) -> &'a [ServerId] {
        let evicting = now.as_nanos() < self.max_evicted_until.load(Relaxed);
        if !evicting && exclude.is_none() {
            return group;
        }
        let kept = |&n: &ServerId| Some(n) != exclude;
        scratch.clear();
        scratch.extend(
            group
                .iter()
                .copied()
                .filter(|n| kept(n) && !(evicting && self.is_evicted(*n, now))),
        );
        if scratch.len() == group.len() {
            return group;
        }
        if scratch.is_empty() {
            scratch.extend(group.iter().copied().filter(kept));
        }
        if scratch.is_empty() {
            group
        } else {
            scratch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_with_paper_detector() {
        let l = LifecycleConfig::default();
        assert!(l.deadline.is_none());
        assert_eq!(l.retries, 0);
        assert!(l.hedge_after.is_none());
        assert_eq!(l.evict_after, 3);
        assert_eq!(l.eviction_base, Nanos::from_millis(250));
        assert!(l.detector(3).is_none(), "no deadline, no detector");
        l.validate();
    }

    fn detector(nodes: usize) -> FailureDetector {
        LifecycleConfig::hardened(Nanos::from_millis(75), 3, None)
            .detector(nodes)
            .expect("a deadline arms the detector")
    }

    const BASE: Nanos = Nanos::from_millis(250);

    #[test]
    fn evicts_on_the_third_consecutive_timeout_and_not_before() {
        let d = detector(2);
        let now = Nanos::from_millis(10);
        assert!(!d.note_timeout(0, now));
        assert!(!d.note_timeout(0, now));
        assert!(!d.is_evicted(0, now));
        assert!(d.note_timeout(0, now), "the third expiry in a row evicts");
        assert!(d.is_evicted(0, now + BASE - Nanos(1)));
        assert!(!d.is_evicted(0, now + BASE), "the window is half-open");
        assert!(!d.is_evicted(1, now), "suspicion is per node");
    }

    #[test]
    fn window_doubles_with_the_streak_up_to_sixteen_times_base() {
        let d = detector(1);
        // Each probe expires just after the previous window lapsed, so
        // every one of them re-evicts: streak 3, 4, … → base << 0, 1, …
        let mut now = Nanos::ZERO;
        d.note_timeout(0, now);
        d.note_timeout(0, now);
        for over in [0u32, 1, 2, 3, 4, 4, 4] {
            assert!(d.note_timeout(0, now), "a lapsed window re-evicts");
            let window = Nanos(BASE.as_nanos() << over);
            assert!(d.is_evicted(0, now + window - Nanos(1)), "over {over}");
            assert!(!d.is_evicted(0, now + window), "over {over}");
            now += window;
        }
    }

    #[test]
    fn a_standing_window_is_extended_silently_and_never_shortened() {
        let d = detector(1);
        let t0 = Nanos::from_millis(1_000);
        d.note_timeout(0, Nanos::ZERO);
        d.note_timeout(0, Nanos::ZERO);
        assert!(d.note_timeout(0, t0), "inactive → active is reported");
        // Still evicted: a further expiry lengthens the window (streak 4
        // → 2·base from its own instant) but is not a new eviction.
        let t1 = t0 + Nanos::from_millis(100);
        assert!(!d.note_timeout(0, t1), "active → active is not");
        assert!(d.is_evicted(0, t1 + Nanos::from_millis(500) - Nanos(1)));
        assert!(!d.is_evicted(0, t1 + Nanos::from_millis(500)));
        // The state a responder racing the reaper can leave behind: the
        // streak restarted while a long window stands. Three more
        // expiries ask for a shorter window; the standing one must hold.
        let d = detector(1);
        for _ in 0..5 {
            d.note_timeout(0, t0); // streak 5 → 4·base, until t0 + 1 s
        }
        d.streak[0].store(0, Relaxed);
        for _ in 0..3 {
            d.note_timeout(0, t0); // streak 3 → base, until t0 + 250 ms
        }
        assert!(d.is_evicted(0, t0 + Nanos::from_millis(999)));
    }

    #[test]
    fn any_success_zeroes_the_streak_and_lifts_the_eviction_once() {
        let d = detector(2);
        let now = Nanos::from_millis(5);
        d.note_timeout(0, now);
        d.note_timeout(0, now);
        assert!(!d.note_success(0), "nothing standing: nothing to report");
        // The streak restarted: two more expiries are not enough.
        d.note_timeout(0, now);
        assert!(!d.note_timeout(0, now));
        assert!(d.note_timeout(0, now));
        assert!(d.is_evicted(0, now));
        assert!(d.note_success(0), "a response lifts a standing eviction");
        assert!(!d.is_evicted(0, now));
        assert!(!d.note_success(0), "and is reported exactly once");
        // A lapsed-but-never-answered window still counts as standing.
        for _ in 0..3 {
            d.note_timeout(1, now);
        }
        assert!(d.note_success(1 /* long after */));
    }

    #[test]
    fn candidates_is_the_group_itself_when_nothing_is_filtered() {
        let d = detector(4);
        let group = [0usize, 1, 2];
        let mut scratch = Vec::new();
        let c = d.candidates(&group, None, Nanos::ZERO, &mut scratch);
        assert!(
            std::ptr::eq(c, &group[..]),
            "fast path hands back the input"
        );
        // Evictions elsewhere in the fleet leave this group whole too.
        for _ in 0..3 {
            d.note_timeout(3, Nanos::ZERO);
        }
        let c = d.candidates(&group, None, Nanos::ZERO, &mut scratch);
        assert!(std::ptr::eq(c, &group[..]));
        // As does an exclusion that names a node outside the group.
        let c = d.candidates(&group, Some(3), Nanos::ZERO, &mut scratch);
        assert!(std::ptr::eq(c, &group[..]));
    }

    #[test]
    fn candidates_walks_the_fallback_chain_and_is_never_empty() {
        let d = detector(3);
        let now = Nanos::from_millis(1);
        let group = [0usize, 1, 2];
        let evict = |n| {
            for _ in 0..3 {
                d.note_timeout(n, now);
            }
        };
        let mut scratch = Vec::new();
        // trusted ∖ exclude
        assert_eq!(d.candidates(&group, Some(1), now, &mut scratch), [0, 2]);
        evict(0);
        assert_eq!(d.candidates(&group, None, now, &mut scratch), [1, 2]);
        assert_eq!(d.candidates(&group, Some(1), now, &mut scratch), [2]);
        // Nothing trusted is left once the retry's own replica is out:
        // group ∖ exclude (a suspect replica beats none).
        evict(2);
        assert_eq!(d.candidates(&group, None, now, &mut scratch), [1]);
        assert_eq!(d.candidates(&group, Some(1), now, &mut scratch), [0, 2]);
        // Everything evicted: the whole group, suspects and all.
        evict(1);
        assert_eq!(d.candidates(&group, None, now, &mut scratch), group);
        // A one-replica group cannot even honour the exclusion.
        assert_eq!(d.candidates(&[1], Some(1), now, &mut scratch), [1]);
        // Windows lapse by the clock: later, everyone is offered again.
        let later = now + BASE;
        let c = d.candidates(&group, None, later, &mut scratch);
        assert!(std::ptr::eq(c, &group[..]));
        // A response reinstates at once.
        assert!(d.note_success(0));
        assert_eq!(d.candidates(&group, None, now, &mut scratch), [0]);
    }

    #[test]
    fn retry_backoff_is_an_eighth_of_the_deadline_doubling_to_64x() {
        let l = LifecycleConfig::hardened(Nanos::from_millis(75), 10, None);
        for (attempt, at_half, at_one) in [
            (0, 4_687_500, 9_375_000),
            (1, 9_375_000, 18_750_000),
            (6, 300_000_000, 600_000_000),
            (9, 300_000_000, 600_000_000),
        ] {
            assert_eq!(l.retry_backoff(attempt, || 0.5), Some(Nanos(at_half)));
            assert_eq!(l.retry_backoff(attempt, || 1.0), Some(Nanos(at_one)));
        }
    }

    #[test]
    fn a_spent_retry_budget_parks_without_drawing_jitter() {
        let l = LifecycleConfig::hardened(Nanos::from_millis(75), 3, None);
        assert!(l.retry_backoff(2, || 1.0).is_some());
        let drew = std::cell::Cell::new(false);
        let parked = l.retry_backoff(3, || {
            drew.set(true);
            1.0
        });
        assert_eq!(parked, None);
        assert!(!drew.get(), "a parked read must not consume a draw");
        // No retries configured: the first expiry parks.
        let naked = LifecycleConfig::hardened(Nanos::from_millis(75), 0, None);
        assert_eq!(naked.retry_backoff(0, || 1.0), None);
    }

    #[test]
    fn a_stale_send_completes_only_once_a_duplicate_is_out() {
        let mut counts = LifecycleCounts::default();
        let mut life = OpLife::default();
        assert_eq!(life.respond(Attempt::Stale, &mut counts), Outcome::Late);
        assert!(life.elect_speculative());
        let won = life.respond(Attempt::Stale, &mut counts);
        assert_eq!(won, Outcome::Complete { hedge_win: false });
        // A hedged op: the winner counts, the other half is the loss.
        let mut life = OpLife::default();
        assert!(life.elect_hedge());
        let won = life.respond(Attempt::Hedge, &mut counts);
        assert_eq!(won, Outcome::Complete { hedge_win: true });
        assert_eq!(
            life.respond(Attempt::Primary, &mut counts),
            Outcome::HedgeLoss
        );
        assert_eq!(life.respond(Attempt::Stale, &mut counts), Outcome::Late);
        assert_eq!(counts.hedge_wins, 1);
    }

    #[test]
    #[should_panic(expected = "retry budget above 255")]
    fn a_retry_budget_beyond_a_byte_is_rejected() {
        LifecycleConfig::hardened(Nanos::from_millis(75), 256, None).validate();
    }

    #[test]
    #[should_panic(expected = "retries need a deadline")]
    fn retries_without_deadline_are_rejected() {
        LifecycleConfig {
            retries: 2,
            ..LifecycleConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_is_rejected() {
        LifecycleConfig {
            deadline: Some(Nanos::ZERO),
            ..LifecycleConfig::default()
        }
        .validate();
    }
}
