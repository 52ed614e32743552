//! Property tests pitting the engine's four-tier event queue — near tier,
//! fine ring, coarse ring, overflow heap — against a plain ordered-set
//! model under adversarial schedules.
//!
//! The queue's correctness argument has sharp corners that unit tests hit
//! one at a time: events landing exactly on epoch boundaries and on
//! coarse-bucket boundaries, events exactly one fine-ring span or one
//! coarse width ahead, events at the coarse ring's ≈ 4.3 s horizon and past
//! it (parked in the overflow heap, moved into the coarse ring as its
//! window slides, then cascaded into the fine ring), bursts clustered into
//! a single epoch (the whole-bucket swap/sort refill path), schedules with
//! nothing near (the horizon jumps to the next occupied coarse bucket, or
//! the coarse window to the overflow minimum), and cancellations
//! interleaved with all of the above (lazy slab invalidation). Here a
//! seeded adversary mixes every one of those shapes at the benchmark's
//! pending-count profiles — 128, 4096 and 65536 — plus a mega-fleet-shaped
//! census of 120k exp(200 ms) timers, and every pop and every cancel must
//! match a model so simple it is obviously correct: a `BTreeSet` of
//! `(time, seq)`.

use std::collections::BTreeSet;

use c3::core::Nanos;
use c3::engine::{EventQueue, TimerId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// Private kernel geometry, restated: epochs are `time >> 15` (~32.8 µs),
// the fine ring holds 2048 of them (~67 ms), a coarse bucket 1024 (~33.5
// ms) and the coarse ring 128 buckets (~4.3 s); past that, the overflow
// heap.
const EPOCH: u64 = 1 << 15;
const RING_SPAN: u64 = 2048 * EPOCH;
const COARSE_WIDTH: u64 = 1024 * EPOCH;
const COARSE_SPAN: u64 = 128 * COARSE_WIDTH;

/// A schedule shape: the absolute time of the next event, given `now`.
type Shape = fn(&mut SmallRng, u64) -> u64;

/// One adversarial event time, mixing the shapes the tiers disagree about.
fn adversarial_at(rng: &mut SmallRng, now: u64) -> u64 {
    let delay = match rng.gen_range(0..10u32) {
        // Exact epoch-boundary hits (and zero: fire "now").
        0 => rng.gen_range(0..8u64) * EPOCH,
        // Just around a boundary: the off-by-one neighborhood.
        1 => rng.gen_range(1..8u64) * EPOCH - 1 + rng.gen_range(0..3u64),
        // Clustered same-epoch burst fodder.
        2 => rng.gen_range(0..64u64),
        // Exactly one fine-ring span, or one coarse width.
        3 => [RING_SPAN, COARSE_WIDTH][rng.gen_range(0..2usize)],
        // The coarse ring's horizon, ± one epoch.
        4 => COARSE_SPAN - EPOCH + rng.gen_range(0..3u64) * EPOCH,
        // Past the coarse horizon: the overflow heap, up to four spans out.
        5 => COARSE_SPAN + rng.gen_range(0..3 * COARSE_SPAN),
        // Anywhere inside the coarse ring.
        6 => rng.gen_range(0..COARSE_SPAN),
        // An absolute coarse-bucket boundary `k·1024` epochs, ± one
        // epoch, from the next bucket to just past the coarse window's
        // far end.
        7 => return coarse_boundary_at(rng, now),
        // Anywhere inside the fine ring.
        _ => rng.gen_range(0..RING_SPAN),
    };
    now + delay
}

/// An absolute coarse-bucket boundary ahead of `now`, ± one epoch (never
/// in the past).
fn coarse_boundary_at(rng: &mut SmallRng, now: u64) -> u64 {
    let boundary = (now / COARSE_WIDTH + rng.gen_range(1..=131u64)) * COARSE_WIDTH;
    let offset = [0, EPOCH - 1, EPOCH, EPOCH + 1, 2 * EPOCH][rng.gen_range(0..5usize)];
    (boundary + offset - EPOCH).max(now)
}

/// Only far events: past the fine ring, inside the coarse ring, at its
/// boundaries, or past it. With a small census the fine ring runs empty
/// (the horizon jumps to the next occupied coarse bucket) and so do the
/// fine and coarse rings together (the coarse window jumps to the
/// overflow minimum).
fn far_only_at(rng: &mut SmallRng, now: u64) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => now + RING_SPAN + rng.gen_range(0..COARSE_SPAN - RING_SPAN),
        1 => coarse_boundary_at(rng, now).max(now + RING_SPAN),
        2 => now + COARSE_SPAN - EPOCH + rng.gen_range(0..3u64) * EPOCH,
        _ => now + COARSE_SPAN + rng.gen_range(0..4 * COARSE_SPAN),
    }
}

/// A dense near stream with a sprinkle of timers around and past the
/// coarse horizon: the fine ring never runs empty, so only the cascade
/// itself moves the far timers in as the windows slide over them.
fn busy_with_far_at(rng: &mut SmallRng, now: u64) -> u64 {
    now + if rng.gen_range(0..32u32) == 0 {
        COARSE_SPAN - 2 * COARSE_WIDTH + rng.gen_range(0..COARSE_SPAN)
    } else {
        rng.gen_range(0..2_000_000u64)
    }
}

/// The mega-fleet's timer mix: one exp(200 ms) think per three request
/// hops (0.25 ms, exp(2 ms), 0.25 ms).
fn mega_fleet_at(rng: &mut SmallRng, now: u64) -> u64 {
    let mean_ns = match rng.gen_range(0..4u32) {
        0 => 200e6,
        1 => 2e6,
        _ => return now + 250_000,
    };
    now + (-mean_ns * (1.0 - rng.gen::<f64>()).ln()) as u64
}

/// The kernel beside its model, driven in lockstep.
struct Duel {
    rng: SmallRng,
    shape: Shape,
    /// Each event's payload is its sequence number.
    q: EventQueue<u64>,
    /// The model: pending `(time, seq)` keys, popped from the front —
    /// ascending `(time, seq)` order, the kernel's contract.
    model: BTreeSet<(u64, u64)>,
    /// Cancellable timers scheduled and not yet cancelled, fired or not:
    /// `(handle, model key)`, culled once the list outgrows what is
    /// pending.
    timers: Vec<(TimerId, (u64, u64))>,
    cull_at: usize,
    /// The kernel allocates one sequence number per schedule call, in
    /// call order.
    next_seq: u64,
}

impl Duel {
    fn new(seed: u64, shape: Shape) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            shape,
            q: EventQueue::new(),
            model: BTreeSet::new(),
            timers: Vec::new(),
            cull_at: 64,
            next_seq: 0,
        }
    }

    fn push(&mut self) {
        let at = (self.shape)(&mut self.rng, self.q.now().as_nanos());
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.rng.gen_range(0..4u32) == 0 {
            let timer = self.q.schedule_cancellable(Nanos(at), seq);
            self.timers.push((timer, (at, seq)));
        } else {
            self.q.schedule(Nanos(at), seq);
        }
        self.model.insert((at, seq));
    }

    fn pop_and_check(&mut self) {
        let got = self.q.pop().map(|(t, seq)| (t.as_nanos(), seq));
        assert_eq!(
            got,
            self.model.pop_first(),
            "pop order diverged from the model"
        );
    }

    /// Cancel a random timer — fired, or still pending in any tier: the
    /// kernel hands back the payload exactly when the model still holds
    /// it. Returns whether it was pending.
    fn cancel_one(&mut self) -> bool {
        if self.timers.is_empty() {
            return false;
        }
        let at = self.rng.gen_range(0..self.timers.len());
        let (timer, key) = self.timers.swap_remove(at);
        let pending = self.model.remove(&key);
        let want = pending.then_some(key.1);
        assert_eq!(self.q.cancel(timer), want, "cancel of the timer at {key:?}");
        if self.timers.len() > self.cull_at {
            let model = &self.model;
            self.timers.retain(|(_, key)| model.contains(key));
            self.cull_at = 2 * self.timers.len() + 64;
        }
        pending
    }
}

/// Fill to `pending` events, churn `steps` pop+push rounds with
/// interleaved cancellations, then drain — asserting every pop and cancel
/// against the model.
fn duel(pending: usize, steps: usize, seed: u64, shape: Shape) {
    let mut d = Duel::new(seed, shape);
    for _ in 0..pending {
        d.push();
    }
    assert_eq!(d.q.len(), pending);
    for _ in 0..steps {
        d.pop_and_check();
        if d.rng.gen_range(0..8u32) == 0 && d.cancel_one() {
            // Keep the census: replace the cancelled event too.
            d.push();
        }
        d.push();
        assert_eq!(d.q.len(), d.model.len());
    }
    while !d.model.is_empty() {
        d.pop_and_check();
    }
    assert_eq!(d.q.pop(), None);
    assert!(d.q.is_empty());
}

proptest! {
    /// The benchmark's small profile: every pop matches the model.
    #[test]
    fn churn_at_128_pending_matches_the_model(seed in 0u64..1 << 32) {
        duel(128, 400, seed, adversarial_at);
    }

    /// The benchmark's middle profile.
    #[test]
    fn churn_at_4096_pending_matches_the_model(seed in 0u64..1 << 32) {
        duel(4096, 300, seed, adversarial_at);
    }

    /// Far events only, at a census small enough that the fine ring and
    /// then the coarse ring run empty: both horizon jumps, over and over.
    #[test]
    fn far_only_churn_jumps_both_horizons_and_matches_the_model(
        seed in 0u64..1 << 32,
        pending in 1usize..24,
    ) {
        duel(pending, 400, seed, far_only_at);
    }
}

/// The largest benchmark profile. Too big to sample 64 ways under the
/// default proptest budget in debug builds, so a handful of fixed seeds —
/// the adversary inside `duel` is what carries the coverage.
#[test]
fn churn_at_65536_pending_matches_the_model() {
    for seed in [1, 7, 42] {
        duel(65_536, 150, seed, adversarial_at);
    }
}

/// The mega-fleet's census: 120k pending, a quarter of every push an
/// exp(200 ms) think timer (mostly past the fine ring). The drain runs out
/// the exponential tail, ≈ 2 s: dozens of cascades.
#[test]
fn mega_fleet_shaped_churn_matches_the_model() {
    for seed in [3, 11] {
        duel(120_000, 120_000, seed, mega_fleet_at);
    }
}

/// Busy near traffic for ≈ 10 s of simulated time while far timers ride
/// every tier: ≈ 300 cascades with the fine ring never empty.
#[test]
fn busy_churn_with_far_timers_matches_the_model() {
    for seed in [5, 13, 21] {
        duel(2048, 100_000, seed, busy_with_far_at);
    }
}
