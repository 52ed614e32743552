//! Property-based tests for the C3 core invariants.

use c3_core::{
    queue_size_estimate, score, Attempt, C3Config, C3State, DynamicSnitch, Ewma, Expiry, Fate,
    LifecycleConfig, LifecycleCounts, Nanos, OpLife, Outcome, RateLimiter, SendDecision,
    SnitchConfig, TrackerSnapshot,
};
use proptest::prelude::*;

fn snapshot_strategy() -> impl Strategy<Value = TrackerSnapshot> {
    (
        0u32..50,
        proptest::option::of(0.0f64..1000.0),
        proptest::option::of(0.01f64..1000.0),
        proptest::option::of(0.0f64..1000.0),
    )
        .prop_map(|(outstanding, q, st, rt)| TrackerSnapshot {
            outstanding,
            queue_size: q,
            service_time_ms: st,
            response_time_ms: rt,
        })
}

proptest! {
    /// The EWMA of samples within [lo, hi] stays within [lo, hi].
    #[test]
    fn ewma_stays_within_sample_bounds(
        alpha in 0.01f64..1.0,
        samples in proptest::collection::vec(0.0f64..1e6, 1..200),
    ) {
        let mut e = Ewma::new(alpha);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &s in &samples {
            e.update(s);
            let v = e.value().unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "ewma {v} escaped [{lo}, {hi}]");
        }
    }

    /// Scores are finite and never NaN for any plausible tracker state.
    #[test]
    fn scores_are_finite(snap in snapshot_strategy(), w in 0.0f64..500.0, b in 1u32..5) {
        let cfg = C3Config {
            concurrency_weight: w,
            ..C3Config::default()
        }.with_queue_exponent(b);
        let s = score(&cfg, &snap);
        prop_assert!(s.is_finite());
        prop_assert!(queue_size_estimate(&cfg, &snap) >= 1.0);
    }

    /// Score is monotone in the queue-size feedback: more queued work never
    /// makes a server *more* attractive.
    #[test]
    fn score_monotone_in_queue(
        base in snapshot_strategy(),
        extra in 0.1f64..100.0,
    ) {
        prop_assume!(base.service_time_ms.is_some());
        let cfg = C3Config::for_clients(10);
        let worse = TrackerSnapshot {
            queue_size: Some(base.queue_size.unwrap_or(0.0) + extra),
            ..base
        };
        prop_assert!(score(&cfg, &worse) >= score(&cfg, &base));
    }

    /// The token bucket never admits more than `ceil(srate)` sends within a
    /// single δ window.
    #[test]
    fn rate_limiter_caps_window_budget(
        rate in 1.0f64..100.0,
        attempts in 1usize..400,
    ) {
        let cfg = C3Config {
            initial_rate: rate,
            min_rate: 1.0,
            ..C3Config::default()
        };
        let mut rl = RateLimiter::new(&cfg, Nanos::ZERO);
        let mut granted = 0;
        for i in 0..attempts {
            if rl.try_acquire(Nanos(i as u64)) {
                granted += 1;
            }
        }
        prop_assert!(granted as f64 <= rate.ceil(), "granted {granted} > srate {rate}");
    }

    /// Conservation: every send recorded against C3State is matched by one
    /// response/abandon, leaving zero outstanding.
    #[test]
    fn scheduler_outstanding_is_conserved(
        ops in proptest::collection::vec((0usize..8, prop::bool::ANY), 1..300),
    ) {
        let cfg = C3Config {
            initial_rate: 1000.0,
            ..C3Config::for_clients(8)
        };
        let mut st = C3State::new(8, cfg, Nanos::ZERO);
        let mut inflight: Vec<usize> = Vec::new();
        let mut t = 0u64;
        for (g, respond) in ops {
            t += 100_000;
            let group = [g, (g + 1) % 8, (g + 2) % 8];
            if let SendDecision::Send(s) = st.try_send(&group, Nanos(t)) {
                st.record_send(s);
                inflight.push(s);
            }
            if respond {
                if let Some(s) = inflight.pop() {
                    st.on_response(s, Nanos::from_millis(1), None, Nanos(t));
                }
            }
        }
        for s in inflight.drain(..) {
            st.on_abandoned(s);
        }
        for s in 0..8 {
            prop_assert_eq!(st.outstanding(s), 0, "server {} leaked slots", s);
        }
    }

    /// try_send always returns a member of the supplied group.
    #[test]
    fn try_send_stays_in_group(
        servers in 3usize..20,
        picks in proptest::collection::vec(0usize..20, 1..100),
    ) {
        let cfg = C3Config {
            initial_rate: 1000.0,
            ..C3Config::default()
        };
        let mut st = C3State::new(servers, cfg, Nanos::ZERO);
        for (i, p) in picks.into_iter().enumerate() {
            let a = p % servers;
            let group = [a, (a + 1) % servers, (a + 2) % servers];
            if let SendDecision::Send(s) = st.try_send(&group, Nanos(i as u64 * 1_000)) {
                st.record_send(s);
                prop_assert!(group.contains(&s), "selected {} outside {:?}", s, group);
            }
        }
    }

    /// The snitch's selection is always a member of the supplied group and
    /// is stable between recomputations.
    #[test]
    fn snitch_selects_in_group(
        peers in 3usize..16,
        latencies in proptest::collection::vec(1u64..500, 3..16),
    ) {
        let mut s = DynamicSnitch::new(peers, SnitchConfig::default());
        for (peer, &l) in latencies.iter().enumerate().take(peers) {
            s.record_latency(peer, Nanos::from_millis(l));
        }
        s.recompute(Nanos::from_millis(100));
        let group: Vec<usize> = (0..peers.min(3)).collect();
        let first = s.select(&group);
        prop_assert!(group.contains(&first));
        // Feed arbitrary new evidence without a recompute: frozen choice.
        for peer in 0..peers {
            s.record_latency(peer, Nanos::from_millis(1));
        }
        prop_assert_eq!(s.select(&group), first, "ranking must stay frozen");
    }

    /// Snitch scores are monotone in the gossiped iowait.
    #[test]
    fn snitch_score_monotone_in_iowait(io in 0.0f64..1.0, extra in 0.01f64..0.5) {
        let mut a = DynamicSnitch::new(1, SnitchConfig::default());
        let mut b = DynamicSnitch::new(1, SnitchConfig::default());
        a.record_latency(0, Nanos::from_millis(5));
        b.record_latency(0, Nanos::from_millis(5));
        a.record_iowait(0, io);
        b.record_iowait(0, (io + extra).min(1.5));
        a.recompute(Nanos::from_millis(100));
        b.recompute(Nanos::from_millis(100));
        prop_assert!(b.score(0) >= a.score(0));
    }

    /// One op's lifecycle machine under any sequence of its transitions,
    /// driven as a driver would (a hedge response only once a hedge went
    /// out, a retry sent only after an expiry asked for one): one terminal
    /// transition at most — a single completion, or a single park, and
    /// `park` never after a completion — nothing but `Dead`, `Late`
    /// (`HedgeLoss` after a completed hedged op) or `false` once terminal,
    /// at most one hedge (net of refusals) and one speculative duplicate,
    /// attempts within the retry budget, and a ledger that balances.
    #[test]
    fn op_life_decides_each_op_once(
        retries in 0u32..4,
        steps in proptest::collection::vec((0u8..7, 0u8..3), 1..60),
    ) {
        let cfg = LifecycleConfig::hardened(Nanos::from_millis(75), retries, None);
        let mut life = OpLife::default();
        let mut counts = LifecycleCounts::default();
        let (mut completions, mut parks, mut hedges, mut specs, mut expiries) = (0, 0, 0, 0, 0);
        let mut retry_waiting = false;
        for (step, arg) in steps {
            let before = life.fate();
            let terminal = before != Fate::Open;
            match step {
                0 => {
                    let expiry = life.expire(&cfg, || 1.0, &mut counts);
                    prop_assert!(!terminal || expiry == Expiry::Dead, "{expiry:?} after {before:?}");
                    expiries += u64::from(expiry != Expiry::Dead);
                    parks += u32::from(expiry == Expiry::Park);
                    retry_waiting |= matches!(expiry, Expiry::Retry(_));
                }
                1 => {
                    let due = life.retry_due();
                    prop_assert!(!(terminal && due), "a retry due after {before:?}");
                    if retry_waiting && due {
                        counts.retries += 1;
                    }
                    retry_waiting = false;
                }
                2 => {
                    let elected = life.elect_hedge();
                    prop_assert!(!(terminal && elected), "a hedge elected after {before:?}");
                    if elected && arg == 0 {
                        life.hedge_refused();
                    } else if elected {
                        hedges += 1;
                        counts.hedges += 1;
                    }
                }
                3 => {
                    let elected = life.elect_speculative();
                    prop_assert!(!(terminal && elected), "a duplicate elected after {before:?}");
                    specs += u32::from(elected);
                }
                4 | 5 => {
                    let from = match arg {
                        0 => Attempt::Stale,
                        1 if hedges > 0 => Attempt::Hedge,
                        _ => Attempt::Primary,
                    };
                    match life.respond(from, &mut counts) {
                        Outcome::Complete { hedge_win } => {
                            prop_assert!(!terminal, "completed after {before:?}");
                            prop_assert_eq!(hedge_win, from == Attempt::Hedge);
                            completions += 1;
                        }
                        Outcome::HedgeLoss => {
                            prop_assert!(before == Fate::Completed && hedges > 0 && from != Attempt::Stale);
                        }
                        Outcome::Late => {}
                    }
                }
                _ => {
                    let parked = life.park();
                    prop_assert!(!(terminal && parked), "parked after {before:?}");
                    parks += u32::from(parked);
                }
            }
            prop_assert!(completions + parks <= 1, "{completions} completions, {parks} parks");
            prop_assert!(hedges <= 1 && specs <= 1, "{hedges} hedges, {specs} duplicates");
            prop_assert!(u32::from(life.attempts()) <= retries);
        }
        prop_assert_eq!(counts.timeouts, expiries);
        counts.check();
    }
}
