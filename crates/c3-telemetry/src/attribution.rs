//! Tail-latency attribution: join lifecycle events per request and
//! decompose each tail-bucket latency into its mechanisms.
//!
//! The decomposition per request:
//!
//! - **wait-for-permit** — issue → first send: time parked behind C3's
//!   rate-limiter backpressure (or a driver backlog). Zero for strategies
//!   that never hold a request.
//! - **service** — the server-reported execution time piggybacked on the
//!   response (exact, from [`TracePoint::Feedback`]).
//! - **queueing-at-replica** — the remainder (latency − wait − service):
//!   time spent in the replica's queue plus the constant network round
//!   trip. Under a blackout this is where the tail lives.
//! - **selection regret** — how much worse the chosen replica looked than
//!   the best available candidate *under freshly computed scores* at
//!   decision time: `chosen.fresh_score − min(fresh_score)`. A strategy
//!   that always picks the arg-min of its own (possibly stale) view has
//!   zero regret against itself by construction, which is exactly the
//!   Fig. 2 failure mode — so regret is measured against fresh evidence
//!   ([`c3_core::ReplicaView::fresh_score`]), plus a strategy-agnostic
//!   **queue regret** in ground-truth pending-request units when the
//!   driver can see replica queues (sim backends).

use std::collections::HashMap;

use c3_core::Nanos;

use crate::recorder::{ReplicaSnap, TraceEvent, TracePoint, NO_SERVER};

/// Relative regret denominators are floored at 1.0 score units (≈ 1 ms
/// for both C3's and Dynamic Snitching's latency-shaped scores) so a
/// near-zero best score cannot inflate the ratio.
const REL_FLOOR: f64 = 1.0;

/// A request's lifecycle events, joined.
#[derive(Clone, Debug, Default)]
pub(crate) struct RequestJoin {
    /// Driver request id.
    pub request: u64,
    /// When the client issued it.
    pub issue_at: Option<Nanos>,
    /// When the (final, successful) selection happened.
    pub decision_at: Option<Nanos>,
    /// Whether any selection attempt backpressured.
    pub backpressured: bool,
    /// The chosen replica's decision snapshot.
    pub chosen: Option<ReplicaSnap>,
    /// Best available fresh score across the snapshotted group.
    pub best_fresh: f64,
    /// Server holding `best_fresh`.
    pub best_server: u32,
    /// Smallest ground-truth pending depth across the group
    /// ([`NO_SERVER`] when unknown).
    pub min_pending: u32,
    /// First time the request went on the wire.
    pub send_at: Option<Nanos>,
    /// Wire sends (speculative retries and read repair add more).
    pub sends: u32,
    /// Server feedback `(queue, service_ns)` — the chosen server's when
    /// available, else the first seen.
    pub feedback: Option<(u32, u64)>,
    /// End-to-end latency, set on completion.
    pub latency_ns: Option<u64>,
    /// When the request completed (driver time) — anchors the hedge
    /// benefit computation.
    pub complete_at: Option<Nanos>,
    /// Deadline expirations observed.
    pub timeouts: u32,
    /// Retry re-dispatches observed.
    pub retries: u32,
    /// When the hedge duplicate went on the wire.
    pub hedge_at: Option<Nanos>,
    /// Whether the hedge duplicate's response completed the request.
    pub hedge_won: bool,
    /// When the losing response of a hedge race arrived (and was
    /// discarded); `None` when the loser never responded.
    pub hedge_loss_at: Option<Nanos>,
}

/// One tail request's decomposed latency.
#[derive(Clone, Copy, Debug)]
pub struct Attribution {
    /// Driver request id.
    pub request: u64,
    /// End-to-end latency.
    pub latency_ns: u64,
    /// Issue → first send (rate-limiter/backlog wait).
    pub wait_for_permit_ns: u64,
    /// Remainder: replica queueing + network.
    pub queueing_ns: u64,
    /// Server-reported service time.
    pub service_ns: u64,
    /// Chosen server ([`NO_SERVER`] when the decision fell out of the
    /// ring).
    pub chosen: u32,
    /// Whether the request ever backpressured.
    pub backpressured: bool,
    /// Score the selector ranked the chosen replica with.
    pub chosen_score: f64,
    /// Chosen replica's freshly recomputed score at decision time.
    pub chosen_fresh: f64,
    /// Best available fresh score in the group.
    pub best_fresh: f64,
    /// Server holding `best_fresh`.
    pub best_server: u32,
    /// Selection regret in score units: `chosen_fresh − best_fresh`
    /// (`NaN` when no decision snapshot survived).
    pub regret: f64,
    /// Regret normalized by `max(|best_fresh|, 1.0)` — the
    /// cross-strategy-comparable number (score units differ by strategy).
    pub regret_rel: f64,
    /// Ground-truth regret in pending-request units:
    /// `chosen.pending − min(pending)` (`NaN` when the driver cannot see
    /// replica queues).
    pub queue_regret: f64,
    /// Deadline expirations this request survived.
    pub timeouts: u32,
    /// Retry re-dispatches after timeouts.
    pub retries: u32,
    /// Whether a hedge duplicate was issued.
    pub hedged: bool,
    /// Whether the hedge duplicate won the race.
    pub hedge_won: bool,
    /// Hedge won and the original never responded at all — the duplicate
    /// didn't just shave latency, it rescued the request (the benefit is
    /// unbounded, so `hedge_saved_ns` stays 0 and this flag marks it).
    pub hedge_rescued: bool,
    /// Latency bought back by the winning hedge: the losing response's
    /// arrival minus completion time — how much longer the request would
    /// have taken without the duplicate. 0 when the hedge lost or the
    /// loser never arrived.
    pub hedge_saved_ns: u64,
    /// Duplicate service burned by hedging: the losing response's flight
    /// time (arrival minus its dispatch) — work a replica did for a
    /// result nobody used. 0 when no loser response arrived.
    pub hedge_waste_ns: u64,
}

/// The tail-attribution table of one `(scenario, strategy)` cell.
#[derive(Clone, Debug)]
pub struct TailAttribution {
    /// Scenario name.
    pub scenario: String,
    /// Strategy name.
    pub strategy: String,
    /// Tail quantile the bucket starts at (e.g. 0.99).
    pub quantile: f64,
    /// Latency at that quantile over the joined requests.
    pub threshold_ns: u64,
    /// Completed requests that survived the join (ring drops can orphan
    /// the oldest).
    pub joined: usize,
    /// Tail-bucket rows, worst first.
    pub tail: Vec<Attribution>,
    /// Mean wait-for-permit over the tail bucket, ns.
    pub mean_wait_ns: f64,
    /// Mean replica-queueing over the tail bucket, ns.
    pub mean_queueing_ns: f64,
    /// Mean service time over the tail bucket, ns.
    pub mean_service_ns: f64,
    /// Mean selection regret (score units) over tail rows that carry one.
    pub mean_regret: f64,
    /// Mean normalized regret over the tail bucket.
    pub mean_regret_rel: f64,
    /// Mean ground-truth queue regret over the tail bucket.
    pub mean_queue_regret: f64,
    /// Mean normalized regret over the *body* (below-threshold requests),
    /// for tail-vs-body contrast.
    pub body_mean_regret_rel: f64,
    /// Requests (across the whole cell, not just the tail) that issued a
    /// hedge duplicate.
    pub hedges: usize,
    /// Hedged requests the duplicate won.
    pub hedge_wins: usize,
    /// Hedge wins where the original never responded (rescues).
    pub hedge_rescues: usize,
    /// Mean latency bought back per measurable hedge win, ns (NaN when
    /// none) — the benefit side of the hedging ledger.
    pub mean_hedge_saved_ns: f64,
    /// Mean duplicate service burned per hedged request with a losing
    /// response, ns (NaN when none) — the cost side.
    pub mean_hedge_waste_ns: f64,
    /// Deadline expirations across the cell.
    pub total_timeouts: u64,
    /// Retry re-dispatches across the cell.
    pub total_retries: u64,
}

/// Mean over the finite entries of an iterator (NaN when none).
fn finite_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        if v.is_finite() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Join raw events into per-request records (completed or not).
pub(crate) fn join_requests(events: impl Iterator<Item = TraceEvent>) -> Vec<RequestJoin> {
    let mut map: HashMap<u64, RequestJoin> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for ev in events {
        let join = map.entry(ev.request).or_insert_with(|| {
            order.push(ev.request);
            RequestJoin {
                request: ev.request,
                best_fresh: f64::NAN,
                best_server: NO_SERVER,
                min_pending: NO_SERVER,
                ..RequestJoin::default()
            }
        });
        match ev.point {
            TracePoint::Issue => join.issue_at = Some(ev.at),
            TracePoint::Decision {
                chosen,
                group_len,
                group,
            } => {
                if chosen == NO_SERVER {
                    join.backpressured = true;
                } else {
                    // Keep the decision that actually led to a send: the
                    // last successful one.
                    join.decision_at = Some(ev.at);
                    // A successful decision IS the send on the sim-side
                    // drivers (the wire record is folded into it to keep
                    // the ring traffic down); explicit `Send` events
                    // remain only for sends that happen without their own
                    // decision, e.g. speculative retries.
                    if join.send_at.is_none() {
                        join.send_at = Some(ev.at);
                    }
                    join.sends += 1;
                    let snaps = &group[..group_len as usize];
                    join.chosen = snaps.iter().find(|s| s.server == chosen).copied();
                    join.best_fresh = f64::NAN;
                    join.best_server = NO_SERVER;
                    join.min_pending = NO_SERVER;
                    for s in snaps {
                        let fresh = s.fresh_score as f64;
                        if fresh.is_finite()
                            && !(join.best_fresh.is_finite() && join.best_fresh <= fresh)
                        {
                            join.best_fresh = fresh;
                            join.best_server = s.server;
                        }
                        if s.pending != NO_SERVER && s.pending < join.min_pending {
                            join.min_pending = s.pending;
                        }
                    }
                }
            }
            TracePoint::Send { .. } => {
                if join.send_at.is_none() {
                    join.send_at = Some(ev.at);
                }
                join.sends += 1;
            }
            TracePoint::Feedback {
                server,
                queue,
                service_ns,
            } => {
                let from_chosen = join.chosen.is_some_and(|c| c.server == server);
                if join.feedback.is_none() || from_chosen {
                    join.feedback = Some((queue, service_ns));
                }
            }
            TracePoint::Complete { latency_ns } => {
                join.latency_ns = Some(latency_ns);
                join.complete_at = Some(ev.at);
            }
            TracePoint::Timeout { .. } => join.timeouts += 1,
            // A retry re-enters selection, so its send is counted by the
            // Decision it triggers; this is a pure marker.
            TracePoint::Retry { .. } => join.retries += 1,
            // A hedge duplicate bypasses selection: this IS its wire
            // record (drivers emit HedgeIssue instead of Send for it).
            TracePoint::HedgeIssue { .. } => {
                join.hedge_at = Some(ev.at);
                join.sends += 1;
            }
            TracePoint::HedgeWin { .. } => join.hedge_won = true,
            TracePoint::HedgeLoss { .. } => join.hedge_loss_at = Some(ev.at),
            // Failure-detector transitions are cluster-level, recorded
            // under a sentinel request id; nothing to join per request.
            TracePoint::Evict { .. } | TracePoint::Reinstate { .. } => {}
        }
    }
    // HashMap iteration order is nondeterministic; return first-seen order
    // so the whole pipeline stays reproducible.
    order
        .into_iter()
        .map(|id| map.remove(&id).expect("joined above"))
        .collect()
}

fn attribution_of(join: &RequestJoin) -> Option<Attribution> {
    let latency_ns = join.latency_ns?;
    // Drop-oldest evicts a time-prefix of the ring, so a request whose
    // Issue survived kept its whole lifecycle; one whose Issue fell out is
    // partial (no decision, no wait) and would attribute misleadingly.
    let issue_at = join.issue_at?;
    let wait = match join.send_at {
        Some(send) => send.saturating_sub(issue_at).as_nanos(),
        None => 0,
    }
    .min(latency_ns);
    let service = join
        .feedback
        .map(|(_, s)| s)
        .unwrap_or(0)
        .min(latency_ns - wait);
    let queueing = latency_ns - wait - service;
    let (chosen, chosen_score, chosen_fresh, pending) = match join.chosen {
        Some(snap) => (
            snap.server,
            snap.score as f64,
            snap.fresh_score as f64,
            snap.pending,
        ),
        None => (NO_SERVER, f64::NAN, f64::NAN, NO_SERVER),
    };
    let regret = if chosen_fresh.is_finite() && join.best_fresh.is_finite() {
        chosen_fresh - join.best_fresh
    } else {
        f64::NAN
    };
    let regret_rel = regret / join.best_fresh.abs().max(REL_FLOOR);
    let queue_regret = if pending != NO_SERVER && join.min_pending != NO_SERVER {
        pending as f64 - join.min_pending as f64
    } else {
        f64::NAN
    };
    let hedged = join.hedge_at.is_some();
    let hedge_rescued = join.hedge_won && join.hedge_loss_at.is_none();
    let hedge_saved_ns = if join.hedge_won {
        match (join.hedge_loss_at, join.complete_at) {
            (Some(loss), Some(done)) => loss.saturating_sub(done).as_nanos(),
            _ => 0,
        }
    } else {
        0
    };
    let hedge_waste_ns = match join.hedge_loss_at {
        // Loser's flight: when the hedge won the loser is the original
        // (dispatched at first send); when the original won the loser is
        // the duplicate (dispatched at hedge time).
        Some(loss) => {
            let dispatched = if join.hedge_won {
                join.send_at
            } else {
                join.hedge_at
            };
            dispatched
                .map(|d| loss.saturating_sub(d).as_nanos())
                .unwrap_or(0)
        }
        None => 0,
    };
    Some(Attribution {
        request: join.request,
        latency_ns,
        wait_for_permit_ns: wait,
        queueing_ns: queueing,
        service_ns: service,
        chosen,
        backpressured: join.backpressured,
        chosen_score,
        chosen_fresh,
        best_fresh: join.best_fresh,
        best_server: join.best_server,
        regret,
        regret_rel,
        queue_regret,
        timeouts: join.timeouts,
        retries: join.retries,
        hedged,
        hedge_won: join.hedge_won,
        hedge_rescued,
        hedge_saved_ns,
        hedge_waste_ns,
    })
}

/// Join `events` and attribute the tail bucket at `quantile` (e.g. 0.99).
///
/// The threshold uses the exact order-statistic convention shared with
/// the metrics crate (1-based rank `ceil(q·n)`); the tail bucket is every
/// joined request at or above it, worst first (ties by request id for
/// determinism).
pub fn attribute_tail(
    events: impl Iterator<Item = TraceEvent>,
    scenario: &str,
    strategy: &str,
    quantile: f64,
) -> TailAttribution {
    let joins = join_requests(events);
    let rows: Vec<Attribution> = joins.iter().filter_map(attribution_of).collect();
    let mut latencies: Vec<u64> = rows.iter().map(|r| r.latency_ns).collect();
    latencies.sort_unstable();
    let threshold_ns = if latencies.is_empty() {
        0
    } else {
        let q = quantile.clamp(0.0, 1.0);
        let rank = ((q * latencies.len() as f64).ceil() as usize)
            .max(1)
            .min(latencies.len());
        latencies[rank - 1]
    };
    // Hedging cost/benefit is a cell-level ledger: count it over every
    // joined row before the tail/body split.
    let hedges = rows.iter().filter(|r| r.hedged).count();
    let hedge_wins = rows.iter().filter(|r| r.hedge_won).count();
    let hedge_rescues = rows.iter().filter(|r| r.hedge_rescued).count();
    let mean_hedge_saved_ns = finite_mean(
        rows.iter()
            .filter(|r| r.hedge_saved_ns > 0)
            .map(|r| r.hedge_saved_ns as f64),
    );
    let mean_hedge_waste_ns = finite_mean(
        rows.iter()
            .filter(|r| r.hedge_waste_ns > 0)
            .map(|r| r.hedge_waste_ns as f64),
    );
    let total_timeouts: u64 = rows.iter().map(|r| r.timeouts as u64).sum();
    let total_retries: u64 = rows.iter().map(|r| r.retries as u64).sum();
    let (mut tail, body): (Vec<Attribution>, Vec<Attribution>) = rows
        .into_iter()
        .partition(|r| r.latency_ns >= threshold_ns && threshold_ns > 0);
    tail.sort_by(|a, b| {
        b.latency_ns
            .cmp(&a.latency_ns)
            .then(a.request.cmp(&b.request))
    });
    TailAttribution {
        scenario: scenario.to_string(),
        strategy: strategy.to_string(),
        quantile,
        threshold_ns,
        joined: latencies.len(),
        mean_wait_ns: finite_mean(tail.iter().map(|r| r.wait_for_permit_ns as f64)),
        mean_queueing_ns: finite_mean(tail.iter().map(|r| r.queueing_ns as f64)),
        mean_service_ns: finite_mean(tail.iter().map(|r| r.service_ns as f64)),
        mean_regret: finite_mean(tail.iter().map(|r| r.regret)),
        mean_regret_rel: finite_mean(tail.iter().map(|r| r.regret_rel)),
        mean_queue_regret: finite_mean(tail.iter().map(|r| r.queue_regret)),
        body_mean_regret_rel: finite_mean(body.iter().map(|r| r.regret_rel)),
        hedges,
        hedge_wins,
        hedge_rescues,
        mean_hedge_saved_ns,
        mean_hedge_waste_ns,
        total_timeouts,
        total_retries,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, ReplicaSnap, TRACE_GROUP};

    fn snap(server: u32, fresh: f64, pending: u32) -> ReplicaSnap {
        ReplicaSnap {
            server,
            pending,
            score: fresh as f32,
            fresh_score: fresh as f32,
            ewma_latency_ms: fresh as f32,
            ewma_queue: 1.0,
            srate: f32::NAN,
            outstanding: 0,
        }
    }

    fn decision(chosen: u32, snaps: &[ReplicaSnap]) -> TracePoint {
        let mut group = [ReplicaSnap::empty(); TRACE_GROUP];
        group[..snaps.len()].copy_from_slice(snaps);
        TracePoint::Decision {
            chosen,
            group_len: snaps.len() as u8,
            group,
        }
    }

    /// One request through the full lifecycle with a known-bad choice.
    #[test]
    fn attributes_wait_service_queueing_and_regret() {
        let mut rec = Recorder::new(64);
        let snaps = [snap(0, 40.0, 9), snap(1, 2.0, 1)];
        rec.record(Nanos(0), 7, TracePoint::Issue);
        rec.record(Nanos(100), 7, decision(0, &snaps));
        rec.record(Nanos(100), 7, TracePoint::Send { server: 0 });
        rec.record(
            Nanos(5_000),
            7,
            TracePoint::Feedback {
                server: 0,
                queue: 4,
                service_ns: 3_000,
            },
        );
        rec.record(Nanos(5_000), 7, TracePoint::Complete { latency_ns: 5_000 });
        let attr = attribute_tail(rec.events(), "t", "DS", 0.99);
        assert_eq!(attr.joined, 1);
        assert_eq!(attr.tail.len(), 1);
        let row = &attr.tail[0];
        assert_eq!(row.wait_for_permit_ns, 100);
        assert_eq!(row.service_ns, 3_000);
        assert_eq!(row.queueing_ns, 1_900);
        assert_eq!(row.chosen, 0);
        assert_eq!(row.best_server, 1);
        assert!((row.regret - 38.0).abs() < 1e-12);
        assert!((row.regret_rel - 19.0).abs() < 1e-12);
        assert!((row.queue_regret - 8.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_splits_tail_from_body() {
        let mut rec = Recorder::new(4096);
        for i in 0..100u64 {
            rec.record(Nanos(i), i, TracePoint::Issue);
            rec.record(Nanos(i), i, TracePoint::Send { server: 0 });
            rec.record(
                Nanos(i + 1),
                i,
                TracePoint::Complete {
                    latency_ns: 1_000 + i * 10,
                },
            );
        }
        let attr = attribute_tail(rec.events(), "t", "LOR", 0.99);
        assert_eq!(attr.joined, 100);
        assert_eq!(attr.threshold_ns, 1_980, "rank ceil(0.99·100) = 99th");
        assert_eq!(attr.tail.len(), 2, "at-or-above threshold, worst first");
        assert_eq!(attr.tail[0].latency_ns, 1_990);
        assert_eq!(attr.tail[1].latency_ns, 1_980);
    }

    #[test]
    fn hedge_ledger_decomposes_benefit_and_cost() {
        let mut rec = Recorder::new(64);
        // Request 1: hedge wins, loser arrives later — measurable save.
        rec.record(Nanos(0), 1, TracePoint::Issue);
        rec.record(Nanos(0), 1, TracePoint::Send { server: 0 });
        rec.record(Nanos(2_000), 1, TracePoint::HedgeIssue { server: 1 });
        rec.record(Nanos(3_000), 1, TracePoint::HedgeWin { server: 1 });
        rec.record(Nanos(3_000), 1, TracePoint::Complete { latency_ns: 3_000 });
        rec.record(Nanos(8_000), 1, TracePoint::HedgeLoss { server: 0 });
        // Request 2: original wins, the duplicate's flight is pure waste.
        rec.record(Nanos(0), 2, TracePoint::Issue);
        rec.record(Nanos(0), 2, TracePoint::Send { server: 0 });
        rec.record(Nanos(2_000), 2, TracePoint::HedgeIssue { server: 1 });
        rec.record(Nanos(2_500), 2, TracePoint::Complete { latency_ns: 2_500 });
        rec.record(Nanos(6_000), 2, TracePoint::HedgeLoss { server: 1 });
        // Request 3: hedge rescues (the original never responds), after a
        // timeout and a retry.
        rec.record(Nanos(0), 3, TracePoint::Issue);
        rec.record(Nanos(0), 3, TracePoint::Send { server: 0 });
        rec.record(Nanos(5_000), 3, TracePoint::Timeout { server: 0 });
        rec.record(
            Nanos(5_100),
            3,
            TracePoint::Retry {
                server: 2,
                attempt: 1,
            },
        );
        rec.record(Nanos(6_000), 3, TracePoint::HedgeIssue { server: 1 });
        rec.record(Nanos(7_000), 3, TracePoint::HedgeWin { server: 1 });
        rec.record(Nanos(7_000), 3, TracePoint::Complete { latency_ns: 7_000 });
        let attr = attribute_tail(rec.events(), "crash-flux", "C3", 0.5);
        assert_eq!(attr.hedges, 3);
        assert_eq!(attr.hedge_wins, 2);
        assert_eq!(attr.hedge_rescues, 1);
        assert_eq!(attr.total_timeouts, 1);
        assert_eq!(attr.total_retries, 1);
        // Save: request 1's loser at 8 000 vs completion at 3 000.
        assert!((attr.mean_hedge_saved_ns - 5_000.0).abs() < 1e-9);
        // Waste: request 1's loser flew 8 000 (sent at 0), request 2's
        // duplicate flew 4 000 (hedged at 2 000, lost at 6 000).
        assert!((attr.mean_hedge_waste_ns - 6_000.0).abs() < 1e-9);
        let r3 = attr
            .tail
            .iter()
            .find(|r| r.request == 3)
            .expect("request 3 in tail");
        assert!(r3.hedge_rescued);
        assert_eq!(
            r3.hedge_saved_ns, 0,
            "rescue benefit is unbounded, not summed"
        );
        assert_eq!(r3.timeouts, 1);
        assert_eq!(r3.retries, 1);
    }

    #[test]
    fn backpressure_decisions_do_not_overwrite_the_real_one() {
        let mut rec = Recorder::new(64);
        let snaps = [snap(0, 1.0, 0), snap(1, 3.0, 2)];
        rec.record(Nanos(0), 1, TracePoint::Issue);
        rec.record(Nanos(10), 1, decision(NO_SERVER, &[]));
        rec.record(Nanos(500), 1, decision(0, &snaps));
        rec.record(Nanos(500), 1, TracePoint::Send { server: 0 });
        rec.record(Nanos(900), 1, TracePoint::Complete { latency_ns: 900 });
        let attr = attribute_tail(rec.events(), "t", "C3", 0.5);
        let row = &attr.tail[0];
        assert!(row.backpressured);
        assert_eq!(row.chosen, 0);
        assert_eq!(row.wait_for_permit_ns, 500);
        assert!((row.regret - 0.0).abs() < 1e-12, "picked the best: {row:?}");
    }
}
