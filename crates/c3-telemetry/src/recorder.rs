//! The flight recorder: a fixed-capacity ring of lifecycle events plus the
//! unified score-trace and gauge-series sampling paths.

use std::time::Duration;

use c3_core::{Nanos, ReplicaView};
use c3_metrics::{ExactReservoir, LatencySummary};

/// Replicas captured per decision snapshot. Real deployments replicate
/// 3 ways (the paper's Cassandra setting); groups larger than this record
/// their first `TRACE_GROUP` members (the chosen replica is always among
/// them — drivers snapshot it first when truncating, so queue-regret is
/// an underestimate, never an overestimate, on wide groups). Kept tight
/// deliberately: every ring slot is the size of the `Decision` variant,
/// so this constant is the recorder's cache footprint.
pub(crate) const TRACE_GROUP: usize = 4;

/// Sentinel server id: "no server" (backpressure decisions, unknown
/// pending depth).
pub const NO_SERVER: u32 = u32::MAX;

/// Decision-time snapshot of one replica, as recorded next to a
/// selection.
///
/// Fields are `f32`, not the selector's native `f64`: a snapshot is
/// telemetry, not arithmetic input, and halving the slot width is what
/// keeps the ring's cache footprint (and therefore the recorder's
/// on-path cost) inside the ≤10% budget the repo benchmark reports as
/// `telemetry.recorder_cost_frac`. Seven significant digits are plenty
/// to rank replicas in a trace table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaSnap {
    /// Server id ([`NO_SERVER`] marks an unused slot).
    pub server: u32,
    /// Ground-truth pending requests at the replica (queue + executing),
    /// from the driver — a strategy-agnostic regret yardstick no selector
    /// can bias. [`NO_SERVER`] when the driver cannot see it (live mode).
    pub pending: u32,
    /// The score the selector ranked this replica by.
    pub score: f32,
    /// The score a fresh recompute would give right now (equals `score`
    /// for C3, which recomputes every selection; differs for DS inside a
    /// frozen interval).
    pub fresh_score: f32,
    /// Selector's EWMA of response latency, in milliseconds.
    pub ewma_latency_ms: f32,
    /// Selector's EWMA of the server-reported queue size.
    pub ewma_queue: f32,
    /// CUBIC sending-rate budget (NaN for selectors without rate control).
    pub srate: f32,
    /// Requests the selector counts outstanding to this replica.
    pub outstanding: u32,
}

impl ReplicaSnap {
    /// Pack a selector's [`ReplicaView`] into a recorded snapshot.
    pub(crate) fn from_view(server: u32, view: &ReplicaView, pending: u32) -> Self {
        Self {
            server,
            pending,
            score: view.score as f32,
            fresh_score: view.fresh_score as f32,
            ewma_latency_ms: view.ewma_latency_ms as f32,
            ewma_queue: view.ewma_queue as f32,
            srate: view.srate as f32,
            outstanding: view.outstanding,
        }
    }

    /// A snapshot of a replica whose selector exposes no view (baselines
    /// like LOR or random): only the driver's ground-truth pending depth
    /// is known, so queue-regret still works where score-regret cannot.
    pub fn blind(server: u32, pending: u32) -> Self {
        Self {
            server,
            pending,
            ..Self::empty()
        }
    }

    /// An unused snapshot slot.
    pub fn empty() -> Self {
        Self {
            server: NO_SERVER,
            pending: NO_SERVER,
            score: f32::NAN,
            fresh_score: f32::NAN,
            ewma_latency_ms: f32::NAN,
            ewma_queue: f32::NAN,
            srate: f32::NAN,
            outstanding: 0,
        }
    }
}

/// One point in a request's lifecycle.
///
/// Variant sizes are deliberately unequal: the `Decision` snapshot array
/// is what makes the trace explanatory. This enum is the recorder's
/// *currency* (what `record` takes and `events` yields, all `Copy`, no
/// allocation), not its storage — the ring keeps 40 B slots and parks the
/// snapshot array in a side table touched only on decisions, which is how
/// the on-path cost (`telemetry.recorder_cost_frac`) stays inside ≤10%.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TracePoint {
    /// The client issued (created) the request.
    Issue,
    /// The selector decided. `chosen` is [`NO_SERVER`] for a backpressure
    /// decision; `group[..group_len]` are the candidate snapshots.
    Decision {
        /// Chosen server, or [`NO_SERVER`] on backpressure.
        chosen: u32,
        /// Candidates actually snapshotted.
        group_len: u8,
        /// Per-candidate decision-time snapshots.
        group: [ReplicaSnap; TRACE_GROUP],
    },
    /// The request went on the wire to `server` *without* its own
    /// decision (speculative retries and similar duplicates). The
    /// ordinary chosen-replica send is folded into the `Decision` event
    /// that triggered it — same driver timestamp, one ring slot instead
    /// of two — and the attribution join treats a successful decision as
    /// the send.
    Send {
        /// Destination server.
        server: u32,
    },
    /// Piggybacked server feedback arrived with the response.
    Feedback {
        /// Responding server.
        server: u32,
        /// Queue size the server reported.
        queue: u32,
        /// Service time the server reported, in nanoseconds.
        service_ns: u64,
    },
    /// The request completed at the client.
    Complete {
        /// End-to-end latency in nanoseconds.
        latency_ns: u64,
    },
    /// The request's deadline expired with no response; the client reaped
    /// it (and either retried, hedged on, or parked it).
    Timeout {
        /// Server the timed-out attempt was outstanding to.
        server: u32,
    },
    /// The request was re-dispatched after a timeout.
    Retry {
        /// New destination server (different from the timed-out one when
        /// the group allows).
        server: u32,
        /// 1-based retry attempt number.
        attempt: u8,
    },
    /// A hedge duplicate went on the wire (RepNet-style request
    /// replication: first response wins).
    HedgeIssue {
        /// Destination of the duplicate.
        server: u32,
    },
    /// The hedge duplicate's response arrived first and completed the
    /// request.
    HedgeWin {
        /// Server whose response won the race.
        server: u32,
    },
    /// A response for an already-completed request arrived and was
    /// discarded — the losing side of a hedge race.
    HedgeLoss {
        /// Server whose response lost.
        server: u32,
    },
    /// The failure detector evicted a server from candidate sets.
    Evict {
        /// Evicted server.
        server: u32,
    },
    /// The failure detector reinstated a previously evicted server.
    Reinstate {
        /// Reinstated server.
        server: u32,
    },
}

/// One recorded event: a lifecycle point of one request at one time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Driver time (sim time, or wall clock since run start in live mode).
    pub at: Nanos,
    /// Driver-unique request id.
    pub request: u64,
    /// What happened.
    pub point: TracePoint,
}

/// Ring slot: [`TracePoint`] minus the decision snapshot array, which
/// lives in the slot-parallel side table. Four of the five lifecycle
/// points carry ≤16 B of payload; storing them in [`TracePoint`]-sized
/// slots would make every `Issue` pay for the `Decision` array, and the
/// resulting write traffic is exactly what the ≤10% on-path cost gate
/// measures. 40 B here, 128 B in the side table touched only on
/// decisions.
#[derive(Clone, Copy, Debug)]
enum SlotPoint {
    Issue,
    Decision {
        chosen: u32,
        group_len: u8,
    },
    Send {
        server: u32,
    },
    Feedback {
        server: u32,
        queue: u32,
        service_ns: u64,
    },
    Complete {
        latency_ns: u64,
    },
    Timeout {
        server: u32,
    },
    Retry {
        server: u32,
        attempt: u8,
    },
    HedgeIssue {
        server: u32,
    },
    HedgeWin {
        server: u32,
    },
    HedgeLoss {
        server: u32,
    },
    Evict {
        server: u32,
    },
    Reinstate {
        server: u32,
    },
}

/// One compact ring slot (see [`SlotPoint`]).
#[derive(Clone, Copy, Debug)]
struct Slot {
    at: Nanos,
    request: u64,
    point: SlotPoint,
}

/// One named gauge series (the live client's `inflight`, `feedback-lag`).
#[derive(Clone, Debug)]
pub struct GaugeSeries {
    /// Series name.
    pub name: String,
    /// `(at, value)` samples in recording order.
    pub values: Vec<(Nanos, u64)>,
}

/// Allocation-bounded flight recorder.
///
/// Lifecycle events live in a ring of `capacity` slots: the ring fills,
/// then drops the **oldest** event per push (`dropped` counts them). A
/// capacity of 0 records no events at all — the shape the score-probe
/// path uses. Score samples and gauge values are bounded separately
/// (65 536 samples, 2²⁰ values per gauge series); past the cap new
/// samples are counted but not stored, keeping early blackout windows
/// intact for the parity harness.
#[derive(Clone, Debug)]
pub struct Recorder {
    capacity: usize,
    slots: Vec<Slot>,
    /// Decision snapshot groups, slot-parallel: `snaps[i]` belongs to
    /// `slots[i]` iff that slot holds a `Decision` (sized lazily on the
    /// first decision; stale entries under non-decision slots are never
    /// read). Splitting them out keeps the per-event write to 40 B.
    snaps: Vec<[ReplicaSnap; TRACE_GROUP]>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    last_score_sample: Option<Nanos>,
    score_trace: Vec<(Nanos, Vec<f64>)>,
    scores_truncated: u64,
    gauges: Vec<GaugeSeries>,
    gauges_truncated: u64,
}

impl Recorder {
    /// Default ring capacity — the *always-on black box* size: the last
    /// ~400 requests of lifecycle, small enough (≈340 KB with the
    /// decision side table) that attaching it costs under the ≤10%
    /// events/sec budget (`telemetry.recorder_cost_frac`). Forensic passes
    /// that want every request joined (`trace_explain`, the experiment
    /// tables) size the ring explicitly at ~6 slots per expected request
    /// and knowingly pay the larger cache footprint.
    pub(crate) const DEFAULT_CAPACITY: usize = 2_048;
    /// Score-trace sampling interval: the cadence the sim-vs-live parity
    /// harness was pinned at.
    const SCORE_INTERVAL: Nanos = Nanos::from_millis(50);
    /// Retained score samples (50 ms cadence ⇒ days of sim time).
    pub(crate) const SCORE_CAP: usize = 65_536;
    /// Retained values per gauge series.
    pub(crate) const GAUGE_CAP: usize = 1 << 20;

    /// A recorder with `capacity` ring slots (0 = score/gauge sampling
    /// only, no lifecycle events).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            snaps: Vec::new(),
            head: 0,
            dropped: 0,
            last_score_sample: None,
            score_trace: Vec::new(),
            scores_truncated: 0,
            gauges: Vec::new(),
            gauges_truncated: 0,
        }
    }

    /// A recorder at the default capacity of 2 048 events.
    pub fn with_default_capacity() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Events evicted to make room (drop-oldest).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record one event. O(1), allocation-free once the ring is full (the
    /// decision side table is sized once, on the first decision).
    #[inline]
    pub fn record(&mut self, at: Nanos, request: u64, point: TracePoint) {
        if self.capacity == 0 {
            return;
        }
        let (slot_point, group) = match point {
            TracePoint::Issue => (SlotPoint::Issue, None),
            TracePoint::Decision {
                chosen,
                group_len,
                group,
            } => (SlotPoint::Decision { chosen, group_len }, Some(group)),
            TracePoint::Send { server } => (SlotPoint::Send { server }, None),
            TracePoint::Feedback {
                server,
                queue,
                service_ns,
            } => (
                SlotPoint::Feedback {
                    server,
                    queue,
                    service_ns,
                },
                None,
            ),
            TracePoint::Complete { latency_ns } => (SlotPoint::Complete { latency_ns }, None),
            TracePoint::Timeout { server } => (SlotPoint::Timeout { server }, None),
            TracePoint::Retry { server, attempt } => (SlotPoint::Retry { server, attempt }, None),
            TracePoint::HedgeIssue { server } => (SlotPoint::HedgeIssue { server }, None),
            TracePoint::HedgeWin { server } => (SlotPoint::HedgeWin { server }, None),
            TracePoint::HedgeLoss { server } => (SlotPoint::HedgeLoss { server }, None),
            TracePoint::Evict { server } => (SlotPoint::Evict { server }, None),
            TracePoint::Reinstate { server } => (SlotPoint::Reinstate { server }, None),
        };
        let idx = self.push_slot(at, request, slot_point);
        if let Some(group) = group {
            self.store_snaps(idx, group);
        }
    }

    /// Record a selection decision: what the selector saw for every
    /// candidate plus the ground-truth pending depth at each, as a
    /// [`TracePoint::Decision`]. `chosen == None` is a backpressure
    /// verdict ([`NO_SERVER`]). The chosen replica is snapshotted first,
    /// so truncating a wide group to its first four replicas can never
    /// drop it. `probe` yields a candidate's `(selector view, pending
    /// depth)`; a selector that exposes no view (the Oracle, LOR, random)
    /// leaves a [`ReplicaSnap::blind`] snapshot, so queue-regret still
    /// works where score-regret cannot. No-op (and `probe` is never
    /// called) at capacity 0.
    #[inline]
    pub fn record_decision(
        &mut self,
        at: Nanos,
        request: u64,
        chosen: Option<usize>,
        candidates: &[usize],
        mut probe: impl FnMut(usize) -> (Option<ReplicaView>, u32),
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut group = [ReplicaSnap::empty(); TRACE_GROUP];
        let mut len = 0usize;
        let ordered = chosen
            .into_iter()
            .chain(candidates.iter().copied().filter(|&s| Some(s) != chosen));
        for server in ordered.take(TRACE_GROUP) {
            let (view, pending) = probe(server);
            group[len] = match view {
                Some(view) => ReplicaSnap::from_view(server as u32, &view, pending),
                None => ReplicaSnap::blind(server as u32, pending),
            };
            len += 1;
        }
        let point = SlotPoint::Decision {
            chosen: chosen.map_or(NO_SERVER, |c| c as u32),
            group_len: len as u8,
        };
        let idx = self.push_slot(at, request, point);
        self.store_snaps(idx, group);
    }

    /// Write one ring slot (drop-oldest once full); returns its index.
    #[inline]
    fn push_slot(&mut self, at: Nanos, request: u64, point: SlotPoint) -> usize {
        let slot = Slot { at, request, point };
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            let i = self.head;
            self.slots[i] = slot;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
            i
        }
    }

    /// File a decision's snapshots under its ring slot.
    #[inline]
    fn store_snaps(&mut self, idx: usize, group: [ReplicaSnap; TRACE_GROUP]) {
        if self.snaps.len() != self.capacity {
            self.snaps
                .resize(self.capacity, [ReplicaSnap::empty(); TRACE_GROUP]);
        }
        self.snaps[idx] = group;
    }

    /// Held events, oldest first. Items are reassembled by value from the
    /// compact ring slots ([`TraceEvent`] is `Copy`, ~150 B).
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        (0..self.slots.len()).map(move |k| {
            let idx = (self.head + k) % self.capacity;
            let slot = &self.slots[idx];
            let point = match slot.point {
                SlotPoint::Issue => TracePoint::Issue,
                SlotPoint::Decision { chosen, group_len } => TracePoint::Decision {
                    chosen,
                    group_len,
                    group: self.snaps[idx],
                },
                SlotPoint::Send { server } => TracePoint::Send { server },
                SlotPoint::Feedback {
                    server,
                    queue,
                    service_ns,
                } => TracePoint::Feedback {
                    server,
                    queue,
                    service_ns,
                },
                SlotPoint::Complete { latency_ns } => TracePoint::Complete { latency_ns },
                SlotPoint::Timeout { server } => TracePoint::Timeout { server },
                SlotPoint::Retry { server, attempt } => TracePoint::Retry { server, attempt },
                SlotPoint::HedgeIssue { server } => TracePoint::HedgeIssue { server },
                SlotPoint::HedgeWin { server } => TracePoint::HedgeWin { server },
                SlotPoint::HedgeLoss { server } => TracePoint::HedgeLoss { server },
                SlotPoint::Evict { server } => TracePoint::Evict { server },
                SlotPoint::Reinstate { server } => TracePoint::Reinstate { server },
            };
            TraceEvent {
                at: slot.at,
                request: slot.request,
                point,
            }
        })
    }

    /// Whether a score sample is due at `at` (throttled to one per 50 ms;
    /// the first call is always due). Callers check this before
    /// computing the score vector so the disabled/throttled path costs one
    /// branch.
    #[inline]
    pub fn scores_due(&self, at: Nanos) -> bool {
        match self.last_score_sample {
            Some(last) => at.saturating_sub(last) >= Self::SCORE_INTERVAL,
            None => true,
        }
    }

    /// Push one score sample (call only when [`Recorder::scores_due`]).
    pub fn push_scores(&mut self, at: Nanos, scores: Vec<f64>) {
        self.last_score_sample = Some(at);
        if self.score_trace.len() < Self::SCORE_CAP {
            self.score_trace.push((at, scores));
        } else {
            self.scores_truncated += 1;
        }
    }

    /// The per-replica score trace (the `with_score_probe` series).
    pub fn score_trace(&self) -> &[(Nanos, Vec<f64>)] {
        &self.score_trace
    }

    /// Move the score trace out (for result structs that own it).
    pub fn take_score_trace(&mut self) -> Vec<(Nanos, Vec<f64>)> {
        std::mem::take(&mut self.score_trace)
    }

    /// Append one value to the named gauge series (created on first use).
    pub fn gauge(&mut self, name: &str, at: Nanos, value: u64) {
        let series = match self.gauges.iter_mut().position(|g| g.name == name) {
            Some(i) => &mut self.gauges[i],
            None => {
                self.gauges.push(GaugeSeries {
                    name: name.to_string(),
                    values: Vec::new(),
                });
                self.gauges.last_mut().expect("just pushed")
            }
        };
        if series.values.len() < Self::GAUGE_CAP {
            series.values.push((at, value));
        } else {
            self.gauges_truncated += 1;
        }
    }

    /// Bulk-append values to a named gauge series (the live client pours
    /// its per-thread, per-millisecond series through here at teardown).
    pub fn gauge_extend(&mut self, name: &str, values: &[(Nanos, u64)]) {
        for &(at, v) in values {
            self.gauge(name, at, v);
        }
    }

    /// All gauge series, in creation order.
    pub fn gauges(&self) -> &[GaugeSeries] {
        &self.gauges
    }

    /// One gauge series by name.
    pub fn gauge_series(&self, name: &str) -> Option<&GaugeSeries> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Samples counted but not stored because a cap was hit
    /// `(score_samples, gauge_values)`.
    pub fn truncated(&self) -> (u64, u64) {
        (self.scores_truncated, self.gauges_truncated)
    }
}

/// Summary of one gauge series over a run window, in the shape the live
/// report's health channels use: exact order statistics over the sampled
/// values, and the sampling rate as "throughput".
#[derive(Clone, Copy, Debug)]
pub struct GaugeSummary {
    /// Samples recorded.
    pub count: u64,
    /// Samples per second over `duration`.
    pub throughput: f64,
    /// Exact percentiles of the sampled values (the `_ns` field names are
    /// the summary struct's convention; the unit here is the gauge's own).
    pub summary: LatencySummary,
}

/// Summarize a gauge series exactly (every sample, order statistics).
pub fn summarize_gauge(values: &[(Nanos, u64)], duration: Duration) -> GaugeSummary {
    let mut reservoir = ExactReservoir::new();
    for &(_, v) in values {
        reservoir.record(v);
    }
    let count = reservoir.count();
    let secs = duration.as_secs_f64();
    GaugeSummary {
        count,
        throughput: if secs > 0.0 { count as f64 / secs } else { 0.0 },
        summary: reservoir.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_respects_capacity_and_drops_oldest() {
        let mut rec = Recorder::new(4);
        for i in 0..10u64 {
            rec.record(Nanos(i), i, TracePoint::Issue);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let held: Vec<u64> = rec.events().map(|e| e.request).collect();
        assert_eq!(held, vec![6, 7, 8, 9], "oldest dropped, order preserved");
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut rec = Recorder::new(0);
        rec.record(Nanos(1), 1, TracePoint::Issue);
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    fn view(score: f64) -> ReplicaView {
        ReplicaView {
            score,
            fresh_score: score,
            ewma_latency_ms: 1.0,
            ewma_queue: 2.0,
            outstanding: 3,
            srate: f64::NAN,
        }
    }

    fn only_decision(rec: &Recorder) -> (u32, Vec<ReplicaSnap>) {
        let mut events = rec.events();
        let Some(TraceEvent {
            point:
                TracePoint::Decision {
                    chosen,
                    group_len,
                    group,
                },
            ..
        }) = events.next()
        else {
            panic!("expected one decision");
        };
        assert!(events.next().is_none());
        (chosen, group[..group_len as usize].to_vec())
    }

    #[test]
    fn decision_snapshots_the_chosen_replica_first_on_wide_groups() {
        let mut rec = Recorder::new(8);
        let wide: Vec<usize> = (10..10 + TRACE_GROUP + 2).collect();
        let chosen = *wide.last().unwrap();
        rec.record_decision(Nanos(5), 1, Some(chosen), &wide, |s| {
            (Some(view(s as f64)), s as u32 * 2)
        });
        let (recorded, snaps) = only_decision(&rec);
        assert_eq!(recorded, chosen as u32);
        assert_eq!(snaps.len(), TRACE_GROUP, "wide groups truncate");
        assert_eq!(snaps[0].server, chosen as u32, "chosen survives truncation");
        assert_eq!(snaps[0].pending, chosen as u32 * 2);
        assert_eq!(snaps[0].score, chosen as f32);
        let rest: Vec<u32> = snaps[1..].iter().map(|s| s.server).collect();
        assert_eq!(rest, vec![10, 11, 12], "then group order, chosen skipped");
    }

    #[test]
    fn decision_is_blind_without_a_view_and_marks_backpressure() {
        let mut rec = Recorder::new(8);
        rec.record_decision(Nanos(5), 1, None, &[4, 5], |s| (None, s as u32));
        let (chosen, snaps) = only_decision(&rec);
        assert_eq!(chosen, NO_SERVER, "backpressure verdict");
        let seen: Vec<(u32, u32)> = snaps.iter().map(|s| (s.server, s.pending)).collect();
        assert_eq!(seen, vec![(4, 4), (5, 5)], "ground truth is kept");
        assert!(snaps.iter().all(|s| s.score.is_nan() && s.srate.is_nan()));
    }

    #[test]
    fn decision_records_nothing_at_capacity_zero() {
        let mut rec = Recorder::new(0);
        rec.record_decision(Nanos(5), 1, Some(0), &[0, 1], |_| {
            panic!("capacity 0 must not probe the replicas")
        });
        assert!(rec.is_empty());
    }

    #[test]
    fn score_sampling_is_throttled() {
        let mut rec = Recorder::new(0);
        assert!(rec.scores_due(Nanos::ZERO));
        rec.push_scores(Nanos::ZERO, vec![1.0]);
        assert!(!rec.scores_due(Nanos::from_millis(49)));
        assert!(rec.scores_due(Nanos::from_millis(50)));
        rec.push_scores(Nanos::from_millis(50), vec![2.0]);
        assert_eq!(rec.score_trace().len(), 2);
    }

    #[test]
    fn gauges_accumulate_by_name() {
        let mut rec = Recorder::new(0);
        rec.gauge("inflight", Nanos(1), 3);
        rec.gauge("inflight", Nanos(2), 5);
        rec.gauge("feedback-lag", Nanos(2), 900);
        assert_eq!(rec.gauges().len(), 2);
        assert_eq!(rec.gauge_series("inflight").unwrap().values.len(), 2);
        let s = summarize_gauge(
            &rec.gauge_series("inflight").unwrap().values,
            Duration::from_secs(1),
        );
        assert_eq!(s.count, 2);
        assert_eq!(s.summary.max_ns, 5);
        assert_eq!(s.throughput, 2.0);
    }

    #[test]
    fn lifecycle_hardening_points_round_trip() {
        let mut rec = Recorder::new(16);
        let pts = [
            TracePoint::Timeout { server: 3 },
            TracePoint::Retry {
                server: 4,
                attempt: 1,
            },
            TracePoint::HedgeIssue { server: 5 },
            TracePoint::HedgeWin { server: 5 },
            TracePoint::HedgeLoss { server: 3 },
            TracePoint::Evict { server: 3 },
            TracePoint::Reinstate { server: 3 },
        ];
        for (i, p) in pts.iter().enumerate() {
            rec.record(Nanos(i as u64), 9, *p);
        }
        let back: Vec<TracePoint> = rec.events().map(|e| e.point).collect();
        assert_eq!(back, pts.to_vec());
    }
}
