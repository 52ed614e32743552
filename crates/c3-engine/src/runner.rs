//! The scenario runner: seed derivation, the event loop, and uniform
//! run metrics for every frontend.
//!
//! A frontend (the §6 simulator, the §5 cluster, or any future workload)
//! implements [`Scenario`]: it names its latency channels, schedules its
//! initial events, handles each event, and says when the run is complete.
//! [`ScenarioRunner`] owns everything around that: the deterministic RNG
//! seed derivation ([`SeedSeq`]), the warm-up/measure window, the event
//! loop itself, and the [`RunMetrics`] (named latency channels,
//! throughput, per-server load time series) that every frontend reports
//! the same way. Independent runs fan out across threads with
//! [`ScenarioRunner::run_all`] — results are bit-identical regardless of
//! thread count because every run is a pure function of `(config, seed)`.

use std::sync::atomic::{AtomicUsize, Ordering};

use c3_core::Nanos;
use c3_metrics::{
    ChannelId, ChannelSet, Ecdf, ExactReservoir, LatencySummary, LogHistogram, WindowedCounts,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::kernel::EventQueue;

/// Deterministic derivation of all RNG streams of a run from one seed.
///
/// Both simulators historically derived their workload, service and
/// per-actor streams with these multipliers; centralizing them here keeps
/// the two frontends (and any new one) on the same scheme — and keeps
/// old seeds producing the streams they always produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedSeq {
    seed: u64,
}

impl SeedSeq {
    /// Wrap a run seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The raw run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Workload randomness (arrivals, key/client/group choices).
    pub fn workload_rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Service-time randomness. `salt` separates frontends sharing a seed.
    pub fn service_rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ salt)
    }

    /// Seed for client/coordinator `i`'s selector randomness.
    pub(crate) fn client_seed(&self, i: u64) -> u64 {
        self.seed ^ 0xa076_1d64_78bd_642fu64.wrapping_mul(i + 1)
    }

    /// Seed for generator thread `i`.
    pub fn thread_seed(&self, i: u64) -> u64 {
        self.seed ^ 0xbf58_476d_1ce4_e5b9u64.wrapping_mul(i + 1)
    }

    /// Seed for a mid-run phase thread `i` (Figure 11 joiners).
    pub fn phase_seed(&self, i: u64) -> u64 {
        self.seed ^ 0x94d0_49bb_1331_11ebu64.wrapping_mul(i + 1)
    }

    /// Seed for tenant class `i`'s workload stream (multi-tenant
    /// scenarios).
    pub fn tenant_seed(&self, i: u64) -> u64 {
        self.seed ^ 0x2545_f491_4f6c_dd1du64.wrapping_mul(i + 1)
    }
}

/// Uniform per-run measurements: named latency channels (the §6 simulator
/// uses one `latency` channel; the cluster uses `read` and `update`;
/// multi-tenant scenarios declare one channel per tenant), total
/// completion counts, the measured time window, and per-server load time
/// series.
#[derive(Debug)]
pub struct RunMetrics {
    warmup: u64,
    channels: ChannelSet,
    latency: Vec<LogHistogram>,
    /// Optional exact-percentile recorders, one per channel, running
    /// alongside the streaming histograms (see
    /// [`RunMetrics::with_exact_reservoir`]). `RefCell` so a `&self`
    /// summary query can sort the reservoir's partial chunk in place —
    /// without it every summary would clone the reservoir.
    exact: Option<Vec<std::cell::RefCell<ExactReservoir>>>,
    completions: Vec<u64>,
    server_load: Vec<WindowedCounts>,
    /// Earliest and latest measured completion, a min and a max so records
    /// may come in any order; [`Nanos::MAX`] before the first.
    first_completion: Nanos,
    last_completion: Nanos,
}

impl RunMetrics {
    /// Metrics with the given latency channels over `servers` servers.
    /// The first `warmup` issued units (requests/operations) are excluded
    /// from histograms via [`RunMetrics::past_warmup`].
    pub fn new(channels: ChannelSet, servers: usize, load_window: Nanos, warmup: u64) -> Self {
        assert!(!channels.is_empty(), "need at least one latency channel");
        let n = channels.len();
        Self {
            warmup,
            channels,
            latency: (0..n).map(|_| LogHistogram::new()).collect(),
            exact: None,
            completions: vec![0; n],
            server_load: (0..servers)
                .map(|_| WindowedCounts::new(load_window.as_nanos()))
                .collect(),
            first_completion: Nanos::MAX,
            last_completion: Nanos::ZERO,
        }
    }

    /// Additionally record every measured completion into an exact
    /// (every-sample) reservoir per channel, so [`RunMetrics::summary`]
    /// reports exact order statistics instead of bucketed ones. Use for
    /// the claims/figure tiers where close percentile comparisons matter;
    /// it costs O(completions) memory (4 B per value, see
    /// [`ExactReservoir`]), which is why the streaming histogram stays the
    /// default.
    pub(crate) fn with_exact_reservoir(mut self) -> Self {
        self.exact = Some(
            (0..self.channels.len())
                .map(|_| std::cell::RefCell::new(ExactReservoir::new()))
                .collect(),
        );
        self
    }

    /// Whether the exact-reservoir path is enabled.
    pub fn exact_enabled(&self) -> bool {
        self.exact.is_some()
    }

    /// The channel names of this run.
    pub fn channels(&self) -> &ChannelSet {
        &self.channels
    }

    /// Look a channel up by name.
    pub fn channel(&self, name: &str) -> Option<ChannelId> {
        self.channels.id(name)
    }

    /// Whether the unit issued with 0-based index `issue_index` falls in
    /// the measured window (past warm-up).
    pub fn past_warmup(&self, issue_index: u64) -> bool {
        issue_index >= self.warmup
    }

    /// Record a completed unit on `channel`. Only `measured` completions
    /// (past warm-up) enter the histogram and the measured time window,
    /// whose ends are the least and the greatest `now` seen, so the order
    /// of the records does not matter; every completion advances the total
    /// count used by stop conditions.
    pub fn record_completion(
        &mut self,
        channel: ChannelId,
        now: Nanos,
        latency: Nanos,
        measured: bool,
    ) {
        self.completions[channel.index()] += 1;
        if measured {
            self.latency[channel.index()].record(latency.as_nanos());
            if let Some(exact) = &mut self.exact {
                exact[channel.index()].get_mut().record(latency.as_nanos());
            }
            self.first_completion = self.first_completion.min(now);
            self.last_completion = self.last_completion.max(now);
        }
    }

    /// Record that `server` served one request at `now` (load time series).
    pub fn record_service(&mut self, server: usize, now: Nanos) {
        self.server_load[server].record(now.as_nanos());
    }

    /// All completions on a channel, warm-up included.
    pub fn completions(&self, channel: ChannelId) -> u64 {
        self.completions[channel.index()]
    }

    /// Completions across all channels, warm-up included.
    pub fn total_completions(&self) -> u64 {
        self.completions.iter().sum()
    }

    /// Measured (histogram-recorded) completions on a channel.
    pub fn measured(&self, channel: ChannelId) -> u64 {
        self.latency[channel.index()].count()
    }

    /// The latency histogram of a channel.
    pub fn histogram(&self, channel: ChannelId) -> &LogHistogram {
        &self.latency[channel.index()]
    }

    /// Latency summary of a channel at the paper's percentiles. With the
    /// exact-reservoir flag enabled the percentiles are exact order
    /// statistics; otherwise they come from the streaming histogram
    /// (bounded to one log-linear bucket of quantization error).
    pub fn summary(&self, channel: ChannelId) -> LatencySummary {
        if let Some(exact) = &self.exact {
            return exact[channel.index()].borrow_mut().summary();
        }
        LatencySummary::from_histogram(&self.latency[channel.index()])
    }

    /// Streaming-histogram summary of a channel, regardless of the exact
    /// flag (parity-test hook).
    pub fn streaming_summary(&self, channel: ChannelId) -> LatencySummary {
        LatencySummary::from_histogram(&self.latency[channel.index()])
    }

    /// Measured duration: the earliest to the latest measured completion
    /// (zero before two of them).
    pub fn duration(&self) -> Nanos {
        self.last_completion.saturating_sub(self.first_completion)
    }

    /// Measured throughput of a channel in completions/second.
    pub fn throughput(&self, channel: ChannelId) -> f64 {
        let d = self.duration();
        if d == Nanos::ZERO {
            return 0.0;
        }
        self.measured(channel) as f64 / d.as_secs_f64()
    }

    /// Per-server load time series.
    pub fn server_load(&self) -> &[WindowedCounts] {
        &self.server_load
    }

    /// Index of the server that served the most requests.
    pub fn busiest_server(&self) -> usize {
        self.server_load
            .iter()
            .enumerate()
            .max_by_key(|(_, w)| w.total())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// ECDF of per-window request counts on the busiest server.
    pub fn busiest_server_load_ecdf(&self) -> Ecdf {
        Ecdf::from_samples(self.server_load[self.busiest_server()].counts().to_vec())
    }

    /// Decompose into the owned artifacts frontends embed in their result
    /// types: `(channel names, latency histograms, server load series,
    /// completion counts, measured duration)`. Histograms and counts are
    /// in channel-declaration order.
    pub fn into_parts(
        self,
    ) -> (
        ChannelSet,
        Vec<LogHistogram>,
        Vec<WindowedCounts>,
        Vec<u64>,
        Nanos,
    ) {
        let duration = self.duration();
        (
            self.channels,
            self.latency,
            self.server_load,
            self.completions,
            duration,
        )
    }
}

/// Engine-side statistics of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed by the kernel.
    pub events_processed: u64,
    /// Timers cancelled before firing.
    pub events_cancelled: u64,
}

/// A workload that runs on the engine.
///
/// Implementations declare their named latency channels in
/// [`Scenario::channels`], schedule their initial events in
/// [`Scenario::start`], react to each popped event in [`Scenario::handle`]
/// (scheduling follow-ups through the engine handle), and report
/// completion through [`Scenario::is_done`], which the runner checks after
/// every event.
pub trait Scenario {
    /// The simulation's typed event.
    type Event;

    /// The latency channels this scenario records into. Channel ids are
    /// assigned in declaration order, so implementations may keep
    /// `ChannelId::new(n)` constants for their hot paths.
    fn channels(&self) -> ChannelSet;

    /// Schedule the initial events.
    fn start(&mut self, engine: &mut EventQueue<Self::Event>);

    /// Handle one event at simulated time `now`.
    fn handle(
        &mut self,
        event: Self::Event,
        now: Nanos,
        engine: &mut EventQueue<Self::Event>,
        metrics: &mut RunMetrics,
    );

    /// Whether the run is complete (checked after every handled event;
    /// the run also ends when no events remain).
    fn is_done(&self, metrics: &RunMetrics) -> bool;
}

/// Drives a [`Scenario`] to completion deterministically.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioRunner {
    seeds: SeedSeq,
    warmup: u64,
    exact: bool,
}

impl ScenarioRunner {
    /// A runner for the given seed with no warm-up window.
    pub fn new(seed: u64) -> Self {
        Self {
            seeds: SeedSeq::new(seed),
            warmup: 0,
            exact: false,
        }
    }

    /// Exclude the first `n` issued units from latency measurement.
    pub fn with_warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Record measured latencies into exact (every-sample) reservoirs in
    /// addition to the streaming histograms, making
    /// [`RunMetrics::summary`] report exact percentiles. Required for the
    /// claims/figure tiers where strategies are compared at close
    /// percentile margins; costs O(completions) memory.
    pub fn with_exact_latency(mut self) -> Self {
        self.exact = true;
        self
    }

    /// Conditional form of [`ScenarioRunner::with_exact_latency`], for
    /// backends plumbing an `exact_latency` config flag through.
    pub fn with_exact_latency_if(self, exact: bool) -> Self {
        if exact {
            self.with_exact_latency()
        } else {
            self
        }
    }

    /// The seed-derivation scheme of this run.
    pub fn seeds(&self) -> &SeedSeq {
        &self.seeds
    }

    /// Run `scenario` to completion, returning the metrics and engine
    /// statistics. The scenario's [`Scenario::channels`] size the latency
    /// histograms; `servers` and `load_window` size the load time series.
    pub fn run<S: Scenario>(
        &self,
        scenario: &mut S,
        servers: usize,
        load_window: Nanos,
    ) -> (RunMetrics, EngineStats) {
        let mut metrics = RunMetrics::new(scenario.channels(), servers, load_window, self.warmup);
        if self.exact {
            metrics = metrics.with_exact_reservoir();
        }
        let mut engine = EventQueue::new();
        scenario.start(&mut engine);
        while let Some((now, event)) = engine.pop() {
            scenario.handle(event, now, &mut engine, &mut metrics);
            if scenario.is_done(&metrics) {
                break;
            }
        }
        (
            metrics,
            EngineStats {
                events_processed: engine.processed(),
                events_cancelled: engine.cancelled(),
            },
        )
    }

    /// Run one independent job per seed, fanning the jobs out over up to
    /// `threads` worker threads.
    ///
    /// Each job receives a fresh `ScenarioRunner` for its seed (apply
    /// `with_warmup` inside the job if needed) and must be a pure function
    /// of that runner — which every engine scenario is, since all
    /// randomness derives from the seed. Results come back in seed order
    /// and are **bit-identical regardless of `threads`**: parallelism only
    /// changes which OS thread computes a result, never its inputs.
    pub fn run_all<R, F>(seeds: &[u64], threads: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ScenarioRunner) -> R + Sync,
    {
        fan_out(seeds.len(), threads, |i| job(ScenarioRunner::new(seeds[i])))
    }
}

/// Compute `job(0..count)` on up to `threads` worker threads, returning
/// results in index order.
///
/// Work is handed out through a shared atomic counter, and each result is
/// keyed by its index before the final in-order merge — so the output is
/// identical for any thread count (including 1, which runs inline without
/// spawning). `job` must be a pure function of its index for that
/// guarantee to mean anything; every `(config, seed)`-driven scenario run
/// qualifies.
pub fn fan_out<R, F>(count: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads == 1 {
        return (0..count).map(&job).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, job(i)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("fan_out worker panicked"))
            .collect()
    });
    let mut keyed: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    keyed.sort_by_key(|&(i, _)| i);
    keyed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH: ChannelId = ChannelId::new(0);

    struct Chain {
        remaining: u64,
        gap: Nanos,
    }

    impl Scenario for Chain {
        type Event = u64;

        fn channels(&self) -> ChannelSet {
            ChannelSet::single("latency")
        }

        fn start(&mut self, engine: &mut EventQueue<u64>) {
            engine.schedule(self.gap, 0);
        }

        fn handle(
            &mut self,
            event: u64,
            now: Nanos,
            engine: &mut EventQueue<u64>,
            metrics: &mut RunMetrics,
        ) {
            let measured = metrics.past_warmup(event);
            metrics.record_completion(CH, now, Nanos::from_micros(10 + event), measured);
            if event + 1 < self.remaining {
                engine.schedule_in(self.gap, event + 1);
            }
        }

        fn is_done(&self, metrics: &RunMetrics) -> bool {
            metrics.total_completions() >= self.remaining
        }
    }

    #[test]
    fn runs_to_completion() {
        let runner = ScenarioRunner::new(3);
        let mut s = Chain {
            remaining: 50,
            gap: Nanos::from_millis(1),
        };
        let (metrics, stats) = runner.run(&mut s, 1, Nanos::from_millis(100));
        assert_eq!(metrics.completions(CH), 50);
        assert_eq!(metrics.measured(CH), 50);
        assert_eq!(stats.events_processed, 50);
        assert!(metrics.duration() > Nanos::ZERO);
        assert!(metrics.throughput(CH) > 0.0);
    }

    #[test]
    fn warmup_excludes_early_units_from_histograms() {
        let runner = ScenarioRunner::new(3).with_warmup(20);
        let mut s = Chain {
            remaining: 50,
            gap: Nanos::from_millis(1),
        };
        let (metrics, _) = runner.run(&mut s, 1, Nanos::from_millis(100));
        assert_eq!(metrics.completions(CH), 50, "all completions counted");
        assert_eq!(metrics.measured(CH), 30, "warm-up excluded from histogram");
    }

    #[test]
    fn channels_resolve_by_name() {
        let runner = ScenarioRunner::new(1);
        let mut s = Chain {
            remaining: 10,
            gap: Nanos::from_millis(1),
        };
        let (metrics, _) = runner.run(&mut s, 1, Nanos::from_millis(100));
        assert_eq!(metrics.channel("latency"), Some(CH));
        assert_eq!(metrics.channel("nope"), None);
        assert_eq!(metrics.channels().name(CH), "latency");
        assert_eq!(metrics.summary(CH).count, 10);
    }

    #[test]
    fn seed_seq_is_deterministic_and_distinct() {
        let a = SeedSeq::new(9);
        let b = SeedSeq::new(9);
        assert_eq!(a.client_seed(4), b.client_seed(4));
        assert_eq!(a.thread_seed(4), b.thread_seed(4));
        assert_eq!(a.tenant_seed(4), b.tenant_seed(4));
        assert_ne!(a.client_seed(4), a.client_seed(5));
        assert_ne!(a.client_seed(4), a.thread_seed(4));
        assert_ne!(a.tenant_seed(4), a.thread_seed(4));
        assert_ne!(
            SeedSeq::new(1).client_seed(0),
            SeedSeq::new(2).client_seed(0)
        );
    }

    #[test]
    fn runner_runs_are_identical() {
        let run = || {
            let runner = ScenarioRunner::new(11).with_warmup(5);
            let mut s = Chain {
                remaining: 200,
                gap: Nanos::from_micros(137),
            };
            let (metrics, stats) = runner.run(&mut s, 1, Nanos::from_millis(10));
            (
                metrics.summary(CH).p99_ns,
                metrics.duration(),
                stats.events_processed,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn record_service_feeds_busiest_server() {
        let mut m = RunMetrics::new(ChannelSet::single("latency"), 3, Nanos::from_millis(1), 0);
        for i in 0..10u64 {
            m.record_service(1, Nanos::from_micros(i * 10));
        }
        m.record_service(0, Nanos::from_micros(5));
        assert_eq!(m.busiest_server(), 1);
        assert!(!m.busiest_server_load_ecdf().is_empty());
    }

    /// A live run's readers fold their completions in reader-sized
    /// batches, in whatever order the batches fill: the metrics must read
    /// exactly as if every completion had been recorded in time order.
    #[test]
    fn batched_records_in_any_order_equal_time_order() {
        use rand::Rng;
        const READERS: usize = 6;
        const BATCH: usize = 256;
        let mut rng = SmallRng::seed_from_u64(50);
        // (channel, completed at, latency, measured, server) in time order:
        // two channels, a warm-up, a heavy tail, ties in time.
        let mut at = 0u64;
        let records: Vec<(ChannelId, Nanos, Nanos, bool, usize)> = (0..40_000u64)
            .map(|i| {
                at += rng.gen_range(0..20_000u64);
                let base = 200_000 + rng.gen_range(0..1_000_000u64);
                let latency = if rng.gen_bool(0.01) { base * 40 } else { base };
                let channel = ChannelId::new(usize::from(rng.gen_bool(0.2)));
                (
                    channel,
                    Nanos(at),
                    Nanos(latency),
                    i >= 500,
                    rng.gen_range(0..3),
                )
            })
            .collect();
        // Each completion lands in one reader's batch; a full batch is
        // handed over, and the hand-overs are then shuffled.
        let mut open: Vec<Vec<_>> = vec![Vec::new(); READERS];
        let mut batches = Vec::new();
        for &r in &records {
            let reader = &mut open[rng.gen_range(0..READERS)];
            reader.push(r);
            if reader.len() == BATCH {
                batches.push(std::mem::take(reader));
            }
        }
        batches.extend(open.into_iter().filter(|b| !b.is_empty()));
        for i in (1..batches.len()).rev() {
            batches.swap(i, rng.gen_range(0..=i));
        }
        let record =
            |records: &mut dyn Iterator<Item = &(ChannelId, Nanos, Nanos, bool, usize)>| {
                let channels = ChannelSet::of(["read", "update"]);
                let mut m =
                    RunMetrics::new(channels, 3, Nanos::from_millis(100), 0).with_exact_reservoir();
                for &(channel, now, latency, measured, server) in records {
                    m.record_completion(channel, now, latency, measured);
                    m.record_service(server, now);
                }
                m
            };
        let in_order = record(&mut records.iter());
        let batched = record(&mut batches.iter().flatten());
        assert!(batches.len() > 100);
        for ch in [ChannelId::new(0), ChannelId::new(1)] {
            assert_eq!(in_order.summary(ch), batched.summary(ch));
            assert_eq!(
                in_order.streaming_summary(ch),
                batched.streaming_summary(ch)
            );
            assert_eq!(in_order.completions(ch), batched.completions(ch));
        }
        assert_eq!(in_order.duration(), batched.duration());
        assert_eq!(
            in_order.duration(),
            records.last().unwrap().1 - records[500].1
        );
        for (a, b) in in_order.server_load().iter().zip(batched.server_load()) {
            assert_eq!(a.counts(), b.counts());
        }
    }

    #[test]
    fn run_all_matches_serial_for_any_thread_count() {
        let job = |runner: ScenarioRunner| {
            let mut s = Chain {
                remaining: 120,
                gap: Nanos::from_micros(runner.seeds().seed() * 31 + 7),
            };
            let (metrics, stats) = runner
                .with_warmup(10)
                .run(&mut s, 1, Nanos::from_millis(10));
            (
                runner.seeds().seed(),
                metrics.summary(CH).p99_ns,
                metrics.summary(CH).mean_ns.to_bits(),
                metrics.duration(),
                stats.events_processed,
            )
        };
        let seeds = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let serial = ScenarioRunner::run_all(&seeds, 1, job);
        for threads in [2, 4, 16] {
            let parallel = ScenarioRunner::run_all(&seeds, threads, job);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Results come back in seed order, not completion order.
        let order: Vec<u64> = serial.iter().map(|r| r.0).collect();
        assert_eq!(order, seeds);
    }

    #[test]
    fn fan_out_handles_degenerate_counts() {
        let empty: Vec<usize> = fan_out(0, 4, |i| i);
        assert!(empty.is_empty());
        let one = fan_out(1, 8, |i| i * 10);
        assert_eq!(one, vec![0]);
        let more_threads_than_jobs = fan_out(3, 64, |i| i);
        assert_eq!(more_threads_than_jobs, vec![0, 1, 2]);
    }
}
