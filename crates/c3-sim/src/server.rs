//! Simulated replica servers.
//!
//! Each server has a FIFO request queue and a fixed number of execution
//! slots (the paper models 4-way concurrency). Service times are drawn from
//! an exponential distribution whose mean depends on the server's current
//! service rate; the rate flips between μ and μ·D at every fluctuation
//! interval, independently per server with probability ½ each — the
//! bimodal time-varying performance model of §6.

use c3_core::{Feedback, Nanos};
use c3_engine::SlotKey;
use c3_workload::exp_sample;
use rand::rngs::SmallRng;
use rand::Rng;

/// A request identifier assigned by the simulation: the key of its record
/// in the simulation's recycling table.
pub type ReqId = SlotKey;

/// Current speed state of a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpeedState {
    /// Base rate μ (mean service time = `mean_service_ms`).
    Slow,
    /// Boosted rate μ·D (mean service time = `mean_service_ms / D`).
    Fast,
}

/// One simulated server.
#[derive(Debug)]
pub struct SimServer {
    /// Mean service time at the base rate μ, in milliseconds.
    mean_service_ms: f64,
    /// Range parameter D.
    range_d: f64,
    /// Execution slots.
    concurrency: usize,
    /// Requests currently executing.
    in_service: usize,
    /// Requests waiting for a slot.
    queue: std::collections::VecDeque<ReqId>,
    /// Current speed state.
    speed: SpeedState,
    /// Mean service time under `speed`, cached at each state change — the
    /// Oracle reads it per candidate per request, and every service-time
    /// sample needs it.
    mean_ms: f64,
    /// `1 / mean_ms` under `speed`, cached at each state change so the
    /// Oracle's per-candidate scoring pays no division here.
    rate_per_ms: f64,
}

/// What the server wants the simulation to do after an event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServerAction {
    /// Start executing `req`; schedule its completion after `service_time`.
    StartService {
        /// The request entering service.
        req: ReqId,
        /// Sampled execution duration.
        service_time: Nanos,
    },
    /// Nothing to do (request queued, or no waiting work).
    None,
}

impl SimServer {
    /// Create an idle server in the given initial speed state.
    pub fn new(
        mean_service_ms: f64,
        range_d: f64,
        concurrency: usize,
        initial_speed: SpeedState,
    ) -> Self {
        assert!(concurrency >= 1);
        let mut server = Self {
            mean_service_ms,
            range_d,
            concurrency,
            in_service: 0,
            queue: std::collections::VecDeque::new(),
            speed: initial_speed,
            mean_ms: 0.0,
            rate_per_ms: 0.0,
        };
        server.recompute_speed_cache();
        server
    }

    /// Refresh the cached mean/rate after a speed-state change (the same
    /// expressions the accessors historically evaluated per call, so the
    /// cached values are bit-identical).
    fn recompute_speed_cache(&mut self) {
        self.mean_ms = match self.speed {
            SpeedState::Slow => self.mean_service_ms,
            SpeedState::Fast => self.mean_service_ms / self.range_d,
        };
        self.rate_per_ms = 1.0 / self.mean_ms;
    }

    /// Mean service time under the current speed state, in milliseconds.
    pub fn current_mean_service_ms(&self) -> f64 {
        self.mean_ms
    }

    /// Current service rate (1/mean-service-time) in requests per ms per
    /// slot — the μ the Oracle strategy divides by.
    pub fn current_rate_per_ms(&self) -> f64 {
        self.rate_per_ms
    }

    /// Current speed state.
    pub fn speed(&self) -> SpeedState {
        self.speed
    }

    /// Re-sample the speed state (called every fluctuation interval):
    /// uniformly Slow or Fast.
    pub fn fluctuate(&mut self, rng: &mut SmallRng) {
        self.speed = if rng.gen::<bool>() {
            SpeedState::Fast
        } else {
            SpeedState::Slow
        };
        self.recompute_speed_cache();
    }

    /// Total pending work: executing plus queued. This is the `q` the
    /// Oracle reads and the basis of the feedback queue size.
    pub fn pending(&self) -> usize {
        self.in_service + self.queue.len()
    }

    /// A request arrives: either it enters service immediately (action says
    /// to schedule its completion) or it queues.
    pub fn on_arrival(&mut self, req: ReqId, rng: &mut SmallRng) -> ServerAction {
        if self.in_service < self.concurrency {
            self.in_service += 1;
            ServerAction::StartService {
                req,
                service_time: self.sample_service_time(rng),
            }
        } else {
            self.queue.push_back(req);
            ServerAction::None
        }
    }

    /// A request finished executing. Returns the feedback to piggyback on
    /// its response and, if another request was waiting, the action to
    /// start it.
    ///
    /// Feedback queue size follows the paper: the number of requests still
    /// pending at the server at the moment the response is dispatched.
    pub fn on_completion(
        &mut self,
        service_time: Nanos,
        rng: &mut SmallRng,
    ) -> (Feedback, ServerAction) {
        debug_assert!(self.in_service > 0);
        self.in_service -= 1;
        let next = if let Some(req) = self.queue.pop_front() {
            self.in_service += 1;
            ServerAction::StartService {
                req,
                service_time: self.sample_service_time(rng),
            }
        } else {
            ServerAction::None
        };
        // Pending count after this response leaves, including the request
        // that just moved from queue to service.
        let feedback = Feedback::new(self.pending() as u32, service_time);
        (feedback, next)
    }

    fn sample_service_time(&self, rng: &mut SmallRng) -> Nanos {
        let ms = exp_sample(rng, self.current_mean_service_ms());
        Nanos::from_millis_f64(ms.max(0.000_001))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    /// `N` distinct request ids, as the simulation would issue them.
    fn ids<const N: usize>() -> [ReqId; N] {
        let mut table = c3_engine::SlotTable::new();
        std::array::from_fn(|_| table.insert(()))
    }

    #[test]
    fn concurrency_limits_parallel_service() {
        let mut s = SimServer::new(4.0, 3.0, 2, SpeedState::Slow);
        let mut r = rng();
        let [a, b, c] = ids();
        assert!(matches!(
            s.on_arrival(a, &mut r),
            ServerAction::StartService { req, .. } if req == a
        ));
        assert!(matches!(
            s.on_arrival(b, &mut r),
            ServerAction::StartService { req, .. } if req == b
        ));
        // Third must queue.
        assert_eq!(s.on_arrival(c, &mut r), ServerAction::None);
        assert_eq!(s.pending(), 3);
    }

    #[test]
    fn completion_dequeues_next() {
        let mut s = SimServer::new(4.0, 3.0, 1, SpeedState::Slow);
        let mut r = rng();
        let [a, b] = ids();
        s.on_arrival(a, &mut r);
        s.on_arrival(b, &mut r);
        let (fb, next) = s.on_completion(Nanos::from_millis(4), &mut r);
        assert!(matches!(next, ServerAction::StartService { req, .. } if req == b));
        // After request a leaves: request b is executing ⇒ pending = 1.
        assert_eq!(fb.queue_size, 1);
        assert_eq!(fb.service_time, Nanos::from_millis(4));
    }

    #[test]
    fn speed_state_scales_mean_service_time() {
        let s = SimServer::new(4.0, 3.0, 4, SpeedState::Slow);
        assert_eq!(s.current_mean_service_ms(), 4.0);
        let s = SimServer::new(4.0, 3.0, 4, SpeedState::Fast);
        assert!((s.current_mean_service_ms() - 4.0 / 3.0).abs() < 1e-12);
        assert!((s.current_rate_per_ms() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fluctuation_hits_both_states() {
        let mut s = SimServer::new(4.0, 3.0, 4, SpeedState::Slow);
        let mut r = rng();
        let mut seen_fast = false;
        let mut seen_slow = false;
        for _ in 0..100 {
            s.fluctuate(&mut r);
            match s.speed() {
                SpeedState::Fast => seen_fast = true,
                SpeedState::Slow => seen_slow = true,
            }
        }
        assert!(seen_fast && seen_slow);
    }

    #[test]
    fn service_times_follow_current_mean() {
        let mut slow = SimServer::new(4.0, 4.0, 1, SpeedState::Slow);
        let mut fast = SimServer::new(4.0, 4.0, 1, SpeedState::Fast);
        let mut r = rng();
        let n = 20_000;
        let avg = |s: &mut SimServer, r: &mut SmallRng| -> f64 {
            (0..n)
                .map(|_| s.sample_service_time(r).as_millis_f64())
                .sum::<f64>()
                / n as f64
        };
        let slow_avg = avg(&mut slow, &mut r);
        let fast_avg = avg(&mut fast, &mut r);
        assert!((slow_avg - 4.0).abs() < 0.15, "slow {slow_avg}");
        assert!((fast_avg - 1.0).abs() < 0.05, "fast {fast_avg}");
    }
}
