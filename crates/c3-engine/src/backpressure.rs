//! Algorithm 1's backlog/retry protocol, once, for every simulated event
//! loop: the §6 simulator, the direct fleet and the §5 cluster's
//! coordinators each drive one [`BackpressureFront`] per selector
//! instance.
//!
//! When a selector's rate limiter refuses every replica of a group, the
//! request waits in that group's FIFO backlog until either a response
//! frees rate or the limiter's `retry_at` comes round. The protocol around
//! that backlog — at most one pending retry timer per group, cancelled
//! when a response drains the backlog first so it never fires dead — is
//! the same for every frontend, so it lives here. The caller keeps
//! everything that differs between frontends (ranking the candidates, the
//! send itself, read-repair fan-out, lifecycle timers) and drives the
//! front step by step:
//!
//! ```text
//! fresh request:  select → Server(s):      send
//!                          Backpressure:   front.park(..)
//! drain:          front.begin_drain(..) then, while front.peek(..):
//!                 select → Server(s):      front.pop(..); send
//!                          Backpressure:   front.stall(..); stop
//! ```

use std::collections::VecDeque;

use c3_core::Nanos;

use crate::kernel::{EventQueue, TimerId};

/// Per-selector backpressure state: one FIFO backlog and at most one
/// pending cancellable retry timer per replica group.
///
/// `R` is the caller's request id, `E` its event type; `retry_event`
/// builds the caller's "retry this front's backlog for this group" event.
#[derive(Debug)]
pub struct BackpressureFront<R, E> {
    id: usize,
    retry_event: fn(front: usize, group: usize) -> E,
    backlogs: Vec<BacklogQueue<R>>,
    retry_timer: Vec<Option<TimerId>>,
    /// Number of non-empty backlogs: lets the per-response drain skip the
    /// group walk entirely in the common no-backpressure case.
    backlogged: u32,
    dead_retries: u64,
}

impl<R: Copy, E> BackpressureFront<R, E> {
    /// Front number `id` over `groups` replica groups.
    pub fn new(id: usize, groups: usize, retry_event: fn(usize, usize) -> E) -> Self {
        Self {
            id,
            retry_event,
            backlogs: (0..groups).map(|_| BacklogQueue::new()).collect(),
            retry_timer: vec![None; groups],
            backlogged: 0,
            dead_retries: 0,
        }
    }

    /// The limiter refused a fresh request: queue it behind `group` and
    /// make sure a retry timer is pending. Returns whether the group just
    /// entered backpressure (its backlog was empty).
    pub fn park(
        &mut self,
        group: usize,
        req: R,
        retry_at: Nanos,
        now: Nanos,
        engine: &mut EventQueue<E>,
    ) -> bool {
        let entered = self.backlogs[group].is_empty();
        if entered {
            self.backlogged += 1;
        }
        self.backlogs[group].push(req);
        self.stall(group, retry_at, now, engine);
        entered
    }

    /// Start draining `group`, either because its retry timer fired
    /// (`from_timer`) or because a response may have freed rate. Returns
    /// `false` when there is nothing to drain: a timer that fired on an
    /// empty backlog — unreachable, since a response drain cancels the
    /// pending timer, and counted in [`BackpressureFront::dead_retries`]
    /// so a regression back to fire-and-filter is visible.
    pub fn begin_drain(
        &mut self,
        group: usize,
        from_timer: bool,
        engine: &mut EventQueue<E>,
    ) -> bool {
        if from_timer {
            // The timer owning this event has fired; forget its handle.
            self.retry_timer[group] = None;
            if self.backlogs[group].is_empty() {
                self.dead_retries += 1;
                return false;
            }
        } else if let Some(timer) = self.retry_timer[group].take() {
            // A response beat the retry timer to this backlog: the drain
            // supersedes it, so the timer must not fire dead.
            engine.cancel(timer);
        }
        true
    }

    /// The oldest request waiting behind `group`.
    pub fn peek(&self, group: usize) -> Option<R> {
        self.backlogs[group].peek().copied()
    }

    /// The head of `group` was admitted: take it off the backlog.
    pub fn pop(&mut self, group: usize) {
        self.backlogs[group].pop();
        if self.backlogs[group].is_empty() {
            self.backlogged -= 1;
        }
    }

    /// The limiter refused the head of `group`: leave the backlog queued
    /// behind a retry timer. The one place that timer is armed — at most
    /// one per group, never at or before `now` (the limiter may report a
    /// `retry_at` already in the past).
    pub fn stall(&mut self, group: usize, retry_at: Nanos, now: Nanos, engine: &mut EventQueue<E>) {
        if self.retry_timer[group].is_none() {
            let at = retry_at.max(now + Nanos(1));
            let event = (self.retry_event)(self.id, group);
            self.retry_timer[group] = Some(engine.schedule_cancellable(at, event));
        }
    }

    /// Whether any group has requests waiting.
    #[inline]
    pub fn any_backlogged(&self) -> bool {
        self.backlogged > 0
    }

    /// Whether `group` has requests waiting.
    #[inline]
    pub fn is_backlogged(&self, group: usize) -> bool {
        !self.backlogs[group].is_empty()
    }

    /// Empty → non-empty backlog transitions across all groups (the
    /// "backpressure mode entered" events of the paper's Figure 13).
    pub fn activations(&self) -> u64 {
        self.backlogs.iter().map(|b| b.activations()).sum()
    }

    /// Retry timers that fired against an already-drained backlog. Stays
    /// zero; see [`BackpressureFront::begin_drain`].
    pub fn dead_retries(&self) -> u64 {
        self.dead_retries
    }
}

/// A FIFO backlog for one replica group, counting its empty → non-empty
/// transitions (the "backpressure mode entered" events of Figure 13).
#[derive(Debug)]
struct BacklogQueue<R> {
    queue: VecDeque<R>,
    activations: u64,
}

impl<R> BacklogQueue<R> {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            activations: 0,
        }
    }

    fn push(&mut self, req: R) {
        if self.queue.is_empty() {
            self.activations += 1;
        }
        self.queue.push_back(req);
    }

    fn pop(&mut self) -> Option<R> {
        self.queue.pop_front()
    }

    fn peek(&self) -> Option<&R> {
        self.queue.front()
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn activations(&self) -> u64 {
        self.activations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(front, group)` of a fired retry.
    type Retry = (usize, usize);

    fn front() -> BackpressureFront<u64, Retry> {
        BackpressureFront::new(7, 3, |front, group| (front, group))
    }

    #[test]
    fn second_park_on_a_group_arms_no_second_timer() {
        let mut engine = EventQueue::new();
        let mut f = front();
        assert!(f.park(1, 10, Nanos(500), Nanos(100), &mut engine));
        assert!(!f.park(1, 11, Nanos(400), Nanos(100), &mut engine));
        assert_eq!(engine.len(), 1, "one timer per group");
        // Another group gets its own timer.
        assert!(f.park(2, 12, Nanos(600), Nanos(100), &mut engine));
        assert_eq!(engine.len(), 2);
        assert_eq!(engine.pop(), Some((Nanos(500), (7, 1))));
        assert_eq!(f.activations(), 2);
    }

    #[test]
    fn response_drain_cancels_the_pending_timer() {
        let mut engine = EventQueue::new();
        let mut f = front();
        f.park(0, 1, Nanos(900), Nanos(0), &mut engine);
        assert!(f.any_backlogged() && f.is_backlogged(0));
        assert!(f.begin_drain(0, false, &mut engine));
        assert_eq!(f.peek(0), Some(1));
        f.pop(0);
        assert!(!f.any_backlogged());
        assert_eq!(engine.cancelled(), 1);
        assert_eq!(engine.pop(), None, "the cancelled timer never fires");
        assert_eq!(f.dead_retries(), 0);
    }

    #[test]
    fn timer_on_a_non_empty_backlog_rearms_exactly_once() {
        let mut engine = EventQueue::new();
        let mut f = front();
        f.park(0, 1, Nanos(50), Nanos(0), &mut engine);
        f.park(0, 2, Nanos(50), Nanos(0), &mut engine);
        let (now, (_, group)) = engine.pop().expect("retry timer");
        assert!(f.begin_drain(group, true, &mut engine));
        // The limiter still refuses: stall, twice for good measure.
        f.stall(group, Nanos(80), now, &mut engine);
        f.stall(group, Nanos(90), now, &mut engine);
        assert_eq!(engine.len(), 1, "re-armed once");
        assert_eq!(engine.pop(), Some((Nanos(80), (7, 0))));
        assert_eq!(f.peek(0), Some(1), "nothing was dequeued");
        assert_eq!(engine.cancelled(), 0);
    }

    #[test]
    fn timer_on_an_empty_backlog_counts_as_dead() {
        let mut engine: EventQueue<Retry> = EventQueue::new();
        let mut f = front();
        assert!(!f.begin_drain(2, true, &mut engine));
        assert_eq!(f.dead_retries(), 1);
    }

    #[test]
    fn past_retry_at_is_clamped_to_one_nanosecond_ahead() {
        let mut engine = EventQueue::new();
        let mut f = front();
        f.park(0, 1, Nanos(10), Nanos(1_000), &mut engine);
        assert_eq!(engine.pop(), Some((Nanos(1_001), (7, 0))));
    }

    #[test]
    fn backlog_is_fifo_within_a_group() {
        let mut engine = EventQueue::new();
        let mut f = front();
        for req in [5, 3, 9] {
            f.park(1, req, Nanos(10), Nanos(0), &mut engine);
        }
        f.park(2, 4, Nanos(10), Nanos(0), &mut engine);
        let mut order = Vec::new();
        while let Some(req) = f.peek(1) {
            f.pop(1);
            order.push(req);
        }
        assert_eq!(order, vec![5, 3, 9]);
        assert_eq!(f.peek(2), Some(4), "groups do not mix");
    }

    #[test]
    fn backlog_queue_tracks_activations_and_depth() {
        let mut q: BacklogQueue<u32> = BacklogQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        assert_eq!(q.activations(), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        q.push(3);
        assert_eq!(q.activations(), 2, "re-entering backpressure counts again");
        assert_eq!(q.peek(), Some(&3));
    }
}
