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

/// A group that holds no [`Backlog`].
const IDLE: u32 = u32::MAX;

/// Per-selector backpressure state: one FIFO backlog and at most one
/// pending cancellable retry timer per replica group.
///
/// A selector instance keeps one front over every replica group (the
/// `mega-fleet` cell: 128 selector shards × 256 groups), and most groups
/// never backlog. So a group holds only a `u32`: the index of its entry in
/// a pool of backlogs (a queue and a retry timer each), or a sentinel. A
/// group takes an entry when it backlogs and hands it back once its queue
/// is empty and no retry timer is pending; a released entry keeps its
/// queue's capacity for the next group that backlogs, so a later episode
/// allocates nothing.
///
/// `R` is the caller's request id, `E` its event type; `retry_event`
/// builds the caller's "retry this front's backlog for this group" event.
#[derive(Debug)]
pub struct BackpressureFront<R, E> {
    id: usize,
    retry_event: fn(front: usize, group: usize) -> E,
    /// Per group: its entry in `pool`, or [`IDLE`].
    held: Vec<u32>,
    pool: Vec<Backlog<R>>,
    /// Entries of `pool` no group holds.
    free: Vec<u32>,
    /// Number of non-empty backlogs: lets the per-response drain skip the
    /// group walk entirely in the common no-backpressure case.
    backlogged: u32,
    /// Empty → non-empty backlog transitions across all groups.
    activations: u64,
    dead_retries: u64,
}

/// A backlogged group's FIFO and its pending retry timer.
#[derive(Debug)]
struct Backlog<R> {
    queue: VecDeque<R>,
    retry_timer: Option<TimerId>,
}

impl<R: Copy, E> BackpressureFront<R, E> {
    /// Front number `id` over `groups` replica groups.
    pub fn new(id: usize, groups: usize, retry_event: fn(usize, usize) -> E) -> Self {
        Self {
            id,
            retry_event,
            held: vec![IDLE; groups],
            pool: Vec::new(),
            free: Vec::new(),
            backlogged: 0,
            activations: 0,
            dead_retries: 0,
        }
    }

    /// `group`'s entry, if it holds one.
    fn entry(&self, group: usize) -> Option<&Backlog<R>> {
        self.pool.get(self.held[group] as usize)
    }

    /// `group`'s entry index, taking a free entry (or a new one) if the
    /// group holds none.
    fn hold(&mut self, group: usize) -> usize {
        if self.held[group] == IDLE {
            self.held[group] = self.free.pop().unwrap_or_else(|| {
                self.pool.push(Backlog {
                    queue: VecDeque::new(),
                    retry_timer: None,
                });
                u32::try_from(self.pool.len() - 1).expect("fewer than 2^32 backlogs")
            });
        }
        self.held[group] as usize
    }

    /// Hand `group`'s entry back if it is idle: queue empty, no timer.
    fn release_if_idle(&mut self, group: usize) {
        let i = self.held[group];
        let b = &self.pool[i as usize];
        if b.queue.is_empty() && b.retry_timer.is_none() {
            self.held[group] = IDLE;
            self.free.push(i);
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
        let i = self.hold(group);
        let queue = &mut self.pool[i].queue;
        let entered = queue.is_empty();
        queue.push_back(req);
        if entered {
            self.backlogged += 1;
            self.activations += 1;
        }
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
        let i = self.held[group];
        if i == IDLE {
            self.dead_retries += u64::from(from_timer);
            return !from_timer;
        }
        let b = &mut self.pool[i as usize];
        if from_timer {
            // The timer owning this event has fired; forget its handle.
            b.retry_timer = None;
            if b.queue.is_empty() {
                self.dead_retries += 1;
                self.release_if_idle(group);
                return false;
            }
        } else if let Some(timer) = b.retry_timer.take() {
            // A response beat the retry timer to this backlog: the drain
            // supersedes it, so the timer must not fire dead.
            engine.cancel(timer);
            self.release_if_idle(group);
        }
        true
    }

    /// The oldest request waiting behind `group`.
    pub fn peek(&self, group: usize) -> Option<R> {
        self.entry(group).and_then(|b| b.queue.front().copied())
    }

    /// The head of `group` was admitted: take it off the backlog.
    pub fn pop(&mut self, group: usize) {
        debug_assert!(self.is_backlogged(group), "pop on an empty backlog");
        let queue = &mut self.pool[self.held[group] as usize].queue;
        queue.pop_front();
        if queue.is_empty() {
            self.backlogged -= 1;
            self.release_if_idle(group);
        }
    }

    /// The limiter refused the head of `group`: leave the backlog queued
    /// behind a retry timer. The one place that timer is armed — at most
    /// one per group, never at or before `now` (the limiter may report a
    /// `retry_at` already in the past).
    pub fn stall(&mut self, group: usize, retry_at: Nanos, now: Nanos, engine: &mut EventQueue<E>) {
        let i = self.hold(group);
        if self.pool[i].retry_timer.is_none() {
            let at = retry_at.max(now + Nanos(1));
            let event = (self.retry_event)(self.id, group);
            self.pool[i].retry_timer = Some(engine.schedule_cancellable(at, event));
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
        self.entry(group).is_some_and(|b| !b.queue.is_empty())
    }

    /// Empty → non-empty backlog transitions across all groups (the
    /// "backpressure mode entered" events of the paper's Figure 13).
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Retry timers that fired against an already-drained backlog. Stays
    /// zero; see [`BackpressureFront::begin_drain`].
    pub fn dead_retries(&self) -> u64 {
        self.dead_retries
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
        let mut engine = EventQueue::new();
        let mut f = front();
        assert!(!f.is_backlogged(1));
        f.park(1, 1, Nanos(10), Nanos(0), &mut engine);
        f.park(1, 2, Nanos(10), Nanos(0), &mut engine);
        assert_eq!(f.activations(), 1);
        assert!(f.begin_drain(1, false, &mut engine));
        for req in [1, 2] {
            assert_eq!(f.peek(1), Some(req));
            f.pop(1);
        }
        assert_eq!(f.peek(1), None);
        f.park(1, 3, Nanos(10), Nanos(0), &mut engine);
        assert_eq!(f.activations(), 2, "re-entering backpressure counts again");
        assert_eq!(f.peek(1), Some(3));
    }

    #[test]
    fn a_pending_timer_keeps_its_group_entry() {
        // A backlog emptied without a drain (so its timer still pends)
        // keeps its entry: another group that backlogs next must arm its
        // own timer, and the group's next park must arm none.
        let mut engine = EventQueue::new();
        let mut f = front();
        f.park(0, 1, Nanos(50), Nanos(0), &mut engine);
        f.pop(0);
        assert!(!f.is_backlogged(0));
        f.park(1, 2, Nanos(70), Nanos(10), &mut engine);
        f.park(0, 3, Nanos(90), Nanos(10), &mut engine);
        assert_eq!(engine.len(), 2, "one timer per group");
        for (at, group, req) in [(50, 0, 3), (70, 1, 2)] {
            assert_eq!(engine.pop(), Some((Nanos(at), (7, group))));
            assert!(f.begin_drain(group, true, &mut engine));
            assert_eq!(f.peek(group), Some(req));
        }
        assert_eq!(f.dead_retries(), 0);
    }

    /// Park `depth` requests on every group in `order`, then drain them
    /// all by response (cancelling each retry timer).
    fn episode(
        f: &mut BackpressureFront<u64, Retry>,
        engine: &mut EventQueue<Retry>,
        order: impl Iterator<Item = usize> + Clone,
        depth: u64,
    ) {
        for group in order.clone() {
            for req in 0..depth {
                f.park(group, req, Nanos(100), Nanos(0), engine);
            }
        }
        for group in order {
            assert!(f.begin_drain(group, false, engine));
            while f.peek(group).is_some() {
                f.pop(group);
            }
        }
        assert!(!f.any_backlogged());
    }

    #[test]
    fn a_second_backlog_episode_allocates_no_queue_storage() {
        const GROUPS: usize = 256;
        let mut engine = EventQueue::new();
        let mut f: BackpressureFront<u64, Retry> =
            BackpressureFront::new(0, GROUPS, |front, group| (front, group));
        let storage = |f: &BackpressureFront<u64, Retry>| -> Vec<(usize, *const u64)> {
            f.pool
                .iter()
                .map(|b| (b.queue.capacity(), b.queue.as_slices().0.as_ptr()))
                .collect()
        };
        // One group at a time: one entry serves all 256 episodes.
        for group in 0..GROUPS {
            episode(&mut f, &mut engine, group..group + 1, 3);
        }
        assert_eq!(f.pool.len(), 1);
        // Every group at once, then again in the opposite order: the second
        // episode's groups take other groups' entries and reuse their
        // queues as they are.
        episode(&mut f, &mut engine, 0..GROUPS, 3);
        assert_eq!(f.pool.len(), GROUPS);
        let before = storage(&f);
        episode(&mut f, &mut engine, (0..GROUPS).rev(), 3);
        assert_eq!(storage(&f), before, "an episode grew or moved a queue");
        assert_eq!(f.free.len(), GROUPS, "every entry handed back");
        assert_eq!(f.activations(), 3 * GROUPS as u64);
        assert_eq!(engine.cancelled(), 3 * GROUPS as u64);
    }

    #[test]
    fn never_backlogged_group_records_stay_compact() {
        // A group that never backlogs costs the front one `u32`; queues and
        // timers live in the pool, which only backlogged groups draw on.
        let f: BackpressureFront<u64, Retry> =
            BackpressureFront::new(0, 256, |front, group| (front, group));
        assert_eq!(std::mem::size_of_val(f.held.as_slice()), 256 * 4);
        assert!(f.pool.is_empty() && f.free.is_empty());
    }
}
