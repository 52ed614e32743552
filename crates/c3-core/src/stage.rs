//! One replica service stage: a FIFO queue in front of a fixed number of
//! execution slots.
//!
//! Both of the paper's instruments model a replica this way — §6 servers
//! are a FIFO queue before 4 slots, §5's Cassandra nodes have one such
//! stage for reads and one for mutations — and every simulated loop admits
//! through [`ServiceStage`]. The stage is sans-I/O: it has no clock, no
//! RNG and no event queue. It only decides *which* request starts *when*;
//! the caller samples the service time and schedules the completion, so
//! each loop keeps its own draw order.

use std::collections::VecDeque;

/// A FIFO queue in front of `slots` execution slots. `R` is the caller's
/// request id.
#[derive(Debug)]
pub struct ServiceStage<R> {
    queue: VecDeque<R>,
    busy: usize,
    slots: usize,
}

impl<R> ServiceStage<R> {
    /// An idle stage with `slots` execution slots.
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots >= 1, "a service stage needs at least one slot");
        Self {
            queue: VecDeque::new(),
            busy: 0,
            slots,
        }
    }

    /// `req` arrives. Returns `true` when it took a free slot and starts
    /// now (the caller schedules its completion); otherwise it waits in
    /// FIFO order.
    #[inline]
    pub fn arrive(&mut self, req: R) -> bool {
        if self.busy < self.slots {
            self.busy += 1;
            true
        } else {
            self.queue.push_back(req);
            false
        }
    }

    /// A request finished executing. Its slot passes to the oldest waiting
    /// request, which is returned to start now; with nothing waiting the
    /// slot is freed.
    #[inline]
    pub fn finish(&mut self) -> Option<R> {
        debug_assert!(self.busy > 0, "finish on an idle stage");
        let next = self.queue.pop_front();
        if next.is_none() {
            self.busy -= 1;
        }
        next
    }

    /// Requests executing plus queued: the `q_s` a response piggybacks
    /// (read after [`ServiceStage::finish`], it counts the request just
    /// promoted but not the one that left).
    #[inline]
    pub fn pending(&self) -> usize {
        self.busy + self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn concurrency_limits_parallel_service() {
        let mut s = ServiceStage::new(2);
        assert!(s.arrive('a'));
        assert!(s.arrive('b'));
        assert!(!s.arrive('c'), "a third request must queue");
        assert_eq!(s.pending(), 3);
    }

    #[test]
    fn completion_dequeues_next() {
        let mut s = ServiceStage::new(1);
        assert!(s.arrive('a'));
        assert!(!s.arrive('b'));
        assert_eq!(s.finish(), Some('b'));
        // After `a` leaves, `b` is executing: pending counts it.
        assert_eq!(s.pending(), 1);
        assert_eq!(s.finish(), None);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn waiting_requests_start_in_fifo_order() {
        let mut s = ServiceStage::new(2);
        for req in 0..6 {
            s.arrive(req);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.finish()).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert_eq!(s.pending(), 1, "one slot still busy");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = ServiceStage::<u32>::new(0);
    }

    /// The admission rule every simulated loop used to write by hand: a
    /// queue plus an in-flight counter, decremented on completion and
    /// re-incremented when a waiting request is promoted.
    struct Reference {
        queue: VecDeque<u32>,
        inflight: usize,
        slots: usize,
    }

    impl Reference {
        fn arrive(&mut self, req: u32) -> bool {
            if self.inflight < self.slots {
                self.inflight += 1;
                true
            } else {
                self.queue.push_back(req);
                false
            }
        }

        fn finish(&mut self) -> Option<u32> {
            self.inflight -= 1;
            let next = self.queue.pop_front();
            if next.is_some() {
                self.inflight += 1;
            }
            next
        }

        fn pending(&self) -> usize {
            self.inflight + self.queue.len()
        }
    }

    proptest! {
        #[test]
        fn stage_matches_the_hand_written_rule(
            slots in 1usize..9,
            steps in prop::collection::vec(0u8..3, 0..400),
        ) {
            let mut stage = ServiceStage::new(slots);
            let mut model = Reference { queue: VecDeque::new(), inflight: 0, slots };
            // Finishes only ever follow a started request: `running`
            // counts what both sides have in service.
            let mut running = 0usize;
            for (id, step) in steps.into_iter().enumerate() {
                if step == 0 && running > 0 {
                    let next = stage.finish();
                    prop_assert_eq!(next, model.finish());
                    if next.is_none() {
                        running -= 1;
                    }
                } else {
                    let starts = stage.arrive(id as u32);
                    prop_assert_eq!(starts, model.arrive(id as u32));
                    running += usize::from(starts);
                }
                prop_assert_eq!(stage.pending(), model.pending());
            }
        }
    }
}
