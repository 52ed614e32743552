//! Multiplexing primitives: the correlation table that matches
//! out-of-order responses back to their requests, and the counting
//! semaphore that bounds the client's total in-flight requests.
//!
//! One multiplexed connection runs a writer thread and a reader thread;
//! the table sits between them. The issuing side registers the request's
//! bookkeeping under its wire id before the frame is written; the reader
//! completes whatever id each response frame carries, in whatever order
//! the server finished them. The client's timer thread is the table's
//! third user: it completes an id whose deadline passed and reads one
//! whose hedge delay did, each by its wire id — no scan. Protocol violations — a response for an id
//! never registered (or already completed), or an attempt to reuse an id
//! still in flight — are hard errors, not silent drops: each one means a
//! correlation bug that would otherwise corrupt latency accounting.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A correlation-table violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuxError {
    /// A response arrived for an id that was never registered, or was
    /// already completed (a duplicate response).
    UnknownId(u64),
    /// A register attempted to reuse an id that is still in flight.
    DuplicateId(u64),
}

impl fmt::Display for MuxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuxError::UnknownId(id) => write!(f, "response for unknown request id {id}"),
            MuxError::DuplicateId(id) => write!(f, "request id {id} already in flight"),
        }
    }
}

impl std::error::Error for MuxError {}

/// Pending-request table keyed by wire id: `register` on issue,
/// `complete` on response, out-of-order and interleaved completions
/// welcome. `T` is the issuer's bookkeeping (issue index, timestamps,
/// chosen replica) handed back verbatim on completion.
///
/// The table itself is single-threaded; the client wraps one in a mutex
/// per connection (the critical sections are one hash-map operation).
#[derive(Debug)]
pub struct CorrelationTable<T> {
    pending: HashMap<u64, T>,
}

impl<T> Default for CorrelationTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CorrelationTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            pending: HashMap::new(),
        }
    }

    /// Register a request's bookkeeping under its wire id.
    pub fn register(&mut self, id: u64, entry: T) -> Result<(), MuxError> {
        match self.pending.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => Err(MuxError::DuplicateId(id)),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(entry);
                Ok(())
            }
        }
    }

    /// Complete the request with this wire id, returning its bookkeeping.
    pub fn complete(&mut self, id: u64) -> Result<T, MuxError> {
        self.pending.remove(&id).ok_or(MuxError::UnknownId(id))
    }

    /// Requests currently in flight through this table.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The bookkeeping of the request in flight under `id` (the timer's
    /// hedge check reads it without completing it).
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        self.pending.get(&id)
    }

    /// Drain every still-pending entry with its wire id (dead-connection
    /// and end-of-run abandonment).
    pub fn drain(&mut self) -> Vec<(u64, T)> {
        self.pending.drain().collect()
    }
}

/// A counting semaphore bounding the client's total in-flight requests —
/// the "in-flight budget". Issuers block in `acquire` when the budget is
/// spent; reader threads `release` on every completion.
///
/// The budget deliberately shrugs off mutex poisoning: its state is a
/// plain permit counter that is valid no matter where a panicking holder
/// died, and the threads touching it span every issuer and reader in the
/// client — propagating one worker's panic here would cascade a single
/// failure into a deadlocked shutdown of all of them.
#[derive(Debug)]
pub struct InFlightBudget {
    permits: Mutex<usize>,
    capacity: usize,
    available: Condvar,
}

impl InFlightBudget {
    /// A budget of `capacity` concurrent requests.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "need a positive in-flight budget");
        Self {
            permits: Mutex::new(capacity),
            capacity,
            available: Condvar::new(),
        }
    }

    /// The configured budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently in flight (capacity minus free permits).
    pub fn in_flight(&self) -> usize {
        self.capacity - *self.permits.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take one permit, blocking until one frees up or `deadline` passes.
    /// Returns `false` on deadline (the caller's run is over).
    pub fn acquire_until(&self, deadline: Instant) -> bool {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *permits == 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(permits, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            permits = guard;
            if timeout.timed_out() && *permits == 0 {
                return false;
            }
        }
        *permits -= 1;
        true
    }

    /// Return one permit.
    pub fn release(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        *permits += 1;
        debug_assert!(*permits <= self.capacity, "over-released budget");
        drop(permits);
        self.available.notify_one();
    }

    /// Block until every permit is back (all in-flight requests done) or
    /// `timeout` elapses; returns whether the budget fully drained.
    pub(crate) fn drained_within(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *permits < self.capacity {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .available
                .wait_timeout(permits, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            permits = guard;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_completion_returns_the_right_entries() {
        let mut table = CorrelationTable::new();
        for id in 0..10u64 {
            table.register(id, format!("req-{id}")).unwrap();
        }
        assert_eq!(table.len(), 10);
        for id in [7u64, 2, 9, 0, 5] {
            assert_eq!(table.complete(id).unwrap(), format!("req-{id}"));
        }
        assert_eq!(table.len(), 5);
    }

    #[test]
    fn unknown_and_duplicate_ids_are_rejected() {
        let mut table = CorrelationTable::new();
        table.register(42, ()).unwrap();
        assert_eq!(table.register(42, ()), Err(MuxError::DuplicateId(42)));
        assert_eq!(table.complete(7), Err(MuxError::UnknownId(7)));
        table.complete(42).unwrap();
        assert_eq!(table.complete(42), Err(MuxError::UnknownId(42)));
        // Once completed, the id is free for reuse.
        table.register(42, ()).unwrap();
    }

    #[test]
    fn drain_returns_the_stragglers() {
        let mut table = CorrelationTable::new();
        for id in 0..4u64 {
            table.register(id, id * 10).unwrap();
        }
        table.complete(1).unwrap();
        let mut left = table.drain();
        left.sort_unstable();
        assert_eq!(left, vec![(0, 0), (2, 20), (3, 30)]);
        assert!(table.is_empty());
    }

    #[test]
    fn budget_blocks_at_capacity_and_unblocks_on_release() {
        use std::sync::Arc;
        let budget = Arc::new(InFlightBudget::new(2));
        let far = Instant::now() + Duration::from_secs(5);
        assert!(budget.acquire_until(far));
        assert!(budget.acquire_until(far));
        assert_eq!(budget.in_flight(), 2);
        // Full: a short deadline must time out.
        assert!(!budget.acquire_until(Instant::now() + Duration::from_millis(20)));
        let waiter = {
            let budget = Arc::clone(&budget);
            std::thread::spawn(move || budget.acquire_until(far))
        };
        std::thread::sleep(Duration::from_millis(30));
        budget.release();
        assert!(waiter.join().unwrap(), "release must wake the waiter");
        budget.release();
        budget.release();
        assert!(budget.drained_within(Duration::from_millis(100)));
        assert_eq!(budget.in_flight(), 0);
    }

    #[test]
    fn a_poisoned_budget_keeps_serving_every_caller() {
        use std::panic::AssertUnwindSafe;
        use std::sync::Arc;
        let budget = Arc::new(InFlightBudget::new(2));
        assert!(budget.acquire_until(Instant::now() + Duration::from_secs(1)));
        // Panic while holding the lock, as a dying worker would.
        let poisoner = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = budget.permits.lock().unwrap();
            panic!("worker dies mid-critical-section");
        }));
        assert!(poisoner.is_err());
        assert!(budget.permits.lock().is_err(), "mutex must be poisoned");
        // Every entry point must recover instead of cascading the panic.
        assert_eq!(budget.in_flight(), 1);
        assert!(budget.acquire_until(Instant::now() + Duration::from_secs(1)));
        assert!(!budget.drained_within(Duration::from_millis(20)));
        budget.release();
        budget.release();
        assert!(budget.drained_within(Duration::from_millis(100)));
        assert_eq!(budget.in_flight(), 0);
    }

    #[test]
    fn drained_within_times_out_while_requests_hang() {
        let budget = InFlightBudget::new(1);
        assert!(budget.acquire_until(Instant::now() + Duration::from_secs(1)));
        assert!(!budget.drained_within(Duration::from_millis(30)));
        budget.release();
        assert!(budget.drained_within(Duration::from_millis(30)));
    }
}
