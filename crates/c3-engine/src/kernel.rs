//! Deterministic discrete-event kernel.
//!
//! The kernel orders typed events by `(time, insertion sequence)` so that
//! simultaneous events fire in insertion order — runs are bit-for-bit
//! reproducible given a seed.
//!
//! Two hot-path design decisions:
//!
//! **Payload placement.** The overwhelming majority of events are
//! fire-and-forget (the simulators cancel only speculative-retry checks
//! and backlog-retry timers), so [`EventQueue::schedule`] stores the
//! payload *inline in the queue node* — no slab write, no free-list
//! traffic, no occupied-check on pop. Only
//! [`EventQueue::schedule_cancellable`] pays for a slab slot (with an
//! intrusive free list), which is what makes a [`TimerId`] able to revoke
//! the event later: cancellation vacates the slot in place and the stale
//! node is skipped when it surfaces.
//!
//! **Four-tier ordering (calendar queue over a timing wheel).** A single
//! binary heap pays `O(log n)` sift depth over *all* pending events on
//! every operation, although only the imminent few ever matter. The
//! kernel instead keeps:
//!
//! * a **near tier** for the current ~33 µs epoch: a descending-sorted
//!   `Vec` (min-pop is `Vec::pop`, O(1)) refilled one whole epoch at a
//!   time, plus a small `staging` heap for events scheduled *into* the
//!   current epoch after the refill (latecomers);
//! * a **fine ring** of `NUM_BUCKETS` unsorted epoch buckets, each
//!   holding exactly one epoch's events (O(1) insert, whole-bucket
//!   gather + `sort_unstable` on drain — no per-node filtering);
//! * a **coarse ring** of `NUM_COARSE` unsorted buckets of 2^10 epochs
//!   each (≈ 33.5 ms; ≈ 4.3 s in all) — the second level of a
//!   hierarchical timing wheel (Varghese & Lauck, SOSP '87). A far timer
//!   costs one `Vec::push` on the way in and one move into its fine
//!   bucket when its coarse bucket *cascades*;
//! * an **overflow heap** for what lies past the coarse ring's ≈ 4.3 s,
//!   moved into the coarse ring as its window slides.
//!
//! **Filing invariant.** An event at or past the horizon goes to the fine
//! ring iff its coarse index (`epoch >> 10`) is below `cascaded`, the
//! first coarse bucket not yet cascaded — not merely because its epoch
//! fits the fine ring's window: filed that way, a late event could pop
//! before an earlier one still parked in an uncascaded coarse bucket.
//! Coarse bucket `c` cascades once the horizon reaches `(c − 1)·2^10`.
//! That is why a coarse bucket is half the fine ring wide: a whole bucket
//! cascades a full bucket-width before its first epoch is due, so the
//! cascade never races the drain, yet every cascaded epoch still fits the
//! fine window `[horizon, horizon + NUM_BUCKETS)`. With the fine ring
//! empty the horizon jumps to the next occupied coarse bucket's due
//! point; with the coarse ring empty too, the coarse window first jumps
//! to the overflow minimum.
//!
//! **Storage: one chunk pool.** Both rings draw node storage from one
//! pool of fixed-size chunks (`CHUNK` = 32 nodes, each allocated once)
//! and hand it back: a fine bucket keeps an inline part of its own
//! (`INLINE` = 32 nodes) and spills the rest of a busy epoch into chunks;
//! a coarse bucket is chunks only. Draining or cascading a bucket returns
//! its chunks, so the wheel's storage follows the peak number of *live*
//! nodes, not the sum of every bucket's own peak, and once warm the wheel
//! allocates nothing. A bucket that never spilled still drains with one
//! `swap`, as a single-ring queue does. Before the pool, each of the 2048
//! fine buckets kept the capacity of its busiest epoch (≈ 10.6 MB of
//! 4–8 KB blocks at the mega-fleet's peak, for a ring that holds ≈ 67 ms
//! of events), and each coarse bucket freed its storage as it cascaded
//! and regrew it by doubling: each extra event cost ≈ 18 B and 0.0006
//! allocations on a mega-fleet cell, ≈ 15 B and 0.006 on a recorded
//! crash-flux cell (the runs `tests/alloc_budget.rs` makes). With it,
//! `sim-mega-fleet`'s peak RSS fell from ≈ 38.7 to ≈ 27 MB, and an extra
//! event costs at most 1 B and 0.0005 allocations. Coarse buckets that kept their own
//! storage, each at its own peak, grew a 400k-op mega-fleet cell by
//! ≈ 32 MB; `tests/sim_memory.rs` rejects that.
//!
//! The heap stays for what lies beyond 4.3 s — fault plans and hour-long
//! test timers, which no simulated loop schedules by the thousand — so a
//! third wheel level would buy nothing. Before the coarse ring, the heap
//! held ≈ 72% of the mega-fleet's exp(200 ms) think timers (≈ 86k 48-byte
//! nodes, 17 levels); a kernel-only churn of that timer pattern (120k
//! clients, exp(200 ms) think, then a 0.25 ms / exp(2 ms) / 0.25 ms
//! request chain) fell from ≈ 115 to ≈ 66 ns per event with the coarse
//! ring (−43%, 2-vCPU host; the ratio held on busier runs, 150 → 85).
//!
//! Pop order is still *exactly* `(time, seq)` — the buckets only defer
//! sorting until an event's epoch is reached, so runs are bit-identical
//! to a one-heap kernel.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use c3_core::Nanos;

/// Sentinel for "free list empty".
const NIL: u32 = u32::MAX;

/// log2 of the epoch (bucket) width in nanoseconds: 2^15 ns ≈ 32.8 µs.
/// Narrow enough that the `near` heap holds only a handful of events even
/// at simulator event rates (~100 events per sim-millisecond).
const EPOCH_SHIFT: u32 = 15;

/// Number of fine ring buckets (must be a power of two). The ring spans
/// `NUM_BUCKETS << EPOCH_SHIFT` ≈ 67 ms.
const NUM_BUCKETS: usize = 2048;

/// log2 of a coarse bucket's width in epochs: 2^10 epochs ≈ 33.5 ms, half
/// the fine ring.
const COARSE_SHIFT: u32 = 10;

/// Number of coarse buckets (must be a power of two): ≈ 4.3 s of horizon.
/// Events beyond that park in the overflow heap.
const NUM_COARSE: usize = 128;

/// Nodes a fine bucket keeps in storage of its own; an epoch busier than
/// this spills the rest into pooled chunks.
const INLINE: usize = 32;

/// Nodes per pooled chunk.
const CHUNK: usize = 32;

// The cascade rule relies on a coarse bucket being half the fine ring.
const _: () = assert!(NUM_BUCKETS == 2 << COARSE_SHIFT);

/// Epoch index of a timestamp.
#[inline]
fn epoch(t: Nanos) -> u64 {
    t.as_nanos() >> EPOCH_SHIFT
}

/// Ring distance in a bitmap from slot `from` to the nearest set slot
/// (`0` when `from` itself is set). Caller guarantees a set slot exists.
fn distance_to_occupied(bits: &[u64], from: usize) -> usize {
    // Scan word-wise, starting inside `from`'s word.
    let words = bits.len();
    let (mut w, bit) = (from / 64, from % 64);
    let masked = bits[w] >> bit;
    if masked != 0 {
        return masked.trailing_zeros() as usize;
    }
    let mut dist = 64 - bit;
    for _ in 0..words {
        w = (w + 1) % words;
        let word = bits[w];
        if word != 0 {
            return dist + word.trailing_zeros() as usize;
        }
        dist += 64;
    }
    unreachable!("no occupied bucket in a non-empty ring");
}

/// Tier a node was filed into, counted by test builds.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
enum Tier {
    Staging,
    Fine,
    Coarse,
    Overflow,
}

/// Where a heap node's payload lives.
#[derive(Debug)]
enum Payload<E> {
    /// Fire-and-forget event: payload travels with the heap node.
    Inline(E),
    /// Cancellable event: payload parked in the slab at this slot.
    Slab(u32),
}

/// One heap node: the `(time, seq)` ordering key plus the payload.
#[derive(Debug)]
struct Node<E> {
    time: Nanos,
    seq: u64,
    payload: Payload<E>,
}

impl<E> PartialEq for Node<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<E> Eq for Node<E> {}

impl<E> PartialOrd for Node<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Node<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One slab cell: either a live cancellable event (tagged with the
/// sequence number of the heap node that owns it) or a link in the free
/// list.
#[derive(Debug)]
enum Slot<E> {
    Occupied { seq: u64, event: E },
    Vacant { next_free: u32 },
}

/// A pooled chunk: at most [`CHUNK`] nodes, allocated once, plus the link
/// to the next chunk of its chain (a bucket's, or the free list).
#[derive(Debug)]
struct Chunk<E> {
    nodes: Vec<Node<E>>,
    next: u32,
}

/// The chunks both wheel rings draw from and hand back: its size is the
/// peak number of nodes parked in chunks at once, not a sum of per-bucket
/// peaks.
#[derive(Debug)]
struct ChunkPool<E> {
    chunks: Vec<Chunk<E>>,
    /// Head of the free list (`NIL`: every chunk is in a chain).
    free: u32,
}

impl<E> ChunkPool<E> {
    /// Push `node` onto the chain headed by `*head`, linking a fresh chunk
    /// in front when the head chunk is full (or the chain is empty). Kept
    /// out of line so the inlined filing path stays as small as a
    /// one-ring queue's.
    #[inline(never)]
    fn push(&mut self, head: &mut u32, node: Node<E>) {
        if *head == NIL || self.chunks[*head as usize].nodes.len() == CHUNK {
            *head = self.take(*head);
        }
        self.chunks[*head as usize].nodes.push(node);
    }

    /// A free chunk linked in front of `next`: recycled, or allocated when
    /// the pool is dry.
    fn take(&mut self, next: u32) -> u32 {
        let c = if self.free != NIL {
            let c = self.free;
            self.free = self.chunks[c as usize].next;
            c
        } else {
            assert!(self.chunks.len() < NIL as usize, "chunk pool full");
            self.chunks.push(Chunk {
                nodes: Vec::with_capacity(CHUNK),
                next: NIL,
            });
            (self.chunks.len() - 1) as u32
        };
        self.chunks[c as usize].next = next;
        c
    }

    /// Return chunk `c` (emptied) to the free list; returns the chunk it
    /// was linked in front of.
    #[inline]
    fn give_back(&mut self, c: u32) -> u32 {
        let chunk = &mut self.chunks[c as usize];
        debug_assert!(chunk.nodes.is_empty());
        let next = std::mem::replace(&mut chunk.next, self.free);
        self.free = c;
        next
    }

    /// Move every node of the chain headed by `head` into `out`, handing
    /// its chunks back.
    fn drain_into(&mut self, mut head: u32, out: &mut Vec<Node<E>>) {
        while head != NIL {
            out.append(&mut self.chunks[head as usize].nodes);
            head = self.give_back(head);
        }
    }
}

/// Handle to a cancellable scheduled event, usable to cancel it before it
/// fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    slot: u32,
    seq: u64,
}

/// A deterministic event queue.
///
/// `E` is the simulation's event type. The kernel never inspects events —
/// it only orders them.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near tier, bulk half: one drained epoch's nodes, sorted
    /// *descending* by `(time, seq)` so the minimum pops off the end in
    /// O(1). Epochs here are `< horizon_epoch`.
    sorted: Vec<Node<E>>,
    /// The near tier's second bulk buffer, empty outside `advance`. Epochs
    /// that spilled are gathered into whichever of `sorted` and `wide` is
    /// the large one; an epoch that did not is swapped into the small one,
    /// so no fine bucket ever holds more than [`INLINE`] nodes of storage.
    wide: Vec<Node<E>>,
    /// Near tier, latecomer half: events filed into an epoch below the
    /// horizon *after* that epoch's bucket was drained (a pop at time `t`
    /// scheduling a follow-up inside `t`'s own epoch). Usually tiny; a
    /// heap bounds clustered same-epoch bursts at O(log n).
    staging: BinaryHeap<Reverse<Node<E>>>,
    /// Fine ring: events with epoch `≥ horizon_epoch` and coarse index
    /// below `cascaded` — all inside `[horizon_epoch, horizon_epoch +
    /// NUM_BUCKETS)` — ring-indexed by `epoch & (NUM_BUCKETS - 1)`. Each
    /// bucket holds exactly one epoch's events.
    /// A bucket keeps up to [`INLINE`] nodes in its own storage and spills
    /// the rest into the chunk chain headed by its `spill` entry.
    buckets: Vec<Vec<Node<E>>>,
    /// Per fine bucket, the head of its spilled chunk chain (`NIL`:
    /// nothing spilled).
    spill: Vec<u32>,
    /// One bit per fine bucket: set iff the bucket is non-empty.
    occupied: Vec<u64>,
    /// Nodes currently parked in `buckets` (including cancelled stale
    /// ones, which are dropped when their epoch drains).
    far: usize,
    /// Coarse ring: events with coarse index in `[cascaded, cascaded +
    /// NUM_COARSE)`, ring-indexed by `coarse & (NUM_COARSE - 1)`. Each
    /// bucket is the head of a chunk chain (`NIL` when empty).
    coarse: Vec<u32>,
    /// One bit per coarse bucket: set iff the bucket is non-empty.
    coarse_occupied: [u64; NUM_COARSE / 64],
    /// Nodes currently parked in `coarse`.
    coarse_len: usize,
    /// The chunks behind spilled fine buckets and every coarse bucket.
    pool: ChunkPool<E>,
    /// The first coarse index not yet cascaded into the fine ring.
    cascaded: u64,
    /// Overflow tier: events with coarse index `≥ cascaded + NUM_COARSE`,
    /// min-heap-ordered, moved into the coarse ring as its window slides.
    overflow: BinaryHeap<Reverse<Node<E>>>,
    /// All events in epochs below this are in `sorted`/`staging`.
    horizon_epoch: u64,
    /// Nodes filed per tier by `schedule*` (cascades not counted).
    #[cfg(test)]
    filed: [u64; 4],
    /// Payload store for cancellable events only.
    slab: Vec<Slot<E>>,
    free_head: u32,
    seq: u64,
    now: Nanos,
    processed: u64,
    cancelled: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue starting at time zero.
    pub fn new() -> Self {
        Self {
            sorted: Vec::new(),
            wide: Vec::new(),
            staging: BinaryHeap::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            spill: vec![NIL; NUM_BUCKETS],
            occupied: vec![0u64; NUM_BUCKETS / 64],
            far: 0,
            coarse: vec![NIL; NUM_COARSE],
            coarse_occupied: [0; NUM_COARSE / 64],
            coarse_len: 0,
            pool: ChunkPool {
                chunks: Vec::new(),
                free: NIL,
            },
            // Coarse buckets 0 and 1 are due at horizon 0: the fine ring
            // starts out covering `[0, NUM_BUCKETS)`.
            cascaded: 2,
            overflow: BinaryHeap::new(),
            horizon_epoch: 0,
            #[cfg(test)]
            filed: [0; 4],
            slab: Vec::new(),
            free_head: NIL,
            seq: 0,
            now: Nanos::ZERO,
            processed: 0,
            cancelled: 0,
            live: 0,
        }
    }

    /// File a node into the tier its epoch belongs to.
    #[inline]
    fn file(&mut self, node: Node<E>) {
        let e = epoch(node.time);
        if e < self.horizon_epoch {
            #[cfg(test)]
            self.tally(Tier::Staging);
            self.staging.push(Reverse(node));
        } else if e >> COARSE_SHIFT < self.cascaded {
            #[cfg(test)]
            self.tally(Tier::Fine);
            self.file_fine(node, e);
        } else {
            self.file_far(node, e >> COARSE_SHIFT);
        }
    }

    /// File a node past the fine ring, by its coarse index `c`: into the
    /// coarse ring, or past it into the overflow heap. Kept out of line so
    /// the inlined filing path stays as small as a one-ring queue's.
    #[inline(never)]
    fn file_far(&mut self, node: Node<E>, c: u64) {
        if c < self.cascaded + NUM_COARSE as u64 {
            #[cfg(test)]
            self.tally(Tier::Coarse);
            self.file_coarse(node, c);
        } else {
            #[cfg(test)]
            self.tally(Tier::Overflow);
            self.overflow.push(Reverse(node));
        }
    }

    #[cfg(test)]
    fn tally(&mut self, tier: Tier) {
        self.filed[tier as usize] += 1;
    }

    /// Park a node in the fine bucket of its epoch `e`.
    #[inline]
    fn file_fine(&mut self, node: Node<E>, e: u64) {
        let b = (e as usize) & (NUM_BUCKETS - 1);
        let bucket = &mut self.buckets[b];
        if bucket.len() < INLINE {
            bucket.push(node);
        } else {
            self.pool.push(&mut self.spill[b], node);
        }
        self.occupied[b / 64] |= 1u64 << (b % 64);
        self.far += 1;
    }

    /// Park a node in the coarse bucket of its coarse index `c`.
    #[inline]
    fn file_coarse(&mut self, node: Node<E>, c: u64) {
        let b = (c as usize) & (NUM_COARSE - 1);
        self.pool.push(&mut self.coarse[b], node);
        self.coarse_occupied[b / 64] |= 1u64 << (b % 64);
        self.coarse_len += 1;
    }

    /// Whether the far tiers (fine ring, coarse ring, overflow) hold
    /// nothing.
    #[inline]
    fn far_tiers_empty(&self) -> bool {
        self.far == 0 && self.coarse_len == 0 && self.overflow.is_empty()
    }

    /// Which half of the near tier holds the front (minimum `(time, seq)`)
    /// node: `Some(true)` = staging, `Some(false)` = sorted, `None` =
    /// both empty. Ties are impossible — sequence numbers are unique.
    #[inline]
    fn front_is_staging(&self) -> Option<bool> {
        match (self.sorted.last(), self.staging.peek()) {
            (None, None) => None,
            (Some(_), None) => Some(false),
            (None, Some(_)) => Some(true),
            (Some(s), Some(Reverse(t))) => Some(t.cmp(s) == Ordering::Less),
        }
    }

    /// Pop the front node off the near tier. Caller guarantees it is
    /// non-empty.
    #[inline]
    fn take_front(&mut self) -> Node<E> {
        match self.front_is_staging() {
            Some(true) => {
                let Reverse(node) = self.staging.pop().expect("staging peeked");
                node
            }
            Some(false) => self.sorted.pop().expect("sorted checked"),
            None => unreachable!("take_front on an empty near tier"),
        }
    }

    /// Refill the near tier with the next occupied epoch's whole bucket.
    /// Caller guarantees the near tier is empty and the far tiers are
    /// not; on return `sorted` is non-empty.
    ///
    /// Ordering invariant: every fine-ring node's coarse index is below
    /// `cascaded` and every coarse or overflow node's is not, so the
    /// nearest occupied fine bucket always holds the global minimum.
    fn advance(&mut self) {
        debug_assert!(self.sorted.is_empty() && self.staging.is_empty());
        debug_assert!(!self.far_tiers_empty());
        if self.far == 0 || self.cascaded <= (self.horizon_epoch >> COARSE_SHIFT) + 1 {
            self.cascade();
        }
        // Jump to the nearest occupied epoch (single-epoch buckets make
        // slot distance equal epoch distance) and take its whole bucket.
        let slot = (self.horizon_epoch as usize) & (NUM_BUCKETS - 1);
        let d = distance_to_occupied(&self.occupied, slot);
        self.horizon_epoch += d as u64;
        let b = (self.horizon_epoch as usize) & (NUM_BUCKETS - 1);
        let bucket = &mut self.buckets[b];
        // Only a full inline part can have spilled.
        if bucket.len() < INLINE || self.spill[b] == NIL {
            // One swap, as in a single-ring queue: the bucket gets the
            // small buffer's spent capacity back, so it never grows past
            // its inline part.
            if self.sorted.capacity() > INLINE {
                std::mem::swap(&mut self.sorted, &mut self.wide);
            }
            std::mem::swap(&mut self.sorted, bucket);
        } else {
            // Gathered into the large buffer; the chunks go back to the
            // pool.
            if self.sorted.capacity() <= INLINE {
                std::mem::swap(&mut self.sorted, &mut self.wide);
            }
            self.sorted.append(bucket);
            let head = std::mem::replace(&mut self.spill[b], NIL);
            self.pool.drain_into(head, &mut self.sorted);
        }
        self.occupied[b / 64] &= !(1u64 << (b % 64));
        self.far -= self.sorted.len();
        self.sorted.sort_unstable_by(|a, b| b.cmp(a));
        self.horizon_epoch += 1;
    }

    /// Move every coarse bucket that is due into the fine ring: bucket `c`
    /// once the horizon reaches `(c − 1)·2^10`, when its epochs fit the
    /// fine window. An empty fine ring first jumps the horizon to the next
    /// occupied coarse bucket's due point — and, with the coarse ring
    /// empty too, the coarse window to the overflow minimum. On return
    /// the fine ring is non-empty.
    #[cold]
    #[inline(never)]
    fn cascade(&mut self) {
        if self.far == 0 {
            if self.coarse_len == 0 {
                let Reverse(min) = self.overflow.peek().expect("far tiers non-empty");
                self.cascaded = epoch(min.time) >> COARSE_SHIFT;
                self.refill_coarse();
            }
            // Empty coarse buckets ahead of the first occupied one count
            // as cascaded: they hold nothing to move. (The overflow nodes
            // their slots now cover follow with the cascade's refill.)
            let slot = (self.cascaded as usize) & (NUM_COARSE - 1);
            self.cascaded += distance_to_occupied(&self.coarse_occupied, slot) as u64;
            self.horizon_epoch = self.horizon_epoch.max((self.cascaded - 1) << COARSE_SHIFT);
        }
        while self.cascaded <= (self.horizon_epoch >> COARSE_SHIFT) + 1 {
            let b = (self.cascaded as usize) & (NUM_COARSE - 1);
            let mut chunk = std::mem::replace(&mut self.coarse[b], NIL);
            self.coarse_occupied[b / 64] &= !(1u64 << (b % 64));
            while chunk != NIL {
                // Out of the pool while its nodes are filed (which may draw
                // chunks), then handed back with its capacity.
                let mut nodes = std::mem::take(&mut self.pool.chunks[chunk as usize].nodes);
                self.coarse_len -= nodes.len();
                for node in nodes.drain(..) {
                    let e = epoch(node.time);
                    self.file_fine(node, e);
                }
                self.pool.chunks[chunk as usize].nodes = nodes;
                chunk = self.pool.give_back(chunk);
            }
            self.cascaded += 1;
            self.refill_coarse();
        }
        debug_assert!(self.far > 0);
    }

    /// Move the overflow nodes the coarse window now covers into their
    /// coarse buckets.
    fn refill_coarse(&mut self) {
        let end = self.cascaded + NUM_COARSE as u64;
        while let Some(Reverse(n)) = self.overflow.peek() {
            let c = epoch(n.time) >> COARSE_SHIFT;
            if c >= end {
                break;
            }
            let Reverse(node) = self.overflow.pop().expect("peeked");
            self.file_coarse(node, c);
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of timers cancelled so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of pending (live, uncancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocate the next sequence number, asserting the schedule time.
    #[inline]
    fn next_seq(&mut self, at: Nanos) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedule a fire-and-forget `event` at absolute time `at`.
    ///
    /// The payload is carried inline by the heap node — this is the
    /// allocation- and indirection-free hot path. Use
    /// [`EventQueue::schedule_cancellable`] when the event may need to be
    /// revoked before it fires.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the current time).
    #[inline]
    pub fn schedule(&mut self, at: Nanos, event: E) {
        let seq = self.next_seq(at);
        self.file(Node {
            time: at,
            seq,
            payload: Payload::Inline(event),
        });
        self.live += 1;
    }

    /// Schedule a fire-and-forget `event` after a delay from the current
    /// time.
    #[inline]
    pub fn schedule_in(&mut self, delay: Nanos, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule(at, event);
    }

    /// Schedule `event` at absolute time `at`, returning a [`TimerId`]
    /// that can cancel the event before it fires. The payload is parked in
    /// the slab (slot reuse through an intrusive free list).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the current time).
    pub fn schedule_cancellable(&mut self, at: Nanos, event: E) -> TimerId {
        let seq = self.next_seq(at);
        let slot = if self.free_head != NIL {
            let idx = self.free_head;
            match self.slab[idx as usize] {
                Slot::Vacant { next_free } => self.free_head = next_free,
                Slot::Occupied { .. } => unreachable!("free list points at a live slot"),
            }
            self.slab[idx as usize] = Slot::Occupied { seq, event };
            idx
        } else {
            assert!(self.slab.len() < NIL as usize, "event slab full");
            self.slab.push(Slot::Occupied { seq, event });
            (self.slab.len() - 1) as u32
        };
        self.file(Node {
            time: at,
            seq,
            payload: Payload::Slab(slot),
        });
        self.live += 1;
        TimerId { slot, seq }
    }

    /// Schedule a cancellable `event` after a delay from the current time.
    pub fn schedule_in_cancellable(&mut self, delay: Nanos, event: E) -> TimerId {
        let at = self.now.saturating_add(delay);
        self.schedule_cancellable(at, event)
    }

    /// Cancel a scheduled event, returning its payload if it had not yet
    /// fired (or been cancelled). The stale heap key is skipped lazily
    /// when it reaches the front.
    pub fn cancel(&mut self, id: TimerId) -> Option<E> {
        match self.slab.get(id.slot as usize) {
            Some(Slot::Occupied { seq, .. }) if *seq == id.seq => {}
            _ => return None,
        }
        let taken = std::mem::replace(
            &mut self.slab[id.slot as usize],
            Slot::Vacant {
                next_free: self.free_head,
            },
        );
        self.free_head = id.slot;
        self.live -= 1;
        self.cancelled += 1;
        match taken {
            Slot::Occupied { event, .. } => Some(event),
            Slot::Vacant { .. } => unreachable!("checked occupied above"),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        loop {
            if self.sorted.is_empty() && self.staging.is_empty() {
                if self.far_tiers_empty() {
                    return None;
                }
                self.advance();
            }
            let node = self.take_front();
            let event = match node.payload {
                Payload::Inline(event) => event,
                Payload::Slab(slot) => {
                    let fresh = matches!(
                        self.slab.get(slot as usize),
                        Some(Slot::Occupied { seq, .. }) if *seq == node.seq
                    );
                    if !fresh {
                        continue; // cancelled timer: slot was vacated or reused
                    }
                    let taken = std::mem::replace(
                        &mut self.slab[slot as usize],
                        Slot::Vacant {
                            next_free: self.free_head,
                        },
                    );
                    self.free_head = slot;
                    match taken {
                        Slot::Occupied { event, .. } => event,
                        Slot::Vacant { .. } => unreachable!("checked occupied above"),
                    }
                }
            };
            self.now = node.time;
            self.processed += 1;
            self.live -= 1;
            return Some((node.time, event));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(30), "c");
        q.schedule(Nanos::from_millis(10), "a");
        q.schedule(Nanos::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Nanos::from_millis(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn inline_and_cancellable_events_interleave_in_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(2), "inline-2");
        q.schedule_cancellable(Nanos::from_millis(1), "slab-1");
        q.schedule_cancellable(Nanos::from_millis(3), "slab-3");
        q.schedule(Nanos::from_millis(4), "inline-4");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["slab-1", "inline-2", "slab-3", "inline-4"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(7), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos::from_millis(7));
        assert_eq!(q.processed(), 1);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(10), 1);
        q.pop();
        q.schedule_in(Nanos::from_millis(5), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, Nanos::from_millis(15));
        assert_eq!(e, 2);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(10), ());
        q.pop();
        q.schedule(Nanos::from_millis(5), ());
    }

    #[test]
    fn fire_and_forget_events_never_touch_the_slab() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            q.schedule_in(Nanos::from_millis(1), round);
            q.pop();
        }
        assert_eq!(q.slab.len(), 0, "inline path must not use the slab");
    }

    #[test]
    fn cancellable_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            q.schedule_in_cancellable(Nanos::from_millis(1), round);
            q.pop();
        }
        assert!(q.slab.len() <= 2, "slab grew: {}", q.slab.len());
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule_cancellable(Nanos::from_millis(1), "keep");
        let drop = q.schedule_cancellable(Nanos::from_millis(2), "drop");
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancel(drop), Some("drop"));
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancelled(), 1);
        let fired: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(fired, vec!["keep"]);
        // Double-cancel and cancel-after-fire are no-ops.
        assert_eq!(q.cancel(drop), None);
        assert_eq!(q.cancel(keep), None);
    }

    #[test]
    fn cancel_is_safe_across_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule_cancellable(Nanos::from_millis(1), 1);
        assert_eq!(q.cancel(a), Some(1));
        // Slot is reused by a new event; the old handle must not cancel it.
        let b = q.schedule_cancellable(Nanos::from_millis(2), 2);
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.pop(), Some((Nanos::from_millis(2), 2)));
        assert_eq!(q.cancel(b), None);
    }

    #[test]
    fn next_time_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let head = q.schedule_cancellable(Nanos::from_millis(1), "head");
        q.schedule(Nanos::from_millis(5), "tail");
        q.cancel(head);
        assert_eq!(q.pop(), Some((Nanos::from_millis(5), "tail")));
        assert_eq!(q.now(), Nanos::from_millis(5));
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Events past the fine ring (≈ 67 ms) and past the coarse ring
        // (≈ 4.3 s) exercise both horizon jumps: to the next occupied
        // coarse bucket, and to the overflow minimum.
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_secs(30), "far");
        q.schedule(Nanos::from_millis(1), "near");
        q.schedule(Nanos::from_secs(3600), "very-far");
        q.schedule(Nanos::from_millis(500), "mid");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["near", "mid", "far", "very-far"]);
    }

    #[test]
    fn ring_slot_collisions_keep_epoch_order() {
        // Two events whose epochs map to the same ring slot (exactly one
        // ring span apart) must still pop in time order.
        let span = Nanos((NUM_BUCKETS as u64) << EPOCH_SHIFT);
        let mut q = EventQueue::new();
        let t1 = Nanos::from_millis(5);
        let t2 = Nanos(t1.as_nanos() + span.as_nanos());
        let t3 = Nanos(t1.as_nanos() + 2 * span.as_nanos());
        q.schedule(t3, "third");
        q.schedule(t1, "first");
        q.schedule(t2, "second");
        assert_eq!(q.pop(), Some((t1, "first")));
        // Interleave a fresh near-term event after draining an epoch.
        let t_mid = Nanos(t1.as_nanos() + 1);
        q.schedule(t_mid, "mid");
        assert_eq!(q.pop(), Some((t_mid, "mid")));
        assert_eq!(q.pop(), Some((t2, "second")));
        assert_eq!(q.pop(), Some((t3, "third")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_events_entering_the_window_beat_later_ring_inserts() {
        // An old overflow event slides into the coarse ring while a
        // younger event is filed straight into the same coarse bucket:
        // the overflow event is earlier and must pop first.
        let width = 1u64 << (COARSE_SHIFT + EPOCH_SHIFT);
        let mut q = EventQueue::new();
        let t_first = Nanos(3 * width);
        // Coarse index 130: past the coarse window `[2, 130)` at start.
        let t_overflow = Nanos((NUM_COARSE as u64 + 2) * width + (50 << EPOCH_SHIFT));
        q.schedule(t_overflow, "overflow");
        q.schedule(t_first, "first");
        assert_eq!(q.filed[Tier::Overflow as usize], 1);
        assert_eq!(q.pop(), Some((t_first, "first")));
        // The coarse window has slid past index 130: this files directly
        // into the coarse ring, later than the old overflow event.
        let t_late = Nanos(t_overflow.as_nanos() + (100 << EPOCH_SHIFT));
        q.schedule(t_late, "late");
        assert_eq!(q.filed[Tier::Coarse as usize], 2);
        assert_eq!(q.pop(), Some((t_overflow, "overflow")));
        assert_eq!(q.pop(), Some((t_late, "late")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_timers_slide_in_while_the_fine_ring_never_empties() {
        // A 1 ms ticker keeps the fine ring busy for 10 s, so only the
        // cascade itself can move the overflow timers into the coarse
        // ring as its window slides over them.
        let mut q = EventQueue::new();
        let far = [4_500, 5_000, 9_000].map(Nanos::from_millis);
        for t in far {
            q.schedule(t, t.as_nanos());
        }
        assert_eq!(q.filed[Tier::Overflow as usize], 3);
        q.schedule(Nanos::ZERO, 0);
        let mut fired = Vec::new();
        while let Some((t, ev)) = q.pop() {
            fired.push(t);
            if ev == 0 && t < Nanos::from_secs(10) {
                q.schedule_in(Nanos::from_millis(1), 0);
            }
        }
        assert!(fired.windows(2).all(|w| w[0] <= w[1]), "out of order");
        assert!(far.iter().all(|t| fired.contains(t)));
        assert_eq!(q.filed[Tier::Overflow as usize], 3);
    }

    #[test]
    fn late_inserts_inside_the_fine_window_wait_for_their_coarse_bucket() {
        // The filing rule is the cascade frontier, not the fine window.
        // "early" parks in coarse bucket 2 (epochs 2048..3072) while the
        // window is `[0, 2048)`. At horizon 11 the window reaches epoch
        // 2058, but bucket 2 is not cascaded yet: "late", filed into the
        // window, would pop before "early".
        let at = |e: u64| Nanos(e << EPOCH_SHIFT);
        let mut q = EventQueue::new();
        q.schedule(at(10), "tick");
        q.schedule(at(2049), "early");
        assert_eq!(q.pop(), Some((at(10), "tick")));
        q.schedule(at(2055), "late");
        assert_eq!(q.pop(), Some((at(2049), "early")));
        assert_eq!(q.pop(), Some((at(2055), "late")));
        assert_eq!(q.filed[Tier::Coarse as usize], 2);
    }

    /// Drive the mega-fleet's timer pattern on `q` for `pops` events:
    /// `clients` closed loops, each an exp(200 ms) think, then a 0.25 ms
    /// hop, an exp(2 ms) service and a 0.25 ms hop back. Leaves one
    /// pending event per client and returns how many of the request
    /// chain's three steps were filed past the fine ring.
    fn mega_fleet_churn(q: &mut EventQueue<u64>, clients: u64, pops: u64, seed: u64) -> u64 {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut exp =
            |mean_ms: f64| Nanos::from_millis_f64(-mean_ms * (1.0 - rng.gen::<f64>()).ln());
        for client in 0..clients {
            q.schedule_in(exp(200.0), client << 2);
        }
        let mut chain_past_fine = 0;
        for _ in 0..pops {
            let (_, ev) = q.pop().expect("one pending event per client");
            let delay = match ev & 3 {
                0 | 2 => Nanos::from_micros(250),
                1 => exp(2.0),
                _ => exp(200.0),
            };
            let far = |q: &EventQueue<u64>| {
                q.filed[Tier::Coarse as usize] + q.filed[Tier::Overflow as usize]
            };
            let before = far(q);
            q.schedule_in(delay, (ev & !3) | ((ev + 1) & 3));
            if ev & 3 != 3 {
                chain_past_fine += far(q) - before;
            }
        }
        chain_past_fine
    }

    #[test]
    fn mega_fleet_timers_never_touch_the_overflow_heap() {
        let mut q = EventQueue::new();
        let chain_past_fine = mega_fleet_churn(&mut q, 120_000, 480_000, 1);
        assert_eq!(q.filed[Tier::Overflow as usize], 0, "{:?}", q.filed);
        // ≈ 72% of the think timers land past the fine ring; the request
        // chain never does, because coarse buckets cascade a bucket-width
        // early.
        assert!(q.filed[Tier::Coarse as usize] > 100_000, "{:?}", q.filed);
        assert_eq!(chain_past_fine, 0);
    }

    #[test]
    fn wheel_storage_follows_live_nodes_and_is_recycled() {
        // Node storage of both rings: the fine buckets' own parts and the
        // chunk pool.
        let capacity = |q: &EventQueue<u64>| {
            q.buckets.iter().map(Vec::capacity).sum::<usize>() + q.pool.chunks.len() * CHUNK
        };
        let occupied = |bits: &[u64]| bits.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let mut q = EventQueue::new();
        mega_fleet_churn(&mut q, 120_000, 480_000, 2);
        // Live nodes, one inline part per fine bucket and one partly
        // filled chunk per occupied bucket: per-bucket peaks would hold
        // several times that.
        let buckets = occupied(&q.occupied) + occupied(&q.coarse_occupied);
        let bound = q.live + NUM_BUCKETS * INLINE + buckets * CHUNK;
        assert!(
            capacity(&q) <= bound,
            "{} node slots for {} live nodes in {buckets} buckets",
            capacity(&q),
            q.live
        );
        // Warm: the same population churning on draws no new chunk.
        let chunks = q.pool.chunks.len();
        mega_fleet_churn(&mut q, 0, 480_000, 3);
        assert_eq!(q.pool.chunks.len(), chunks, "the second churn allocated");
    }

    #[test]
    fn same_epoch_latecomers_interleave_with_the_drained_epoch() {
        // Popping an event and scheduling follow-ups inside the *same*
        // epoch exercises the staging half of the near tier against the
        // sorted half.
        let mut q = EventQueue::new();
        let base = Nanos::from_millis(1);
        q.schedule(base, 0u64);
        q.schedule(Nanos(base.as_nanos() + 100), 2);
        let mut log = Vec::new();
        while let Some((t, e)) = q.pop() {
            log.push(e);
            if e == 0 {
                // Lands between the two pending events, same epoch.
                q.schedule(Nanos(t.as_nanos() + 50), 1);
            }
        }
        assert_eq!(log, vec![0, 1, 2]);
    }

    #[test]
    fn interleaved_schedule_pop_is_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            q.schedule(Nanos::from_millis(1), 100);
            while let Some((t, e)) = q.pop() {
                log.push((t, e));
                if e < 105 {
                    q.schedule_in(Nanos::from_millis(1), e + 1);
                    q.schedule_in(Nanos::from_millis(1), e + 1);
                }
                if log.len() > 100 {
                    break;
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
