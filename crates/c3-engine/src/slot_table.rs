//! A recycling record table: memory follows what is in flight, not how
//! long the run is.
//!
//! An event loop creates a record per request (and per send), names it
//! inside events and backlogs, and is done with it a few simulated
//! milliseconds later. Appending those records to a grow-only `Vec` makes
//! a run's memory — and its first-touch page faults — proportional to its
//! length, while the records alive at any instant number offered rate ×
//! latency. A [`SlotTable`] hands out [`SlotKey`]s instead of `len()`
//! indices, and [`SlotTable::remove`] puts the slot on a LIFO free stack,
//! so the table grows to the in-flight high-water mark and stays there,
//! and the slot handed out next is the one most recently touched.
//!
//! **Stale keys.** A recycled key dereferenced after `remove` would alias
//! another request's record, so every key carries its slot's generation
//! and every lookup verifies it — under `debug_assertions` only, which is
//! where the golden suites run. A release build tracks no generations and
//! pays exactly the bounds check a plain `Vec` index pays. That is also
//! why this is not the kernel's cancellable-timer slab: a stale
//! [`crate::TimerId`] is *legitimate* (cancelling a timer that already
//! fired) and must be detected in release builds, a cost the request
//! path must not carry; sharing code would mean branching on the caller.

use std::ops::{Index, IndexMut};

/// Names one live record of a [`SlotTable`]: the slot index in the low 32
/// bits and, in debug builds, the slot's generation in the high 32. The
/// same size in every build, so event layouts do not depend on the
/// profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotKey(u64);

impl SlotKey {
    #[inline]
    fn index(self) -> usize {
        self.0 as u32 as usize
    }
}

/// A table of `Copy` records whose slots are recycled on
/// [`SlotTable::remove`]. Indexing with a [`SlotKey`] reads or writes the
/// record in place.
#[derive(Debug)]
pub struct SlotTable<T> {
    slots: Vec<T>,
    /// Vacated slots, most recently vacated last.
    free: Vec<u32>,
    /// Per slot, how many times it has been vacated.
    #[cfg(debug_assertions)]
    generations: Vec<u32>,
}

impl<T: Copy> Default for SlotTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> SlotTable<T> {
    /// An empty table; it grows on demand.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            #[cfg(debug_assertions)]
            generations: Vec::new(),
        }
    }

    /// Store `value` in a vacant slot (or a new one) and name it.
    #[inline]
    pub fn insert(&mut self, value: T) -> SlotKey {
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = value;
                index
            }
            None => {
                let index = u32::try_from(self.slots.len())
                    .expect("a slot table holds at most 2^32 records in flight");
                self.slots.push(value);
                #[cfg(debug_assertions)]
                self.generations.push(0);
                index
            }
        };
        #[cfg(debug_assertions)]
        let generation = self.generations[index as usize];
        #[cfg(not(debug_assertions))]
        let generation = 0u32;
        SlotKey(u64::from(generation) << 32 | u64::from(index))
    }

    /// Vacate `key`'s slot for reuse and return the record it held. The
    /// key (and every copy of it) is dead from here on.
    #[inline]
    pub fn remove(&mut self, key: SlotKey) -> T {
        let index = self.live_index(key);
        #[cfg(debug_assertions)]
        {
            self.generations[index] = self.generations[index].wrapping_add(1);
        }
        self.free.push(index as u32);
        self.slots[index]
    }

    /// Slots ever allocated: the high-water mark of records in flight.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// `key`'s slot index, verified live in debug builds.
    #[inline]
    fn live_index(&self, key: SlotKey) -> usize {
        let index = key.index();
        #[cfg(debug_assertions)]
        assert_eq!(
            u64::from(self.generations[index]),
            key.0 >> 32,
            "stale SlotKey: slot {index} was vacated after this key was issued"
        );
        index
    }
}

impl<T: Copy> Index<SlotKey> for SlotTable<T> {
    type Output = T;

    #[inline]
    fn index(&self, key: SlotKey) -> &T {
        &self.slots[self.live_index(key)]
    }
}

impl<T: Copy> IndexMut<SlotKey> for SlotTable<T> {
    #[inline]
    fn index_mut(&mut self, key: SlotKey) -> &mut T {
        let index = self.live_index(key);
        &mut self.slots[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vacated_slot_is_the_next_one_handed_out() {
        let mut table = SlotTable::new();
        let a = table.insert('a');
        let b = table.insert('b');
        assert_eq!(table.remove(a), 'a');
        let c = table.insert('c');
        assert_eq!(c.index(), a.index());
        assert_eq!((table[b], table[c]), ('b', 'c'));
        table[b] = 'B';
        assert_eq!(table[b], 'B');
        assert_eq!(table.slot_count(), 2);
    }

    #[test]
    fn keys_are_eight_bytes_in_every_build() {
        assert_eq!(std::mem::size_of::<SlotKey>(), 8);
    }

    // Stale *lookups* are covered against a model in
    // `tests/slot_table_props.rs`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale SlotKey")]
    fn removing_twice_is_caught() {
        let mut table = SlotTable::new();
        let key = table.insert(1u8);
        table.remove(key);
        table.remove(key);
    }
}
