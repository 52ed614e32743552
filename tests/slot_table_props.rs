//! Property test pitting the engine's recycling [`SlotTable`] against a
//! `HashMap` model under random insert / remove / lookup / overwrite
//! schedules.
//!
//! What the simulators rely on: a live key always reads back its own
//! record (recycled slots never alias), the table never holds more slots
//! than the largest population that was ever live at once (memory is
//! O(in flight)), and — in debug builds, where the golden suites run — a
//! key used after its `remove` panics instead of reading whichever record
//! took over the slot.

use std::collections::HashMap;

use c3::engine::{SlotKey, SlotTable};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Drive `steps` random operations; `grow_bias` in `0..=8` tilts the mix
/// between growing and draining so populations rise and collapse.
fn duel(steps: usize, grow_bias: u32, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut table: SlotTable<u64> = SlotTable::new();
    let mut model: HashMap<SlotKey, u64> = HashMap::new();
    let mut live: Vec<SlotKey> = Vec::new();
    let mut dead: Vec<SlotKey> = Vec::new();
    let mut next_value = 0u64;
    let mut peak_live = 0usize;

    for _ in 0..steps {
        match rng.gen_range(0..12u32) {
            op if op < 2 + grow_bias || live.is_empty() => {
                let key = table.insert(next_value);
                assert!(
                    model.insert(key, next_value).is_none(),
                    "insert handed out a key that is still live"
                );
                live.push(key);
                next_value += 1;
                peak_live = peak_live.max(live.len());
            }
            op if op < 10 => {
                let key = live.swap_remove(rng.gen_range(0..live.len()));
                assert_eq!(Some(table.remove(key)), model.remove(&key));
                dead.push(key);
            }
            10 => {
                let key = live[rng.gen_range(0..live.len())];
                table[key] = next_value;
                model.insert(key, next_value);
                next_value += 1;
            }
            _ => {
                let key = live[rng.gen_range(0..live.len())];
                assert_eq!(table[key], model[&key]);
            }
        }
        assert!(
            table.slot_count() <= peak_live,
            "{} slots for a peak of {peak_live} live records",
            table.slot_count()
        );
    }
    for (key, value) in &model {
        assert_eq!(table[*key], *value, "a live record was overwritten");
    }

    // Debug builds verify the generation a key carries on every lookup; a
    // release build pays only the bounds check and reads whatever holds
    // the slot now.
    #[cfg(debug_assertions)]
    {
        // This binary's only test: silence the expected panics' reports.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let read_back = dead
            .iter()
            .filter(|&&key| std::panic::catch_unwind(|| table[key]).is_ok())
            .count();
        std::panic::set_hook(hook);
        assert_eq!(read_back, 0, "removed keys read back a record");
    }
}

proptest! {
    #[test]
    fn slot_table_matches_a_hashmap_model(
        steps in 1usize..600,
        grow_bias in 0u32..9,
        seed in 0u64..u64::MAX,
    ) {
        duel(steps, grow_bias, seed);
    }
}
