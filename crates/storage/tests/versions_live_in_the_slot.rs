//! Allocation gate for the version chains: a key's first two versions live
//! inside its table slot, so creating a key and the common batch shape —
//! one write per key, then the after-batch reclaim — touch no heap beyond
//! the tables' own maps and reclaim lists, and a chain that spills reuses
//! its heap capacity the next time.
//!
//! A counting global allocator tallies `alloc` and `realloc` calls per
//! thread, so tests running side by side do not see each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use morphstream_common::TableId;
use morphstream_storage::MvTable;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const KEYS: u64 = 10_000;

/// Write `per_key` versions to every key at timestamps after `*ts`, then
/// reclaim everything before the last of them.
fn round(table: &MvTable, ts: &mut u64, per_key: u64) {
    for key in 0..KEYS {
        for i in 0..per_key {
            table.write(key, *ts + 1 + i, 0, i, key as i64).unwrap();
        }
    }
    *ts += per_key;
    table.truncate_before(*ts);
    assert_eq!(table.version_count(), KEYS);
}

#[test]
fn preallocating_keys_allocates_only_the_shard_maps() {
    let table = MvTable::new(TableId(0), "accounts", 0, false);
    let made = allocations(|| table.preallocate_range(KEYS));
    assert_eq!(table.key_count(), KEYS as usize);
    assert!(
        made < KEYS / 10,
        "preallocating {KEYS} keys made {made} allocations"
    );
}

#[test]
fn one_write_per_key_and_a_reclaim_allocate_only_the_reclaim_lists() {
    let table = MvTable::new(TableId(0), "accounts", 0, false);
    table.preallocate_range(KEYS);
    let mut ts = 0;
    let first = allocations(|| round(&table, &mut ts, 1));
    assert!(first < KEYS / 10, "first round made {first} allocations");
    let second = allocations(|| round(&table, &mut ts, 1));
    assert_eq!(second, 0, "second round");
}

#[test]
fn a_spill_allocates_once_per_key_and_its_capacity_is_reused() {
    let table = MvTable::new(TableId(0), "accounts", 0, false);
    table.preallocate_range(KEYS);
    let mut ts = 0;
    // grow the reclaim lists first, so only the chains' spills are counted
    round(&table, &mut ts, 1);
    let first = allocations(|| round(&table, &mut ts, 3));
    assert_eq!(first, KEYS, "first round of three versions per key");
    let second = allocations(|| round(&table, &mut ts, 3));
    assert_eq!(second, 0, "second round of three versions per key");
}
