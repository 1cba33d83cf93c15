//! What a batch allocates on its hot path does not grow with the batch —
//! stated as exact allocation counts, so the test means the same on any
//! host: the fine scheduling partition is a fixed number of flat arrays, an
//! abort that rolls nothing back allocates nothing batch-sized, and a
//! one-worker punctuation plans no graph, so each event costs the engine one
//! allocation — its outcome's result list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use morphstream::{EngineConfig, MorphStream, StreamApp, TxnBuilder, TxnEngine, TxnOutcome};
use morphstream_common::metrics::Breakdown;
use morphstream_common::TableId;
use morphstream_executor::ExecContext;
use morphstream_scheduler::AbortHandling;
use morphstream_storage::StateStore;
use morphstream_tpg::{
    udfs, OperationSpec, SchedulingUnits, Tpg, TpgBuilder, Transaction, TransactionBatch,
};

/// Counts the allocations (and their bytes) the current thread makes, so
/// tests running beside each other do not disturb one another's counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    let _ = ALLOCS.try_with(|a| {
        let (count, total) = a.get();
        a.set((count + 1, total + bytes as u64));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` that `f` makes on this thread, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (count0, bytes0) = ALLOCS.with(Cell::get);
    let result = f();
    let (count1, bytes1) = ALLOCS.with(Cell::get);
    (result, count1 - count0, bytes1 - bytes0)
}

const T: TableId = TableId(0);

/// `ops` single-write transactions over 16 keys: every key is a chain, so
/// most operations have a parent and a child.
fn chained_tpg(ops: u64) -> Tpg {
    let mut batch = TransactionBatch::new();
    for ts in 1..=ops {
        batch.push(Transaction::new(
            ts,
            vec![OperationSpec::write(T, ts % 16, vec![], udfs::add_delta(1))],
        ));
    }
    TpgBuilder::new().build(batch)
}

#[test]
fn the_fine_partition_allocates_the_same_for_any_batch_size() {
    let allocations = |ops: u64| {
        let tpg = chained_tpg(ops);
        let (units, count, _) = counted(|| SchedulingUnits::fine(&tpg));
        assert_eq!(units.num_units(), ops as usize);
        assert_eq!(units.parents(16), &[0]);
        count
    };
    let small = allocations(64);
    assert_eq!(allocations(4_096), small);
    assert!(small <= 8, "{small} allocations for the fine partition");
}

#[test]
fn an_abort_that_rolls_nothing_back_allocates_nothing_batch_sized() {
    // Transaction 0's only write fails; the other `ops - 1` transactions are
    // the rest of the batch it must not pay for.
    let bytes = |ops: u64| {
        let store = StateStore::new();
        store.create_table("accounts", 0, false);
        store.preallocate_range(T, 16).unwrap();
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::always_abort())],
        ));
        for ts in 2..=ops {
            batch.push(Transaction::new(
                ts,
                vec![OperationSpec::write(
                    T,
                    1 + ts % 15,
                    vec![],
                    udfs::add_delta(1),
                )],
            ));
        }
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store, AbortHandling::Eager);
        let mut breakdown = Breakdown::new();
        let ((), _, bytes) = counted(|| ctx.run_op(0, &mut breakdown));
        assert!(ctx.txn_aborted(0));
        bytes
    };
    assert_eq!(bytes(64), bytes(4_096));
}

/// One deposit per event, to the event's own key: a single-write
/// transaction. The app counts the allocations its own code makes — the
/// operation list and the UDF — so the engine's can be told apart.
struct Deposits {
    table: TableId,
    own: AtomicU64,
}

impl StreamApp for Deposits {
    type Event = u64;
    type Output = bool;

    fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
        let (_, count, _) = counted(|| {
            txn.write(self.table, *event, udfs::add_delta(1));
        });
        self.own.fetch_add(count, Ordering::Relaxed);
    }

    fn post_process(&self, _event: &u64, outcome: &TxnOutcome) -> bool {
        outcome.committed
    }
}

/// Events of the largest punctuation measured.
const MOST_EVENTS: u64 = 4_096;

/// Allocations the engine makes on this thread for one one-worker
/// punctuation over `events` deposits (keys `0..events`), the app's own
/// left out. A first punctuation over every key is not counted: it leaves
/// the store's per-shard reclaim lists at the capacity the counted one
/// needs.
fn punctuation_allocations(events: u64) -> u64 {
    let store = StateStore::new();
    let table = store.create_table("accounts", 0, false);
    store.preallocate_range(table, MOST_EVENTS).unwrap();
    let app = Deposits {
        table,
        own: AtomicU64::new(0),
    };
    let mut engine = MorphStream::new(app, store, EngineConfig::with_threads(1));
    engine.run(0..MOST_EVENTS);
    for event in 0..events {
        engine.ingest(event);
    }
    let own_before = engine.app().own.load(Ordering::Relaxed);
    let ((), count, _) = counted(|| engine.flush());
    let own = engine.app().own.load(Ordering::Relaxed) - own_before;
    let batch = engine.report().batches.last().expect("the punctuation ran");
    assert_eq!((batch.events, batch.workers), (events as usize, 1));
    count - own
}

#[test]
fn a_one_worker_punctuation_plans_no_graph_and_allocates_one_result_list_per_event() {
    const EVENTS: u64 = 1_024;
    let [one, two, four] = [EVENTS, 2 * EVENTS, 4 * EVENTS].map(punctuation_allocations);
    // A buffer that grows by doubling — the batch's transaction list, the
    // session's outputs — adds one allocation each time the batch doubles,
    // the same from T to 2T as from 2T to 4T; the second difference leaves
    // the allocations that grow with the events.
    let per_event = (four - two) - (two - one);
    assert_eq!(
        per_event, EVENTS,
        "{per_event} allocations per {EVENTS} events \
         (punctuations of T, 2T, 4T: {one}, {two}, {four})"
    );
}
