//! One [`DurableEngine::ingest`] call is one WAL chunk: its records, and the
//! punctuation marker that falls due after them, reach the log with one
//! `write`, and the log's bytes are the ones one append per event writes.
//!
//! * `one_ingest_call_is_one_write` counts the calling thread's write
//!   syscalls (Linux `/proc/thread-self/io`) over 600 events in 4 chunks.
//! * `chunked_ingest_writes_the_log_one_append_per_event_writes` compares a
//!   log written by `ingest` with one written by `WalLog::append_event` per
//!   event plus `mark_punctuation` at the same places, segment for segment
//!   and byte for byte, and what `read_wal` makes of each. That identity is
//!   what keeps recovery, the `WalTailer` and `MSR1` shipping unchanged.

mod support;

use std::collections::BTreeMap;
use std::path::Path;

use morphstream_durability::{read_wal, DurableEngine, FsyncPolicy, WalLog, WalState};
use morphstream_workloads::SlEvent;
use support::{build, test_dir, test_events, Engine, Shape, EVENTS, PUNCTUATION};

const SERIAL: Shape = Shape {
    concurrent: false,
    parallelism: 1,
    threads: 1,
};

/// A durable engine on `dir` with no interval checkpoints, writing its own
/// punctuation marker every [`PUNCTUATION`] events.
fn open(dir: &Path, fsync: FsyncPolicy) -> DurableEngine<Engine> {
    let (topology, _stores) = build(SERIAL);
    DurableEngine::open(Some(dir), topology, fsync, 0, 0, PUNCTUATION as u64)
        .expect("open the data directory")
        .0
}

/// Write syscalls this thread has made so far (Linux).
fn thread_write_syscalls() -> u64 {
    let io = std::fs::read_to_string("/proc/thread-self/io").expect("/proc/thread-self/io");
    io.lines()
        .find_map(|line| line.strip_prefix("syscw:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a syscw line")
}

#[test]
fn one_ingest_call_is_one_write() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: per-thread write syscall counts need Linux /proc/thread-self/io");
        return;
    }
    let events = test_events();
    let dir = test_dir("one-write");
    let mut durable = open(&dir, FsyncPolicy::Never);
    let chunks = 4;
    let before = thread_write_syscalls();
    for chunk in events.chunks(EVENTS / chunks) {
        durable.ingest(chunk.iter().cloned()).expect("WAL append");
    }
    let writes = thread_write_syscalls() - before;
    assert_eq!(durable.stats().wal_records, EVENTS as u64 + chunks as u64);
    // Each 150-event chunk crosses a 50-event punctuation, so each carries a
    // marker; the segment header is the one write that is not a chunk.
    assert_eq!(
        writes,
        chunks as u64 + 1,
        "one write per chunk, markers included, plus the segment header"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every segment file of the log under `dir`, by name.
fn segments(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("wal"))
        .expect("a WAL directory")
        .map(|entry| {
            let entry = entry.expect("a directory entry");
            let name = entry.file_name().into_string().expect("a UTF-8 name");
            (
                name,
                std::fs::read(entry.path()).expect("a readable segment"),
            )
        })
        .collect()
}

#[test]
fn chunked_ingest_writes_the_log_one_append_per_event_writes() {
    let events = test_events();
    // Chunks below, at and past the punctuation, an empty one, and a
    // rotation (the checkpoint) after the fifth.
    let sizes = [1, 49, 50, 120, 0, 7, 173, 200];
    assert_eq!(sizes.iter().sum::<usize>(), EVENTS);
    let rotate_after = 5;

    let chunked = test_dir("chunked");
    let mut durable = open(&chunked, FsyncPolicy::Interval);
    let per_event = test_dir("per-event");
    let mut wal = WalLog::open(per_event.join("wal"), FsyncPolicy::Interval, 0).expect("open WAL");
    let mut since_marker = 0;
    let mut at = 0;
    for (i, &size) in sizes.iter().enumerate() {
        let chunk = &events[at..at + size];
        at += size;
        durable.ingest(chunk.iter().cloned()).expect("WAL append");
        for event in chunk {
            wal.append_event(event).expect("append");
        }
        // The marker rule: one after a chunk that reaches the punctuation.
        since_marker += size;
        if since_marker >= PUNCTUATION {
            since_marker %= PUNCTUATION;
            wal.mark_punctuation().expect("punctuation marker");
        }
        if i + 1 == rotate_after {
            durable.checkpoint_now().expect("checkpoint");
            wal.rotate().expect("rotate");
        }
    }
    assert_eq!(durable.next_index(), EVENTS as u64);
    assert_eq!(wal.next_index(), EVENTS as u64);
    assert_eq!(durable.stats().wal_records, wal.records_appended());
    assert_eq!(durable.stats().wal_bytes, wal.bytes_appended());
    drop(durable);
    drop(wal);

    let (a, b) = (segments(&chunked), segments(&per_event));
    assert_eq!(a.len(), 2, "the checkpoint rotated the log once");
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "the same segments"
    );
    for (name, bytes) in &a {
        assert!(bytes == &b[name], "{name} differs byte for byte");
    }
    let read_a: WalState<SlEvent> = read_wal(chunked.join("wal")).expect("read the chunked log");
    let read_b: WalState<SlEvent> = read_wal(per_event.join("wal")).expect("read the other log");
    assert!(!read_a.torn_tail);
    assert_eq!(read_a.events.len(), EVENTS);
    assert_eq!(read_a, read_b);
    let _ = std::fs::remove_dir_all(&chunked);
    let _ = std::fs::remove_dir_all(&per_event);
}
