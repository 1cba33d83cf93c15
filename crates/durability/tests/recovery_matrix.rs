//! The crash-recovery matrix: kill-and-restart is digest-identical to an
//! uninterrupted run across every runtime shape — {serial, concurrent} ×
//! downstream parallelism {1, 4} × worker threads {1, 4} — with the kill
//! landing both on a punctuation boundary and mid-batch, and the checkpoint
//! cut itself mid-batch.
//!
//! Each cell simulates the crash in-process on the production type: lifetime
//! A is a [`DurableEngine`] that ingests a prefix of the stream (taking one
//! checkpoint part-way) and is then dropped without a final checkpoint or
//! `finish` — exactly what `kill -9` leaves on disk. Lifetime B is
//! [`DurableEngine::open`] on the same directory: it restores the
//! checkpoint, replays the WAL tail, ingests the rest of the stream, and
//! must land on the same ledger/tally state digests and the same
//! order-sensitive output digest as a reference run that never crashed and
//! never touched the durability layer.

mod support;

use std::path::Path;

use morphstream::storage::StateStore;
use morphstream::TxnEngine;
use morphstream_durability::{Checkpoint, DurableEngine, FsyncPolicy, Recovery};
use morphstream_workloads::SlEvent;
use support::{
    build, reference, test_dir, test_events, Digests, Engine, Shape, CHECKPOINT_AT, PUNCTUATION,
};

/// One lifetime of a durable server over `dir`: a fresh engine, recovered.
/// No interval checkpoints — the tests place them.
struct Lifetime {
    durable: DurableEngine<Engine>,
    stores: [StateStore; 2],
    recovery: Option<Recovery>,
}

impl Lifetime {
    fn open(shape: Shape, dir: &Path) -> Lifetime {
        let (topology, stores) = build(shape);
        let (durable, recovery) = DurableEngine::open(
            Some(dir),
            topology,
            FsyncPolicy::Never,
            0,
            0,
            PUNCTUATION as u64,
        )
        .expect("open the data directory");
        Lifetime {
            durable,
            stores,
            recovery,
        }
    }

    fn ingest(&mut self, slice: &[SlEvent]) {
        self.durable
            .ingest(slice.iter().cloned())
            .expect("WAL append");
    }

    fn finish(mut self) -> Digests {
        self.durable.finish_session();
        Digests {
            ledger: self.stores[0].state_digest(),
            tally: self.stores[1].state_digest(),
            outputs: self.durable.output_digest(),
        }
    }
}

/// Crash at `kill_at`, recover, finish the stream; return the digests.
fn crashed_and_recovered(shape: Shape, events: &[SlEvent], kill_at: usize, dir: &Path) -> Digests {
    // Lifetime A: ingest the prefix, checkpoint mid-way, then vanish (the
    // in-flight suffix past the last punctuation dies with the process —
    // but it is in the WAL).
    {
        let mut a = Lifetime::open(shape, dir);
        assert_eq!(a.recovery, None, "a fresh directory recovers nothing");
        a.ingest(&events[..CHECKPOINT_AT]);
        a.durable.checkpoint_now().expect("checkpoint");
        a.ingest(&events[CHECKPOINT_AT..kill_at]);
    }

    // Lifetime B: recover, continue, finish.
    let mut b = Lifetime::open(shape, dir);
    assert_eq!(
        b.recovery,
        Some(Recovery {
            checkpoint_id: Some(0),
            events_applied: CHECKPOINT_AT as u64,
            replayed_events: (kill_at - CHECKPOINT_AT) as u64,
            torn_tail: false,
        }),
        "recovery restores the checkpoint and replays checkpoint..kill"
    );
    b.ingest(&events[kill_at..]);
    b.finish()
}

#[test]
fn kill_and_restart_is_digest_identical_across_the_runtime_matrix() {
    let events = test_events();

    for concurrent in [false, true] {
        for parallelism in [1, 4] {
            for threads in [1, 4] {
                let shape = Shape {
                    concurrent,
                    parallelism,
                    threads,
                };
                let expected = reference(shape, &events);
                // 300 = a punctuation boundary; 323 = mid-batch.
                for kill_at in [300, 323] {
                    let dir = test_dir("kill");
                    let recovered = crashed_and_recovered(shape, &events, kill_at, &dir);
                    assert_eq!(
                        recovered, expected,
                        "digests diverged: concurrent={concurrent} \
                         parallelism={parallelism} threads={threads} kill_at={kill_at}"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

const SHAPE: Shape = Shape {
    concurrent: false,
    parallelism: 2,
    threads: 2,
};

/// A checkpoint that cannot be published must cost nothing: the WAL stays
/// whole, the next checkpoint captures what the failed one would have, and
/// a crash after it still recovers to the uninterrupted digests.
#[test]
fn failed_checkpoint_keeps_the_wal_for_the_next_one() {
    let events = test_events();
    let dir = test_dir("failed-save");
    let (checkpoints, aside) = (dir.join("checkpoints"), dir.join("checkpoints.aside"));
    {
        let mut a = Lifetime::open(SHAPE, &dir);
        a.ingest(&events[..100]);
        a.durable.checkpoint_now().expect("first checkpoint");
        a.ingest(&events[100..CHECKPOINT_AT]);

        // The checkpoint directory turns into a file: `save` cannot create
        // its temp file in it.
        std::fs::rename(&checkpoints, &aside).unwrap();
        std::fs::write(&checkpoints, b"not a directory").unwrap();
        let before = a.durable.stats();
        assert!(a.durable.checkpoint_now().is_err(), "the save must fail");
        assert_eq!(
            a.durable.stats(),
            before,
            "nothing published, WAL neither rotated nor truncated"
        );

        // The directory comes back; the retry captures every table, and
        // truncates the WAL behind itself.
        std::fs::remove_file(&checkpoints).unwrap();
        std::fs::rename(&aside, &checkpoints).unwrap();
        a.durable.checkpoint_now().expect("checkpoint after repair");
        assert_eq!(a.durable.stats().checkpoints, before.checkpoints + 1);
        assert_eq!(a.durable.stats().wal_segments, before.wal_segments - 1);
        a.ingest(&events[CHECKPOINT_AT..323]);
    }
    let mut b = Lifetime::open(SHAPE, &dir);
    let recovery = b.recovery.clone().expect("recovery ran");
    assert_eq!(recovery.events_applied, CHECKPOINT_AT as u64);
    assert_eq!(recovery.replayed_events, (323 - CHECKPOINT_AT) as u64);
    b.ingest(&events[323..]);
    assert_eq!(b.finish(), reference(SHAPE, &events));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn last segment is repaired at open and reported; the re-anchor
/// holds (reopening right away replays nothing); and once new appends seal
/// the repaired segment behind a newer one, the restart after that still
/// reads it (unrepaired, it would be damage in a sealed segment).
#[test]
fn torn_tail_is_repaired_the_reanchor_holds_and_the_sealed_segment_reads() {
    let events = test_events();
    let dir = test_dir("torn");
    {
        // Two chunks, so the marker lands at 100 and the segment ends in
        // an event record.
        let mut a = Lifetime::open(SHAPE, &dir);
        a.ingest(&events[..100]);
        a.ingest(&events[100..120]);
    }
    let segment = std::fs::read_dir(dir.join("wal")).unwrap().next();
    let segment = segment.expect("one segment").unwrap().path();
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..bytes.len() - 5]).unwrap();

    let torn = Recovery {
        checkpoint_id: None,
        events_applied: 0,
        replayed_events: 119,
        torn_tail: true,
    };
    assert_eq!(Lifetime::open(SHAPE, &dir).recovery, Some(torn));
    {
        // The torn record (event 119) is gone; the client resends from the
        // durable index, as a resuming loadgen does.
        let mut b = Lifetime::open(SHAPE, &dir);
        let reanchored = Recovery {
            checkpoint_id: Some(0),
            events_applied: 119,
            replayed_events: 0,
            torn_tail: false,
        };
        assert_eq!(b.recovery, Some(reanchored));
        assert_eq!(b.durable.next_index(), 119);
        b.ingest(&events[119..323]);
    }
    let mut c = Lifetime::open(SHAPE, &dir);
    let recovery = c.recovery.clone().expect("recovery ran");
    assert!(!recovery.torn_tail, "the repaired segment reads clean");
    assert_eq!(recovery.replayed_events, 323 - 119);
    c.ingest(&events[323..]);
    assert_eq!(c.finish(), reference(SHAPE, &events));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between a WAL segment's creation and its header — the first
/// append after a checkpoint's rotation, or the very first append — leaves a
/// newest segment of 0–11 bytes. Nothing was logged to it: startup reads it
/// as empty, and the run converges to the uninterrupted digests.
#[test]
fn a_headerless_newest_segment_does_not_brick_startup() {
    let events = test_events();
    for header_bytes in [0, 4, 11] {
        for checkpointed in [false, true] {
            let dir = test_dir("headerless");
            let logged = if checkpointed { CHECKPOINT_AT } else { 0 };
            if checkpointed {
                let mut a = Lifetime::open(SHAPE, &dir);
                a.ingest(&events[..CHECKPOINT_AT]);
                a.durable.checkpoint_now().expect("checkpoint");
            }
            let mut header = morphstream_durability::WAL_MAGIC.to_vec();
            header.extend_from_slice(&(logged as u64).to_le_bytes());
            let wal = dir.join("wal");
            std::fs::create_dir_all(&wal).unwrap();
            let headerless = wal.join(format!("seg-{logged:020}.msw"));
            std::fs::write(&headerless, &header[..header_bytes]).unwrap();

            let mut b = Lifetime::open(SHAPE, &dir);
            let recovered = b.recovery.as_ref().map(|r| r.events_applied);
            assert_eq!(recovered, checkpointed.then_some(CHECKPOINT_AT as u64));
            assert_eq!(b.durable.next_index(), logged as u64);
            b.ingest(&events[logged..323]);
            drop(b);

            let mut c = Lifetime::open(SHAPE, &dir);
            let recovery = c.recovery.clone().expect("recovery ran");
            assert!(!recovery.torn_tail);
            assert_eq!(recovery.replayed_events, (323 - logged) as u64);
            c.ingest(&events[323..]);
            assert_eq!(
                c.finish(),
                reference(SHAPE, &events),
                "header_bytes={header_bytes} checkpointed={checkpointed}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// An append that fails part-way (a full disk) leaves a partial record at
/// the log's tip. The events acknowledged after it must not sit behind those
/// bytes: a crash then recovers all of them, and the segment, once sealed,
/// still reads.
#[test]
fn events_logged_after_a_failed_append_survive_the_crash() {
    use std::io::Write;

    let events = test_events();
    let dir = test_dir("failed-append");
    {
        let mut a = Lifetime::open(SHAPE, &dir);
        a.ingest(&events[..100]);
        a.durable.flush();
        let counted = a.durable.engine().report().events();
        let digest = a.durable.output_digest();
        // 7 bytes of the next record reach the file, then its write fails:
        // the bytes (and the cursor past them, as a `write_all` cut short
        // leaves it) are put there through the segment's real handle, the
        // append meets a read-only one in its place.
        let segment = dir.join("wal").join(format!("seg-{:020}.msw", 0));
        let read_only = std::fs::File::open(&segment).unwrap();
        let real = a.durable.wal_mut().swap_segment(read_only);
        let mut real = real.expect("a segment is open");
        real.write_all(&[1, 25, 0, 0, 0, 9, 9]).unwrap();
        let refused = a.durable.ingest(events[100..110].iter().cloned());
        assert!(refused.is_err(), "the append fails");
        assert_eq!(
            a.durable.next_index(),
            100,
            "nothing of the chunk is logged"
        );
        // A chunk is logged whole or not at all, and pushed only once
        // logged: the engine saw none of the refused chunk.
        a.durable.flush();
        assert_eq!(
            a.durable.engine().report().events(),
            counted,
            "nothing of the chunk is pushed"
        );
        assert_eq!(a.durable.output_digest(), digest, "and nothing emitted");
        drop(real);
        // The client resends from the durable index; these are acknowledged.
        a.ingest(&events[100..323]);
    }
    {
        let mut b = Lifetime::open(SHAPE, &dir);
        let recovery = b.recovery.clone().expect("recovery ran");
        assert!(!recovery.torn_tail, "no partial record was left in the log");
        assert_eq!(recovery.replayed_events, 323, "every acknowledged event");
        // The re-anchor sealed that segment; more appends, another crash.
        b.ingest(&events[323..400]);
    }
    let mut c = Lifetime::open(SHAPE, &dir);
    let recovery = c.recovery.clone().expect("recovery ran");
    assert_eq!(recovery.replayed_events, 400 - 323);
    c.ingest(&events[400..]);
    assert_eq!(c.finish(), reference(SHAPE, &events));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adopting a shipped checkpoint on a directory with history of its own
/// discards that history — WAL and checkpoints — before installing it.
#[test]
fn adopt_chain_discards_local_wal_and_checkpoints_first() {
    let events = test_events();
    let announced = CHECKPOINT_AT as u64;

    // The checkpoint a primary would ship, at CHECKPOINT_AT.
    let primary_dir = test_dir("adopt-primary");
    let mut primary = Lifetime::open(SHAPE, &primary_dir);
    primary.ingest(&events[..CHECKPOINT_AT]);
    primary.durable.checkpoint_now().expect("checkpoint");
    let shipped = std::fs::read(primary_dir.join("checkpoints/chk-00000000.msc")).unwrap();
    let checkpoint = Checkpoint::decode(&shipped).expect("checkpoint decodes");

    // A replica with unrelated local history: other events, two
    // checkpoints, a WAL tail.
    let dir = test_dir("adopt-replica");
    let mut replica = Lifetime::open(SHAPE, &dir);
    replica.ingest(&events[300..400]);
    replica.durable.checkpoint_now().expect("checkpoint");
    replica.durable.checkpoint_now().expect("checkpoint");
    replica.ingest(&events[400..450]);

    // A checkpoint that does not cover the announced index is refused before
    // anything is deleted: the directory still recovers.
    let refused = replica
        .durable
        .adopt_chain(build(SHAPE).0, Some(&checkpoint), announced + 1);
    assert!(refused.is_err());
    let replica = Lifetime::open(SHAPE, &dir);
    assert_eq!(replica.durable.next_index(), 150);

    let (fresh, stores) = build(SHAPE);
    let mut adopted = Lifetime {
        durable: replica
            .durable
            .adopt_chain(fresh, Some(&checkpoint), announced)
            .expect("adopt"),
        stores,
        recovery: None,
    };
    assert_eq!(adopted.durable.next_index(), announced);
    assert_eq!(adopted.durable.stats().wal_segments, 0, "old WAL deleted");
    assert_eq!(
        adopted.durable.latest_checkpoint_id(),
        Some(1),
        "old checkpoints (ids 0..=2) deleted: the shipped 0, re-anchored as 1"
    );
    adopted.ingest(&events[CHECKPOINT_AT..323]);
    drop(adopted);

    // What is on disk is the adopted history and nothing else.
    let mut b = Lifetime::open(SHAPE, &dir);
    let recovery = b.recovery.clone().expect("recovery ran");
    assert_eq!(recovery.events_applied, announced);
    assert_eq!(recovery.replayed_events, 323 - announced);
    b.ingest(&events[323..]);
    assert_eq!(b.finish(), reference(SHAPE, &events));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&primary_dir);
}
