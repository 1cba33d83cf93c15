//! Property tests of the durable formats (vendored proptest shim): MSC1
//! checkpoints and MSW1 WAL segments round-trip bit-exactly, truncation
//! keeps the valid prefix (WAL) or errors cleanly (checkpoint — a partial
//! snapshot must never be trusted), and arbitrary corruption errors instead
//! of panicking. The mirror of `crates/server/tests/protocol_fuzz.rs` for
//! what lives on disk rather than on the wire.

use std::path::PathBuf;

use proptest::prelude::*;

use morphstream_durability::{
    decode_segment, Checkpoint, FsyncPolicy, StoreSection, TableSnapshot, WalLog, WAL_MAGIC,
};
use morphstream_workloads::SlEvent;

fn sl_event() -> impl Strategy<Value = SlEvent> {
    prop_oneof![
        (0..u64::MAX, i64::MIN..i64::MAX)
            .prop_map(|(account, amount)| SlEvent::Deposit { account, amount }),
        (0..u64::MAX, 0..u64::MAX, i64::MIN..i64::MAX)
            .prop_map(|(from, to, amount)| SlEvent::Transfer { from, to, amount }),
    ]
}

fn table_snapshot() -> impl Strategy<Value = TableSnapshot> {
    (
        proptest::collection::vec(0u8..26, 0..12),
        i64::MIN..i64::MAX,
        0u8..2,
        proptest::collection::vec((0..u64::MAX, i64::MIN..i64::MAX), 0..16),
    )
        .prop_map(
            |(name, default_value, auto_create, entries)| TableSnapshot {
                name: name.iter().map(|c| (b'a' + c) as char).collect(),
                default_value,
                auto_create: auto_create == 1,
                entries,
            },
        )
}

fn checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        0..u64::MAX,
        0..u64::MAX,
        0..u64::MAX,
        proptest::collection::vec(
            (0u32..8, proptest::collection::vec(table_snapshot(), 0..4))
                .prop_map(|(ordinal, tables)| StoreSection { ordinal, tables }),
            0..4,
        ),
    )
        .prop_map(|(id, events_applied, output_digest, stores)| Checkpoint {
            id,
            events_applied,
            output_digest,
            stores,
        })
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("morph-fuzz-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write `events` through a real [`WalLog`] (one punctuation marker every
/// `marker_every` events when nonzero) and return the single segment's
/// on-disk bytes.
fn segment_bytes(events: &[SlEvent], first_index: u64, marker_every: usize) -> Vec<u8> {
    let dir = temp_dir("wal");
    let mut wal = WalLog::open(&dir, FsyncPolicy::Never, first_index).expect("open WAL");
    for (i, event) in events.iter().enumerate() {
        wal.append_event(event).expect("append");
        if marker_every > 0 && (i + 1) % marker_every == 0 {
            wal.mark_punctuation().expect("marker");
        }
    }
    if events.is_empty() {
        // Force the lazy segment into existence so there is a file to read.
        wal.mark_punctuation().expect("marker");
    }
    drop(wal);
    let segment = std::fs::read_dir(&dir)
        .expect("wal dir")
        .map(|entry| entry.expect("entry").path())
        .max()
        .expect("one segment");
    let bytes = std::fs::read(segment).expect("read segment");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checkpoints_round_trip_bit_exactly(checkpoint in checkpoint()) {
        let wire = checkpoint.encode();
        let decoded = Checkpoint::decode(&wire).expect("decode what we encoded");
        prop_assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn truncated_checkpoints_error_instead_of_panicking(
        checkpoint in checkpoint(),
        cut in 0usize..1 << 20,
    ) {
        let wire = checkpoint.encode();
        // A strict prefix: the trailing checksum (or more) is missing, so a
        // partial snapshot must never decode.
        let truncated = &wire[..cut % wire.len()];
        prop_assert!(Checkpoint::decode(truncated).is_err());
    }

    #[test]
    fn bit_flipped_checkpoints_error_instead_of_panicking(
        checkpoint in checkpoint(),
        flip in 0usize..1 << 20,
        bite in 0usize..8,
    ) {
        let mut wire = checkpoint.encode();
        let at = flip % wire.len();
        wire[at] ^= 1 << bite;
        // Every byte is covered by the trailing FNV, so any single-bit flip
        // must be rejected (whether it corrupted content or the checksum).
        prop_assert!(Checkpoint::decode(&wire).is_err());
    }

    #[test]
    fn wal_segments_round_trip_through_a_real_log(
        events in proptest::collection::vec(sl_event(), 0..32),
        first_index in 0u64..1 << 48,
        marker_every in 0usize..8,
    ) {
        let bytes = segment_bytes(&events, first_index, marker_every);
        prop_assert_eq!(&bytes[..4], &WAL_MAGIC[..]);
        let decoded = decode_segment::<SlEvent>(&bytes).expect("decode what we wrote");
        prop_assert_eq!(decoded.first_index, first_index);
        prop_assert_eq!(decoded.events, events);
        prop_assert!(!decoded.torn);
    }

    #[test]
    fn truncated_wal_tails_keep_the_valid_prefix(
        events in proptest::collection::vec(sl_event(), 1..32),
        cut in 0usize..1 << 20,
    ) {
        let bytes = segment_bytes(&events, 0, 4);
        let at = cut % bytes.len();
        let truncated = &bytes[..at];
        if at < 12 {
            // Not even a whole header survives: a hard error.
            prop_assert!(decode_segment::<SlEvent>(truncated).is_err());
        } else {
            // The prefix property: whatever decodes is exactly what was
            // written, in order. (A cut landing on a record boundary looks
            // clean — torn is only guaranteed for cuts inside a record —
            // which is why recovery cross-checks the WAL against the
            // checkpoint's event index rather than trusting segment length.)
            let decoded = decode_segment::<SlEvent>(truncated).expect("total past the header");
            prop_assert!(decoded.events.len() <= events.len());
            prop_assert_eq!(&decoded.events[..], &events[..decoded.events.len()]);
        }
    }

    #[test]
    fn bit_flipped_wal_segments_never_panic_and_never_fabricate_events(
        events in proptest::collection::vec(sl_event(), 1..32),
        flip in 0usize..1 << 20,
        bite in 0usize..8,
    ) {
        let mut bytes = segment_bytes(&events, 0, 4);
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bite;
        if let Ok(decoded) = decode_segment::<SlEvent>(&bytes) {
            if at >= 12 {
                // Damage in the record stream: everything decoded must be an
                // untouched prefix of what was written.
                prop_assert!(decoded.events.len() <= events.len());
                prop_assert_eq!(&decoded.events[..], &events[..decoded.events.len()]);
            }
        }
    }
}
