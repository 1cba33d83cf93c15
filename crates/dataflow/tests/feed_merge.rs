//! `build_events` merges the feeds while they generate; what it returns must
//! be exactly what materialising every feed, concatenating them in
//! declaration order and stable-sorting by `ts` returned before.

use std::path::PathBuf;

use morphstream_dataflow::{
    build_events, source, FeedContext, LoadError, ScenarioEvent, ScenarioSpec,
};

/// The old loader path: one `Vec` per feed, stamped, concatenated, sorted.
fn extend_and_sort(spec: &ScenarioSpec) -> Vec<ScenarioEvent> {
    let entries = spec.entry_ids();
    let mut all = Vec::new();
    for feed in &spec.feeds {
        let ordinal = entries.iter().position(|e| *e == feed.entry).unwrap() as u32;
        let ctx = FeedContext {
            feed: &feed.id,
            config: &feed.config,
            events: feed.events,
            seed: feed.seed,
        };
        let generator = source(&feed.source).unwrap().build(&ctx).unwrap();
        let mut events: Vec<ScenarioEvent> = generator.collect();
        for ev in &mut events {
            ev.feed = ordinal;
        }
        all.extend(events);
    }
    all.sort_by_key(|ev| ev.ts);
    all
}

#[test]
fn merged_feeds_equal_extend_and_sort_on_every_catalog_scenario() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|ext| ext != "toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("scenario file");
        let spec = ScenarioSpec::parse(&text, &path.display().to_string()).expect("valid");
        let merged = build_events(&spec).expect("generates");
        assert_eq!(
            merged.len(),
            spec.feeds.iter().map(|f| f.events).sum::<usize>()
        );
        assert!(merged == extend_and_sort(&spec), "{}", path.display());
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} scenario files found");
}

#[test]
fn colliding_timestamps_go_to_the_feed_declared_first() {
    // Two entries, three feeds declared against them out of entry order, on
    // timelines that overlap: at every ts in 5..=29 all three collide.
    const COLLIDING: &str = r#"
[topology]
name = "colliding"
terminal = "sink"

[[feeds]]
id = "late-entry-first"
source = "tolls"
entry = "stats"
events = 40
seed = 1
phase = 5
stride = 1

[[feeds]]
id = "steady"
source = "tolls"
entry = "charge"
events = 30
seed = 2
phase = 0
stride = 1

[[feeds]]
id = "doubled"
source = "tolls"
entry = "charge"
events = 30
seed = 3
phase = 3
stride = 1

[[stages]]
id = "charge"
app = "toll-charge"

[[stages]]
id = "stats"
app = "toll-stats"

[[stages]]
id = "sink"
app = "tally"
inputs = ["charge", "stats"]
"#;
    let spec = ScenarioSpec::parse(COLLIDING, "colliding.toml").expect("valid");
    let merged = build_events(&spec).expect("generates");
    assert_eq!(merged.len(), 100);
    assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));
    assert_eq!(merged, extend_and_sort(&spec));
    // where all three collide, the first-declared feed (entry ordinal 1)
    // comes before the two declared after it (both entry ordinal 0)
    for ts in 5..=29 {
        let feeds: Vec<u32> = merged
            .iter()
            .filter(|e| e.ts == ts)
            .map(|e| e.feed)
            .collect();
        assert_eq!(feeds, [1, 0, 0], "ts {ts}");
    }
}

#[test]
fn a_timeline_that_overflows_event_time_is_a_load_error_not_a_panic() {
    const OVERFLOWING: &str = r#"
[topology]
name = "overflowing"
terminal = "charge"

[[feeds]]
id = "far"
source = "tolls"
entry = "charge"
events = 3
seed = 1
phase = 9223372036854775807
stride = 9223372036854775807

[[stages]]
id = "charge"
app = "toll-charge"
"#;
    let spec = ScenarioSpec::parse(OVERFLOWING, "overflowing.toml").expect("valid");
    match build_events(&spec) {
        Err(LoadError::Invalid { scope, message }) => {
            assert_eq!(scope, "feed \"far\"");
            assert!(message.contains("overflows"), "{message}");
        }
        other => panic!(
            "expected an Invalid error, got {:?}",
            other.map(|e| e.len())
        ),
    }
    // two events still fit: i64::MAX + 1 * i64::MAX < u64::MAX
    let fits = OVERFLOWING.replace("events = 3", "events = 2");
    let spec = ScenarioSpec::parse(&fits, "fits.toml").expect("valid");
    assert_eq!(build_events(&spec).expect("generates").len(), 2);
}
