//! Loader validation: every malformed scenario fails with an error that
//! cites the offending stage/feed id and key, and a well-formed one loads
//! and runs identically on both runtimes.

use morphstream::TxnEngine;
use morphstream_dataflow::{build_events, load_str, LoadError, LoadOverrides, ScenarioSpec};

const BASE: &str = r#"
[topology]
terminal = "sink"
punctuation = 16

[[feeds]]
id = "traffic"
source = "tolls"
entry = "charge"
events = 64
seed = 9

[[stages]]
id = "charge"
app = "toll-charge"

[[stages]]
id = "sink"
app = "tally"
inputs = ["charge"]
"#;

fn load(text: &str) -> Result<morphstream_dataflow::LoadedScenario, LoadError> {
    load_str(text, "test.toml", &LoadOverrides::default())
}

fn load_err(text: &str) -> LoadError {
    match load(text) {
        Ok(_) => panic!("scenario unexpectedly loaded"),
        Err(e) => e,
    }
}

#[test]
fn a_valid_scenario_loads_merges_feeds_and_runs_on_both_runtimes() {
    let mut loaded = load(BASE).expect("base scenario is valid");
    assert_eq!(loaded.spec.name, "test");
    assert_eq!(loaded.events.len(), 64);
    assert!(loaded.events.windows(2).all(|w| w[0].ts <= w[1].ts));

    let events = loaded.events.clone();
    let mut pipeline = loaded.topology.pipeline();
    pipeline.push_iter(events);
    let report = pipeline.finish();
    assert_eq!(report.events(), 64);
    assert_eq!(report.outputs.len(), 64);
    let serial_digest = loaded.store.state_digest();

    let mut concurrent = load_str(
        BASE,
        "test.toml",
        &LoadOverrides {
            threads: Some(1),
            concurrent: Some(true),
        },
    )
    .expect("base scenario is valid");
    let events = std::mem::take(&mut concurrent.events);
    let mut pipeline = concurrent.topology.pipeline();
    pipeline.push_iter(events);
    pipeline.finish();
    assert_eq!(concurrent.store.state_digest(), serial_digest);
}

#[test]
fn unknown_app_cites_the_stage_and_app_name() {
    let err = load_err(&BASE.replace("app = \"toll-charge\"", "app = \"toll-chargee\""));
    assert!(
        matches!(&err, LoadError::UnknownApp { stage, app } if stage == "charge" && app == "toll-chargee"),
        "got {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("charge") && msg.contains("toll-chargee"),
        "{msg}"
    );
}

#[test]
fn unknown_route_cites_the_stage_and_route_name() {
    let err = load_err(&BASE.replace(
        "inputs = [\"charge\"]",
        "inputs = [\"charge\"]\nroute = \"comitted\"",
    ));
    assert!(
        matches!(&err, LoadError::UnknownRoute { stage, route } if stage == "sink" && route == "comitted"),
        "got {err}"
    );
}

#[test]
fn a_cycle_surfaces_the_builders_error() {
    let cyclic = r#"
[topology]
terminal = "sink"

[[feeds]]
id = "traffic"
source = "tolls"
entry = "src"
events = 8

[[stages]]
id = "src"
app = "tally"

[[stages]]
id = "a"
app = "tally"
inputs = ["src", "b"]

[[stages]]
id = "b"
app = "tally"
inputs = ["a"]

[[stages]]
id = "sink"
app = "tally"
inputs = ["b"]
"#;
    let err = load_err(cyclic);
    assert!(matches!(err, LoadError::Build(_)), "got {err}");
}

#[test]
fn a_missing_input_stage_cites_the_stage_and_input() {
    let err = load_err(&BASE.replace("inputs = [\"charge\"]", "inputs = [\"nope\"]"));
    assert!(
        matches!(&err, LoadError::UnknownInput { stage, input } if stage == "sink" && input == "nope"),
        "got {err}"
    );
}

#[test]
fn a_mistyped_value_cites_the_stage_and_key() {
    let err = load_err(&BASE.replace(
        "app = \"toll-charge\"",
        "app = \"toll-charge\"\nparallelism = \"two\"",
    ));
    match &err {
        LoadError::BadType {
            scope,
            key,
            expected,
        } => {
            assert!(scope.contains("charge"), "{scope}");
            assert_eq!(key, "parallelism");
            assert!(expected.contains("integer"));
        }
        other => panic!("expected BadType, got {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("charge") && msg.contains("parallelism"),
        "{msg}"
    );
}

#[test]
fn an_unknown_key_cites_the_stage_and_key() {
    let err = load_err(&BASE.replace(
        "app = \"toll-charge\"",
        "app = \"toll-charge\"\nwindowz = 8",
    ));
    assert!(
        matches!(&err, LoadError::UnknownKey { scope, key } if scope.contains("charge") && key == "windowz"),
        "got {err}"
    );
}

#[test]
fn a_missing_required_key_is_reported() {
    let err = load_err(&BASE.replace("events = 64\n", ""));
    assert!(
        matches!(&err, LoadError::MissingKey { scope, key } if scope.contains("traffic") && *key == "events"),
        "got {err}"
    );
}

#[test]
fn a_feed_must_target_an_entry_stage() {
    let err = load_err(&BASE.replace("entry = \"charge\"", "entry = \"sink\""));
    assert!(
        matches!(&err, LoadError::UnknownEntry { feed, entry } if feed == "traffic" && entry == "sink"),
        "got {err}"
    );
}

#[test]
fn duplicate_stage_ids_are_rejected() {
    let err = load_err(
        &BASE
            .replace("id = \"sink\"", "id = \"charge\"")
            .replace("terminal = \"sink\"", "terminal = \"charge\""),
    );
    assert!(
        matches!(&err, LoadError::Invalid { scope, .. } if scope.contains("charge")),
        "got {err}"
    );
}

#[test]
fn feed_generation_is_deterministic_and_entry_ordinals_follow_declaration_order() {
    let spec = ScenarioSpec::parse(BASE, "test.toml").expect("valid");
    let first = build_events(&spec).expect("generates");
    let second = build_events(&spec).expect("generates");
    assert_eq!(first, second);
    assert!(first.iter().all(|ev| ev.feed == 0));
}

/// Every registered app, route and feed source builds from its default keys
/// and runs deterministically: one small scenario per app, the sources and
/// routes assigned round-robin so each appears at least once, each scenario
/// run twice on fresh stores.
#[test]
fn every_registry_entry_builds_with_default_keys_and_runs_deterministically() {
    use morphstream_dataflow::{apps, routes, sources};
    assert!(apps().len() >= sources().len().max(routes().len()));
    let run = |text: &str| {
        let mut loaded = load(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let events = std::mem::take(&mut loaded.events);
        let mut pipeline = loaded.topology.pipeline();
        pipeline.push_iter(events);
        let report = pipeline.finish();
        let entry = report.operators.iter().find(|op| op.name == "entry");
        let entry_events = entry.expect("the entry stage reports").events;
        (loaded.store.state_digest(), entry_events, report.outputs)
    };
    for (i, app) in apps().iter().enumerate() {
        let source = &sources()[i % sources().len()];
        let route = &routes()[i % routes().len()];
        let text = format!(
            r#"
[topology]
terminal = "sink"
punctuation = 16

[[feeds]]
id = "feed"
source = "{}"
entry = "entry"
events = 96
seed = 11

[[stages]]
id = "entry"
app = "{}"

[[stages]]
id = "sink"
app = "tally"
inputs = ["entry"]
route = "{}"
"#,
            source.name, app.name, route.name
        );
        let (digest, events, outputs) = run(&text);
        assert_eq!(events, 96, "the entry stage saw every event\n{text}");
        assert_eq!(run(&text), (digest, events, outputs), "{text}");
    }
}
