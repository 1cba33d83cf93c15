//! TOML scenario files → validated [`Topology`] instances.
//!
//! A scenario file has three sections:
//!
//! ```toml
//! [topology]              # one per file
//! name = "adclick"        # default: the file stem
//! terminal = "attribution"
//! concurrent = false      # inline driver vs one thread per instance
//! channel_capacity = 4    # per-edge bounded channel, in batches
//! threads = 2             # worker threads per operator instance
//! punctuation = 256       # default punctuation interval of every stage
//!
//! [[feeds]]               # one per input feed
//! id = "clicks"
//! source = "clicks"       # a registered feed source
//! entry = "click-tally"   # an entry stage (a stage with no inputs)
//! events = 1024
//! seed = 33
//! phase = 1               # ts = phase + i * stride; feeds merge by ts
//! stride = 6
//!
//! [[stages]]              # one per operator
//! id = "attribution"
//! app = "ad-attribution"  # a registered app
//! inputs = ["imp-tally", "click-tally"]
//! route = "forward"       # a registered route, applied to incoming edges
//! parallelism = 1         # keyed routes allow > 1
//! window = 512            # app-specific keys, validated by the registry
//! ```
//!
//! Stages without `inputs` are the topology's *entries*, in declaration
//! order; each feed names the entry its events are destined for. The loader
//! concatenates all feeds, stably sorts by `ts` (ties keep feed declaration
//! order), and builds the topology through
//! [`TopologyBuilder::build_with_entries`], so the run is deterministic
//! regardless of how the feeds interleave.
//!
//! Every validation error cites the offending stage/feed id and key.

use std::fmt;
use std::path::Path;

use morphstream::storage::StateStore;
use morphstream::{
    EngineConfig, EntryBinding, OperatorHandle, Route, StreamApp, Topology, TopologyBuilder,
    TopologyConfig, TopologyError, TxnBuilder, TxnOutcome,
};
use morphstream_common::toml::{TomlDocument, TomlError, TomlTable, TomlValue};
use morphstream_workloads::SlEvent;

use crate::event::{EventKind, ScenarioEvent};
use crate::registry::{self, FeedContext, ScenarioApp, StageContext};

/// Keys every `[topology]` section accepts.
const TOPOLOGY_KEYS: &[&str] = &[
    "name",
    "terminal",
    "concurrent",
    "channel_capacity",
    "threads",
    "punctuation",
];

/// Builtin keys every `[[stages]]` section accepts (apps add their own).
const STAGE_KEYS: &[&str] = &["id", "app", "inputs", "route", "parallelism", "punctuation"];

/// Builtin keys every `[[feeds]]` section accepts (sources add their own).
const FEED_KEYS: &[&str] = &["id", "source", "entry", "events", "seed", "phase", "stride"];

/// Everything that can go wrong loading a scenario file. Every variant
/// carries enough context to point at the offending section and key.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io {
        /// Path that failed to read.
        path: String,
        /// The underlying I/O error.
        error: String,
    },
    /// The file is not valid TOML (subset).
    Parse {
        /// Path (or origin label) of the document.
        path: String,
        /// The parse error, with its line number.
        error: TomlError,
    },
    /// A required key is absent.
    MissingKey {
        /// Section the key is missing from (e.g. `stage "scoring"`).
        scope: String,
        /// The missing key.
        key: &'static str,
    },
    /// A key holds a value of the wrong type.
    BadType {
        /// Section holding the key.
        scope: String,
        /// The offending key.
        key: String,
        /// What the key must hold.
        expected: &'static str,
    },
    /// A key no registry entry accepts (usually a typo).
    UnknownKey {
        /// Section holding the key.
        scope: String,
        /// The unrecognised key.
        key: String,
    },
    /// A stage names an app the registry does not have.
    UnknownApp {
        /// The stage id.
        stage: String,
        /// The unrecognised app name.
        app: String,
    },
    /// A stage names a route the registry does not have.
    UnknownRoute {
        /// The stage id.
        stage: String,
        /// The unrecognised route name.
        route: String,
    },
    /// A stage's `inputs` names a stage id that does not exist.
    UnknownInput {
        /// The stage id.
        stage: String,
        /// The unrecognised input id.
        input: String,
    },
    /// A feed names a source the registry does not have.
    UnknownSource {
        /// The feed id.
        feed: String,
        /// The unrecognised source name.
        source: String,
    },
    /// A feed's `entry` does not name an entry stage.
    UnknownEntry {
        /// The feed id.
        feed: String,
        /// The offending entry name.
        entry: String,
    },
    /// A structural constraint failed (duplicate ids, no entries, ...).
    Invalid {
        /// Section the constraint applies to.
        scope: String,
        /// What went wrong.
        message: String,
    },
    /// The topology builder rejected the assembled dataflow (cycles,
    /// unkeyed parallel routes, ...); operator names are stage ids.
    Build(TopologyError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
            LoadError::Parse { path, error } => write!(f, "{path}: {error}"),
            LoadError::MissingKey { scope, key } => {
                write!(f, "{scope}: missing required key {key:?}")
            }
            LoadError::BadType {
                scope,
                key,
                expected,
            } => write!(f, "{scope}: key {key:?} must be a {expected}"),
            LoadError::UnknownKey { scope, key } => write!(
                f,
                "{scope}: unknown key {key:?} (see `morphstream run --list` for accepted keys)"
            ),
            LoadError::UnknownApp { stage, app } => write!(
                f,
                "stage {stage:?}: unknown app {app:?} (see `morphstream run --list`)"
            ),
            LoadError::UnknownRoute { stage, route } => write!(
                f,
                "stage {stage:?}: unknown route {route:?} (see `morphstream run --list`)"
            ),
            LoadError::UnknownInput { stage, input } => {
                write!(f, "stage {stage:?}: input {input:?} is not a stage id")
            }
            LoadError::UnknownSource { feed, source } => write!(
                f,
                "feed {feed:?}: unknown source {source:?} (see `morphstream run --list`)"
            ),
            LoadError::UnknownEntry { feed, entry } => write!(
                f,
                "feed {feed:?}: entry {entry:?} is not an entry stage (a stage with no inputs)"
            ),
            LoadError::Invalid { scope, message } => write!(f, "{scope}: {message}"),
            LoadError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// One `[[stages]]` entry, validated against the registry.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage id: operator name and table-name prefix.
    pub id: String,
    /// Registered app name.
    pub app: String,
    /// Upstream stage ids (empty = entry stage).
    pub inputs: Vec<String>,
    /// Registered route name, applied to every incoming edge.
    pub route: String,
    /// Parallel instances (keyed routes required above 1).
    pub parallelism: usize,
    /// Punctuation interval of this stage's engine.
    pub punctuation: usize,
    /// The full section, for app-specific keys.
    pub config: TomlTable,
}

/// One `[[feeds]]` entry, validated against the registry.
#[derive(Debug, Clone)]
pub struct FeedDecl {
    /// Feed id (error context only).
    pub id: String,
    /// Registered source name.
    pub source: String,
    /// Entry stage this feed's events are destined for.
    pub entry: String,
    /// Number of events to generate.
    pub events: usize,
    /// Deterministic generator seed.
    pub seed: u64,
    /// The full section, for source-specific keys.
    pub config: TomlTable,
}

/// A fully validated scenario file.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (`[topology] name`, default: the file stem).
    pub name: String,
    /// Terminal stage id.
    pub terminal: String,
    /// Threaded driver (per-instance threads) vs the inline one.
    pub concurrent: bool,
    /// Per-edge bounded channel capacity, in punctuation batches.
    pub channel_capacity: usize,
    /// Worker threads per operator instance.
    pub threads: usize,
    /// Default punctuation interval of every stage.
    pub punctuation: usize,
    /// The stages, in declaration order.
    pub stages: Vec<StageSpec>,
    /// The feeds, in declaration order (= merge tie-break order).
    pub feeds: Vec<FeedDecl>,
}

impl ScenarioSpec {
    /// Entry stage ids (stages with no inputs), in declaration order —
    /// their position is the `feed` ordinal events carry.
    pub fn entry_ids(&self) -> Vec<&str> {
        self.stages
            .iter()
            .filter(|s| s.inputs.is_empty())
            .map(|s| s.id.as_str())
            .collect()
    }

    /// Parse and validate a scenario document. `origin` labels errors and
    /// provides the default name (its file stem).
    pub fn parse(text: &str, origin: &str) -> Result<ScenarioSpec, LoadError> {
        let doc = TomlDocument::parse(text).map_err(|error| LoadError::Parse {
            path: origin.to_string(),
            error,
        })?;
        if let Some((key, _)) = doc.root.iter().next() {
            return Err(LoadError::UnknownKey {
                scope: "top level".to_string(),
                key: key.to_string(),
            });
        }
        for (name, _) in &doc.tables {
            if name != "topology" {
                return Err(LoadError::Invalid {
                    scope: format!("[{name}]"),
                    message: "unknown section (expected [topology], [[stages]], [[feeds]])".into(),
                });
            }
        }
        for (name, _) in &doc.arrays {
            if name != "stages" && name != "feeds" {
                return Err(LoadError::Invalid {
                    scope: format!("[[{name}]]"),
                    message: "unknown section (expected [topology], [[stages]], [[feeds]])".into(),
                });
            }
        }

        let scope = "[topology]".to_string();
        let topology = doc.table("topology").ok_or(LoadError::MissingKey {
            scope: scope.clone(),
            key: "terminal",
        })?;
        reject_unknown_keys(topology, &scope, TOPOLOGY_KEYS, &[])?;
        let default_name = Path::new(origin)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| origin.to_string());
        let name = str_key(topology, &scope, "name")?
            .map(str::to_string)
            .unwrap_or(default_name);
        let terminal = require_str(topology, &scope, "terminal")?.to_string();
        let concurrent = bool_key(topology, &scope, "concurrent")?.unwrap_or(false);
        let channel_capacity = usize_key(topology, &scope, "channel_capacity")?
            .unwrap_or(4)
            .max(1);
        let threads = usize_key(topology, &scope, "threads")?.unwrap_or(2).max(1);
        let punctuation = usize_key(topology, &scope, "punctuation")?
            .unwrap_or(128)
            .max(1);

        let mut stages = Vec::new();
        for section in doc.array_of("stages") {
            stages.push(parse_stage(section, punctuation)?);
        }
        if stages.is_empty() {
            return Err(LoadError::Invalid {
                scope,
                message: "a scenario needs at least one [[stages]] section".into(),
            });
        }
        for (i, stage) in stages.iter().enumerate() {
            if stages[..i].iter().any(|s| s.id == stage.id) {
                return Err(LoadError::Invalid {
                    scope: format!("stage {:?}", stage.id),
                    message: "duplicate stage id".into(),
                });
            }
        }

        let mut feeds = Vec::new();
        for (i, section) in doc.array_of("feeds").enumerate() {
            feeds.push(parse_feed(section, i)?);
        }

        let spec = ScenarioSpec {
            name,
            terminal,
            concurrent,
            channel_capacity,
            threads,
            punctuation,
            stages,
            feeds,
        };
        spec.cross_validate()?;
        Ok(spec)
    }

    fn cross_validate(&self) -> Result<(), LoadError> {
        let ids: Vec<&str> = self.stages.iter().map(|s| s.id.as_str()).collect();
        if !ids.contains(&self.terminal.as_str()) {
            return Err(LoadError::Invalid {
                scope: "[topology]".to_string(),
                message: format!("terminal {:?} is not a stage id", self.terminal),
            });
        }
        for stage in &self.stages {
            for input in &stage.inputs {
                if !ids.contains(&input.as_str()) {
                    return Err(LoadError::UnknownInput {
                        stage: stage.id.clone(),
                        input: input.clone(),
                    });
                }
            }
        }
        let entries = self.entry_ids();
        if entries.is_empty() {
            return Err(LoadError::Invalid {
                scope: "[topology]".to_string(),
                message: "no entry stage: every stage has inputs (the dataflow is cyclic)".into(),
            });
        }
        for feed in &self.feeds {
            if !entries.contains(&feed.entry.as_str()) {
                return Err(LoadError::UnknownEntry {
                    feed: feed.id.clone(),
                    entry: feed.entry.clone(),
                });
            }
        }
        Ok(())
    }
}

fn parse_stage(section: &TomlTable, default_punctuation: usize) -> Result<StageSpec, LoadError> {
    let id = require_str(section, "[[stages]]", "id")?.to_string();
    let scope = format!("stage {id:?}");
    let app = require_str(section, &scope, "app")?.to_string();
    let app_spec = registry::app(&app).ok_or_else(|| LoadError::UnknownApp {
        stage: id.clone(),
        app: app.clone(),
    })?;
    reject_unknown_keys(section, &scope, STAGE_KEYS, app_spec.keys)?;
    let inputs = typed_key(section, &scope, "inputs", "array of stage ids", |value| {
        let ids = value.as_array()?.iter();
        ids.map(|id| id.as_str().map(str::to_string)).collect()
    })?
    .unwrap_or_default();
    let route = str_key(section, &scope, "route")?
        .unwrap_or("forward")
        .to_string();
    if registry::route(&route).is_none() {
        return Err(LoadError::UnknownRoute { stage: id, route });
    }
    let parallelism = usize_key(section, &scope, "parallelism")?
        .unwrap_or(1)
        .max(1);
    let punctuation = usize_key(section, &scope, "punctuation")?
        .unwrap_or(default_punctuation)
        .max(1);
    Ok(StageSpec {
        id,
        app,
        inputs,
        route,
        parallelism,
        punctuation,
        config: section.clone(),
    })
}

fn parse_feed(section: &TomlTable, index: usize) -> Result<FeedDecl, LoadError> {
    let id = require_str(section, "[[feeds]]", "id")?.to_string();
    let scope = format!("feed {id:?}");
    let source = require_str(section, &scope, "source")?.to_string();
    let source_spec = registry::source(&source).ok_or_else(|| LoadError::UnknownSource {
        feed: id.clone(),
        source: source.clone(),
    })?;
    reject_unknown_keys(section, &scope, FEED_KEYS, source_spec.keys)?;
    let entry = require_str(section, &scope, "entry")?.to_string();
    let events = usize_key(section, &scope, "events")?.ok_or(LoadError::MissingKey {
        scope: scope.clone(),
        key: "events",
    })?;
    let seed = u64_key(section, &scope, "seed")?.unwrap_or(index as u64 + 1);
    Ok(FeedDecl {
        id,
        source,
        entry,
        events,
        seed,
        config: section.clone(),
    })
}

fn reject_unknown_keys(
    table: &TomlTable,
    scope: &str,
    builtin: &[&str],
    registered: &[(&str, &str)],
) -> Result<(), LoadError> {
    for (key, _) in table.iter() {
        if !builtin.contains(&key) && !registered.iter().any(|(name, _)| *name == key) {
            return Err(LoadError::UnknownKey {
                scope: scope.to_string(),
                key: key.to_string(),
            });
        }
    }
    Ok(())
}

/// The value of an optional key, through the accessor of the type it must
/// have (`expected` names that type in the error).
fn typed_key<'t, V>(
    table: &'t TomlTable,
    scope: &str,
    key: &str,
    expected: &'static str,
    accessor: impl Fn(&'t TomlValue) -> Option<V>,
) -> Result<Option<V>, LoadError> {
    let Some(value) = table.get(key) else {
        return Ok(None);
    };
    accessor(value).map(Some).ok_or_else(|| LoadError::BadType {
        scope: scope.to_string(),
        key: key.to_string(),
        expected,
    })
}

fn str_key<'t>(table: &'t TomlTable, scope: &str, key: &str) -> Result<Option<&'t str>, LoadError> {
    typed_key(table, scope, key, "string", TomlValue::as_str)
}

fn require_str<'t>(
    table: &'t TomlTable,
    scope: &str,
    key: &'static str,
) -> Result<&'t str, LoadError> {
    str_key(table, scope, key)?.ok_or(LoadError::MissingKey {
        scope: scope.to_string(),
        key,
    })
}

fn bool_key(table: &TomlTable, scope: &str, key: &str) -> Result<Option<bool>, LoadError> {
    typed_key(table, scope, key, "boolean", TomlValue::as_bool)
}

fn u64_key(table: &TomlTable, scope: &str, key: &str) -> Result<Option<u64>, LoadError> {
    typed_key(table, scope, key, "non-negative integer", |v| {
        v.as_integer().and_then(|n| u64::try_from(n).ok())
    })
}

fn usize_key(table: &TomlTable, scope: &str, key: &str) -> Result<Option<usize>, LoadError> {
    Ok(u64_key(table, scope, key)?.map(|n| n as usize))
}

/// Overrides the CLI applies on top of a scenario file.
#[derive(Debug, Clone, Default)]
pub struct LoadOverrides {
    /// Override `[topology] threads`.
    pub threads: Option<usize>,
    /// Override `[topology] concurrent`.
    pub concurrent: Option<bool>,
}

/// A scenario ready to run: the built topology, its one shared store, and
/// the merged event stream.
pub struct LoadedScenario {
    /// The validated spec the topology was built from.
    pub spec: ScenarioSpec,
    /// The dataflow, entries bound per the spec's entry stages.
    pub topology: Topology<ScenarioEvent, ScenarioEvent>,
    /// The one shared state store of every stage (digest it for equivalence).
    pub store: StateStore,
    /// All feeds merged by timestamp (ties keep feed declaration order).
    pub events: Vec<ScenarioEvent>,
}

/// Load a scenario from a file.
pub fn load_file(path: &Path, overrides: &LoadOverrides) -> Result<LoadedScenario, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    load_str(&text, &path.display().to_string(), overrides)
}

/// Load a scenario from an in-memory document; `origin` labels errors and
/// provides the default scenario name.
pub fn load_str(
    text: &str,
    origin: &str,
    overrides: &LoadOverrides,
) -> Result<LoadedScenario, LoadError> {
    let mut spec = ScenarioSpec::parse(text, origin)?;
    if let Some(threads) = overrides.threads {
        spec.threads = threads.max(1);
    }
    if let Some(concurrent) = overrides.concurrent {
        spec.concurrent = concurrent;
    }
    let events = build_events(&spec)?;
    let (topology, store) = assemble(&spec, dispatch_route, |ev| ev)?;
    Ok(LoadedScenario {
        spec,
        topology,
        store,
        events,
    })
}

/// Generate and merge every feed of a validated spec, ordered by `ts` with
/// ties going to the feed declared first, then to position within the feed —
/// the order a stable sort of the feeds' concatenation gives — and each
/// event stamped with its entry ordinal. The feeds are pulled one event at a
/// time and merged as they generate, straight into the result; its order is
/// independent of how the feeds would arrive.
pub fn build_events(spec: &ScenarioSpec) -> Result<Vec<ScenarioEvent>, LoadError> {
    let entries = spec.entry_ids();
    let mut feeds = Vec::with_capacity(spec.feeds.len());
    for feed in &spec.feeds {
        let ordinal = entries
            .iter()
            .position(|e| *e == feed.entry)
            .expect("feed entries are validated") as u32;
        let source = registry::source(&feed.source).expect("feed sources are validated");
        let ctx = FeedContext {
            feed: &feed.id,
            config: &feed.config,
            events: feed.events,
            seed: feed.seed,
        };
        feeds.push((ordinal, source.build(&ctx)?.peekable()));
    }
    let total = spec.feeds.iter().map(|feed| feed.events).sum();
    let mut all: Vec<ScenarioEvent> = Vec::with_capacity(total);
    // A handful of feeds at most: the earliest head is found by scanning
    // them, first declared first, so a later feed wins only when strictly
    // earlier.
    loop {
        let mut earliest: Option<(usize, u64)> = None;
        for (index, (_, events)) in feeds.iter_mut().enumerate() {
            if let Some(head) = events.peek() {
                if earliest.is_none_or(|(_, ts)| head.ts < ts) {
                    earliest = Some((index, head.ts));
                }
            }
        }
        let Some((index, _)) = earliest else { break };
        let (ordinal, events) = &mut feeds[index];
        let mut ev = events.next().expect("peeked");
        ev.feed = *ordinal;
        // The merge is only a sort if every feed is itself in order, which
        // `FeedContext::timeline` guarantees of the registered sources.
        debug_assert!(
            events.peek().is_none_or(|next| next.ts >= ev.ts),
            "feed {:?} generated event times out of order",
            spec.feeds[index].id
        );
        all.push(ev);
    }
    Ok(all)
}

/// Dispatch route of entry ordinal `k`: keep only the events destined for it.
fn dispatch_route(ordinal: u32) -> Route<ScenarioEvent, ScenarioEvent> {
    Route::filter_map(move |ev: &ScenarioEvent| (ev.feed == ordinal).then(|| ev.clone()))
}

fn engine_config(spec: &ScenarioSpec, stage: &StageSpec) -> EngineConfig {
    EngineConfig::with_threads(spec.threads).with_punctuation_interval(stage.punctuation)
}

fn topology_config(spec: &ScenarioSpec) -> TopologyConfig {
    TopologyConfig::default()
        .with_channel_capacity(spec.channel_capacity)
        .with_concurrent(spec.concurrent)
}

/// Wraps the terminal stage's app so the topology's output is `Out`: the
/// stage's own event for `morphstream run`, the compact digest
/// `morphstream serve` streams into its output sink.
struct Terminal<F> {
    inner: ScenarioApp,
    output: F,
}

impl<Out, F> StreamApp for Terminal<F>
where
    Out: Send + 'static,
    F: Fn(ScenarioEvent) -> Out + Send + Sync + 'static,
{
    type Event = ScenarioEvent;
    type Output = Out;

    fn state_access(&self, ev: &ScenarioEvent, txn: &mut TxnBuilder) {
        self.inner.state_access(ev, txn);
    }

    fn post_process(&self, ev: &ScenarioEvent, outcome: &TxnOutcome) -> Out {
        (self.output)(self.inner.post_process(ev, outcome))
    }

    fn expected_abort_ratio(&self) -> f64 {
        self.inner.expected_abort_ratio()
    }
}

/// Build the dataflow a validated spec declares: `entry` gives the route
/// that picks (and converts) entry ordinal `k`'s share of the input stream,
/// `output` turns the terminal stage's events into the topology's outputs.
fn assemble<In, Out>(
    spec: &ScenarioSpec,
    entry: impl Fn(u32) -> Route<In, ScenarioEvent>,
    output: impl Fn(ScenarioEvent) -> Out + Send + Sync + 'static,
) -> Result<(Topology<In, Out>, StateStore), LoadError>
where
    In: Send + 'static,
    Out: Send + 'static,
{
    if let Some(stage) = spec
        .stages
        .iter()
        .find(|s| s.inputs.contains(&spec.terminal))
    {
        return Err(LoadError::Invalid {
            scope: format!("stage {:?}", stage.id),
            message: format!(
                "the terminal stage {:?} cannot feed another stage",
                spec.terminal
            ),
        });
    }
    let store = StateStore::new();
    let mut builder = TopologyBuilder::new();
    let mut handles: Vec<(&str, OperatorHandle<ScenarioEvent, ScenarioEvent>)> = Vec::new();
    let mut terminal: Option<OperatorHandle<ScenarioEvent, Out>> = None;
    let mut output = Some(output);
    for stage in &spec.stages {
        let ctx = StageContext {
            stage: &stage.id,
            store: &store,
            config: &stage.config,
        };
        let app = registry::app(&stage.app)
            .expect("stage apps are validated")
            .build(&ctx)?;
        let config = engine_config(spec, stage);
        if stage.id == spec.terminal {
            let output = output.take().expect("stage ids are unique");
            let app = Terminal { inner: app, output };
            let handle = builder.add_operator(&stage.id, app, store.clone(), config);
            terminal = Some(handle.with_parallelism(stage.parallelism));
        } else {
            let handle = builder.add_operator(&stage.id, app, store.clone(), config);
            handles.push((&stage.id, handle.with_parallelism(stage.parallelism)));
        }
    }
    let terminal = terminal.expect("terminal is a validated stage id");
    let lookup = |id: &str| {
        handles
            .iter()
            .find(|(name, _)| *name == id)
            .expect("stage ids are validated; the terminal feeds nothing")
            .1
    };
    for stage in &spec.stages {
        let route = registry::route(&stage.route).expect("stage routes are validated");
        for input in &stage.inputs {
            if stage.id == spec.terminal {
                builder.connect(lookup(input), terminal, route.build());
            } else {
                builder.connect(lookup(input), lookup(&stage.id), route.build());
            }
        }
    }
    let entries = spec.entry_ids().into_iter().zip(0u32..);
    let entries = entries
        .map(|(id, ordinal)| {
            if id == spec.terminal {
                EntryBinding::new(terminal, entry(ordinal))
            } else {
                EntryBinding::new(lookup(id), entry(ordinal))
            }
        })
        .collect();
    let topology = builder
        .build_with_entries(entries, terminal, topology_config(spec))
        .map_err(LoadError::Build)?;
    Ok((topology, store))
}

/// A scenario loaded for `morphstream serve`: the dataflow typed over the
/// server's wire event ([`SlEvent`] in, output digests out).
pub struct ServeScenario {
    /// The validated spec the topology was built from.
    pub spec: ScenarioSpec,
    /// The dataflow: wire events converted at the entry, terminal outputs
    /// reduced to their content digest.
    pub topology: Topology<SlEvent, u64>,
    /// The one shared state store of every stage.
    pub store: StateStore,
}

/// Load a scenario file for `morphstream serve`. The served dataflow must
/// have exactly one entry stage (the socket is the only feed); declared
/// `[[feeds]]` sections are validated but unused.
pub fn load_serve_file(path: &Path) -> Result<ServeScenario, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    let spec = ScenarioSpec::parse(&text, &path.display().to_string())?;
    let entries = spec.entry_ids().len();
    if entries != 1 {
        return Err(LoadError::Invalid {
            scope: "[topology]".to_string(),
            message: format!(
                "serve requires exactly one entry stage (the socket is the only feed), found {entries}"
            ),
        });
    }
    let (topology, store) = assemble(&spec, |_| Route::map(convert_sl), |ev| ev.digest())?;
    Ok(ServeScenario {
        spec,
        topology,
        store,
    })
}

/// Map the server's wire event onto the scenario vocabulary.
fn convert_sl(ev: &SlEvent) -> ScenarioEvent {
    match ev {
        SlEvent::Deposit { account, amount } => {
            let mut out = ScenarioEvent::new(EventKind::Deposit, 0);
            out.key = *account;
            out.amount = *amount;
            out
        }
        SlEvent::Transfer { from, to, amount } => {
            let mut out = ScenarioEvent::new(EventKind::Transfer, 0);
            out.key = *from;
            out.key2 = *to;
            out.amount = *amount;
            out
        }
    }
}
