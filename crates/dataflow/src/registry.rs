//! The operator / route / feed-source registries behind the TOML loader.
//!
//! Each entry pairs a name usable in a scenario file with a constructor and
//! the config keys it accepts; [`listing`] renders the whole catalog for
//! `morphstream run --list`. Unknown keys in a `[[stages]]` or `[[feeds]]`
//! section are loader errors, so every accepted key is declared here.

use std::sync::Arc;

use morphstream::storage::StateStore;
use morphstream::{Route, StreamApp};
use morphstream_common::rng::DetRng;
use morphstream_common::toml::TomlTable;
use morphstream_common::Value;

use crate::apps::{
    AdAttributionStage, FraudEnrichmentStage, FraudScoringStage, FraudSettlementStage,
    GrepSumStage, LedgerStage, OrderBookStage, TallyStage, TollChargeStage, TollStatsStage,
};
use crate::event::{EventKind, ScenarioEvent};
use crate::loader::LoadError;

/// A registry operator: any [`StreamApp`] over [`ScenarioEvent`]s.
pub type ScenarioApp = Arc<dyn StreamApp<Event = ScenarioEvent, Output = ScenarioEvent>>;

/// What an app constructor gets: the stage id (table-name prefix and error
/// context), the scenario's shared store, and the stage's `[[stages]]` table.
pub struct StageContext<'a> {
    /// The stage id from the scenario file.
    pub stage: &'a str,
    /// The one shared state store of the scenario.
    pub store: &'a StateStore,
    /// The stage's full `[[stages]]` section (builtin keys included).
    pub config: &'a TomlTable,
}

impl StageContext<'_> {
    /// Integer config value ≥ 0, or `default` when the key is absent.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, LoadError> {
        u64_or(self.config, &scope_stage(self.stage), key, default)
    }

    /// Signed integer config value, or `default` when the key is absent.
    pub fn value_or(&self, key: &str, default: Value) -> Result<Value, LoadError> {
        value_or(self.config, &scope_stage(self.stage), key, default)
    }
}

/// What a feed-source constructor gets: the feed id, its `[[feeds]]` table,
/// and the already-parsed common keys (`events`, `seed`).
pub struct FeedContext<'a> {
    /// The feed id from the scenario file.
    pub feed: &'a str,
    /// The feed's full `[[feeds]]` section (builtin keys included).
    pub config: &'a TomlTable,
    /// Number of events to generate.
    pub events: usize,
    /// Deterministic generator seed.
    pub seed: u64,
}

impl FeedContext<'_> {
    /// Integer config value ≥ 0, or `default` when the key is absent.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, LoadError> {
        u64_or(self.config, &scope_feed(self.feed), key, default)
    }

    /// String config value, or `default` when the key is absent.
    pub fn str_or<'c>(&'c self, key: &str, default: &'c str) -> Result<&'c str, LoadError> {
        match self.config.get(key) {
            None => Ok(default),
            Some(v) => v.as_str().ok_or_else(|| LoadError::BadType {
                scope: scope_feed(self.feed),
                key: key.to_string(),
                expected: "string",
            }),
        }
    }

    /// The `phase`/`stride` event-time knobs every source accepts: event `i`
    /// carries `ts = phase + i * stride`, so feeds interleave by timestamp.
    /// The last event's time must fit a `u64`, which is what makes every
    /// feed non-decreasing in `ts`.
    pub fn timeline(&self) -> Result<(u64, u64), LoadError> {
        let (phase, stride) = (self.u64_or("phase", 0)?, self.u64_or("stride", 1)?.max(1));
        let last = (self.events as u64).saturating_sub(1);
        if last
            .checked_mul(stride)
            .and_then(|span| span.checked_add(phase))
            .is_none()
        {
            return Err(LoadError::Invalid {
                scope: scope_feed(self.feed),
                message: format!(
                    "phase {phase} + {last} * stride {stride} overflows the event-time range"
                ),
            });
        }
        Ok((phase, stride))
    }
}

fn scope_stage(stage: &str) -> String {
    format!("stage {stage:?}")
}

fn scope_feed(feed: &str) -> String {
    format!("feed {feed:?}")
}

fn u64_or(config: &TomlTable, scope: &str, key: &str, default: u64) -> Result<u64, LoadError> {
    match config.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_integer()
            .filter(|n| *n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| LoadError::BadType {
                scope: scope.to_string(),
                key: key.to_string(),
                expected: "non-negative integer",
            }),
    }
}

fn value_or(
    config: &TomlTable,
    scope: &str,
    key: &str,
    default: Value,
) -> Result<Value, LoadError> {
    match config.get(key) {
        None => Ok(default),
        Some(v) => v.as_integer().ok_or_else(|| LoadError::BadType {
            scope: scope.to_string(),
            key: key.to_string(),
            expected: "integer",
        }),
    }
}

/// One registered operator constructor.
pub struct AppSpec {
    /// Name used in a stage's `app = "..."` key.
    pub name: &'static str,
    /// One-line description for `morphstream run --list`.
    pub summary: &'static str,
    /// Accepted config keys as `(key, description-with-default)` pairs.
    pub keys: &'static [(&'static str, &'static str)],
    builder: fn(&StageContext<'_>) -> Result<ScenarioApp, LoadError>,
}

impl AppSpec {
    /// Construct the operator for one stage.
    pub fn build(&self, ctx: &StageContext<'_>) -> Result<ScenarioApp, LoadError> {
        (self.builder)(ctx)
    }
}

static APPS: &[AppSpec] = &[
    AppSpec {
        name: "ledger",
        summary: "Streaming Ledger: Transfer moves key -> key2 (aborts on insufficient funds), anything else deposits",
        keys: &[(
            "initial_balance",
            "starting balance of every account (default 1000000)",
        )],
        builder: |ctx| {
            let initial = ctx.value_or("initial_balance", 1_000_000)?;
            Ok(Arc::new(LedgerStage::new(ctx.store, ctx.stage, initial)))
        },
    },
    AppSpec {
        name: "grep-sum",
        summary: "GS-style dependent write: values[key] = sum of source state values[key2]",
        keys: &[],
        builder: |ctx| Ok(Arc::new(GrepSumStage::new(ctx.store, ctx.stage))),
    },
    AppSpec {
        name: "tally",
        summary: "counts events per key (always commits; entry pre-aggregation or terminal sink)",
        keys: &[],
        builder: |ctx| Ok(Arc::new(TallyStage::new(ctx.store, ctx.stage))),
    },
    AppSpec {
        name: "fraud-enrichment",
        summary: "annotates each transaction with the account's running spend total (in aux)",
        keys: &[],
        builder: |ctx| Ok(Arc::new(FraudEnrichmentStage::new(ctx.store, ctx.stage))),
    },
    AppSpec {
        name: "fraud-scoring",
        summary: "flags by amount/velocity (flag in marked) and audits a profile via a non-deterministic read",
        keys: &[
            ("flag_amount", "flag single amounts at or above (default 950)"),
            (
                "velocity_limit",
                "flag accounts whose running total (aux) exceeds (default 30000)",
            ),
            (
                "audit_profiles",
                "audit-trail profiles sampled by the non-deterministic read (default 64)",
            ),
        ],
        builder: |ctx| {
            let flag_amount = ctx.value_or("flag_amount", 950)?;
            let velocity = ctx.value_or("velocity_limit", 30_000)?;
            let profiles = ctx.u64_or("audit_profiles", 64)?;
            Ok(Arc::new(FraudScoringStage::new(
                ctx.store, ctx.stage, flag_amount, velocity, profiles,
            )))
        },
    },
    AppSpec {
        name: "fraud-settlement",
        summary: "debits clean transactions (aborting on insufficient funds), quarantines flagged amounts",
        keys: &[(
            "initial_balance",
            "starting balance of every account (default 500000)",
        )],
        builder: |ctx| {
            let initial = ctx.value_or("initial_balance", 500_000)?;
            Ok(Arc::new(FraudSettlementStage::new(
                ctx.store, ctx.stage, initial,
            )))
        },
    },
    AppSpec {
        name: "toll-charge",
        summary: "TP charge: accumulates amount per vehicle key",
        keys: &[],
        builder: |ctx| Ok(Arc::new(TollChargeStage::new(ctx.store, ctx.stage))),
    },
    AppSpec {
        name: "toll-stats",
        summary: "TP road statistics: per-segment (key2) volume with a windowed read",
        keys: &[(
            "window",
            "trailing event-time window of the volume read (default 64)",
        )],
        builder: |ctx| {
            let window = ctx.u64_or("window", 64)?;
            Ok(Arc::new(TollStatsStage::new(ctx.store, ctx.stage, window)))
        },
    },
    AppSpec {
        name: "order-book",
        summary: "per-price-level inventory: Buy adds depth at key2, Sell withdraws (aborts when unfilled)",
        keys: &[(
            "restock",
            "resting depth every price level starts with (default 1000)",
        )],
        builder: |ctx| {
            let restock = ctx.value_or("restock", 1_000)?;
            Ok(Arc::new(OrderBookStage::new(ctx.store, ctx.stage, restock)))
        },
    },
    AppSpec {
        name: "ad-attribution",
        summary: "windowed impression/click join per campaign key (attributed spend in aux)",
        keys: &[(
            "window",
            "trailing event-time window of the attribution read (default 256)",
        )],
        builder: |ctx| {
            let window = ctx.u64_or("window", 256)?;
            Ok(Arc::new(AdAttributionStage::new(
                ctx.store, ctx.stage, window,
            )))
        },
    },
];

/// All registered apps.
pub fn apps() -> &'static [AppSpec] {
    APPS
}

/// Look an app up by its registry name.
pub fn app(name: &str) -> Option<&'static AppSpec> {
    APPS.iter().find(|a| a.name == name)
}

/// One registered route builder, attached to the edges into a stage by its
/// `route = "..."` key.
pub struct RouteSpec {
    /// Name used in a stage's `route = "..."` key.
    pub name: &'static str,
    /// One-line description for `morphstream run --list`.
    pub summary: &'static str,
    builder: fn() -> Route<ScenarioEvent, ScenarioEvent>,
}

impl RouteSpec {
    /// Build a fresh route for one edge.
    pub fn build(&self) -> Route<ScenarioEvent, ScenarioEvent> {
        (self.builder)()
    }
}

static ROUTES: &[RouteSpec] = &[
    RouteSpec {
        name: "forward",
        summary: "forward every event unchanged (the default)",
        builder: || Route::map(Clone::clone),
    },
    RouteSpec {
        name: "committed",
        summary: "forward only events the upstream stage marked",
        builder: || Route::filter_map(|ev: &ScenarioEvent| ev.marked.then(|| ev.clone())),
    },
    RouteSpec {
        name: "keyed",
        summary: "forward every event, partitioned by key across parallel instances",
        builder: || {
            Route::keyed(
                |ev: &ScenarioEvent| ev.key,
                |ev: &ScenarioEvent| Some(ev.clone()),
            )
        },
    },
    RouteSpec {
        name: "keyed-committed",
        summary: "forward only marked events, partitioned by key",
        builder: || {
            Route::keyed(
                |ev: &ScenarioEvent| ev.key,
                |ev: &ScenarioEvent| ev.marked.then(|| ev.clone()),
            )
        },
    },
];

/// All registered routes.
pub fn routes() -> &'static [RouteSpec] {
    ROUTES
}

/// Look a route up by its registry name.
pub fn route(name: &str) -> Option<&'static RouteSpec> {
    ROUTES.iter().find(|r| r.name == name)
}

/// One registered feed source: a deterministic event generator named by a
/// feed's `source = "..."` key.
pub struct SourceSpec {
    /// Name used in a feed's `source = "..."` key.
    pub name: &'static str,
    /// One-line description for `morphstream run --list`.
    pub summary: &'static str,
    /// Accepted config keys as `(key, description-with-default)` pairs
    /// (besides the builtin `events`/`seed`/`phase`/`stride`).
    pub keys: &'static [(&'static str, &'static str)],
    builder: fn(&FeedContext<'_>) -> Result<FeedEvents, LoadError>,
}

/// A feed's events, generated one at a time in event-time order (every
/// source stamps event `i` with `phase + i * stride`, so `ts` never
/// decreases) — the loader merges the feeds as it pulls them, without
/// materialising any feed on its own.
pub type FeedEvents = Box<dyn Iterator<Item = ScenarioEvent>>;

impl SourceSpec {
    /// The generator of the feed's events (their `feed` ordinal is assigned
    /// by the loader as it merges them).
    pub fn build(&self, ctx: &FeedContext<'_>) -> Result<FeedEvents, LoadError> {
        (self.builder)(ctx)
    }
}

static SOURCES: &[SourceSpec] = &[
    SourceSpec {
        name: "cards",
        summary: "card transactions: random account key, random amount",
        keys: &[
            ("accounts", "account key space (default 256)"),
            ("max_amount", "amounts are 1..max_amount (default 1000)"),
        ],
        builder: |ctx| {
            let accounts = ctx.u64_or("accounts", 256)?.max(1);
            let max_amount = ctx.u64_or("max_amount", 1_000)?.max(2);
            let (phase, stride) = ctx.timeline()?;
            let mut rng = DetRng::new(ctx.seed);
            Ok(Box::new((0..ctx.events as u64).map(move |i| {
                let mut ev = ScenarioEvent::new(EventKind::Card, phase + i * stride);
                ev.key = rng.next_range(0, accounts);
                ev.amount = rng.next_range(1, max_amount) as Value;
                ev
            })))
        },
    },
    SourceSpec {
        name: "ledger",
        summary: "deposits and transfers over a random account space",
        keys: &[
            ("accounts", "account key space (default 1024)"),
            ("max_amount", "amounts are 1..max_amount (default 100)"),
            (
                "transfer_permille",
                "transfers per 1000 events, the rest deposit (default 300)",
            ),
        ],
        builder: |ctx| {
            let accounts = ctx.u64_or("accounts", 1_024)?.max(1);
            let max_amount = ctx.u64_or("max_amount", 100)?.max(2);
            let permille = ctx.u64_or("transfer_permille", 300)?.min(1_000);
            let (phase, stride) = ctx.timeline()?;
            let mut rng = DetRng::new(ctx.seed);
            Ok(Box::new((0..ctx.events as u64).map(move |i| {
                let transfer = rng.next_below(1_000) < permille;
                let kind = if transfer {
                    EventKind::Transfer
                } else {
                    EventKind::Deposit
                };
                let mut ev = ScenarioEvent::new(kind, phase + i * stride);
                ev.key = rng.next_range(0, accounts);
                if transfer {
                    ev.key2 = rng.next_range(0, accounts);
                }
                ev.amount = rng.next_range(1, max_amount) as Value;
                ev
            })))
        },
    },
    SourceSpec {
        name: "orders",
        summary: "buy or sell orders: random trader key, price level key2, quantity",
        keys: &[
            ("side", "\"buy\" or \"sell\" (default \"buy\")"),
            ("traders", "trader key space (default 64)"),
            ("levels", "price-level key space (default 32)"),
            ("max_qty", "quantities are 1..max_qty (default 20)"),
        ],
        builder: |ctx| {
            let kind = match ctx.str_or("side", "buy")? {
                "buy" => EventKind::Buy,
                "sell" => EventKind::Sell,
                other => {
                    return Err(LoadError::Invalid {
                        scope: scope_feed(ctx.feed),
                        message: format!("side must be \"buy\" or \"sell\", got {other:?}"),
                    })
                }
            };
            let traders = ctx.u64_or("traders", 64)?.max(1);
            let levels = ctx.u64_or("levels", 32)?.max(1);
            let max_qty = ctx.u64_or("max_qty", 20)?.max(2);
            let (phase, stride) = ctx.timeline()?;
            let mut rng = DetRng::new(ctx.seed);
            Ok(Box::new((0..ctx.events as u64).map(move |i| {
                let mut ev = ScenarioEvent::new(kind, phase + i * stride);
                ev.key = rng.next_range(0, traders);
                ev.key2 = rng.next_range(0, levels);
                ev.amount = rng.next_range(1, max_qty) as Value;
                ev
            })))
        },
    },
    SourceSpec {
        name: "impressions",
        summary: "ad impressions: random campaign key, cost",
        keys: &[
            ("campaigns", "campaign key space (default 32)"),
            ("max_cost", "costs are 1..max_cost (default 50)"),
        ],
        builder: |ctx| {
            let campaigns = ctx.u64_or("campaigns", 32)?.max(1);
            let max_cost = ctx.u64_or("max_cost", 50)?.max(2);
            let (phase, stride) = ctx.timeline()?;
            let mut rng = DetRng::new(ctx.seed);
            Ok(Box::new((0..ctx.events as u64).map(move |i| {
                let mut ev = ScenarioEvent::new(EventKind::Impression, phase + i * stride);
                ev.key = rng.next_range(0, campaigns);
                ev.amount = rng.next_range(1, max_cost) as Value;
                ev
            })))
        },
    },
    SourceSpec {
        name: "clicks",
        summary: "ad clicks: random campaign key, unit amount",
        keys: &[("campaigns", "campaign key space (default 32)")],
        builder: |ctx| {
            let campaigns = ctx.u64_or("campaigns", 32)?.max(1);
            let (phase, stride) = ctx.timeline()?;
            let mut rng = DetRng::new(ctx.seed);
            Ok(Box::new((0..ctx.events as u64).map(move |i| {
                let mut ev = ScenarioEvent::new(EventKind::Click, phase + i * stride);
                ev.key = rng.next_range(0, campaigns);
                ev.amount = 1;
                ev
            })))
        },
    },
    SourceSpec {
        name: "tolls",
        summary: "toll notifications: random vehicle key, road segment key2, toll amount",
        keys: &[
            ("vehicles", "vehicle key space (default 128)"),
            ("segments", "road-segment key space (default 16)"),
            ("max_toll", "tolls are 1..max_toll (default 10)"),
        ],
        builder: |ctx| {
            let vehicles = ctx.u64_or("vehicles", 128)?.max(1);
            let segments = ctx.u64_or("segments", 16)?.max(1);
            let max_toll = ctx.u64_or("max_toll", 10)?.max(2);
            let (phase, stride) = ctx.timeline()?;
            let mut rng = DetRng::new(ctx.seed);
            Ok(Box::new((0..ctx.events as u64).map(move |i| {
                let mut ev = ScenarioEvent::new(EventKind::Toll, phase + i * stride);
                ev.key = rng.next_range(0, vehicles);
                ev.key2 = rng.next_range(0, segments);
                ev.amount = rng.next_range(1, max_toll) as Value;
                ev
            })))
        },
    },
];

/// All registered feed sources.
pub fn sources() -> &'static [SourceSpec] {
    SOURCES
}

/// Look a feed source up by its registry name.
pub fn source(name: &str) -> Option<&'static SourceSpec> {
    SOURCES.iter().find(|s| s.name == name)
}

/// Render the whole catalog — apps, routes, and feed sources with their
/// accepted config keys — for `morphstream run --list`.
pub fn listing() -> String {
    let mut out = String::new();
    out.push_str("apps (stage `app = \"...\"`):\n");
    for app in APPS {
        out.push_str(&format!("  {:<18} {}\n", app.name, app.summary));
        for (key, doc) in app.keys {
            out.push_str(&format!("      {key} — {doc}\n"));
        }
    }
    out.push_str(
        "\nstage keys every [[stages]] section accepts:\n      \
         id, app, inputs, route, parallelism, punctuation\n",
    );
    out.push_str("\nroutes (stage `route = \"...\"`, applied to its incoming edges):\n");
    for route in ROUTES {
        out.push_str(&format!("  {:<18} {}\n", route.name, route.summary));
    }
    out.push_str("\nfeed sources (feed `source = \"...\"`):\n");
    for source in SOURCES {
        out.push_str(&format!("  {:<18} {}\n", source.name, source.summary));
        for (key, doc) in source.keys {
            out.push_str(&format!("      {key} — {doc}\n"));
        }
    }
    out.push_str(
        "\nfeed keys every [[feeds]] section accepts:\n      \
         id, source, entry, events, seed, phase, stride\n",
    );
    out
}
