//! Network ingress for the MorphStream reproduction: the `morphstream`
//! binary's `serve` and `loadgen` subcommands, as a library so tests can run
//! a server in-process.
//!
//! The server accepts events over TCP in two self-describing wire formats
//! (length-prefixed binary behind an `MSB1` magic, or JSON lines starting
//! with `{` — see [`morphstream_common::protocol`]), decodes them with a
//! [`SocketEventSource`], and ingests them into a `ledger → audit` dataflow
//! through its one door,
//! [`DurableEngine::ingest`](morphstream_durability::DurableEngine::ingest)
//! — the same with or without a data directory; without one nothing is
//! logged. One engine thread owns that engine; connection handlers decode
//! chunks of events and hand them to it over a bounded channel. Back-pressure
//! is end-to-end: a slow operator fills the bounded inter-operator channel,
//! the blocked ingest holds back the engine's reply, the connection handler
//! stops reading, and TCP flow control throttles the client — memory stays
//! bounded to one punctuation interval plus the channel capacity.
//!
//! Observability is a `/metrics` endpoint in Prometheus text format (live
//! [`ReportSnapshot`](morphstream::ReportSnapshot) of the current session
//! folded into rotated-session totals) plus `/healthz`; shutdown on
//! SIGINT/SIGTERM drains in-flight punctuations (`flush` + `finish`) before
//! exit.
//!
//! With `--replicate-to`, a durable server also ships its WAL to a hot
//! standby (`morphstream standby`, [`StandbyHandle`]) which replays it
//! through the same topology and can be promoted — by SIGUSR1 or its
//! `/promote` endpoint — into a serving primary with digest-identical
//! state; see [`morphstream_replication`].

#![warn(missing_docs)]

pub mod codec;
pub mod loadgen;
pub mod metrics;
pub mod serve;
pub mod signal;
pub mod standby;

pub use codec::{encode_event, write_preamble, SocketEventSource};
pub use loadgen::{run_loadgen, LoadgenOptions, LoadgenReport};
pub use metrics::{render_prometheus, ServerMetrics};
pub use morphstream_replication::{AckMode, ReplicationStats};
pub use serve::{
    build_topology, reference_run, AuditApp, RecoveryReport, ServeOptions, Server, ServerSummary,
};
pub use signal::{
    install_promote_handler, install_shutdown_handler, promote_requested, shutdown_requested,
    trigger_promote, trigger_shutdown,
};
pub use standby::StandbyHandle;
