//! `morphstream standby`: the server-side wrapper around a replication
//! [`StandbyServer`].
//!
//! [`StandbyHandle::start`] builds the same topology `morphstream serve`
//! would run (from the same [`ServeOptions`], including `--topology` TOML
//! scenarios), hands it to the replication layer as the engine factory, and
//! serves the standby's own observability endpoint: `/metrics` with the
//! replication families, `/healthz`, and the `/promote` admin route that —
//! like SIGUSR1 — asks the process to flip into a serving primary.
//!
//! Promotion ([`StandbyHandle::promote`]) tears down the standby's metrics
//! responder (freeing the port for the promoted server to rebind), stops
//! replication with a final checkpoint, and starts a full [`Server`] on the
//! warm engine via [`Server::start_promoted`] — no recovery pass, no replay.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use morphstream_replication::{
    ReplicaEngine, ReplicationStats, StandbyOptions, StandbyRecovery, StandbyServer,
};

use crate::metrics::{render_prometheus, ServerMetrics};
use crate::serve::{build_topology, ServeOptions, Server};
use crate::signal::trigger_promote;

/// A running hot standby with its own metrics endpoint; promote it with
/// [`StandbyHandle::promote`] or stop it with [`StandbyHandle::shutdown`].
pub struct StandbyHandle {
    standby: StandbyServer,
    opts: ServeOptions,
    metrics_addr: SocketAddr,
    metrics_stop: Arc<AtomicBool>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl StandbyHandle {
    /// Recover local standby state, bind the replication listener on
    /// `listen`, and serve `/metrics` + `/healthz` + `/promote` on
    /// `opts.metrics_addr`. `opts` must carry a `data_dir` (the standby's
    /// own durable directory) and describes the topology the primary
    /// serves — the two sides must build the same dataflow or replayed
    /// digests will diverge.
    pub fn start(opts: ServeOptions, listen: String) -> io::Result<StandbyHandle> {
        let data_dir = opts.data_dir.clone().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "standby requires --data-dir (its own WAL + checkpoint directory)",
            )
        })?;
        let standby_opts = StandbyOptions {
            listen,
            data_dir,
            fsync: opts.fsync,
            checkpoint_interval: opts.checkpoint_interval,
            checkpoint_retain: opts.checkpoint_retain,
        };
        let factory_opts = opts.clone();
        let standby = StandbyServer::start(
            standby_opts,
            Box::new(move || {
                let (engine, ledger, audit) = build_topology(&factory_opts)?;
                Ok(ReplicaEngine {
                    engine,
                    stores: vec![ledger, audit],
                })
            }),
        )?;

        let metrics = Arc::new(ServerMetrics::new());
        metrics.set_replication(standby.stats());
        let (listener, metrics_addr) = crate::metrics::bind(&opts.metrics_addr)?;
        let metrics_stop = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&metrics_stop);
        let scrape_metrics = Arc::clone(&metrics);
        let metrics_thread = std::thread::Builder::new()
            .name("morphstream-standby-metrics".into())
            .spawn(move || {
                let running = {
                    let stop = Arc::clone(&stop);
                    move || !stop.load(Ordering::SeqCst)
                };
                // The standby has no live engine report to splice in: the
                // published (empty) totals plus the replication atomics are
                // the whole story until promotion.
                let scrape =
                    move || render_prometheus(&scrape_metrics.published_total(), &scrape_metrics);
                crate::metrics::serve_http_with(listener, running, scrape, |path| {
                    (path == "/promote").then(|| {
                        trigger_promote();
                        (
                            "200 OK",
                            "text/plain; charset=utf-8",
                            "promoting\n".to_string(),
                        )
                    })
                });
            })
            .expect("spawn standby metrics responder");

        Ok(StandbyHandle {
            standby,
            opts,
            metrics_addr,
            metrics_stop,
            metrics_thread: Some(metrics_thread),
        })
    }

    /// Address the replication listener actually bound (resolves port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.standby.listen_addr()
    }

    /// Address the metrics listener actually bound.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// Counters behind the `/metrics` replication families.
    pub fn stats(&self) -> Arc<ReplicationStats> {
        self.standby.stats()
    }

    /// Events durably replicated (WAL-appended locally) so far.
    pub fn durable_index(&self) -> u64 {
        self.standby.durable_index()
    }

    /// What startup recovery did, when the data directory held prior state.
    pub fn recovery(&self) -> Option<&StandbyRecovery> {
        self.standby.recovery()
    }

    /// Flip into a serving primary: stop the metrics responder (the
    /// promoted server rebinds the same address), stop replication with a
    /// final checkpoint, and start a full server on the warm engine.
    pub fn promote(mut self) -> io::Result<Server> {
        self.stop_metrics();
        let opts = self.opts.clone();
        let promoted = self.standby.promote()?;
        Server::start_promoted(opts, promoted)
    }

    /// Stop the standby without promoting (local state stays on disk).
    pub fn shutdown(mut self) {
        self.stop_metrics();
        self.standby.shutdown();
    }

    fn stop_metrics(&mut self) {
        self.metrics_stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.metrics_thread.take() {
            let _ = thread.join();
        }
    }
}
