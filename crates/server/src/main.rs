//! The `morphstream` command: `serve` (TCP event ingress), `standby` (hot
//! replica with promotion), `loadgen` (reproducible heavy-traffic client),
//! and `run` (execute a declarative TOML scenario). Flags are parsed by
//! hand — the workspace is offline and four subcommands do not justify
//! vendoring an argument parser.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use morphstream_common::protocol::WireFormat;
use morphstream_durability::FsyncPolicy;
use morphstream_server::{
    install_promote_handler, install_shutdown_handler, promote_requested, run_loadgen,
    shutdown_requested, AckMode, LoadgenOptions, ServeOptions, Server, StandbyHandle,
};

const USAGE: &str = "\
morphstream — transactional stream processing over TCP

USAGE:
    morphstream serve   [--addr HOST:PORT] [--metrics-addr HOST:PORT]
                        [--topology pipeline.toml]
                        [--threads N] [--punctuation N] [--key-space N]
                        [--channel-capacity N] [--concurrent]
                        [--audit-cost-us N] [--session-events N]
                        [--data-dir PATH] [--checkpoint-interval N]
                        [--fsync always|interval|never]
                        [--checkpoint-retain N]
                        [--replicate-to HOST:PORT] [--ack sync|async]
    morphstream standby --data-dir PATH [--listen HOST:PORT]
                        [--addr HOST:PORT] [--metrics-addr HOST:PORT]
                        [--topology pipeline.toml]
                        [--threads N] [--punctuation N] [--key-space N]
                        [--channel-capacity N] [--concurrent]
                        [--audit-cost-us N] [--session-events N]
                        [--checkpoint-interval N]
                        [--fsync always|interval|never]
                        [--checkpoint-retain N]
    morphstream loadgen [--addr HOST:PORT] [--events N] [--skip N]
                        [--key-space N] [--zipf-theta F]
                        [--transfer-ratio F] [--format binary|json]
                        [--burst N] [--burst-pause-ms N] [--seed N]
                        [--reconnect] [--json]
    morphstream run     <pipeline.toml> [--threads N] [--concurrent]
                        [--serial] [--json]
    morphstream run     --list

serve accepts events on --addr (length-prefixed binary after an MSB1 magic,
or JSON lines; auto-detected per connection), serves Prometheus metrics on
http://<metrics-addr>/metrics and liveness on /healthz, and drains in-flight
punctuations on SIGINT/SIGTERM before exiting. With --data-dir, every event
is written ahead to a WAL and every table is checkpointed every
--checkpoint-interval events (0 = only at startup recovery and shutdown);
each checkpoint supersedes the one before it, and --checkpoint-retain N
keeps the N newest superseded ones as history (default 0). After a crash,
restarting with the same --data-dir restores the latest checkpoint and
replays the WAL tail to digest-identical state. With
--topology, serve runs a declarative TOML dataflow (one entry stage; wire
events enter there, terminal outputs are digested) instead of the builtin
ledger -> audit chain — durability and recovery apply unchanged. With
--replicate-to, every WAL record is also shipped to a standby's replication
listener; --ack sync makes each ingest chunk wait for the standby's durable
acknowledgement (--ack async, the default, lets it trail).

standby is the other end of --replicate-to: it accepts the primary's stream
on --listen, persists it into its own --data-dir, and replays it through
the same topology the primary serves (pass the same --topology / workload
flags on both sides) so its state digests match the primary's at every
punctuation. /metrics on --metrics-addr exposes the replication lag;
SIGUSR1 or POST /promote promotes it into a full serving primary (events on
--addr) with no recovery pass.

loadgen connects to a running server and sends a deterministic Zipf-skewed
Streaming Ledger stream in bursts, reporting the achieved rate and the
socket write-latency tail (which rises when server back-pressure reaches the
client through TCP flow control). --skip N generates but does not send the
first N events — resume a deterministic stream past what a recovered server
already ingested (its morphstream_durable_events gauge). --reconnect
retries failed connects and mid-stream write errors with capped backoff,
surviving a failover window.

run loads a declarative scenario file ([[feeds]], [[stages]], [topology]),
merges the deterministic feeds by timestamp, drives the topology to
completion, and prints the final state digest (the equivalence witness CI
compares across runs) plus the engine report. --threads / --concurrent /
--serial override the file's runtime knobs; --json emits the full report as
one JSON object. run --list prints the registry: every operator, route, and
feed source a scenario file can name, with their accepted config keys.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("standby") => cmd_standby(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Pull the value of `--flag VALUE` out of `args`, parsed with `parse`.
fn flag_value<T>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let mut found = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            let raw = iter
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            found = Some(parse(raw).ok_or_else(|| format!("invalid value {raw:?} for {flag}"))?);
        }
    }
    Ok(found)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn known_flags(args: &[String], known: &[(&str, bool)]) -> Result<(), String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match known.iter().find(|(name, _)| name == arg) {
            Some((_, takes_value)) => {
                if *takes_value {
                    iter.next();
                }
            }
            None => return Err(format!("unknown flag {arg:?}")),
        }
    }
    Ok(())
}

/// Flags `serve` and `standby` share: a name + takes-value pair per flag
/// for [`known_flags`], applied by [`apply_serve_flags`].
const SERVE_FLAGS: &[(&str, bool)] = &[
    ("--addr", true),
    ("--metrics-addr", true),
    ("--topology", true),
    ("--threads", true),
    ("--punctuation", true),
    ("--key-space", true),
    ("--channel-capacity", true),
    ("--concurrent", false),
    ("--audit-cost-us", true),
    ("--session-events", true),
    ("--data-dir", true),
    ("--checkpoint-interval", true),
    ("--fsync", true),
    ("--checkpoint-retain", true),
];

/// Apply the shared `serve`/`standby` flags onto `opts`.
fn apply_serve_flags(args: &[String], opts: &mut ServeOptions) -> Result<(), String> {
    if let Some(addr) = flag_value(args, "--addr", |s| Some(s.to_string()))? {
        opts.event_addr = addr;
    }
    if let Some(addr) = flag_value(args, "--metrics-addr", |s| Some(s.to_string()))? {
        opts.metrics_addr = addr;
    }
    if let Some(path) = flag_value(args, "--topology", |s| Some(PathBuf::from(s)))? {
        opts.topology = Some(path);
    }
    if let Some(n) = flag_value(args, "--threads", |s| s.parse::<usize>().ok())? {
        opts.threads = n.max(1);
    }
    if let Some(n) = flag_value(args, "--punctuation", |s| s.parse::<usize>().ok())? {
        opts.workload.txns_per_batch = n.max(1);
    }
    if let Some(n) = flag_value(args, "--key-space", |s| s.parse::<u64>().ok())? {
        opts.workload.key_space = n.max(1);
    }
    if let Some(n) = flag_value(args, "--channel-capacity", |s| s.parse::<usize>().ok())? {
        opts.channel_capacity = n.max(1);
    }
    opts.concurrent = has_flag(args, "--concurrent");
    if let Some(n) = flag_value(args, "--audit-cost-us", |s| s.parse::<u64>().ok())? {
        opts.audit_cost_us = n;
    }
    if let Some(n) = flag_value(args, "--session-events", |s| s.parse::<u64>().ok())? {
        opts.session_events = n;
    }
    if let Some(dir) = flag_value(args, "--data-dir", |s| Some(std::path::PathBuf::from(s)))? {
        opts.data_dir = Some(dir);
    }
    if let Some(n) = flag_value(args, "--checkpoint-interval", |s| s.parse::<u64>().ok())? {
        opts.checkpoint_interval = n;
    }
    if let Some(policy) = flag_value(args, "--fsync", FsyncPolicy::from_name)? {
        opts.fsync = policy;
    }
    if let Some(n) = flag_value(args, "--checkpoint-retain", |s| s.parse::<usize>().ok())? {
        opts.checkpoint_retain = n;
    }
    Ok(())
}

/// Poll for shutdown, drain the server, and print the summary + digest
/// witness lines. Shared by `serve` and by `standby` once promoted — the
/// digest line format is identical so failover smoke tests can compare a
/// promoted run against an uninterrupted reference run.
fn serve_until_shutdown(server: Server) -> ExitCode {
    while !shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("morphstream serve: shutdown requested, draining");
    let summary = server.shutdown();
    println!(
        "morphstream serve: drained; {} events ({} committed, {} aborted) over {} connections, {} frames, {} decode errors",
        summary.snapshot.events,
        summary.snapshot.committed,
        summary.snapshot.aborted,
        summary.connections,
        summary.frames,
        summary.decode_errors,
    );
    // Machine-checkable equivalence witness: the crash-recovery and
    // replication smoke tests compare this line between a
    // killed-and-recovered (or killed-and-promoted) run and an
    // uninterrupted reference run of the same stream.
    println!(
        "morphstream serve: digests ledger={:016x} audit={:016x} outputs={:016x}",
        summary.ledger_digest, summary.audit_digest, summary.output_digest,
    );
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<ServeOptions, String> {
        let mut known = SERVE_FLAGS.to_vec();
        known.extend_from_slice(&[("--replicate-to", true), ("--ack", true)]);
        known_flags(args, &known)?;
        let mut opts = ServeOptions {
            event_addr: "127.0.0.1:7878".into(),
            metrics_addr: "127.0.0.1:9878".into(),
            ..ServeOptions::default()
        };
        apply_serve_flags(args, &mut opts)?;
        if let Some(target) = flag_value(args, "--replicate-to", |s| Some(s.to_string()))? {
            opts.replicate_to = Some(target);
        }
        if let Some(ack) = flag_value(args, "--ack", AckMode::from_name)? {
            opts.ack = ack;
        }
        if opts.replicate_to.is_some() && opts.data_dir.is_none() {
            return Err("--replicate-to requires --data-dir (the WAL is what ships)".into());
        }
        Ok(opts)
    })();
    let opts = match parsed {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("morphstream serve: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    install_shutdown_handler();
    let replicating = opts.replicate_to.clone();
    let ack = opts.ack;
    let server = match Server::start(opts) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("morphstream serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(recovery) = server.recovery() {
        println!("morphstream serve: recovered {}", recovery.to_json());
    }
    println!(
        "morphstream serve: events on {}  metrics on http://{}/metrics",
        server.event_addr(),
        server.metrics_addr()
    );
    if let Some(target) = replicating {
        println!(
            "morphstream serve: replicating to {target} (ack {})",
            ack.name()
        );
    }
    serve_until_shutdown(server)
}

fn cmd_standby(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(ServeOptions, String), String> {
        let mut known = SERVE_FLAGS.to_vec();
        known.push(("--listen", true));
        known_flags(args, &known)?;
        let mut opts = ServeOptions {
            event_addr: "127.0.0.1:7878".into(),
            metrics_addr: "127.0.0.1:9879".into(),
            ..ServeOptions::default()
        };
        apply_serve_flags(args, &mut opts)?;
        if opts.data_dir.is_none() {
            return Err("standby requires --data-dir (its own WAL + checkpoint directory)".into());
        }
        let listen = flag_value(args, "--listen", |s| Some(s.to_string()))?
            .unwrap_or_else(|| "127.0.0.1:7879".into());
        Ok((opts, listen))
    })();
    let (opts, listen) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("morphstream standby: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    install_shutdown_handler();
    install_promote_handler();
    let standby = match StandbyHandle::start(opts, listen) {
        Ok(standby) => standby,
        Err(e) => {
            eprintln!("morphstream standby: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(recovery) = standby.recovery() {
        println!(
            "morphstream standby: recovered checkpoint_id={:?} replayed={} torn_tail={}",
            recovery.checkpoint_id, recovery.replayed_events, recovery.torn_tail
        );
    }
    println!(
        "morphstream standby: replication on {}  metrics on http://{}/metrics  (promote: SIGUSR1 or POST /promote)",
        standby.listen_addr(),
        standby.metrics_addr()
    );
    loop {
        if shutdown_requested() {
            println!(
                "morphstream standby: shutdown requested at durable index {}",
                standby.durable_index()
            );
            standby.shutdown();
            return ExitCode::SUCCESS;
        }
        if promote_requested() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    println!(
        "morphstream standby: promoting at durable index {}",
        standby.durable_index()
    );
    let server = match standby.promote() {
        Ok(server) => server,
        Err(e) => {
            eprintln!("morphstream standby: promotion failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "morphstream standby: promoted; events on {}  metrics on http://{}/metrics",
        server.event_addr(),
        server.metrics_addr()
    );
    serve_until_shutdown(server)
}

fn cmd_run(args: &[String]) -> ExitCode {
    if has_flag(args, "--list") {
        print!("{}", morphstream_dataflow::listing());
        return ExitCode::SUCCESS;
    }
    let parsed = (|| -> Result<(PathBuf, morphstream_dataflow::LoadOverrides, bool), String> {
        let mut overrides = morphstream_dataflow::LoadOverrides::default();
        let mut json = false;
        let mut path: Option<PathBuf> = None;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--threads" => {
                    let raw = iter
                        .next()
                        .ok_or_else(|| "--threads requires a value".to_string())?;
                    let n = raw
                        .parse::<usize>()
                        .map_err(|_| format!("invalid value {raw:?} for --threads"))?;
                    overrides.threads = Some(n.max(1));
                }
                "--concurrent" => overrides.concurrent = Some(true),
                "--serial" => overrides.concurrent = Some(false),
                "--json" => json = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                file => {
                    if path.replace(PathBuf::from(file)).is_some() {
                        return Err("run takes exactly one scenario file".into());
                    }
                }
            }
        }
        if has_flag(args, "--concurrent") && has_flag(args, "--serial") {
            return Err("--concurrent and --serial are mutually exclusive".into());
        }
        let path = path.ok_or_else(|| "run requires a scenario file (or --list)".to_string())?;
        Ok((path, overrides, json))
    })();
    let (path, overrides, json) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("morphstream run: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match morphstream_dataflow::run_file(&path, &overrides) {
        Ok(outcome) => {
            if json {
                println!("{}", outcome.to_json());
            } else {
                println!("morphstream run: {}", outcome.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("morphstream run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_loadgen(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(LoadgenOptions, bool), String> {
        known_flags(
            args,
            &[
                ("--addr", true),
                ("--events", true),
                ("--skip", true),
                ("--key-space", true),
                ("--zipf-theta", true),
                ("--transfer-ratio", true),
                ("--format", true),
                ("--burst", true),
                ("--burst-pause-ms", true),
                ("--seed", true),
                ("--reconnect", false),
                ("--json", false),
            ],
        )?;
        let mut opts = LoadgenOptions::default();
        if let Some(addr) = flag_value(args, "--addr", |s| Some(s.to_string()))? {
            opts.addr = addr;
        }
        if let Some(n) = flag_value(args, "--events", |s| s.parse::<usize>().ok())? {
            opts.events = n;
        }
        if let Some(n) = flag_value(args, "--skip", |s| s.parse::<usize>().ok())? {
            opts.skip = n;
        }
        if let Some(n) = flag_value(args, "--key-space", |s| s.parse::<u64>().ok())? {
            opts.key_space = n.max(1);
        }
        if let Some(f) = flag_value(args, "--zipf-theta", |s| s.parse::<f64>().ok())? {
            opts.zipf_theta = f;
        }
        if let Some(f) = flag_value(args, "--transfer-ratio", |s| s.parse::<f64>().ok())? {
            opts.transfer_ratio = f;
        }
        if let Some(format) = flag_value(args, "--format", WireFormat::from_name)? {
            opts.format = format;
        }
        if let Some(n) = flag_value(args, "--burst", |s| s.parse::<usize>().ok())? {
            opts.burst = n.max(1);
        }
        if let Some(n) = flag_value(args, "--burst-pause-ms", |s| s.parse::<u64>().ok())? {
            opts.burst_pause = Duration::from_millis(n);
        }
        if let Some(n) = flag_value(args, "--seed", |s| s.parse::<u64>().ok())? {
            opts.seed = n;
        }
        opts.reconnect = has_flag(args, "--reconnect");
        Ok((opts, has_flag(args, "--json")))
    })();
    let (opts, json) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("morphstream loadgen: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run_loadgen(&opts) {
        Ok(report) => {
            if json {
                println!("{}", report.to_json());
            } else {
                println!("morphstream loadgen: {}", report.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("morphstream loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
