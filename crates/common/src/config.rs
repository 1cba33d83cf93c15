//! Workload and engine configuration.
//!
//! [`WorkloadConfig`] mirrors Table 6 of the paper: the six workload
//! characteristics (θ, a, l, C, r, T) that every benchmark sweeps, plus the
//! size of the shared mutable state. [`EngineConfig`] carries the
//! system-level knobs (worker threads, punctuation interval, version
//! reclamation) shared by MorphStream and the baselines.

/// Workload characteristics of Table 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// `θ` — Zipf skew of the state access distribution (0.0 = uniform).
    pub zipf_theta: f64,
    /// `a` — ratio of transactions that abort (0.0 – 0.9 in the sweeps).
    pub abort_ratio: f64,
    /// `l` — transaction length: number of atomic state access operations per
    /// transaction.
    pub txn_length: usize,
    /// `C` — complexity of a user-defined function, expressed as an emulated
    /// computation delay in microseconds.
    pub udf_complexity_us: u64,
    /// `r` — number of states accessed per (multi-state) operation.
    pub states_per_op: usize,
    /// `T` — number of transactions per punctuation (the punctuation
    /// interval).
    pub txns_per_batch: usize,
    /// Number of distinct keys of shared mutable state available to the
    /// workload.
    pub key_space: u64,
    /// Seed for deterministic workload generation.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Default configuration of the Streaming Ledger workload (Table 6,
    /// column SL): θ=0.2, a=1%, l=2 (deposit)/4 (transfer), C=10µs, r=1/2,
    /// T=10240.
    pub fn streaming_ledger() -> Self {
        Self {
            zipf_theta: 0.2,
            abort_ratio: 0.01,
            txn_length: 2,
            udf_complexity_us: 10,
            states_per_op: 2,
            txns_per_batch: 10_240,
            key_space: 100_000,
            seed: 0xD5EE_D001,
        }
    }

    /// Default configuration of the GrepSum workload (Table 6, column GS).
    pub fn grep_sum() -> Self {
        Self {
            zipf_theta: 0.2,
            abort_ratio: 0.01,
            txn_length: 1,
            udf_complexity_us: 10,
            states_per_op: 2,
            txns_per_batch: 10_240,
            key_space: 100_000,
            seed: 0xD5EE_D002,
        }
    }

    /// Default configuration of the Toll Processing workload (Table 6,
    /// column TP).
    pub fn toll_processing() -> Self {
        Self {
            zipf_theta: 0.2,
            abort_ratio: 0.01,
            txn_length: 2,
            udf_complexity_us: 10,
            states_per_op: 1,
            txns_per_batch: 40_960,
            key_space: 100_000,
            seed: 0xD5EE_D003,
        }
    }

    /// Builder-style update of the Zipf skew.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_zipf_theta(mut self, theta: f64) -> Self {
        self.zipf_theta = theta;
        self
    }

    /// Builder-style update of the abort ratio.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_abort_ratio(mut self, ratio: f64) -> Self {
        self.abort_ratio = ratio;
        self
    }

    /// Builder-style update of the transaction length.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_txn_length(mut self, length: usize) -> Self {
        self.txn_length = length;
        self
    }

    /// Builder-style update of the UDF complexity in microseconds.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_udf_complexity_us(mut self, us: u64) -> Self {
        self.udf_complexity_us = us;
        self
    }

    /// Builder-style update of the states accessed per operation.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_states_per_op(mut self, r: usize) -> Self {
        self.states_per_op = r;
        self
    }

    /// Builder-style update of the punctuation interval.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_txns_per_batch(mut self, t: usize) -> Self {
        self.txns_per_batch = t;
        self
    }

    /// Builder-style update of the key space size.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_key_space(mut self, n: u64) -> Self {
        self.key_space = n;
        self
    }

    /// Builder-style update of the generator seed.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.zipf_theta) {
            return Err(format!(
                "zipf_theta must be in [0,1], got {}",
                self.zipf_theta
            ));
        }
        if !(0.0..=1.0).contains(&self.abort_ratio) {
            return Err(format!(
                "abort_ratio must be in [0,1], got {}",
                self.abort_ratio
            ));
        }
        if self.txn_length == 0 {
            return Err("txn_length must be at least 1".into());
        }
        if self.states_per_op == 0 {
            return Err("states_per_op must be at least 1".into());
        }
        if self.txns_per_batch == 0 {
            return Err("txns_per_batch must be at least 1".into());
        }
        if self.key_space < (self.txn_length * self.states_per_op) as u64 {
            return Err("key_space too small for the configured transaction shape".into());
        }
        Ok(())
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::streaming_ledger()
    }
}

/// System-level engine configuration shared by MorphStream and the baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker threads a batch may use — at most, per the batch's declared
    /// work. MorphStream engages the calling thread plus one worker per
    /// [`WORK_PER_WORKER_US`](crate::WORK_PER_WORKER_US) (2.5 ms) of the UDF
    /// work the batch declares (`cost_us` summed), capped here, for the TPG
    /// build and exploration alike (`effective_workers`); a batch declaring
    /// no work runs on the caller alone. The constant comes from a sweep of
    /// the Streaming Ledger shapes at one and two workers
    /// (`figs 21 --workers`; table in ROADMAP item 5). The
    /// reconstructed baselines engage all `num_threads`.
    pub num_threads: usize,
    /// Number of input events between punctuations. `None` means no
    /// punctuation by count: the engine cuts one batch per flush.
    pub punctuation_interval: Option<usize>,
    /// Reclaim multi-version state and processed TPGs after every batch
    /// (the analogue of the paper's "clear temporal objects" switch used in
    /// Figure 17). The reclaim visits the keys the batch wrote — each
    /// table keeps the list of chains holding more than one version — so
    /// its cost follows the batch, not the size of the state.
    pub reclaim_after_batch: bool,
}

impl EngineConfig {
    /// Configuration with `num_threads` workers and defaults elsewhere.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_threads(num_threads: usize) -> Self {
        Self {
            num_threads,
            ..Self::default()
        }
    }

    /// Builder-style update of the punctuation interval.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_punctuation_interval(mut self, events: usize) -> Self {
        self.punctuation_interval = Some(events);
        self
    }

    /// Builder-style toggle of after-batch reclamation.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_reclaim_after_batch(mut self, reclaim: bool) -> Self {
        self.reclaim_after_batch = reclaim;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_threads == 0 {
            return Err("num_threads must be at least 1".into());
        }
        if let Some(0) = self.punctuation_interval {
            return Err("punctuation_interval must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            num_threads: default_parallelism(),
            punctuation_interval: None,
            reclaim_after_batch: true,
        }
    }
}

/// Runtime configuration of an operator topology (a dataflow of
/// transactional operators driven as one engine).
///
/// A topology runs one round protocol under one of two drivers. The default
/// is *inline*: every punctuation round propagates through the whole dataflow
/// on the caller thread, one operator at a time.
/// With [`TopologyConfig::concurrent`] each operator instance runs on its own
/// thread behind a bounded channel of event batches, so operators of one
/// dataflow execute concurrently on multicores; `channel_capacity` bounds how
/// many punctuation batches may queue on each edge, which is the
/// back-pressure knob — a slow downstream operator makes upstream sends (and
/// ultimately the caller's `push`) block instead of buffering the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Punctuation batches that may queue on each operator-to-operator edge
    /// before the sender blocks. Memory in flight between two operators is
    /// bounded by `channel_capacity × punctuation interval` events.
    pub channel_capacity: usize,
    /// Run every operator instance on its own thread behind a bounded
    /// channel instead of inline on the caller thread. Final state digests
    /// and outputs are identical either way — only timing changes.
    pub concurrent: bool,
}

impl TopologyConfig {
    /// Builder-style update of the per-edge channel capacity (in punctuation
    /// batches).
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_channel_capacity(mut self, batches: usize) -> Self {
        self.channel_capacity = batches;
        self
    }

    /// Builder-style toggle of the threaded driver.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_concurrent(mut self, concurrent: bool) -> Self {
        self.concurrent = concurrent;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.channel_capacity == 0 {
            return Err("channel_capacity must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            channel_capacity: 2,
            concurrent: false,
        }
    }
}

/// Available hardware parallelism, defaulting to 4 when it cannot be queried.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Worker-thread count used by the integration tests: the `MORPH_TEST_THREADS`
/// environment variable when set to a positive integer, otherwise `default`.
/// CI runs the test suite under a small thread matrix through this knob.
pub fn test_threads(default: usize) -> usize {
    std::env::var("MORPH_TEST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_defaults_match_the_paper() {
        let sl = WorkloadConfig::streaming_ledger();
        assert_eq!(sl.zipf_theta, 0.2);
        assert_eq!(sl.abort_ratio, 0.01);
        assert_eq!(sl.udf_complexity_us, 10);
        assert_eq!(sl.txns_per_batch, 10_240);

        let gs = WorkloadConfig::grep_sum();
        assert_eq!(gs.txn_length, 1);
        assert_eq!(gs.states_per_op, 2);

        let tp = WorkloadConfig::toll_processing();
        assert_eq!(tp.txns_per_batch, 40_960);
        assert_eq!(tp.states_per_op, 1);
    }

    #[test]
    fn builders_update_single_fields() {
        let cfg = WorkloadConfig::grep_sum()
            .with_zipf_theta(0.8)
            .with_abort_ratio(0.3)
            .with_txn_length(5)
            .with_udf_complexity_us(50)
            .with_states_per_op(3)
            .with_txns_per_batch(512)
            .with_key_space(1_000)
            .with_seed(1);
        assert_eq!(cfg.zipf_theta, 0.8);
        assert_eq!(cfg.abort_ratio, 0.3);
        assert_eq!(cfg.txn_length, 5);
        assert_eq!(cfg.udf_complexity_us, 50);
        assert_eq!(cfg.states_per_op, 3);
        assert_eq!(cfg.txns_per_batch, 512);
        assert_eq!(cfg.key_space, 1_000);
        assert_eq!(cfg.seed, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_out_of_range_values() {
        assert!(WorkloadConfig::default()
            .with_zipf_theta(1.5)
            .validate()
            .is_err());
        assert!(WorkloadConfig::default()
            .with_abort_ratio(-0.1)
            .validate()
            .is_err());
        assert!(WorkloadConfig::default()
            .with_txn_length(0)
            .validate()
            .is_err());
        assert!(WorkloadConfig::default()
            .with_key_space(1)
            .validate()
            .is_err());
    }

    #[test]
    fn engine_config_validation() {
        assert!(EngineConfig::default().validate().is_ok());
        assert!(EngineConfig::with_threads(0).validate().is_err());
        let cfg = EngineConfig::with_threads(8)
            .with_punctuation_interval(1024)
            .with_reclaim_after_batch(false);
        assert_eq!(cfg.num_threads, 8);
        assert_eq!(cfg.punctuation_interval, Some(1024));
        assert!(!cfg.reclaim_after_batch);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn topology_config_defaults_and_validation() {
        let cfg = TopologyConfig::default();
        assert!(!cfg.concurrent);
        assert_eq!(cfg.channel_capacity, 2);
        assert!(cfg.validate().is_ok());
        let cfg = cfg.with_concurrent(true).with_channel_capacity(8);
        assert!(cfg.concurrent);
        assert_eq!(cfg.channel_capacity, 8);
        assert!(cfg.validate().is_ok());
        assert!(cfg.with_channel_capacity(0).validate().is_err());
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn test_threads_falls_back_to_default() {
        // The variable is not set in unit-test runs unless CI exported it; in
        // either case the result is a positive thread count.
        assert!(test_threads(3) >= 1);
    }
}
