//! Online Social Event Detection (OSED) — the first case study of
//! Section 8.6.
//!
//! The real study processes the CrisisLexT6 tweet collection (five U.S.
//! crisis events, ~30 000 tweets). That dataset is not bundled with this
//! repository, so [`TweetGenerator`] synthesises an equivalent stream: five
//! overlapping "crisis events", each emitting a pulse of tweets whose
//! per-window popularity rises and falls like the pulses of Figure 23, plus
//! background noise tweets. Every tweet carries word tokens; tweets of a
//! crisis event always contain that event's burst keyword.
//!
//! The streaming application maintains three shared states — word
//! frequencies, tweet registrations, and per-event clusters — and answers
//! "how popular is each event in the current window" with windowed reads over
//! the cluster table, which is exactly the state-management pattern the paper
//! implements on MorphStream.

use std::sync::Arc;

use morphstream::storage::StateStore;
use morphstream::{udfs, StreamApp, TxnBuilder, TxnOutcome, UdfOutcome};
use morphstream_common::rng::DetRng;
use morphstream_common::{TableId, Timestamp, Value};

/// Number of synthetic crisis events (matches the five CrisisLexT6 events).
pub const NUM_EVENTS: usize = 5;

/// A tweet of the synthetic stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tweet {
    /// Monotonic tweet index.
    pub id: u64,
    /// Word tokens (word ids).
    pub words: Vec<u64>,
    /// The crisis event the tweet belongs to, if any (`None` = background
    /// noise). Used only to compute the *expected* popularity series.
    pub event: Option<usize>,
    /// Whether this tweet is a popularity probe: it triggers a windowed read
    /// of every event cluster instead of registering new content.
    pub window_probe: bool,
}

/// Synthetic CrisisLex-like tweet stream generator.
#[derive(Debug, Clone)]
pub struct TweetGenerator {
    /// Total number of content tweets to generate.
    pub tweets: usize,
    /// Tweets per detection window; a probe tweet is appended after each
    /// window.
    pub window: usize,
    /// Vocabulary size for background words.
    pub vocabulary: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for TweetGenerator {
    fn default() -> Self {
        Self {
            tweets: 3_000,
            window: 200,
            vocabulary: 5_000,
            seed: 0x05ED,
        }
    }
}

impl TweetGenerator {
    /// Generate the tweet stream plus the expected per-window popularity of
    /// every event (`expected[event][window]`).
    pub fn generate(&self) -> (Vec<Tweet>, Vec<Vec<usize>>) {
        let mut rng = DetRng::new(self.seed);
        let windows = self.tweets.div_ceil(self.window.max(1));
        let mut expected = vec![vec![0usize; windows]; NUM_EVENTS];
        let mut tweets = Vec::with_capacity(self.tweets + windows);
        // every crisis event peaks at a different window
        let peaks: Vec<f64> = (0..NUM_EVENTS)
            .map(|e| (e as f64 + 0.5) * windows as f64 / NUM_EVENTS as f64)
            .collect();
        let mut id = 0u64;
        // `window_idx` indexes the inner dimension of `expected` (outer is
        // the event id), so iterating `expected` directly would invert the
        // loop nest.
        #[allow(clippy::needless_range_loop)]
        for window_idx in 0..windows {
            let in_window = self.window.min(self.tweets - window_idx * self.window);
            for _ in 0..in_window {
                // pick the event with probability proportional to its pulse at
                // this window, or background noise.
                let weights: Vec<f64> = peaks
                    .iter()
                    .map(|peak| {
                        let d = (window_idx as f64 - peak) / (windows as f64 / 10.0);
                        (-d * d).exp()
                    })
                    .collect();
                let noise_weight = 0.4;
                let total: f64 = weights.iter().sum::<f64>() + noise_weight;
                let mut pick = rng.next_f64() * total;
                let mut event = None;
                for (e, w) in weights.iter().enumerate() {
                    if pick < *w {
                        event = Some(e);
                        break;
                    }
                    pick -= w;
                }
                let mut words: Vec<u64> = (0..4)
                    .map(|_| 100 + rng.next_below(self.vocabulary))
                    .collect();
                if let Some(e) = event {
                    // burst keyword of the event: word ids 0..NUM_EVENTS
                    words.push(e as u64);
                    expected[e][window_idx] += 1;
                }
                tweets.push(Tweet {
                    id,
                    words,
                    event,
                    window_probe: false,
                });
                id += 1;
            }
            // end-of-window probe
            tweets.push(Tweet {
                id,
                words: Vec::new(),
                event: None,
                window_probe: true,
            });
            id += 1;
        }
        (tweets, expected)
    }
}

/// Output of processing one tweet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsedOutput {
    /// The tweet was registered into the word/cluster state.
    Registered,
    /// A probe returned the detected popularity (new tweets in the trailing
    /// window) of every event cluster.
    Detected(Vec<Value>),
    /// The transaction aborted.
    Aborted,
}

/// The OSED streaming application.
pub struct OsedApp {
    words: TableId,
    tweets: TableId,
    clusters: TableId,
    /// Window length in event-time units used by popularity probes.
    pub window: Timestamp,
}

impl OsedApp {
    /// Create the application and its three shared-state tables.
    pub fn new(store: &StateStore, window: Timestamp) -> Self {
        let words = store.create_table("words", 0, true);
        let tweets = store.create_table("tweets", 0, true);
        let clusters = store.create_table("clusters", 0, false);
        store
            .preallocate_range(clusters, NUM_EVENTS as u64)
            .expect("clusters table exists");
        Self {
            words,
            tweets,
            clusters,
            window,
        }
    }

    /// Cluster table (per-event tweet counters).
    pub fn clusters_table(&self) -> TableId {
        self.clusters
    }
}

impl StreamApp for OsedApp {
    type Event = Tweet;
    type Output = OsedOutput;

    fn state_access(&self, tweet: &Tweet, txn: &mut TxnBuilder) {
        if tweet.window_probe {
            // Event selector: how many tweets joined each cluster within the
            // trailing window? Every join appends a version with a positive
            // running counter; the zero-valued seed version is not a tweet.
            for event in 0..NUM_EVENTS as u64 {
                txn.window_read(
                    self.clusters,
                    event,
                    self.window,
                    Arc::new(|input: &morphstream::UdfInput| {
                        Ok(UdfOutcome::Value(
                            input.window.iter().filter(|v| **v > 0).count() as Value,
                        ))
                    }),
                );
            }
            return;
        }
        // Tweet registrant: record the tweet.
        txn.write(self.tweets, tweet.id, udfs::set_value(1));
        // Word updater: bump the frequency of every token.
        for word in &tweet.words {
            txn.write(self.words, *word, udfs::add_delta(1));
        }
        // Similarity calculator + cluster updater: a tweet containing a burst
        // keyword (word id < NUM_EVENTS) joins that event's cluster.
        if let Some(keyword) = tweet.words.iter().find(|w| (**w as usize) < NUM_EVENTS) {
            txn.write(self.clusters, *keyword, udfs::add_delta(1));
        }
    }

    fn post_process(&self, tweet: &Tweet, outcome: &TxnOutcome) -> OsedOutput {
        if !outcome.committed {
            return OsedOutput::Aborted;
        }
        if tweet.window_probe {
            let detected = (0..NUM_EVENTS)
                .map(|e| outcome.result(e).unwrap_or(0))
                .collect();
            OsedOutput::Detected(detected)
        } else {
            OsedOutput::Registered
        }
    }
}

/// Result of an OSED run: expected vs detected per-window popularity.
#[derive(Debug, Clone)]
pub struct OsedReport {
    /// Expected popularity per event per window (from the generator labels).
    pub expected: Vec<Vec<usize>>,
    /// Detected popularity per event per window (from the windowed cluster
    /// reads).
    pub detected: Vec<Vec<usize>>,
}

impl OsedReport {
    /// Collect detected series from engine outputs.
    pub fn from_outputs(expected: Vec<Vec<usize>>, outputs: &[OsedOutput]) -> Self {
        let mut detected = vec![Vec::new(); NUM_EVENTS];
        for output in outputs {
            if let OsedOutput::Detected(popularities) = output {
                for (event, value) in popularities.iter().enumerate() {
                    detected[event].push(*value as usize);
                }
            }
        }
        Self { expected, detected }
    }

    /// Fraction of (event, window) cells where detected popularity is within
    /// `tolerance` tweets of the expected popularity — the "accurately
    /// detects the emergence of events" claim of Section 8.6.1.
    pub fn detection_accuracy(&self, tolerance: usize) -> f64 {
        let mut cells = 0usize;
        let mut close = 0usize;
        for event in 0..NUM_EVENTS {
            for (w, expected) in self.expected[event].iter().enumerate() {
                if let Some(detected) = self.detected[event].get(w) {
                    cells += 1;
                    if expected.abs_diff(*detected) <= tolerance {
                        close += 1;
                    }
                }
            }
        }
        if cells == 0 {
            0.0
        } else {
            close as f64 / cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::{EngineConfig, MorphStream, TxnEngine};

    #[test]
    fn generator_produces_pulsed_events_and_probes() {
        let (tweets, expected) = TweetGenerator {
            tweets: 1_000,
            window: 100,
            ..TweetGenerator::default()
        }
        .generate();
        let probes = tweets.iter().filter(|t| t.window_probe).count();
        assert_eq!(probes, 10);
        assert_eq!(expected.len(), NUM_EVENTS);
        // each event has a nonzero peak somewhere
        for series in &expected {
            assert!(series.iter().any(|&c| c > 0));
        }
    }

    #[test]
    fn detected_popularity_tracks_expected_popularity() {
        let generator = TweetGenerator {
            tweets: 1_200,
            window: 150,
            ..TweetGenerator::default()
        };
        let (tweets, expected) = generator.generate();
        let store = StateStore::new();
        // window in event-time units: one event per tweet, so window = tweets
        // per window (+ probes).
        let app = OsedApp::new(&store, generator.window as Timestamp + 1);
        let mut engine = MorphStream::new(
            app,
            store,
            EngineConfig::with_threads(4)
                .with_punctuation_interval(generator.window + 1)
                .with_reclaim_after_batch(false),
        );
        let report = engine.run(tweets);
        let osed = OsedReport::from_outputs(expected, &report.outputs);
        // detection should closely track the generated popularity
        assert!(
            osed.detection_accuracy(10) > 0.8,
            "accuracy {}",
            osed.detection_accuracy(10)
        );
    }
}
