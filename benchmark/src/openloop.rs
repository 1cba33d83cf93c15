//! The open-loop clock of the serve workloads, as plain arithmetic over
//! nanoseconds so it can be tested without sockets or sleeping.
//!
//! Bursts are due on a fixed schedule that does not slow when the server
//! slows. A burst's latency runs from its *due* time — not from when the
//! generator managed to send it, so a stall charges every burst it delayed —
//! to the first poll at which the server's ingested count proves the burst's
//! last event has been through every operator.
//!
//! That proof cannot assume where batches are cut: a checkpoint flushes the
//! partial batch under the engine lock (as does the idle tick of a quiet
//! connection), which shifts every later boundary off the multiples of the
//! punctuation interval T. What always holds is that a completed push leaves
//! at most T − 1 events buffered, and that on the serial topology runtime the
//! push that closes a batch runs it through every operator inline. So once
//! `events_ingested()` reads `i + T`, event `i` has been executed, whatever
//! the alignment. The latency is therefore arrival-to-output *including* the
//! wait for the batch to fill at the offered rate — an upper bound that is
//! tight when the burst's batch closes last.

use std::collections::VecDeque;

/// The ingested count (events since the server started) that proves the
/// zero-based event `index` executed: see the module docs.
pub fn proven_at(index: u64, punctuation: u64) -> u64 {
    index + punctuation
}

/// When burst `k` is due, in ns since the phase started, at `rate_keps`
/// thousand events per second in bursts of `burst` events.
pub fn due_ns(k: u64, burst: u64, rate_keps: f64) -> u64 {
    (k as f64 * burst as f64 / rate_keps * 1e6) as u64
}

/// Bursts sent and not yet complete, oldest first.
#[derive(Debug, Default)]
pub struct Pending {
    queue: VecDeque<(u64, u64)>,
}

impl Pending {
    /// Burst due at `due_ns` was sent; its last event is the server's
    /// zero-based event `last_index`.
    pub fn sent(&mut self, due_ns: u64, last_index: u64, punctuation: u64) {
        self.queue
            .push_back((due_ns, proven_at(last_index, punctuation)));
    }

    /// The server had ingested `ingested` events when polled at `now_ns`:
    /// pop every burst that completed and append its latency (ns, from its
    /// due time) to `latencies`.
    pub fn observe(&mut self, ingested: u64, now_ns: u64, latencies: &mut Vec<u64>) {
        while let Some(&(due, proven)) = self.queue.front() {
            if proven > ingested {
                break;
            }
            latencies.push(now_ns.saturating_sub(due));
            self.queue.pop_front();
        }
    }

    /// Bursts still waiting for their proof.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when every burst sent has completed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// True when the backlog samples (events sent minus events ingested, one
/// per burst) are still growing over the last third of the phase: its median
/// exceeds the middle third's by more than half again plus one batch. Such a
/// phase offered more than the server sustains, and its latencies measure
/// the run length, not the server. Medians, so that one stall of the host —
/// a spike the server then works off — does not read as growth.
pub fn backlog_growing(backlog: &[u64], punctuation: u64) -> bool {
    let third = backlog.len() / 3;
    if third == 0 {
        return false;
    }
    let median = |samples: &[u64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        sorted[sorted.len() / 2] as f64
    };
    let middle = median(&backlog[third..2 * third]);
    let last = median(&backlog[2 * third..]);
    last > middle * 1.5 + punctuation as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_is_proven_once_a_full_batch_follows_its_last_event() {
        // However the batches were cut, T - 1 events at most stay buffered.
        assert_eq!(proven_at(0, 1_024), 1_024);
        assert_eq!(proven_at(3_072 + 159, 1_024), 4_255);
        assert_eq!(proven_at(7, 1), 8);
    }

    #[test]
    fn latency_counts_from_the_due_time_even_when_the_send_was_late() {
        let mut pending = Pending::default();
        let mut latencies = Vec::new();
        // Due at 1 ms; the generator stalled and sent at 9 ms (the send time
        // is not even an input); the proof arrived at 12 ms.
        pending.sent(1_000_000, 255, 1_024);
        pending.observe(1_278, 11_000_000, &mut latencies);
        assert!(latencies.is_empty(), "1 278 < 255 + 1 024");
        pending.observe(1_279, 12_000_000, &mut latencies);
        assert_eq!(latencies, vec![11_000_000]);
        assert!(pending.is_empty());
    }

    #[test]
    fn one_poll_completes_every_proven_burst_in_order() {
        let mut pending = Pending::default();
        let mut latencies = Vec::new();
        for k in 0..5u64 {
            pending.sent(due_ns(k, 256, 40.0), (k + 1) * 256 - 1, 1_024);
        }
        // 2 048 ingested proves events up to index 1 024: bursts 0..=3.
        pending.observe(2_048, 60_000_000, &mut latencies);
        assert_eq!(latencies.len(), 4);
        assert_eq!(pending.len(), 1);
        // 256 events at 40 keps are 6.4 ms apart.
        assert_eq!(due_ns(1, 256, 40.0), 6_400_000);
        assert_eq!(latencies[0] - latencies[1], 6_400_000);
    }

    #[test]
    fn a_flat_backlog_is_not_growing_and_a_ramp_is() {
        let flat: Vec<u64> = (0..300).map(|i| (i % 4) * 256).collect();
        assert!(!backlog_growing(&flat, 1_024));
        let ramp: Vec<u64> = (0..300).map(|i| i * 100).collect();
        assert!(backlog_growing(&ramp, 1_024));
        // A stall late in the phase that the server works off is a spike.
        let mut spike = flat.clone();
        for (i, sample) in spike[220..260].iter_mut().enumerate() {
            *sample = 12_000 - i as u64 * 300;
        }
        assert!(!backlog_growing(&spike, 1_024));
        assert!(!backlog_growing(&[5, 9], 1_024));
    }
}
