//! The flow database at the center of Fig. 2.
//!
//! The paper's Data Processor keeps **one record per flow** (packet-level
//! fields replaced, flow-level aggregates updated), and the CentralServer
//! judges existing records from their first update on, skipping
//! brand-new entries (§III-3). In this codebase that one-record-per-flow
//! store is [`amlight_features::FlowTable`], owned by each
//! [`crate::modules::Processor`] and bounded by its idle timeout and
//! flow cap; live per-flow state is counted by
//! [`crate::modules::Processor::flow_count`]. The forwarding rule reads
//! the table's created-vs-updated outcome directly, so nothing polls the
//! database for changes.
//!
//! What this module stores is the Prediction half of Fig. 2: every
//! aggregated verdict (§III-2, item 8), behind a `parking_lot::RwLock` so
//! the threaded runtime's shards can share it. Flow creations and
//! updates are only *counted*, with relaxed atomics, so the processor's
//! per-event path takes no lock and allocates nothing.

use amlight_features::FeatureVector;
use amlight_net::flow::FnvHashMap;
use amlight_net::FlowKey;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stored model verdict for one flow update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionRecord {
    pub key: FlowKey,
    /// Aggregated (ensemble + smoothing) label; None while smoothing is
    /// still pending.
    pub label: Option<bool>,
    /// Publication epoch of the model bundle that voted on this update
    /// (see [`crate::epoch::EpochHandle`]) — which model said this, as a
    /// database column instead of deployment-log archaeology.
    pub epoch: u64,
    /// When the prediction was produced, virtual collector clock ns.
    pub predicted_ns: u64,
    /// predicted_ns − registered_ns.
    pub latency_ns: u64,
}

/// The counters are statistics that publish no other data, so they use
/// `Relaxed`; a reader that joined the writing threads sees final values.
#[derive(Debug, Default)]
struct DbInner {
    /// Flow creations recorded.
    created: AtomicU64,
    /// Flow updates recorded.
    updated: AtomicU64,
    /// Stored predictions, append-only.
    predictions: RwLock<Vec<PredictionRecord>>,
}

/// Shared handle to the database.
#[derive(Debug, Clone, Default)]
pub struct FlowDatabase {
    inner: Arc<DbInner>,
}

impl FlowDatabase {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count a freshly *created* flow entry. The arguments are not
    /// stored: the entry itself lives in the processor's flow table.
    pub fn record_created(&self, _key: FlowKey, _features: FeatureVector, _registered_ns: u64) {
        self.inner.created.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an *update* to an existing flow (arguments not stored, as
    /// for [`FlowDatabase::record_created`]). Returns the number of
    /// updates recorded before this one (a per-database update sequence).
    pub fn record_updated(
        &self,
        _key: FlowKey,
        _update_seq: u64,
        _features: FeatureVector,
        _registered_ns: u64,
    ) -> u64 {
        self.inner.updated.fetch_add(1, Ordering::Relaxed)
    }

    /// Store an aggregated prediction (§III-2, item 8).
    pub fn store_prediction(&self, rec: PredictionRecord) {
        self.inner.predictions.write().push(rec);
    }

    pub fn predictions(&self) -> Vec<PredictionRecord> {
        self.inner.predictions.read().clone()
    }

    /// Cursor-based incremental read of stored predictions: everything
    /// from index `since` on, plus the next cursor value. Stats pollers
    /// use this instead of [`FlowDatabase::predictions`], which clones
    /// the entire append-only history on every call.
    pub fn predictions_since(&self, since: usize) -> (Vec<PredictionRecord>, usize) {
        let g = self.inner.predictions.read();
        let start = since.min(g.len());
        (g[start..].to_vec(), g.len())
    }

    pub fn prediction_count(&self) -> usize {
        self.inner.predictions.read().len()
    }

    /// Per-flow verdict sequences, in each flow's own prediction order.
    ///
    /// Store order *across* flows is nondeterministic once processor
    /// shards aggregate concurrently, but each flow's predictions are
    /// produced by exactly one shard in arrival order — so this grouping
    /// is the shard-count-invariant view of a run (used by the
    /// shard-invariance tests and stats tooling).
    pub fn verdict_sequences(&self) -> FnvHashMap<FlowKey, Vec<Option<bool>>> {
        let g = self.inner.predictions.read();
        let mut out: FnvHashMap<FlowKey, Vec<Option<bool>>> = FnvHashMap::default();
        for p in g.iter() {
            out.entry(p.key).or_default().push(p.label);
        }
        out
    }

    /// Distinct model epochs that produced stored predictions, sorted.
    /// A hot-swapped run shows every epoch that actually voted — the
    /// observability half of the epoch publication protocol.
    pub fn epochs_used(&self) -> Vec<u64> {
        let g = self.inner.predictions.read();
        let mut epochs: Vec<u64> = g.iter().map(|p| p.epoch).collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }

    /// Per-flow rows this database holds: always 0, since per-flow state
    /// lives in the processors' flow tables (see
    /// [`crate::modules::Processor::flow_count`]).
    pub fn flow_count(&self) -> usize {
        0
    }

    /// Flow updates recorded so far.
    pub fn update_count(&self) -> usize {
        self.inner.updated.load(Ordering::Relaxed) as usize
    }

    /// Flow creations recorded so far.
    pub fn created_count(&self) -> u64 {
        self.inner.created.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_net::Protocol;
    use std::net::Ipv4Addr;

    fn key(p: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            p,
            80,
            Protocol::Tcp,
        )
    }

    fn feat() -> FeatureVector {
        FeatureVector::default()
    }

    #[test]
    fn created_entries_count_as_created_only() {
        let db = FlowDatabase::new();
        db.record_created(key(1), feat(), 100);
        assert_eq!(db.created_count(), 1);
        assert_eq!(db.update_count(), 0);
        assert_eq!(db.flow_count(), 0, "per-flow state lives in the flow table");
    }

    #[test]
    fn updates_are_counted_in_sequence() {
        let db = FlowDatabase::new();
        db.record_created(key(1), feat(), 100);
        assert_eq!(db.record_updated(key(1), 1, feat(), 200), 0);
        assert_eq!(db.record_updated(key(1), 2, feat(), 300), 1);
        assert_eq!(db.update_count(), 2);
        assert_eq!(db.created_count(), 1);
    }

    #[test]
    fn predictions_accumulate() {
        let db = FlowDatabase::new();
        db.store_prediction(PredictionRecord {
            key: key(1),
            label: Some(true),
            epoch: 0,
            predicted_ns: 900,
            latency_ns: 700,
        });
        db.store_prediction(PredictionRecord {
            key: key(1),
            label: None,
            epoch: 1,
            predicted_ns: 950,
            latency_ns: 750,
        });
        let preds = db.predictions();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].label, Some(true));
        assert_eq!(preds[1].label, None);
        assert_eq!(db.epochs_used(), vec![0, 1]);
    }

    #[test]
    fn predictions_since_is_exactly_once() {
        let db = FlowDatabase::new();
        for i in 0..5u64 {
            db.store_prediction(PredictionRecord {
                key: key(1),
                label: Some(i % 2 == 0),
                epoch: 0,
                predicted_ns: i * 100,
                latency_ns: i,
            });
        }
        let (first, cursor) = db.predictions_since(0);
        assert_eq!(first.len(), 5);
        assert_eq!(cursor, 5);
        // Nothing new: empty, cursor stable.
        let (empty, cursor2) = db.predictions_since(cursor);
        assert!(empty.is_empty());
        assert_eq!(cursor2, cursor);
        // New records appear exactly once; stale cursors past the end
        // are clamped.
        db.store_prediction(PredictionRecord {
            key: key(2),
            label: None,
            epoch: 0,
            predicted_ns: 900,
            latency_ns: 9,
        });
        let (more, cursor3) = db.predictions_since(cursor);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].key, key(2));
        assert_eq!(cursor3, 6);
        assert_eq!(db.prediction_count(), 6);
        assert!(db.predictions_since(100).0.is_empty());
    }

    #[test]
    fn verdict_sequences_group_per_flow_in_order() {
        let db = FlowDatabase::new();
        for (port, label) in [(1, Some(true)), (2, None), (1, Some(false)), (1, None)] {
            db.store_prediction(PredictionRecord {
                key: key(port),
                label,
                epoch: 0,
                predicted_ns: 0,
                latency_ns: 0,
            });
        }
        let seqs = db.verdict_sequences();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[&key(1)], vec![Some(true), Some(false), None]);
        assert_eq!(seqs[&key(2)], vec![None]);
    }

    #[test]
    fn shared_handles_see_same_state() {
        let db = FlowDatabase::new();
        let db2 = db.clone();
        db.record_created(key(3), feat(), 1);
        db.record_updated(key(3), 1, feat(), 2);
        assert_eq!(db2.created_count(), 1);
        assert_eq!(db2.update_count(), 1);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let db = FlowDatabase::new();
        db.record_created(key(0), feat(), 0);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    (0..250u64)
                        .map(|i| db.record_updated(key(0), t * 1000 + i, feat(), i))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut seqs: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        assert_eq!(db.update_count(), 1000);
        // Every update got its own sequence number.
        seqs.sort_unstable();
        assert_eq!(seqs, (0..1000).collect::<Vec<u64>>());
    }
}
