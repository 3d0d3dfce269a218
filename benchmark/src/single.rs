//! The single-thread runs: the same inputs through the stage
//! functions in the order `Processor::ingest` and the threaded runtime
//! apply them, with no threads and no sockets.
//!
//! * [`run_untraced`] drives the program's own stage structs
//!   (`Processor`, `Predictor`, `Aggregator`) and is the untraced
//!   single-thread cost per event.
//! * [`run_traced`] drives the layers those structs are built from
//!   (`FlowTable`, `FlowDatabase`, `TriageStage`, the bundle's scaler
//!   and members) with a span around each call, so each layer's self
//!   time can be charged to it. It must reach the same verdicts as the
//!   untraced run, event for event.

use std::time::{Duration, Instant};

use amlight_core::{
    Aggregator, Clock, FlowDatabase, Ingest, ModelBundle, Predictor, Processor, Telemetry,
    TelemetryBackend, Verdict, WallClock,
};
use amlight_features::{
    FeatureId, FlowTable, FlowTableConfig, PrefilterMode, TriageConfig, TriageStage, UpdateKind,
};
use amlight_int::{IntCollector, TelemetryReport};
use amlight_ml::BinaryClassifier;
use amlight_net::FlowKey;

use crate::trace::{Layer, Tracer};
use crate::workload::Inputs;

/// Rows per prediction call: the runtime's micro-batch size.
pub const BATCH_ROWS: usize = 256;

/// The smoothing window of the system under test.
pub const SMOOTHING: usize = 3;

/// Per-event outcome codes, shared by every run.
pub const V_UNSEEN: u8 = 0;
pub const V_CREATED: u8 = 1;
pub const V_PENDING: u8 = 2;
pub const V_NORMAL: u8 = 3;
pub const V_ATTACK: u8 = 4;

pub fn verdict_code(v: Option<bool>) -> u8 {
    match v {
        None => V_PENDING,
        Some(false) => V_NORMAL,
        Some(true) => V_ATTACK,
    }
}

fn code(v: Verdict) -> u8 {
    verdict_code(v.label())
}

/// What a single-thread run did.
#[derive(Debug, Default)]
pub struct SingleRun {
    /// Datagrams (a prefix of the inputs) driven through.
    pub datagrams: usize,
    pub events: u64,
    pub wall: Duration,
    /// Per event: its outcome code.
    pub codes: Vec<u8>,
    pub judged: u64,
    pub decode_errors: u64,
    pub live_flows_max: u64,
    pub evicted: u64,
}

/// The program's stage structs, one thread, over the closed-loop prefix
/// of the inputs (or until `deadline` passes, checked per datagram).
pub fn run_untraced(inputs: &Inputs, bundle: &ModelBundle, deadline: Duration) -> SingleRun {
    let set = TelemetryBackend::Int.feature_set();
    let clock = WallClock::new();
    let db = FlowDatabase::new();
    let mut processor = Processor::new(FlowTableConfig::default(), db.clone(), clock, set)
        .with_prefilter(PrefilterMode::Shadow, TriageConfig::default());
    let mut predictor = Predictor::new(bundle.clone());
    let mut agg = Aggregator::new(db.clone(), SMOOTHING);
    let mut out = SingleRun {
        codes: vec![V_UNSEEN; inputs.events()],
        ..SingleRun::default()
    };
    let mut reports: Vec<TelemetryReport> = Vec::with_capacity(64);
    let mut rows: Vec<f64> = Vec::with_capacity(BATCH_ROWS * set.dim());
    let mut items: Vec<(FlowKey, u64, u32)> = Vec::with_capacity(BATCH_ROWS);
    let mut decisions: Vec<bool> = Vec::with_capacity(BATCH_ROWS);

    let start = Instant::now();
    for dg in &inputs.datagrams[..inputs.closed_loop_datagrams] {
        if start.elapsed() > deadline {
            break;
        }
        reports.clear();
        let outcome = IntCollector::decode_datagram_into(&dg.bytes, &mut reports);
        out.decode_errors += u64::from(outcome.decode_errors);
        for (j, r) in reports.iter().enumerate() {
            let ev = dg.first + j as u32;
            match processor.ingest(r, &mut rows) {
                Ingest::Created { .. } => out.codes[ev as usize] = V_CREATED,
                Ingest::Judged(judged) => items.push((judged.key, judged.registered_ns, ev)),
                // Shadow mode never drops; a drop would surface as a
                // parity mismatch against the traced run.
                Ingest::Dropped { .. } => {}
            }
            if items.len() == BATCH_ROWS {
                let epoch = predictor.predict(&rows, &mut decisions);
                for (&(key, registered_ns, ev), &attack) in items.iter().zip(&decisions) {
                    let v = agg.aggregate(key, attack, registered_ns, clock.now_ns(), epoch);
                    out.codes[ev as usize] = code(v);
                }
                rows.clear();
                items.clear();
            }
        }
        out.datagrams += 1;
        out.events += u64::from(dg.len);
    }
    if !items.is_empty() {
        let epoch = predictor.predict(&rows, &mut decisions);
        for (&(key, registered_ns, ev), &attack) in items.iter().zip(&decisions) {
            let v = agg.aggregate(key, attack, registered_ns, clock.now_ns(), epoch);
            out.codes[ev as usize] = code(v);
        }
    }
    out.wall = start.elapsed();
    out.judged = processor.lane_counts().forwarded;
    out
}

/// Scratch for the traced ensemble pass (the columns `votes_batch`
/// keeps in its `VoteScratch`).
#[derive(Default)]
struct VoteBufs {
    scaled: Vec<f64>,
    proba: Vec<f64>,
    counts: Vec<u8>,
    decisions: Vec<bool>,
}

/// The layers behind the stage structs, one thread, spanned, over the
/// first `datagrams` datagrams of the inputs.
pub fn run_traced(
    inputs: &Inputs,
    bundle: &ModelBundle,
    datagrams: usize,
    tracer: &mut Tracer,
) -> SingleRun {
    let set = bundle.feature_set;
    let dim = set.dim();
    let clock = WallClock::new();
    let db = FlowDatabase::new();
    let mut table = FlowTable::new(FlowTableConfig::default());
    let mut triage = TriageStage::new(TriageConfig::default());
    let mut agg = Aggregator::new(db.clone(), SMOOTHING);
    let mut out = SingleRun {
        codes: vec![V_UNSEEN; inputs.events()],
        ..SingleRun::default()
    };
    let mut reports: Vec<TelemetryReport> = Vec::with_capacity(64);
    let mut rows: Vec<f64> = Vec::with_capacity(BATCH_ROWS * dim);
    let mut items: Vec<(FlowKey, u64, u32)> = Vec::with_capacity(BATCH_ROWS);
    let mut bufs = VoteBufs::default();

    let start = Instant::now();
    for dg in &inputs.datagrams[..datagrams] {
        tracer.enter(Layer::Decode, dg.first);
        reports.clear();
        let outcome = IntCollector::decode_datagram_into(&dg.bytes, &mut reports);
        tracer.exit(Layer::Decode);
        out.decode_errors += u64::from(outcome.decode_errors);
        for (j, r) in reports.iter().enumerate() {
            let ev = dg.first + j as u32;
            tracer.enter(Layer::Ingest, ev);
            let key = r.flow();
            let registered_ns = clock.register_ns(r.event_ns());
            let update = r.flow_update();
            tracer.enter(Layer::ApplyCreated, ev);
            let (kind, rec) = table.apply(&update);
            let mut features = rec.features();
            match kind {
                UpdateKind::Created => {
                    tracer.exit(Layer::ApplyCreated);
                    tracer.enter(Layer::Triage, ev);
                    let _ = triage.assess(&update, rec);
                    tracer.exit(Layer::Triage);
                    tracer.enter(Layer::DbWrite, ev);
                    db.record_created(key, features, registered_ns);
                    tracer.exit(Layer::DbWrite);
                    out.codes[ev as usize] = V_CREATED;
                }
                UpdateKind::Updated => {
                    tracer.exit(Layer::ApplyUpdated);
                    tracer.enter(Layer::DbWrite, ev);
                    db.record_updated(key, rec.update_seq, features, registered_ns);
                    tracer.exit(Layer::DbWrite);
                    tracer.enter(Layer::Triage, ev);
                    let decision = triage.assess(&update, rec);
                    tracer.exit(Layer::Triage);
                    if set.contains(FeatureId::SketchScore) {
                        features.set(FeatureId::SketchScore, decision.score);
                    }
                    features.project_into(set, &mut rows);
                    items.push((key, registered_ns, ev));
                    out.judged += 1;
                }
            }
            tracer.exit(Layer::Ingest);
            if items.len() == BATCH_ROWS {
                traced_flush(
                    bundle, &clock, &mut agg, &mut rows, &mut items, &mut bufs, tracer, &mut out,
                );
            }
        }
        out.live_flows_max = out.live_flows_max.max(table.len() as u64);
        out.datagrams += 1;
        out.events += u64::from(dg.len);
    }
    if !items.is_empty() {
        traced_flush(
            bundle, &clock, &mut agg, &mut rows, &mut items, &mut bufs, tracer, &mut out,
        );
    }
    out.wall = start.elapsed();
    out.evicted = table.evicted();
    out
}

/// One micro-batch through the scaler and the three members (the
/// columnar 2-of-3 vote of `ModelBundle::votes_batch`), then the
/// aggregator, one span per member.
#[allow(clippy::too_many_arguments)]
fn traced_flush(
    bundle: &ModelBundle,
    clock: &WallClock,
    agg: &mut Aggregator,
    rows: &mut Vec<f64>,
    items: &mut Vec<(FlowKey, u64, u32)>,
    bufs: &mut VoteBufs,
    tracer: &mut Tracer,
    out: &mut SingleRun,
) {
    let dim = bundle.feature_set.dim();
    let n = items.len();
    tracer.enter(Layer::Predict, items[0].2);
    tracer.enter(Layer::Scale, items[0].2);
    bufs.scaled.clear();
    bufs.scaled.resize(rows.len(), 0.0);
    bundle.scaler.transform_into(rows, &mut bufs.scaled);
    tracer.exit(Layer::Scale);
    bufs.proba.clear();
    bufs.proba.resize(n, 0.0);
    bufs.counts.clear();
    bufs.counts.resize(n, 0);
    let members: [(Layer, &dyn BinaryClassifier); 3] = [
        (Layer::Mlp, &bundle.mlp),
        (Layer::Forest, &bundle.forest),
        (Layer::Gnb, &bundle.gnb),
    ];
    for (layer, member) in members {
        tracer.enter(layer, items[0].2);
        member.predict_proba_batch(&bufs.scaled, dim, &mut bufs.proba);
        tracer.exit(layer);
        for (c, &p) in bufs.counts.iter_mut().zip(&bufs.proba) {
            *c += u8::from(amlight_ml::decide(p));
        }
    }
    bufs.decisions.clear();
    bufs.decisions.extend(bufs.counts.iter().map(|&c| c >= 2));
    tracer.exit(Layer::Predict);
    let epoch = bundle.meta.epoch;
    for (&(key, registered_ns, ev), &attack) in items.iter().zip(&bufs.decisions) {
        tracer.enter(Layer::Aggregate, ev);
        let v = agg.aggregate(key, attack, registered_ns, clock.now_ns(), epoch);
        tracer.exit(Layer::Aggregate);
        out.codes[ev as usize] = code(v);
    }
    rows.clear();
    items.clear();
}
