//! From raw phase outputs to metrics: matching stored verdicts back to
//! their sends, detection quality, event conservation and verdict
//! parity between the live path and the single-thread runs.

use amlight_core::PredictionRecord;
use amlight_net::flow::FnvHashMap;
use amlight_net::{FlowKey, TrafficClass};

use crate::live::{PacedRun, SaturateRun};
use crate::single::{verdict_code, V_ATTACK, V_CREATED, V_PENDING, V_UNSEEN};
use crate::sys::{median, quantile};
use crate::workload::{Inputs, REPORTS_PER_DATAGRAM};

/// Verdicts of the paced phase, matched to the events that caused them.
#[derive(Debug, Default)]
pub struct Matched {
    /// Verdict latencies (due time → record stored), µs, sorted.
    pub latency_us: Vec<f64>,
    /// The same samples as (due time ns, latency µs), in send order.
    pub samples: Vec<(u64, f64)>,
    /// Flows that reached a final state for every event, with exactly
    /// one creation (the only flows whose records map to events by
    /// per-flow ordinal).
    pub complete_flows: u64,
    pub records_unmatched: u64,
    pub update_recall: Option<f64>,
    pub flow_recall: Option<f64>,
    pub benign_flow_fpr: Option<f64>,
    pub detect_delay_ms: Option<f64>,
    pub aggregate_windows: u64,
    /// Per flow: the paced verdict codes, when the flow is complete.
    per_flow: Vec<Option<Vec<u8>>>,
}

pub fn match_paced(inputs: &Inputs, run: &PacedRun) -> Matched {
    let index: FnvHashMap<FlowKey, u32> = inputs
        .flow_keys
        .iter()
        .enumerate()
        .map(|(i, k)| (*k, i as u32))
        .collect();
    let mut by_flow: Vec<Vec<&PredictionRecord>> = vec![Vec::new(); inputs.flows()];
    let mut m = Matched::default();
    for rec in &run.records {
        match index.get(&rec.key) {
            Some(&f) => by_flow[f as usize].push(rec),
            None => m.records_unmatched += 1,
        }
    }

    let mut attack_flows = 0u64;
    let mut attack_updates = 0u64;
    let mut attack_updates_flagged = 0u64;
    let mut attack_flagged = 0u64;
    let mut benign_flows = 0u64;
    let mut benign_flagged = 0u64;
    let mut first_alarm_ns: Vec<Option<u64>> = vec![None; inputs.episodes.len()];
    m.per_flow = vec![None; inputs.flows()];
    for (f, recs) in by_flow.iter().enumerate() {
        let events = inputs.events_of(f);
        let first = events[0] as usize;
        let attack = inputs.truth[first] != TrafficClass::Benign;
        let flagged = recs.iter().filter(|r| r.label == Some(true)).count() as u64;
        if !recs.is_empty() {
            m.aggregate_windows += 1;
        }
        if attack {
            attack_flows += 1;
            attack_updates += events.len() as u64 - 1;
            attack_updates_flagged += flagged;
            attack_flagged += u64::from(flagged > 0);
            if let Some(ep) = inputs.episode_of[first] {
                for r in recs.iter().filter(|r| r.label == Some(true)) {
                    let t = r.predicted_ns.saturating_sub(run.due_offset_ns);
                    let slot = &mut first_alarm_ns[ep as usize];
                    *slot = Some(slot.map_or(t, |s| s.min(t)));
                }
            }
        } else {
            benign_flows += 1;
            benign_flagged += u64::from(flagged > 0);
        }
        if recs.len() + 1 == events.len() {
            m.complete_flows += 1;
            for (r, &ev) in recs.iter().zip(&events[1..]) {
                let due = inputs.due_ns[ev as usize];
                let lat = r.predicted_ns.saturating_sub(run.due_offset_ns + due);
                m.samples.push((due, lat as f64 / 1e3));
            }
            let mut codes = Vec::with_capacity(events.len());
            codes.push(V_CREATED);
            codes.extend(recs.iter().map(|r| verdict_code(r.label)));
            m.per_flow[f] = Some(codes);
        }
    }
    m.latency_us = m.samples.iter().map(|s| s.1).collect();
    m.latency_us.sort_by(f64::total_cmp);
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    m.update_recall = ratio(attack_updates_flagged, attack_updates);
    m.flow_recall = ratio(attack_flagged, attack_flows);
    m.benign_flow_fpr = ratio(benign_flagged, benign_flows);
    if !inputs.episodes.is_empty() {
        let phase_ns = run.send_wall.as_nanos() as u64;
        let delays: Vec<f64> = inputs
            .episodes
            .iter()
            .zip(&first_alarm_ns)
            .map(|(ep, alarm)| {
                let d = alarm.map_or(phase_ns, |t| t.saturating_sub(ep.first_due_ns));
                d as f64 / 1e6
            })
            .collect();
        m.detect_delay_ms = Some(median(&delays));
    }
    m
}

/// Width of the windows for [`Matched::windowed_q`].
pub const WINDOW_NS: u64 = 500_000_000;

/// Windows with fewer samples than this are left out of the median.
const WINDOW_MIN_SAMPLES: usize = 100;

impl Matched {
    pub fn latency_q(&self, q: f64) -> f64 {
        quantile(&self.latency_us, q)
    }

    /// The `q`-quantile of each [`WINDOW_NS`] window of due time, and
    /// their median: one bad second moves one window, not the figure.
    pub fn windowed_q(&self, q: f64) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for &(due, lat) in &self.samples {
            let w = (due / WINDOW_NS) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(lat);
        }
        let per_window: Vec<f64> = windows
            .iter_mut()
            .filter(|w| w.len() >= WINDOW_MIN_SAMPLES)
            .map(|w| {
                w.sort_by(f64::total_cmp);
                quantile(w, q)
            })
            .collect();
        median(&per_window)
    }
}

/// Per-flow verdict parity between the paced phase and a single-thread
/// run, over flows complete in both.
#[derive(Debug, Default)]
pub struct Parity {
    pub compared: u64,
    pub mismatched: u64,
    /// Events of the mismatching flows.
    pub mismatched_events: u64,
}

pub fn parity(inputs: &Inputs, paced: &Matched, single_codes: &[u8]) -> Parity {
    let mut p = Parity::default();
    for (f, codes) in paced.per_flow.iter().enumerate() {
        let Some(codes) = codes else { continue };
        let events = inputs.events_of(f);
        let single: Vec<u8> = events.iter().map(|&e| single_codes[e as usize]).collect();
        let complete = single[0] == V_CREATED && single[1..].iter().all(|&c| c >= V_PENDING);
        if !complete {
            continue;
        }
        p.compared += 1;
        if single != *codes {
            p.mismatched += 1;
            p.mismatched_events += events.len() as u64;
        }
    }
    p
}

/// Events whose outcome differs between two single-thread runs, over
/// the events both processed.
pub fn code_mismatches(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| **x != V_UNSEEN && **y != V_UNSEEN && x != y)
        .count() as u64
}

/// Attack verdicts among a single-thread run's outcomes (for the log).
pub fn attacks(codes: &[u8]) -> u64 {
    codes.iter().filter(|&&c| c == V_ATTACK).count() as u64
}

/// Most events one listener batch can hold: the default `ListenerConfig`
/// closes a batch at the first datagram that brings it to 256 events.
const BATCH_EVENTS_MAX: u64 = 256 + REPORTS_PER_DATAGRAM as u64 - 1;

/// The whole-path conservation equations of one paced run. Returns the
/// violations found (empty when every event is accounted for).
pub fn paced_conservation(offered: u64, run: &PacedRun) -> Vec<String> {
    let mut bad = Vec::new();
    let kernel_lost = offered.saturating_sub(run.decoded);
    if run.decoded > run.gen.events_sent || offered != kernel_lost + run.decoded {
        bad.push(format!(
            "offered {offered} != kernel-lost {kernel_lost} + decoded {}",
            run.decoded
        ));
    }
    if run.decode_errors > 0 {
        bad.push(format!("{} decode/recv errors", run.decode_errors));
    }
    // Every datagram that did not arrive must show in the kernel's own
    // drop counter.
    let missing = run
        .gen
        .datagrams_sent
        .saturating_sub(run.datagrams_received);
    if let Some(counted) = run.kernel_drops_counted {
        if missing > counted {
            bad.push(format!(
                "{missing} datagrams missing, kernel counted {counted} drops"
            ));
        }
    }
    // The source pops whole batches and hands them on event by event:
    // when the phase ends it may still hold the rest of one batch.
    let popped = run.published.saturating_sub(run.mailbox_shed + run.pending);
    let source_held = popped.saturating_sub(run.consumed);
    if run.decoded != run.published
        || popped < run.consumed
        || source_held > BATCH_EVENTS_MAX
        || run.decoded != run.consumed + run.mailbox_shed + run.pending + source_held
    {
        bad.push(format!(
            "decoded {} (published {}) != consumed {} + mailbox-shed {} + pending {} + held by source {}",
            run.decoded, run.published, run.consumed, run.mailbox_shed, run.pending, source_held
        ));
    }
    let finals = run.created + run.predictions + run.triage_dropped + run.defer_shed;
    if run.consumed != finals || run.consumed != run.events_in {
        bad.push(format!(
            "consumed {} (pipeline in {}) != created {} + predictions {} + dropped {} + shed {}",
            run.consumed,
            run.events_in,
            run.created,
            run.predictions,
            run.triage_dropped,
            run.defer_shed
        ));
    }
    if run.records.len() as u64 != run.predictions {
        bad.push(format!(
            "{} stored records != {} predictions",
            run.records.len(),
            run.predictions
        ));
    }
    bad
}

pub fn saturate_conservation(run: &SaturateRun) -> Vec<String> {
    let mut bad = Vec::new();
    if run.events_offered != run.consumed || run.consumed != run.events_in {
        bad.push(format!(
            "saturate: offered {} != consumed {} != pipeline in {}",
            run.events_offered, run.consumed, run.events_in
        ));
    }
    let finals = run.created + run.predictions + run.triage_dropped + run.defer_shed;
    if run.events_in != finals {
        bad.push(format!(
            "saturate: in {} != created {} + predictions {} + dropped {} + shed {}",
            run.events_in, run.created, run.predictions, run.triage_dropped, run.defer_shed
        ));
    }
    bad
}
