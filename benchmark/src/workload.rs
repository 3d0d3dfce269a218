//! Seeded workload inputs: labeled INT reports, their due times on the
//! offered-load schedule, and the pre-encoded UDP datagrams that carry
//! them.
//!
//! Every workload is built from `--seed` alone, so the same seed gives
//! byte-identical datagrams. The program under test only ever sees the
//! datagram bytes; flow keys, ground truth and due times stay on the
//! benchmark side for matching verdicts back to sends.

use amlight_core::{Testbed, TestbedConfig};
use amlight_features::FlowTableConfig;
use amlight_int::{IntCollector, TelemetryReport};
use amlight_net::flow::FnvHashMap;
use amlight_net::{FlowKey, Trace, TrafficClass};
use amlight_traffic::{
    AttackConfig, AttackKind, BenignConfig, BenignGenerator, EpisodeSchedule, SynFloodConfig,
    TrafficMix, TrafficMixConfig,
};

const NS: u64 = 1_000_000_000;

/// Reports packed into one UDP datagram (whole reports only, as the
/// `IntUdp` framing requires).
pub const REPORTS_PER_DATAGRAM: usize = 8;

/// The generator's pacing tick: datagrams are grouped by the tick their
/// events fall due in, and the generator wakes once per tick.
pub const TICK_NS: u64 = 1_000_000;

/// `table1_replay` time compression: the capture's floods (50k pps on
/// the capture clock) arrive at about 100k events/s.
pub const TABLE1_SPEEDUP: u64 = 2;

/// `web_steady` offered rate, events/s.
pub const WEB_RATE_EPS: u64 = 100_000;

/// `web_steady` new-flow rate on the capture clock (100x the default
/// benign background).
pub const WEB_FLOWS_PER_S: f64 = 4_000.0;

/// `spoofed_flood` offered rate, events/s.
pub const FLOOD_RATE_EPS: u64 = 150_000;

/// `spoofed_flood` benign background new-flow rate on the capture clock.
pub const FLOOD_BACKGROUND_FLOWS_PER_S: f64 = 400.0;

/// Flow creations past the flow table's `max_flows` cap that the
/// closed-loop phases include. Past the cap every creation scans the
/// whole table, so the closed loops stop a fixed number of creations
/// in: enough to show the cost, a fixed amount of work each run.
pub const POST_CAP_CREATIONS: usize = 50;

/// The three workloads, all offered to the same system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Replay,
    WebSteady,
    SpoofedFlood,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1Replay,
        Workload::WebSteady,
        Workload::SpoofedFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Replay => "table1_replay",
            Workload::WebSteady => "web_steady",
            Workload::SpoofedFlood => "spoofed_flood",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One pre-encoded datagram and the events it carries.
#[derive(Debug, Clone)]
pub struct Datagram {
    pub bytes: Vec<u8>,
    /// Index of the first event it carries; events are contiguous.
    pub first: u32,
    pub len: u32,
    /// When it is due, ns after the phase start.
    pub due_ns: u64,
}

/// An attack episode, for the detection-delay metric.
#[derive(Debug, Clone)]
pub struct EpisodeInfo {
    /// Due time of the episode's first event, ns after the phase start.
    pub first_due_ns: u64,
}

/// Everything a run needs about one workload's inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Workload parameters, stamped into every result.
    pub params: Vec<(&'static str, String)>,
    pub datagrams: Vec<Datagram>,
    /// Per event: its ground-truth class.
    pub truth: Vec<TrafficClass>,
    /// Per event: the due time of the datagram that carries it.
    pub due_ns: Vec<u64>,
    /// Per event: the attack episode it belongs to, if any.
    pub episode_of: Vec<Option<u16>>,
    pub flow_keys: Vec<FlowKey>,
    /// Per flow: its event indices in offered order (CSR layout).
    pub flow_events_off: Vec<u32>,
    pub flow_events: Vec<u32>,
    pub episodes: Vec<EpisodeInfo>,
    /// Due time of the last datagram, ns.
    pub span_ns: u64,
    /// Datagrams the closed-loop phases (saturate, single thread) drive:
    /// all of them, or up to the [`POST_CAP_CREATIONS`]-th creation past
    /// the flow-table cap.
    pub closed_loop_datagrams: usize,
}

impl Inputs {
    pub fn events(&self) -> usize {
        self.truth.len()
    }

    pub fn flows(&self) -> usize {
        self.flow_keys.len()
    }

    /// Event indices of flow `f`, in offered order.
    pub fn events_of(&self, f: usize) -> &[u32] {
        let lo = self.flow_events_off[f] as usize;
        let hi = self.flow_events_off[f + 1] as usize;
        &self.flow_events[lo..hi]
    }
}

/// Run a packet trace through the one-switch testbed and return its INT
/// reports with ground truth, in export order.
fn telemetry(trace: &Trace) -> Vec<(TelemetryReport, TrafficClass)> {
    let lab = Testbed::new(TestbedConfig::default());
    let mut reports = lab.run_labeled(trace);
    reports.sort_by_key(|(r, _)| r.export_ns);
    reports
}

/// The Table I capture of `day_len_s`-second days: the training set and
/// the `table1_replay` traffic, with different seeds.
pub fn table1_capture(day_len_s: u64, seed: u64) -> Vec<(TelemetryReport, TrafficClass)> {
    let mix = TrafficMix::new(TrafficMixConfig::paper_capture(day_len_s, seed));
    telemetry(&mix.generate())
}

/// Build one workload's inputs for a paced phase of about `seconds`.
pub fn build(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let mut params: Vec<(&'static str, String)> = vec![("seed", seed.to_string())];
    let (reports, due, schedule) = match workload {
        Workload::Table1Replay => {
            // Two capture days replayed at TABLE1_SPEEDUP fill the phase.
            let day_len_s = (seconds * TABLE1_SPEEDUP).div_ceil(2).max(1);
            let mut reports = table1_capture(day_len_s, seed);
            // Long benign flows trickle on past the two capture days;
            // the replay ends with the capture window.
            let schedule = EpisodeSchedule::table1(day_len_s);
            reports.retain(|(r, _)| r.export_ns < schedule.window_ns);
            let t0 = reports.first().map_or(0, |(r, _)| r.export_ns);
            let due: Vec<u64> = reports
                .iter()
                .map(|(r, _)| (r.export_ns - t0) / TABLE1_SPEEDUP)
                .collect();
            params.push(("day_len_s", day_len_s.to_string()));
            params.push(("speedup", TABLE1_SPEEDUP.to_string()));
            (reports, due, Some(schedule))
        }
        Workload::WebSteady => {
            let n = (WEB_RATE_EPS * seconds) as usize;
            let cfg = BenignConfig {
                flows_per_s: WEB_FLOWS_PER_S,
                ..BenignConfig::default()
            };
            // About 11 events per flow; generate a margin and cut.
            let window_s = (n as f64 / (WEB_FLOWS_PER_S * 8.0)).ceil() as u64 + 1;
            let trace = BenignGenerator::new(cfg, seed).generate(window_s * NS);
            let mut reports = telemetry(&trace);
            reports.truncate(n);
            params.push(("rate_eps", WEB_RATE_EPS.to_string()));
            params.push(("flows_per_s", WEB_FLOWS_PER_S.to_string()));
            (reports, constant_rate(n, WEB_RATE_EPS), None)
        }
        Workload::SpoofedFlood => {
            let n = (FLOOD_RATE_EPS * seconds) as usize;
            let flood = SynFloodConfig {
                socket_pool: None,
                spoof_sources: true,
                ..SynFloodConfig::default()
            };
            let attacks = AttackConfig {
                syn_flood: flood,
                ..AttackConfig::default()
            };
            let window_ns = (n as f64 / flood.rate_pps * NS as f64) as u64 + NS;
            let background = BenignConfig {
                flows_per_s: FLOOD_BACKGROUND_FLOWS_PER_S,
                ..BenignConfig::default()
            };
            let mut trace = BenignGenerator::new(background, seed).generate(window_ns);
            trace.merge(attacks.generate(AttackKind::SynFlood, 0, window_ns, seed ^ 0x5f10));
            trace.sort();
            let mut reports = telemetry(&trace);
            reports.truncate(n);
            params.push(("rate_eps", FLOOD_RATE_EPS.to_string()));
            params.push(("flood_pps_capture_clock", flood.rate_pps.to_string()));
            params.push((
                "background_flows_per_s",
                FLOOD_BACKGROUND_FLOWS_PER_S.to_string(),
            ));
            let schedule = EpisodeSchedule {
                episodes: vec![amlight_traffic::Episode {
                    kind: AttackKind::SynFlood,
                    start_ns: 0,
                    end_ns: window_ns,
                    day: 0,
                }],
                window_ns,
                days: 1,
            };
            (reports, constant_rate(n, FLOOD_RATE_EPS), Some(schedule))
        }
    };
    params.push(("reports_per_datagram", REPORTS_PER_DATAGRAM.to_string()));
    params.push(("events", reports.len().to_string()));
    assemble(params, reports, due, schedule)
}

/// Due times for `n` events offered at a constant `rate` per second.
fn constant_rate(n: usize, rate: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i * NS / rate).collect()
}

fn assemble(
    params: Vec<(&'static str, String)>,
    reports: Vec<(TelemetryReport, TrafficClass)>,
    event_due: Vec<u64>,
    schedule: Option<EpisodeSchedule>,
) -> Inputs {
    let n = reports.len();
    // Pack consecutive events of one tick into datagrams; a datagram is
    // due when its last event is.
    let mut datagrams = Vec::with_capacity(n / REPORTS_PER_DATAGRAM + 1);
    let mut due_ns = vec![0u64; n];
    let mut i = 0usize;
    while i < n {
        let tick = event_due[i] / TICK_NS;
        let mut j = i + 1;
        while j < n && j - i < REPORTS_PER_DATAGRAM && event_due[j] / TICK_NS == tick {
            j += 1;
        }
        let batch: Vec<TelemetryReport> = reports[i..j].iter().map(|(r, _)| r.clone()).collect();
        let due = event_due[j - 1];
        due_ns[i..j].fill(due);
        datagrams.push(Datagram {
            bytes: IntCollector::encode_stream(&batch).to_vec(),
            first: i as u32,
            len: (j - i) as u32,
            due_ns: due,
        });
        i = j;
    }

    let mut index: FnvHashMap<FlowKey, u32> = FnvHashMap::default();
    let mut flow_keys = Vec::new();
    let mut flow_of = Vec::with_capacity(n);
    let mut counts: Vec<u32> = Vec::new();
    for (r, _) in &reports {
        let f = *index.entry(r.flow).or_insert_with(|| {
            flow_keys.push(r.flow);
            counts.push(0);
            (flow_keys.len() - 1) as u32
        });
        counts[f as usize] += 1;
        flow_of.push(f);
    }
    let mut flow_events_off = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    flow_events_off.push(0);
    for c in &counts {
        acc += c;
        flow_events_off.push(acc);
    }
    let mut fill = flow_events_off.clone();
    let mut flow_events = vec![0u32; n];
    for (e, &f) in flow_of.iter().enumerate() {
        flow_events[fill[f as usize] as usize] = e as u32;
        fill[f as usize] += 1;
    }

    // Attack events fall inside their scheduled episode; the episode's
    // first due event starts its detection clock.
    let mut episodes: Vec<EpisodeInfo> = Vec::new();
    let mut episode_of = vec![None; n];
    if let Some(schedule) = &schedule {
        let mut first_due = vec![None::<u64>; schedule.episodes.len()];
        for (e, (r, class)) in reports.iter().enumerate() {
            if *class == TrafficClass::Benign {
                continue;
            }
            let ep = schedule
                .episodes
                .iter()
                .position(|ep| ep.kind.class() == *class && ep.contains(r.export_ns));
            if let Some(k) = ep {
                episode_of[e] = Some(k as u16);
                first_due[k].get_or_insert(due_ns[e]);
            }
        }
        // Keep only episodes that offered events; renumber densely.
        let mut remap = vec![None; schedule.episodes.len()];
        for (k, first) in first_due.iter().enumerate() {
            if let Some(first) = *first {
                remap[k] = Some(episodes.len() as u16);
                episodes.push(EpisodeInfo {
                    first_due_ns: first,
                });
            }
        }
        for ep in episode_of.iter_mut() {
            *ep = ep.and_then(|k| remap[k as usize]);
        }
    }

    // Flows are numbered in order of first appearance, so flow
    // `max_flows + k` is the k-th creation past the cap.
    let cap = FlowTableConfig::default().max_flows + POST_CAP_CREATIONS - 1;
    let closed_loop_datagrams = match flow_events_off.get(cap) {
        Some(&off) if cap < flow_keys.len() => {
            let event = flow_events[off as usize];
            datagrams.partition_point(|d| d.first <= event)
        }
        _ => datagrams.len(),
    };
    let truth = reports.iter().map(|(_, c)| *c).collect();
    let span_ns = datagrams.last().map_or(0, |d| d.due_ns);
    Inputs {
        params,
        datagrams,
        truth,
        due_ns,
        episode_of,
        flow_keys,
        flow_events_off,
        flow_events,
        episodes,
        span_ns,
        closed_loop_datagrams,
    }
}
