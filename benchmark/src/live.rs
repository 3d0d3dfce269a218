//! The two phases that run the threaded daemon path.
//!
//! * **paced** — open loop over real UDP: one generator thread, one
//!   socket, `sleep`-paced 1 ms ticks, every datagram timed from when it
//!   was due. `IngestServer` → `SocketSource` → `ThreadedPipeline` →
//!   stored verdicts.
//! * **saturate** — closed loop in-process: `CollectorSource` pulls the
//!   same datagrams as byte chunks as fast as the pipeline takes them.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amlight_core::{
    CollectorSource, EventSource, ModelBundle, PredictionRecord, SourcePoll, ThreadedPipeline,
};
use amlight_features::PrefilterMode;
use amlight_ingest::{IngestServer, ListenerConfig, WireProtocol};

use crate::single::SMOOTHING;
use crate::sys;
use crate::workload::{Inputs, TICK_NS};

/// The system under test, identical for every workload: one shard,
/// smoothing window 3, triage in shadow mode, default flow table.
pub fn pipeline(bundle: ModelBundle) -> ThreadedPipeline {
    ThreadedPipeline::new(bundle)
        .with_shards(1)
        .with_smoothing_window(SMOOTHING)
        .with_prefilter(PrefilterMode::Shadow)
}

/// One UDP listener speaking `IntUdp`, default listener settings.
pub fn bind_server() -> std::io::Result<IngestServer> {
    let addr = "127.0.0.1:0".parse().expect("literal address");
    IngestServer::bind(ListenerConfig::new(addr, WireProtocol::IntUdp).listeners(1))
}

/// Counts every event the pipeline pulls from the wrapped source.
pub struct Counted<S> {
    inner: S,
    consumed: Arc<AtomicU64>,
}

impl<S> Counted<S> {
    pub fn new(inner: S) -> (Self, Arc<AtomicU64>) {
        let consumed = Arc::new(AtomicU64::new(0));
        (
            Self {
                inner,
                consumed: Arc::clone(&consumed),
            },
            consumed,
        )
    }
}

impl<S: EventSource> EventSource for Counted<S> {
    fn poll_event(&mut self) -> SourcePoll {
        let poll = self.inner.poll_event();
        if matches!(poll, SourcePoll::Event(_)) {
            self.consumed.fetch_add(1, Ordering::Relaxed);
        }
        poll
    }
}

/// After the last send, how long the pipeline gets to finish before
/// whatever is still unprocessed counts as lost.
pub const GRACE: Duration = Duration::from_millis(500);

/// Lead-in between starting the generator and the first due time.
const LEAD_IN: Duration = Duration::from_millis(50);

#[derive(Debug, Default)]
pub struct GeneratorStats {
    pub datagrams_sent: u64,
    pub events_sent: u64,
    /// Per sent datagram: how late it went out, ns.
    pub late_ns: Vec<u64>,
    pub cpu_ns: u64,
}

#[derive(Debug, Default)]
pub struct PacedRun {
    pub gen: GeneratorStats,
    /// Offset of the first due time from the instant `start()` was
    /// called, ns (verdict `predicted_ns` is read against that instant).
    pub due_offset_ns: u64,
    pub send_wall: Duration,
    pub decoded: u64,
    pub decode_errors: u64,
    pub datagrams_received: u64,
    pub kernel_drops_counted: Option<u64>,
    pub consumed: u64,
    pub mailbox_shed: u64,
    /// Events the listener published into the mailbox.
    pub published: u64,
    /// Decoded events left in the mailbox when the phase ended.
    pub pending: u64,
    pub mailbox_depth_max: u64,
    /// Event-weighted median time between batch publications, µs.
    pub batch_fill_us: f64,
    pub events_in: u64,
    pub created: u64,
    pub predictions: u64,
    pub triage_dropped: u64,
    pub defer_shed: u64,
    pub alarm_windows: u64,
    pub would_drop: u64,
    pub scored: u64,
    pub records: Vec<PredictionRecord>,
    pub db_log_len: u64,
    pub db_flows: u64,
    pub rss_growth_bytes: i64,
    pub cpu_ns: u64,
    /// Deadline reached with events still in flight.
    pub cut_at_deadline: bool,
}

/// Median of `(value, weight)` pairs, by weight (NaN when empty).
fn weighted_median(pairs: &mut [(f64, u64)]) -> f64 {
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = pairs.iter().map(|p| p.1).sum();
    let mut acc = 0u64;
    for &(v, w) in pairs.iter() {
        acc += w;
        if acc * 2 >= total {
            return v;
        }
    }
    f64::NAN
}

/// The open-loop generator: sends each datagram at its due tick.
fn generate(inputs: &Inputs, sock: &UdpSocket, t0: Instant) -> GeneratorStats {
    let cpu0 = sys::thread_cpu_ns();
    let mut stats = GeneratorStats {
        late_ns: Vec::with_capacity(inputs.datagrams.len()),
        ..GeneratorStats::default()
    };
    let dgs = &inputs.datagrams;
    let mut payloads: Vec<&[u8]> = Vec::with_capacity(netio::MAX_BATCH);
    let mut i = 0;
    let mut tick = t0;
    while i < dgs.len() {
        // Sleep to the next 1 ms tick, then send everything due by then.
        let now = Instant::now();
        if now < tick {
            std::thread::sleep(tick - now);
            continue;
        }
        tick += Duration::from_nanos(TICK_NS);
        let elapsed = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
        // Everything due by now, in sendmmsg-sized bursts.
        while i < dgs.len() && dgs[i].due_ns <= elapsed {
            payloads.clear();
            let mut j = i;
            while j < dgs.len() && dgs[j].due_ns <= elapsed && payloads.len() < netio::MAX_BATCH {
                payloads.push(&dgs[j].bytes);
                j += 1;
            }
            let sent = netio::send_batch(sock, &payloads).unwrap_or(0).min(j - i);
            // A refused datagram is offered and lost; move past it.
            let advanced = sent.max(1);
            let at = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
            for dg in &dgs[i..i + sent] {
                stats.datagrams_sent += 1;
                stats.events_sent += u64::from(dg.len);
                stats.late_ns.push(at.saturating_sub(dg.due_ns));
            }
            i += advanced;
        }
    }
    stats.cpu_ns = sys::thread_cpu_ns().saturating_sub(cpu0);
    stats
}

pub fn run_paced(inputs: &Inputs, bundle: &ModelBundle) -> std::io::Result<PacedRun> {
    let server = bind_server()?;
    let pipeline = pipeline(bundle.clone());
    let (source, consumed) = Counted::new(server.source());
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(server.local_addr())?;
    let drops0 = sys::udp_rcvbuf_errors();
    let mailboxes = server.mailboxes().to_vec();

    let rss0 = sys::vm_rss_bytes();
    let cpu0 = sys::process_cpu_ns();
    let started = Instant::now();
    let handle = pipeline.start(source);
    let t0 = Instant::now() + LEAD_IN;
    let mut run = PacedRun {
        due_offset_ns: (t0 - started).as_nanos() as u64,
        ..PacedRun::default()
    };

    let done = AtomicBool::new(false);
    let gen = std::thread::scope(|scope| {
        let gen = scope.spawn(|| {
            let stats = generate(inputs, &sock, t0);
            done.store(true, Ordering::Release);
            stats
        });
        // While the generator runs, sample mailbox depth and the time
        // between batch publications (how long a batch took to fill).
        let mut fills: Vec<(f64, u64)> = Vec::new();
        let (mut last_at, mut last_batches, mut last_events) = (Instant::now(), 0u64, 0u64);
        while !done.load(Ordering::Acquire) {
            let depth: usize = mailboxes.iter().map(|m| m.pending_batches()).sum();
            run.mailbox_depth_max = run.mailbox_depth_max.max(depth as u64);
            let batches: u64 = mailboxes.iter().map(|m| m.published_batches()).sum();
            let events: u64 = mailboxes.iter().map(|m| m.published_events()).sum();
            if batches > last_batches {
                let now = Instant::now();
                let per_batch =
                    (now - last_at).as_secs_f64() * 1e6 / (batches - last_batches) as f64;
                fills.push((per_batch, events - last_events));
                (last_at, last_batches, last_events) = (now, batches, events);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        run.batch_fill_us = weighted_median(&mut fills);
        gen.join().expect("generator thread")
    });
    run.send_wall = t0.elapsed();

    // Grace period: wait until every decoded, unshed event has reached
    // a final state, or the deadline passes.
    let db = pipeline.database().clone();
    let deadline = Instant::now() + GRACE;
    loop {
        let s = server.stats();
        let settled = db.created_count() + db.prediction_count() as u64 + s.events_dropped;
        let depth: usize = mailboxes.iter().map(|m| m.pending_batches()).sum();
        run.mailbox_depth_max = run.mailbox_depth_max.max(depth as u64);
        if settled >= s.events_decoded && s.events_decoded >= gen.events_sent {
            break;
        }
        if Instant::now() >= deadline {
            run.cut_at_deadline = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
    let stats = handle
        .join()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    run.cpu_ns = sys::process_cpu_ns().saturating_sub(cpu0);
    run.rss_growth_bytes = sys::vm_rss_bytes() as i64 - rss0 as i64;

    // Stop the listener (it flushes its partial batch), then count what
    // was left in the mailbox: decoded but never consumed.
    let ingest = server.shutdown();
    for mb in &mailboxes {
        while let Some(batch) = mb.pop() {
            run.pending += batch.len() as u64;
        }
    }
    run.kernel_drops_counted = match (drops0, sys::udp_rcvbuf_errors()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    run.decoded = ingest.events_decoded;
    run.decode_errors = ingest.decode_errors + ingest.recv_errors;
    run.datagrams_received = ingest.datagrams;
    run.mailbox_shed = ingest.events_dropped;
    run.published = ingest.events_published;
    run.consumed = consumed.load(Ordering::Relaxed);
    run.events_in = stats.events_in;
    run.created = stats.flows_created;
    run.predictions = stats.predictions;
    run.triage_dropped = stats.triage.dropped;
    run.defer_shed = stats.triage.shed;
    run.alarm_windows = stats.triage.would.alarm_windows;
    run.would_drop = stats.triage.would.drop;
    run.scored = stats.triage.would.scored;
    run.records = db.predictions();
    run.db_log_len = db.update_count() as u64;
    run.db_flows = db.flow_count() as u64;
    run.gen = gen;
    drop(pipeline);
    Ok(run)
}

#[derive(Debug, Default)]
pub struct SaturateRun {
    pub events_offered: u64,
    pub consumed: u64,
    pub events_in: u64,
    pub created: u64,
    pub predictions: u64,
    pub triage_dropped: u64,
    pub defer_shed: u64,
    pub wall: Duration,
    pub cpu_ns: u64,
}

/// Datagram bytes as collector chunks, ending early at a deadline.
struct Chunks {
    inputs: Arc<Inputs>,
    next: usize,
    deadline: Instant,
    offered: Arc<AtomicU64>,
}

impl Iterator for Chunks {
    type Item = Vec<u8>;
    fn next(&mut self) -> Option<Vec<u8>> {
        let dg = self.inputs.datagrams.get(self.next)?;
        if self.next >= self.inputs.closed_loop_datagrams || Instant::now() >= self.deadline {
            return None;
        }
        self.next += 1;
        self.offered.fetch_add(u64::from(dg.len), Ordering::Relaxed);
        Some(dg.bytes.clone())
    }
}

/// One closed-loop pass over the closed-loop prefix of the inputs (cut
/// at `budget` if it takes longer).
pub fn run_saturate(
    inputs: &Arc<Inputs>,
    bundle: &ModelBundle,
    budget: Duration,
) -> std::io::Result<SaturateRun> {
    let offered = Arc::new(AtomicU64::new(0));
    let pipeline = pipeline(bundle.clone());
    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    let chunks = Chunks {
        inputs: Arc::clone(inputs),
        next: 0,
        deadline: start + budget,
        offered: Arc::clone(&offered),
    };
    let (source, consumed) = Counted::new(CollectorSource::new(chunks));
    let handle = pipeline.start(source);
    let stats = handle
        .join()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let wall = start.elapsed();
    Ok(SaturateRun {
        events_offered: offered.load(Ordering::Relaxed),
        consumed: consumed.load(Ordering::Relaxed),
        events_in: stats.events_in,
        created: stats.flows_created,
        predictions: stats.predictions,
        triage_dropped: stats.triage.dropped,
        defer_shed: stats.triage.shed,
        wall,
        cpu_ns: sys::process_cpu_ns().saturating_sub(cpu0),
    })
}
