//! Loopback throughput of the socket ingest server — the network front
//! end added for live operation — against a one-datagram-per-syscall
//! baseline.
//!
//! Three phases, all over real loopback UDP sockets carrying encoded
//! INT report datagrams:
//!
//! 1. **Baseline**: the shape a socket feed had before this subsystem
//!    existed — a single listener draining its socket with plain `recv`
//!    (one syscall per datagram), an allocating decode, and one bounded
//!    `ChannelSource` send per event, drained event-by-event on the
//!    other side. This is the classic collector shape the server
//!    replaces.
//! 2. **Server sweep**: [`IngestServer`] at 1/2/4/8 `SO_REUSEPORT`
//!    listeners, each draining in `recvmmsg` batches. A consumer thread
//!    drains the mailboxes at batch granularity (no per-event boxing),
//!    a sender blasts pre-encoded datagrams from 16 source ports so the
//!    kernel's flow hash exercises the whole group. During the
//!    4-listener window a [`stats_alloc::Region`] verifies the steady
//!    state allocates nothing anywhere in the process.
//! 3. **Slow consumer**: a tiny mailbox with nobody draining it while
//!    the sender blasts, then an exact audit — every decoded event must
//!    be accounted for as drained-after-the-fact or counted dropped.
//!
//! Writes `BENCH_ingest.json` at the repo root (a `--fast` run prints
//! it instead). `--check` turns the
//! acceptance gates into process failures: ≥2× the baseline
//! datagrams/s at 4 listeners, zero steady-state allocations, and
//! exact slow-consumer accounting.
//!
//! Note the host: this container pins everything to one core, so the
//! sweep does *not* measure parallel speedup — batching is what beats
//! the baseline (fewer syscalls per datagram for sender and receiver
//! both). `host_cpus` is recorded in the JSON so multi-core runs can be
//! told apart.
//!
//! Usage: `bench_ingest [--fast] [--seed N] [--check]`

use amlight_bench::util::{arg_seed, banner, flag_fast, write_bench_artifact};
use amlight_core::{ChannelSource, EventMailbox, EventSource, LabeledEvent, SourcePoll};
use amlight_ingest::{IngestServer, IngestStats, ListenerConfig, WireProtocol};
use amlight_int::{HopMetadata, InstructionSet, IntCollector, TelemetryReport};
use amlight_net::{FlowKey, Protocol};
use serde::Serialize;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counting allocator for the zero-steady-state-allocation gate.
#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

/// Reports per datagram — a realistic sink export batch that keeps
/// datagrams well under [`netio::MAX_DATAGRAM`].
const REPORTS_PER_DATAGRAM: usize = 8;
/// Distinct sender sockets; each is a distinct source port, so the
/// kernel's reuseport flow hash spreads them across the group.
const SENDER_SOCKETS: usize = 16;

#[derive(Serialize, Clone, Copy)]
struct ThroughputRecord {
    listeners: usize,
    batched: bool,
    datagrams_sent: u64,
    datagrams_received: u64,
    events_decoded: u64,
    events_drained: u64,
    decode_errors: u64,
    events_dropped: u64,
    window_ms: f64,
    datagrams_per_s: f64,
    events_per_s: f64,
}

#[derive(Serialize)]
struct AllocRecord {
    /// Datagrams moved during the measured region.
    datagrams: u64,
    acquisitions: u64,
    allocs_per_datagram: f64,
}

#[derive(Serialize)]
struct SlowConsumerRecord {
    events_decoded: u64,
    events_drained: u64,
    events_dropped: u64,
    /// drained + dropped == decoded, exactly.
    accounted: bool,
}

#[derive(Serialize)]
struct IngestBenchReport {
    seed: u64,
    fast: bool,
    host_cpus: usize,
    baseline: ThroughputRecord,
    sweep: Vec<ThroughputRecord>,
    /// 4-listener batched ÷ single-listener unbatched datagrams/s.
    speedup_vs_baseline_at_4: f64,
    alloc: AllocRecord,
    slow_consumer: SlowConsumerRecord,
}

fn report(tag: u32) -> TelemetryReport {
    TelemetryReport {
        flow: FlowKey::new(
            std::net::Ipv4Addr::new(10, (tag >> 8) as u8, tag as u8, 1),
            std::net::Ipv4Addr::new(10, 99, 99, 2),
            (1024 + (tag % 32768)) as u16,
            80,
            Protocol::Tcp,
        ),
        ip_len: 120,
        tcp_flags: Some(0x02),
        instructions: InstructionSet::amlight(),
        hops: vec![HopMetadata {
            switch_id: tag % 8,
            ingress_tstamp: tag,
            egress_tstamp: tag.wrapping_add(200),
            hop_latency: 200,
            queue_occupancy: tag % 24,
        }]
        .into(),
        export_ns: u64::from(tag) * 800,
    }
}

/// Pre-encode the datagram corpus the sender cycles through: 256
/// datagrams × 4 reports over a few hundred distinct flows.
fn build_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(256);
    let mut tag = seed as u32;
    for _ in 0..256 {
        let reports: Vec<TelemetryReport> = (0..REPORTS_PER_DATAGRAM)
            .map(|i| {
                tag = tag.wrapping_mul(1664525).wrapping_add(1013904223);
                report(tag ^ i as u32)
            })
            .collect();
        out.push(IntCollector::encode_stream(&reports).to_vec());
    }
    out
}

/// Connect [`SENDER_SOCKETS`] sockets (distinct source ports, so the
/// kernel's reuseport flow hash spreads them across the group) at `dst`.
fn make_senders(dst: SocketAddr) -> Vec<UdpSocket> {
    (0..SENDER_SOCKETS)
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
            s.connect(dst).expect("connect sender");
            s
        })
        .collect()
}

/// Blast the pre-chunked corpus for `window` using `sendmmsg` batches,
/// rotating sockets and chunks. Returns datagrams sent. Everything is
/// prepared by the caller — this loop allocates nothing, so it can run
/// inside the steady-state allocation gate.
fn blast(socks: &[UdpSocket], chunks: &[&[&[u8]]], window: Duration) -> u64 {
    let mut sent = 0u64;
    let mut sock_i = 0usize;
    let mut chunk_i = 0usize;
    let t0 = Instant::now();
    while t0.elapsed() < window {
        let sock = &socks[sock_i % socks.len()];
        let chunk = chunks[chunk_i % chunks.len()];
        match netio::send_batch(sock, chunk) {
            Ok(n) => sent += n as u64,
            // Loopback can refuse under pressure (ENOBUFS); yield and
            // keep going — receive-side counters stay truthful.
            Err(_) => std::thread::yield_now(),
        }
        sock_i += 1;
        chunk_i += 1;
    }
    sent
}

/// Drain every mailbox at batch granularity until `stop`, then drain
/// the leftovers. Counts events; recycles shells so the producers stay
/// pooled. This is the bench-side consumer — no per-event boxing, so
/// the measured loop is listener + mailbox + this.
fn run_consumer(mailboxes: &[Arc<EventMailbox>], stop: &AtomicBool, drained: &AtomicU64) {
    loop {
        let mut moved = false;
        for mb in mailboxes {
            if let Some(batch) = mb.pop() {
                drained.fetch_add(batch.len() as u64, Ordering::Relaxed);
                mb.recycle(batch);
                moved = true;
            }
        }
        if !moved {
            if stop.load(Ordering::Relaxed) && mailboxes.iter().all(|m| m.is_finished()) {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

struct WindowOutcome {
    stats: IngestStats,
    sent: u64,
    drained: u64,
    window: Duration,
    /// Allocations inside the measured window (sender + listeners +
    /// consumer — the whole process).
    acquisitions: u64,
}

/// One measured server run: warm up, then measure a send window with
/// all counters snapshotted at the window edges.
fn run_server_window(
    listeners: usize,
    corpus: &[Vec<u8>],
    warmup: Duration,
    window: Duration,
) -> WindowOutcome {
    let server = IngestServer::bind(
        ListenerConfig::new("127.0.0.1:0".parse().expect("addr"), WireProtocol::IntUdp)
            .listeners(listeners)
            .batch_events(256)
            .mailbox_batches(256)
            .read_timeout(Duration::from_millis(5)),
    )
    .expect("bind server");
    let dst = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let drained = Arc::new(AtomicU64::new(0));
    let consumer = {
        let mailboxes: Vec<Arc<EventMailbox>> = server.mailboxes().to_vec();
        let stop = Arc::clone(&stop);
        let drained = Arc::clone(&drained);
        std::thread::spawn(move || run_consumer(&mailboxes, &stop, &drained))
    };

    // Prefill every mailbox pool to its capacity bound with shells big
    // enough for a full batch plus one datagram of overshoot, so the
    // measured window never grows a shell no matter how the scheduler
    // interleaves producers and the consumer.
    for mb in server.mailboxes() {
        let shells: Vec<Vec<LabeledEvent>> = (0..257)
            .map(|_| {
                let mut s = mb.acquire();
                s.reserve(256 + netio::MAX_BATCH * REPORTS_PER_DATAGRAM);
                s
            })
            .collect();
        for s in shells {
            mb.recycle(s);
        }
    }

    // All sender-side buffers exist before the measured region.
    let socks = make_senders(dst);
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let chunks: Vec<&[&[u8]]> = refs.chunks(netio::MAX_BATCH).collect();

    // Warmup: grow every pool to its high-water mark.
    blast(&socks, &chunks, warmup);
    std::thread::sleep(Duration::from_millis(30));

    let before = server.stats();
    let drained_before = drained.load(Ordering::Relaxed);
    let region = stats_alloc::Region::new();
    let t0 = Instant::now();
    let sent = blast(&socks, &chunks, window);
    let elapsed = t0.elapsed();
    let acquisitions = region.change().acquisitions();
    let after = server.stats();
    let drained_after = drained.load(Ordering::Relaxed);

    stop.store(true, Ordering::Relaxed);
    let final_stats = server.shutdown();
    let _ = consumer.join();
    let _ = final_stats;

    WindowOutcome {
        stats: IngestStats {
            datagrams: after.datagrams - before.datagrams,
            bytes: after.bytes - before.bytes,
            events_decoded: after.events_decoded - before.events_decoded,
            decode_errors: after.decode_errors - before.decode_errors,
            events_dropped: after.events_dropped - before.events_dropped,
            ..after
        },
        sent,
        drained: drained_after - drained_before,
        window: elapsed,
        acquisitions,
    }
}

/// The pre-server baseline: the shape a socket feed had before this
/// subsystem existed — a single listener, one `recv` syscall per
/// datagram, allocating decode (`ingest` returns a fresh vector), and
/// one bounded-channel send per event into a [`ChannelSource`] drained
/// event-by-event. No reuseport group, no syscall batching, no batch
/// mailboxes, no pooling.
fn run_baseline_window(corpus: &[Vec<u8>], warmup: Duration, window: Duration) -> WindowOutcome {
    let sock = netio::bind_udp_reuseport("127.0.0.1:0".parse().expect("addr")).expect("bind");
    sock.set_read_timeout(Some(Duration::from_millis(5)))
        .expect("timeout");
    let dst = sock.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let datagrams = Arc::new(AtomicU64::new(0));
    let events = Arc::new(AtomicU64::new(0));
    let drained = Arc::new(AtomicU64::new(0));

    let (tx, mut source) = ChannelSource::bounded(1024);
    let listener = {
        let stop = Arc::clone(&stop);
        let datagrams = Arc::clone(&datagrams);
        let events = Arc::clone(&events);
        std::thread::spawn(move || {
            let mut buf = [0u8; netio::MAX_DATAGRAM];
            let mut collector = IntCollector::new();
            while !stop.load(Ordering::Relaxed) {
                let n = match sock.recv(&mut buf) {
                    Ok(n) => n,
                    Err(_) => continue, // timeout; check the stop flag
                };
                datagrams.fetch_add(1, Ordering::Relaxed);
                let reports = collector.ingest(&buf[..n]);
                events.fetch_add(reports.len() as u64, Ordering::Relaxed);
                for r in reports {
                    if tx.send(r.into()).is_err() {
                        return;
                    }
                }
            }
        })
    };
    let consumer = {
        let stop = Arc::clone(&stop);
        let drained = Arc::clone(&drained);
        std::thread::spawn(move || loop {
            match source.poll_event() {
                SourcePoll::Event(_) => {
                    drained.fetch_add(1, Ordering::Relaxed);
                }
                SourcePoll::Idle => {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                }
                SourcePoll::End => return,
            }
        })
    };

    let socks = make_senders(dst);
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let chunks: Vec<&[&[u8]]> = refs.chunks(netio::MAX_BATCH).collect();

    blast(&socks, &chunks, warmup);
    std::thread::sleep(Duration::from_millis(30));

    let dg_before = datagrams.load(Ordering::Relaxed);
    let ev_before = events.load(Ordering::Relaxed);
    let drained_before = drained.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let sent = blast(&socks, &chunks, window);
    let elapsed = t0.elapsed();
    let dg = datagrams.load(Ordering::Relaxed) - dg_before;
    let ev = events.load(Ordering::Relaxed) - ev_before;
    let dr = drained.load(Ordering::Relaxed) - drained_before;

    stop.store(true, Ordering::Relaxed);
    let _ = listener.join();
    let _ = consumer.join();

    WindowOutcome {
        stats: IngestStats {
            datagrams: dg,
            events_decoded: ev,
            ..IngestStats::default()
        },
        sent,
        drained: dr,
        window: elapsed,
        acquisitions: 0,
    }
}

fn record(listeners: usize, batched: bool, w: &WindowOutcome) -> ThroughputRecord {
    let secs = w.window.as_secs_f64().max(1e-9);
    ThroughputRecord {
        listeners,
        batched,
        datagrams_sent: w.sent,
        datagrams_received: w.stats.datagrams,
        events_decoded: w.stats.events_decoded,
        events_drained: w.drained,
        decode_errors: w.stats.decode_errors,
        events_dropped: w.stats.events_dropped,
        window_ms: secs * 1e3,
        datagrams_per_s: w.stats.datagrams as f64 / secs,
        events_per_s: w.stats.events_decoded as f64 / secs,
    }
}

fn print_record(name: &str, r: &ThroughputRecord) {
    println!(
        "{:<14} {:>9} {:>12.0} {:>12.0} {:>10} {:>10}",
        name, r.listeners, r.datagrams_per_s, r.events_per_s, r.decode_errors, r.events_dropped,
    );
}

/// Slow-consumer audit: tiny mailboxes, nobody draining during the
/// blast, exact accounting afterwards.
fn run_slow_consumer(corpus: &[Vec<u8>], window: Duration) -> SlowConsumerRecord {
    let server = IngestServer::bind(
        ListenerConfig::new("127.0.0.1:0".parse().expect("addr"), WireProtocol::IntUdp)
            .listeners(2)
            .batch_events(64)
            .mailbox_batches(4)
            .read_timeout(Duration::from_millis(5)),
    )
    .expect("bind server");
    let dst = server.local_addr();
    let socks = make_senders(dst);
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let chunks: Vec<&[&[u8]]> = refs.chunks(netio::MAX_BATCH).collect();
    blast(&socks, &chunks, window);
    std::thread::sleep(Duration::from_millis(50));
    let mailboxes: Vec<Arc<EventMailbox>> = server.mailboxes().to_vec();
    let stats = server.shutdown();
    // Drain what survived the shedding.
    let mut drained = 0u64;
    for mb in &mailboxes {
        while let Some(batch) = mb.pop() {
            drained += batch.len() as u64;
        }
    }
    SlowConsumerRecord {
        events_decoded: stats.events_decoded,
        events_drained: drained,
        events_dropped: stats.events_dropped,
        accounted: drained + stats.events_dropped == stats.events_decoded,
    }
}

fn main() {
    let fast = flag_fast();
    let check = std::env::args().any(|a| a == "--check");
    let seed = arg_seed(20817);
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let warmup = Duration::from_millis(if fast { 80 } else { 150 });
    let window = Duration::from_millis(if fast { 200 } else { 500 });
    let corpus = build_corpus(seed);
    let corpus_bytes: usize = corpus.iter().map(Vec::len).sum();

    banner(&format!(
        "socket ingest: {} datagrams × {} reports in corpus ({} KiB), {} cpu(s), {}ms windows",
        corpus.len(),
        REPORTS_PER_DATAGRAM,
        corpus_bytes / 1024,
        host_cpus,
        window.as_millis(),
    ));
    println!(
        "{:<14} {:>9} {:>12} {:>12} {:>10} {:>10}",
        "path", "listeners", "datagrams/s", "events/s", "dec errs", "shed"
    );

    let base = run_baseline_window(&corpus, warmup, window);
    let baseline = record(1, false, &base);
    print_record("recv-per-dgram", &baseline);

    let mut sweep = Vec::new();
    let mut alloc = AllocRecord {
        datagrams: 0,
        acquisitions: 0,
        allocs_per_datagram: 0.0,
    };
    let mut at_4 = 0.0f64;
    for listeners in [1usize, 2, 4, 8] {
        let w = run_server_window(listeners, &corpus, warmup, window);
        let r = record(listeners, true, &w);
        print_record("recvmmsg-group", &r);
        if listeners == 4 {
            at_4 = r.datagrams_per_s;
            alloc = AllocRecord {
                datagrams: w.stats.datagrams,
                acquisitions: w.acquisitions,
                allocs_per_datagram: w.acquisitions as f64 / (w.stats.datagrams.max(1)) as f64,
            };
        }
        sweep.push(r);
    }
    let speedup = at_4 / baseline.datagrams_per_s.max(1e-9);
    println!("4-listener batched vs unbatched baseline: {speedup:.2}x");
    println!(
        "steady-state allocations at 4 listeners: {} over {} datagrams ({:.4}/datagram)",
        alloc.acquisitions, alloc.datagrams, alloc.allocs_per_datagram
    );

    let slow = run_slow_consumer(&corpus, Duration::from_millis(if fast { 100 } else { 200 }));
    println!(
        "slow consumer: {} decoded = {} drained + {} dropped (exact: {})",
        slow.events_decoded, slow.events_drained, slow.events_dropped, slow.accounted
    );

    let report = IngestBenchReport {
        seed,
        fast,
        host_cpus,
        baseline,
        sweep,
        speedup_vs_baseline_at_4: speedup,
        alloc,
        slow_consumer: slow,
    };
    write_bench_artifact("BENCH_ingest.json", &report, fast);

    if check {
        let mut failed = false;
        if report.speedup_vs_baseline_at_4 < 2.0 {
            eprintln!(
                "GATE FAIL: 4-listener batched ingest is only {:.2}x the unbatched baseline (need ≥2x)",
                report.speedup_vs_baseline_at_4
            );
            failed = true;
        }
        if report.alloc.acquisitions > 0 {
            eprintln!(
                "GATE FAIL: listener hot loop allocated {} times in steady state (expected 0)",
                report.alloc.acquisitions
            );
            failed = true;
        }
        if !report.slow_consumer.accounted {
            eprintln!(
                "GATE FAIL: slow-consumer accounting leaked events ({} decoded ≠ {} drained + {} dropped)",
                report.slow_consumer.events_decoded,
                report.slow_consumer.events_drained,
                report.slow_consumer.events_dropped
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check: all ingest gates passed ✓");
    }
}
