//! Streaming event sources for the threaded runtime.
//!
//! The paper's INT Data Collection module is an always-on reader of the
//! collector port; a production detector therefore cannot demand a fully
//! materialized event vector up front. [`EventSource`] is the pull
//! interface the runtime's collection stage drains instead — generic
//! over the telemetry backend, because every source yields
//! [`LabeledEvent`]s (an INT report *or* an sFlow sample, with optional
//! ground truth riding along for evaluation runs):
//!
//! * [`IterSource`] — any in-memory iterator (the old `Vec` replay path
//!   is `IterSource::from(vec)`);
//! * [`ChannelSource`] — a bounded crossbeam channel fed by external
//!   producers; the stream ends when every sender is dropped;
//! * [`ReplaySource`] — a capture from any backend replayed in native
//!   timestamp order, labels preserved: the shape the experiment
//!   binaries feed the runtime (derive non-INT views with
//!   [`crate::event::TelemetryBackend::derive_view`]);
//! * [`CollectorSource`] — an [`amlight_int::IntCollector`] adapter that
//!   decodes a raw sink byte stream chunk by chunk, tolerating split and
//!   malformed reports exactly like the standalone collector;
//! * [`SflowAgentSource`] — an [`SflowAgent`] driven over a packet
//!   trace, emitting only the packets the sampling state machine
//!   selects (the live-agent shape of the paper's sFlow baseline).
//!
//! Sources are *polled*, not blocked on: [`SourcePoll::Idle`] lets the
//! collection stage stay responsive to `stop()` while a live source has
//! nothing to hand over yet.

use crate::event::{LabeledEvent, Telemetry, TelemetryEvent};
use crate::mailbox::EventMailbox;
use amlight_int::{IntCollector, TelemetryReport};
use amlight_net::{PacketRecord, Trace, TrafficClass};
use amlight_sflow::{FlowSample, SflowAgent};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// One poll of an [`EventSource`].
///
/// The event payload is boxed: a [`LabeledEvent`] is large (the INT
/// hop stack is inline, not heap-spilled), and `SourcePoll` now crosses
/// listener-thread channel boundaries where an oversized enum variant
/// is copied at every move. One pointer beats ~200 bytes of memcpy per
/// hop through the runtime; sources that already own their events pay
/// one small allocation at the poll boundary, which
/// `BENCH_ingest.json`'s listener-loop gate deliberately excludes (the
/// zero-alloc invariant guards the *listener* hot loop — decode, flow
/// table, mailbox — not the poll wrapper).
#[derive(Debug, Clone, PartialEq)]
pub enum SourcePoll {
    /// An event is ready.
    Event(Box<LabeledEvent>),
    /// Nothing right now, but the stream is still open — poll again.
    Idle,
    /// The stream has ended; no further events will ever arrive.
    End,
}

/// A pull-based stream of telemetry events from either backend.
///
/// `Send + 'static` because the runtime's collection stage owns the
/// source on its own thread.
pub trait EventSource: Send {
    /// Fetch the next event, or report idleness / end of stream. May
    /// block briefly (sub-millisecond) but must not block indefinitely:
    /// the collection stage checks its stop flag between polls.
    fn poll_event(&mut self) -> SourcePoll;
}

/// An in-memory iterator source. Never idles: it either yields or ends.
#[derive(Debug)]
pub struct IterSource<I> {
    iter: I,
}

impl<I> IterSource<I>
where
    I: Iterator<Item = LabeledEvent> + Send,
{
    pub fn new(iter: I) -> Self {
        Self { iter }
    }
}

/// The pre-streaming `Vec` replay paths, one per backend.
impl From<Vec<TelemetryReport>> for IterSource<std::vec::IntoIter<LabeledEvent>> {
    fn from(reports: Vec<TelemetryReport>) -> Self {
        let events: Vec<LabeledEvent> = reports.into_iter().map(LabeledEvent::from).collect();
        Self::new(events.into_iter())
    }
}

impl From<Vec<FlowSample>> for IterSource<std::vec::IntoIter<LabeledEvent>> {
    fn from(samples: Vec<FlowSample>) -> Self {
        let events: Vec<LabeledEvent> = samples.into_iter().map(LabeledEvent::from).collect();
        Self::new(events.into_iter())
    }
}

impl From<Vec<LabeledEvent>> for IterSource<std::vec::IntoIter<LabeledEvent>> {
    fn from(events: Vec<LabeledEvent>) -> Self {
        Self::new(events.into_iter())
    }
}

impl<I> EventSource for IterSource<I>
where
    I: Iterator<Item = LabeledEvent> + Send,
{
    fn poll_event(&mut self) -> SourcePoll {
        match self.iter.next() {
            Some(e) => SourcePoll::Event(Box::new(e)),
            None => SourcePoll::End,
        }
    }
}

/// How long a [`ChannelSource`] poll waits before reporting `Idle`.
const CHANNEL_POLL: Duration = Duration::from_micros(200);

/// A live, channel-fed source: producers hold the [`Sender`] half and
/// the pipeline drains the receiver. Ends when every sender is dropped.
/// Producers send [`LabeledEvent`]s — `report.into()` / `sample.into()`
/// for unlabeled live feeds.
#[derive(Debug)]
pub struct ChannelSource {
    rx: Receiver<LabeledEvent>,
}

impl ChannelSource {
    /// A bounded feed; hand the sender to the producer (collector socket
    /// loop, traffic generator, test harness, …).
    pub fn bounded(capacity: usize) -> (Sender<LabeledEvent>, Self) {
        let (tx, rx) = bounded(capacity.max(1));
        (tx, Self { rx })
    }

    /// Wrap an existing receiver.
    pub fn from_receiver(rx: Receiver<LabeledEvent>) -> Self {
        Self { rx }
    }
}

impl EventSource for ChannelSource {
    fn poll_event(&mut self) -> SourcePoll {
        // Fast path: drain whatever is already queued — and, crucially,
        // notice a disconnect *immediately*. Only an empty-but-open
        // channel pays the bounded recv_timeout wait; a source whose
        // senders are all gone reports `End` on this very poll instead
        // of spinning timeout-by-timeout.
        match self.rx.try_recv() {
            Ok(e) => return SourcePoll::Event(Box::new(e)),
            Err(TryRecvError::Disconnected) => return SourcePoll::End,
            Err(TryRecvError::Empty) => {}
        }
        match self.rx.recv_timeout(CHANNEL_POLL) {
            Ok(e) => SourcePoll::Event(Box::new(e)),
            Err(RecvTimeoutError::Timeout) => SourcePoll::Idle,
            Err(RecvTimeoutError::Disconnected) => SourcePoll::End,
        }
    }
}

/// A capture replay from any backend: events are re-sorted into
/// native-timestamp order (the order the collector would have emitted
/// them) and streamed once. Labels survive the trip —
/// [`ReplaySource::from_labeled`] threads the capture's ground truth
/// into every event, so a streaming run can report recall directly.
#[derive(Debug)]
pub struct ReplaySource {
    events: std::vec::IntoIter<LabeledEvent>,
}

impl ReplaySource {
    /// Replay already-labeled events (e.g. the `Vec<LabeledEvent>`
    /// [`crate::event::TelemetryBackend::derive_view`] hands back).
    pub fn new(mut events: Vec<LabeledEvent>) -> Self {
        events.sort_by_key(|e| e.event.event_ns());
        Self {
            events: events.into_iter(),
        }
    }

    /// Replay a labeled capture of INT reports, sFlow samples or PINT
    /// digests (the experiment binaries' and CLI's on-disk format) with
    /// the ground truth riding along.
    pub fn from_labeled<E: Clone + Into<TelemetryEvent>>(labeled: &[(E, TrafficClass)]) -> Self {
        Self::new(
            labeled
                .iter()
                .map(|(e, c)| LabeledEvent::with_truth(e.clone().into(), *c))
                .collect(),
        )
    }
}

impl EventSource for ReplaySource {
    fn poll_event(&mut self) -> SourcePoll {
        match self.events.next() {
            Some(e) => SourcePoll::Event(Box::new(e)),
            None => SourcePoll::End,
        }
    }
}

/// Packets an [`SflowAgentSource`] offers its agent per poll before
/// yielding `Idle`: under 1-in-4,096 sampling most polls select nothing,
/// and the collection stage must still get its stop-flag check in.
const AGENT_BURST: usize = 4096;

/// An [`SflowAgent`] driven over a packet trace: the source *is* the
/// sampling switch. Every packet is offered to the agent's state
/// machine; only the selected ones become events, each labeled with the
/// trace's ground-truth class. This is the live-agent shape of the
/// paper's sFlow baseline — the detector downstream sees 1-in-N of the
/// traffic, which is exactly why SlowLoris vanishes (Fig. 5).
pub struct SflowAgentSource {
    agent: SflowAgent,
    packets: std::vec::IntoIter<PacketRecord>,
}

impl SflowAgentSource {
    /// Sample `trace` through `agent` (time order restored if needed).
    pub fn new(agent: SflowAgent, trace: &Trace) -> Self {
        let mut records: Vec<PacketRecord> = trace.records().to_vec();
        if !trace.is_sorted() {
            records.sort_by_key(|r| r.ts_ns);
        }
        Self {
            agent,
            packets: records.into_iter(),
        }
    }

    /// Sampling statistics so far (packets observed vs selected).
    pub fn agent(&self) -> &SflowAgent {
        &self.agent
    }
}

impl EventSource for SflowAgentSource {
    fn poll_event(&mut self) -> SourcePoll {
        for _ in 0..AGENT_BURST {
            let Some(rec) = self.packets.next() else {
                return SourcePoll::End;
            };
            if let Some(sample) = self.agent.observe(rec.ts_ns, &rec.packet) {
                return SourcePoll::Event(Box::new(LabeledEvent::with_truth(
                    sample.into(),
                    rec.class,
                )));
            }
        }
        SourcePoll::Idle
    }
}

/// The INT collector adapter: pulls raw byte chunks from the sink and
/// streams every report the [`IntCollector`] decodes out of them.
///
/// A chunk that completes no report (split delivery, garbage awaiting
/// resync) yields [`SourcePoll::Idle`], not `End` — exactly the
/// collector's own "more bytes coming" semantics.
pub struct CollectorSource<B> {
    chunks: B,
    collector: IntCollector,
    decoded: VecDeque<TelemetryReport>,
    scratch: Vec<TelemetryReport>,
}

impl<B> CollectorSource<B>
where
    B: Iterator<Item = Vec<u8>> + Send,
{
    pub fn new(chunks: B) -> Self {
        Self {
            chunks,
            collector: IntCollector::new(),
            decoded: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// Decoder statistics (resyncs, malformed reports, bytes consumed).
    pub fn stats(&self) -> amlight_int::CollectorStats {
        self.collector.stats()
    }
}

impl<B> EventSource for CollectorSource<B>
where
    B: Iterator<Item = Vec<u8>> + Send,
{
    fn poll_event(&mut self) -> SourcePoll {
        if let Some(r) = self.decoded.pop_front() {
            return SourcePoll::Event(Box::new(r.into()));
        }
        match self.chunks.next() {
            Some(chunk) => {
                self.scratch.clear();
                self.collector.ingest_into(&chunk, &mut self.scratch);
                self.decoded.extend(self.scratch.drain(..));
                match self.decoded.pop_front() {
                    Some(r) => SourcePoll::Event(Box::new(r.into())),
                    None => SourcePoll::Idle, // partial report buffered
                }
            }
            None => SourcePoll::End,
        }
    }
}

/// How long a [`SocketSource`] poll sleeps before reporting `Idle` when
/// every mailbox is momentarily empty — long enough to stay off the
/// listener threads' mutexes, short enough that a fresh batch is picked
/// up promptly.
const SOCKET_IDLE_WAIT: Duration = Duration::from_micros(100);

/// The listener-group fan-in: one [`EventSource`] over the per-listener
/// [`EventMailbox`]es of a network ingest server
/// (`amlight_ingest::IngestServer`).
///
/// Each listener thread owns exactly one mailbox (no producer-side
/// contention) and publishes event *batches*; this source drains the
/// mailboxes round-robin, hands events to the collection stage one at
/// a time, and recycles every drained batch shell back to the mailbox
/// it came from so the listener's steady state allocates nothing.
///
/// The stream ends when every mailbox is closed *and* empty — i.e. all
/// listener threads exited and everything they published was consumed.
pub struct SocketSource {
    mailboxes: Vec<Arc<EventMailbox>>,
    /// The batch currently being drained, reversed so `pop()` yields
    /// events in published order without shifting.
    current: Vec<LabeledEvent>,
    /// Which mailbox `current` came from (its recycling address).
    owner: usize,
    /// Round-robin scan cursor.
    next: usize,
    /// Events handed to the pipeline so far.
    consumed: u64,
}

impl SocketSource {
    /// Fan in `mailboxes` (one per listener thread).
    pub fn new(mailboxes: Vec<Arc<EventMailbox>>) -> Self {
        Self {
            mailboxes,
            current: Vec::new(),
            owner: 0,
            next: 0,
            consumed: 0,
        }
    }

    /// Events this source has handed to the pipeline.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Pull the next ready batch into `current`, round-robin across the
    /// mailboxes. Returns false if every mailbox was empty.
    fn refill(&mut self) -> bool {
        let n = self.mailboxes.len();
        for i in 0..n {
            let idx = (self.next + i) % n;
            let Some(mailbox) = self.mailboxes.get(idx) else {
                continue;
            };
            if let Some(mut batch) = mailbox.pop() {
                // Reverse once so per-event pop() is O(1) *and* events
                // come out in the order the listener pushed them.
                batch.reverse();
                self.current = batch;
                self.owner = idx;
                self.next = (idx + 1) % n;
                return true;
            }
        }
        false
    }
}

impl EventSource for SocketSource {
    fn poll_event(&mut self) -> SourcePoll {
        loop {
            if let Some(event) = self.current.pop() {
                self.consumed += 1;
                return SourcePoll::Event(Box::new(event));
            }
            // Drained: send the shell home before looking for more.
            if self.current.capacity() > 0 {
                let shell = std::mem::take(&mut self.current);
                if let Some(owner) = self.mailboxes.get(self.owner) {
                    owner.recycle(shell);
                }
            }
            if self.refill() {
                continue;
            }
            if self.mailboxes.iter().all(|m| m.is_finished()) {
                return SourcePoll::End;
            }
            // Every mailbox empty but at least one producer is still
            // alive: nap briefly so this poll loop doesn't hammer the
            // mailbox mutexes, then let the collection stage get its
            // stop-flag check in.
            std::thread::sleep(SOCKET_IDLE_WAIT);
            return SourcePoll::Idle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::OverflowPolicy;
    use amlight_int::{HopMetadata, InstructionSet};
    use amlight_net::{FlowKey, PacketBuilder, Protocol};
    use amlight_sflow::SamplingMode;
    use std::net::Ipv4Addr;

    fn report(tag: u32) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                (2000 + tag) as u16,
                80,
                Protocol::Tcp,
            ),
            ip_len: 60,
            tcp_flags: Some(0x02),
            instructions: InstructionSet::amlight(),
            hops: vec![HopMetadata {
                switch_id: tag,
                ..Default::default()
            }]
            .into(),
            export_ns: u64::from(tag) * 500,
        }
    }

    fn sample(tag: u32) -> FlowSample {
        FlowSample {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                (3000 + tag) as u16,
                80,
                Protocol::Tcp,
            ),
            ip_len: 60,
            tcp_flags: Some(0x02),
            observed_ns: u64::from(tag) * 700,
            sampling_period: 64,
        }
    }

    fn drain(source: &mut impl EventSource) -> Vec<LabeledEvent> {
        let mut out = Vec::new();
        loop {
            match source.poll_event() {
                SourcePoll::Event(e) => out.push(*e),
                SourcePoll::Idle => continue,
                SourcePoll::End => return out,
            }
        }
    }

    fn int_events(events: &[LabeledEvent]) -> Vec<TelemetryReport> {
        events
            .iter()
            .map(|e| match &e.event {
                TelemetryEvent::Int(r) => r.clone(),
                other => panic!("expected INT event, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn iter_source_yields_then_ends() {
        let reports: Vec<_> = (0..5).map(report).collect();
        let mut src = IterSource::from(reports.clone());
        assert_eq!(int_events(&drain(&mut src)), reports);
        assert_eq!(src.poll_event(), SourcePoll::End, "End is sticky");
    }

    #[test]
    fn iter_source_takes_sflow_samples_too() {
        let samples: Vec<_> = (0..3).map(sample).collect();
        let mut src = IterSource::from(samples.clone());
        let got = drain(&mut src);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].event, TelemetryEvent::Sflow(samples[0]));
        assert_eq!(got[0].truth, None);
    }

    #[test]
    fn channel_source_idles_then_ends() {
        let (tx, mut src) = ChannelSource::bounded(4);
        assert_eq!(src.poll_event(), SourcePoll::Idle);
        tx.send(report(1).into()).unwrap();
        assert_eq!(
            src.poll_event(),
            SourcePoll::Event(Box::new(report(1).into()))
        );
        drop(tx);
        assert_eq!(src.poll_event(), SourcePoll::End);
    }

    #[test]
    fn replay_source_orders_by_export_time() {
        let mut shuffled = vec![report(3), report(1), report(2)];
        shuffled.swap(0, 2);
        let mut src = ReplaySource::new(shuffled.into_iter().map(LabeledEvent::from).collect());
        let got = int_events(&drain(&mut src));
        assert_eq!(got, vec![report(1), report(2), report(3)]);
    }

    #[test]
    fn replay_source_threads_labels() {
        let labeled = vec![
            (report(2), TrafficClass::SynFlood),
            (report(1), TrafficClass::Benign),
        ];
        let mut src = ReplaySource::from_labeled(&labeled);
        let got = drain(&mut src);
        assert_eq!(got.len(), 2);
        // Re-sorted by export time, each event still wearing its label.
        assert_eq!(got[0].event, TelemetryEvent::Int(report(1)));
        assert_eq!(got[0].truth, Some(TrafficClass::Benign));
        assert_eq!(got[1].truth, Some(TrafficClass::SynFlood));
    }

    #[test]
    fn sflow_replay_source_orders_and_labels() {
        let labeled = vec![
            (sample(5), TrafficClass::SlowLoris),
            (sample(1), TrafficClass::Benign),
            (sample(3), TrafficClass::SlowLoris),
        ];
        let mut src = ReplaySource::from_labeled(&labeled);
        let got = drain(&mut src);
        let times: Vec<u64> = got.iter().map(|e| e.event.event_ns()).collect();
        assert_eq!(times, vec![700, 2100, 3500]);
        assert_eq!(got[0].truth, Some(TrafficClass::Benign));
        assert_eq!(got[2].truth, Some(TrafficClass::SlowLoris));
    }

    #[test]
    fn sflow_agent_source_samples_a_trace() {
        // 1-in-4 deterministic sampling over a 40-packet trace.
        let pkt = PacketBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .tcp_syn(4242, 80, 1);
        let trace: Trace = (0..40u64)
            .map(|i| PacketRecord {
                ts_ns: i * 100,
                packet: pkt,
                class: TrafficClass::SynFlood,
            })
            .collect();
        let agent = SflowAgent::new(
            SamplingMode::Deterministic {
                period: 4,
                phase: 0,
            },
            0,
        );
        let mut src = SflowAgentSource::new(agent, &trace);
        let got = drain(&mut src);
        assert_eq!(got.len(), 10);
        assert_eq!(src.agent().observed(), 40);
        assert_eq!(src.agent().sampled(), 10);
        for e in &got {
            assert_eq!(e.truth, Some(TrafficClass::SynFlood));
            assert!(matches!(e.event, TelemetryEvent::Sflow(_)));
        }
    }

    #[test]
    fn sflow_agent_source_idles_on_long_unsampled_stretches() {
        // Period large enough that the first AGENT_BURST packets can all
        // be skipped → Idle, then the stream still ends cleanly.
        let pkt = PacketBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .tcp_syn(4242, 80, 1);
        let trace: Trace = (0..AGENT_BURST as u64 + 10)
            .map(|i| PacketRecord {
                ts_ns: i,
                packet: pkt,
                class: TrafficClass::Benign,
            })
            .collect();
        let agent = SflowAgent::new(
            SamplingMode::Deterministic {
                period: u32::MAX,
                phase: 1_000_000,
            },
            0,
        );
        let mut src = SflowAgentSource::new(agent, &trace);
        assert_eq!(src.poll_event(), SourcePoll::Idle);
        assert_eq!(src.poll_event(), SourcePoll::End);
    }

    #[test]
    fn collector_source_decodes_split_chunks() {
        let reports: Vec<_> = (0..6).map(report).collect();
        let stream = IntCollector::encode_stream(&reports);
        let chunks: Vec<Vec<u8>> = stream.chunks(7).map(<[u8]>::to_vec).collect();
        let mut src = CollectorSource::new(chunks.into_iter());
        assert_eq!(int_events(&drain(&mut src)), reports);
        assert_eq!(src.stats().reports_decoded, 6);
    }

    #[test]
    fn collector_source_survives_garbage() {
        let good = report(9);
        let mut bytes = vec![0xde, 0xad, 0xbe, 0xef];
        bytes.extend_from_slice(&IntCollector::encode_stream(std::slice::from_ref(&good)));
        let mut src = CollectorSource::new(vec![bytes].into_iter());
        assert_eq!(int_events(&drain(&mut src)), vec![good]);
        assert!(src.stats().resyncs >= 1);
    }

    #[test]
    fn channel_source_ends_immediately_on_disconnect() {
        let (tx, mut src) = ChannelSource::bounded(8);
        // Buffered events survive the disconnect and drain first…
        tx.send(report(1).into()).unwrap();
        tx.send(report(2).into()).unwrap();
        drop(tx);
        assert_eq!(
            src.poll_event(),
            SourcePoll::Event(Box::new(report(1).into()))
        );
        assert_eq!(
            src.poll_event(),
            SourcePoll::Event(Box::new(report(2).into()))
        );
        // …then the very next poll is End, via the non-blocking
        // disconnect check — not an Idle after a timeout wait.
        let t0 = std::time::Instant::now();
        assert_eq!(src.poll_event(), SourcePoll::End);
        assert!(
            t0.elapsed() < CHANNEL_POLL * 50,
            "disconnect must not wait out recv_timeout"
        );
        // End is sticky.
        assert_eq!(src.poll_event(), SourcePoll::End);
    }

    #[test]
    fn socket_source_fans_in_round_robin_and_recycles() {
        let mb_a = Arc::new(EventMailbox::new(4, OverflowPolicy::DropOldest));
        let mb_b = Arc::new(EventMailbox::new(4, OverflowPolicy::DropOldest));
        mb_a.publish((0..3).map(|i| LabeledEvent::from(report(i))).collect());
        mb_b.publish((10..12).map(|i| LabeledEvent::from(report(i))).collect());
        let mut src = SocketSource::new(vec![Arc::clone(&mb_a), Arc::clone(&mb_b)]);

        // Batch A first (round-robin starts at 0), in published order.
        let mut tags = Vec::new();
        for _ in 0..5 {
            match src.poll_event() {
                SourcePoll::Event(e) => match &e.event {
                    TelemetryEvent::Int(r) => tags.push(r.hops[0].switch_id),
                    other => panic!("unexpected event {other:?}"),
                },
                other => panic!("expected event, got {other:?}"),
            }
        }
        assert_eq!(tags, vec![0, 1, 2, 10, 11]);
        assert_eq!(src.consumed(), 5);

        // Open mailboxes, nothing pending: Idle, not End.
        assert_eq!(src.poll_event(), SourcePoll::Idle);
        mb_a.close();
        mb_b.close();
        assert_eq!(src.poll_event(), SourcePoll::End);

        // Drained shells went home: the next acquire reuses them.
        let recycled = mb_a.acquire();
        assert!(recycled.capacity() >= 3, "shell returned to its mailbox");
    }

    #[test]
    fn socket_source_end_waits_for_pending_batches() {
        let mb = Arc::new(EventMailbox::new(4, OverflowPolicy::DropNewest));
        mb.publish(vec![LabeledEvent::from(report(7))]);
        mb.close(); // producer exits with a batch still queued
        let mut src = SocketSource::new(vec![Arc::clone(&mb)]);
        assert!(matches!(src.poll_event(), SourcePoll::Event(_)));
        assert_eq!(src.poll_event(), SourcePoll::End);
    }
}
