//! Property-based tests on the workspace's core data structures and
//! invariants, spanning crates.

use amlight::core::event::Telemetry;
use amlight::core::verdict::{SmoothingWindow, Verdict};
use amlight::features::{FlowTable, FlowTableConfig, StreamingStats};
use amlight::int::{HopMetadata, InstructionSet, TelemetryReport};
use amlight::ml::{ConfusionMatrix, Dataset, StandardScaler};
use amlight::net::{Decode, Encode, FlowKey, Packet, PacketBuilder, Protocol, TcpFlags};
use amlight::sim::clock::TelemetryClock;
use proptest::prelude::*;

fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp)],
    )
        .prop_map(|(s, d, sp, dp, proto)| FlowKey::new(s.into(), d.into(), sp, dp, proto))
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_flow_key(),
        any::<u16>(),
        0u16..1400,
        any::<u32>(),
        0u8..64,
    )
        .prop_map(|(key, id, payload, seq, flags)| {
            let builder = PacketBuilder::new(key.src_ip, key.dst_ip).identification(id);
            match key.protocol {
                Protocol::Tcp => builder.tcp(
                    key.src_port,
                    key.dst_port,
                    TcpFlags(flags & 0x3f),
                    seq,
                    seq / 2,
                    payload,
                ),
                Protocol::Udp => builder.udp(key.src_port, key.dst_port, payload),
            }
        })
}

proptest! {
    #[test]
    fn flow_key_bytes_roundtrip(key in arb_flow_key()) {
        prop_assert_eq!(FlowKey::from_bytes(&key.to_bytes()), Some(key));
    }

    #[test]
    fn packet_wire_roundtrip(pkt in arb_packet()) {
        let mut cursor = pkt.encode_to_bytes().freeze();
        let back = Packet::decode(&mut cursor).unwrap();
        prop_assert_eq!(back, pkt);
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn packet_flow_key_is_reverse_of_reverse(pkt in arb_packet()) {
        let key = pkt.flow_key();
        prop_assert_eq!(key.reversed().reversed(), key);
    }

    #[test]
    fn telemetry_report_roundtrip(
        key in arb_flow_key(),
        len in 20u16..1500,
        hops in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), 0u32..10_000),
            0..8,
        ),
        export in any::<u64>(),
    ) {
        let report = TelemetryReport {
            flow: key,
            ip_len: len,
            tcp_flags: match key.protocol {
                Protocol::Tcp => Some(0x12),
                Protocol::Udp => None,
            },
            instructions: InstructionSet::amlight(),
            hops: hops
                .into_iter()
                .map(|(sw, ing, eg, q)| HopMetadata {
                    switch_id: sw,
                    ingress_tstamp: ing,
                    egress_tstamp: eg,
                    hop_latency: 0,
                    queue_occupancy: q,
                })
                .collect(),
            export_ns: export,
        };
        let mut cursor = report.encode_to_bytes().freeze();
        prop_assert_eq!(TelemetryReport::decode(&mut cursor).unwrap(), report);
    }

    #[test]
    fn welford_matches_two_pass_reference(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var));
        prop_assert!(s.variance() >= 0.0);
        prop_assert!(s.min() <= s.mean() + 1e-9 && s.mean() <= s.max() + 1e-9);
    }

    #[test]
    fn welford_merge_is_order_independent(
        xs in proptest::collection::vec(-1e4f64..1e4, 1..100),
        split in 0usize..100,
    ) {
        let cut = split.min(xs.len());
        let mut left = StreamingStats::new();
        let mut right = StreamingStats::new();
        for &x in &xs[..cut] { left.push(x); }
        for &x in &xs[cut..] { right.push(x); }
        let mut ab = left;
        ab.merge(&right);
        let mut ba = right;
        ba.merge(&left);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
    }

    #[test]
    fn stamp_delta_correct_below_one_wrap(start in any::<u64>(), gap in 0u64..4_294_967_295) {
        let t0 = start;
        let t1 = start.wrapping_add(gap);
        let d = TelemetryClock::stamp_delta(
            TelemetryClock::truncate(t0),
            TelemetryClock::truncate(t1),
        );
        prop_assert_eq!(u64::from(d), gap);
    }

    #[test]
    fn smoothing_window_verdict_matches_majority(
        votes in proptest::collection::vec(any::<bool>(), 1..50),
        window in 1usize..7,
    ) {
        let mut w = SmoothingWindow::new(window);
        let mut last = Verdict::Pending;
        for &v in &votes {
            last = w.push(v);
        }
        if votes.len() < window {
            prop_assert_eq!(last, Verdict::Pending);
        } else {
            let tail = &votes[votes.len() - window..];
            let ones = tail.iter().filter(|&&v| v).count();
            let expect = if ones * 2 > window { Verdict::Attack } else { Verdict::Normal };
            prop_assert_eq!(last, expect);
        }
    }

    #[test]
    fn scaler_transform_then_inverse_is_identity(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e5f64..1e5, 4),
            2..50,
        ),
    ) {
        let mut d = Dataset::new(4);
        for r in &rows {
            d.push(r, false);
        }
        let scaler = StandardScaler::fit(&d);
        for r in &rows {
            let mut x = r.clone();
            scaler.transform_row(&mut x);
            scaler.inverse_transform_row(&mut x);
            for (a, b) in x.iter().zip(r) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn confusion_matrix_metrics_bounded(
        truth in proptest::collection::vec(any::<bool>(), 1..100),
        flips in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let n = truth.len().min(flips.len());
        let pred: Vec<bool> =
            truth[..n].iter().zip(&flips[..n]).map(|(t, f)| t ^ f).collect();
        let m = ConfusionMatrix::from_predictions(&truth[..n], &pred);
        prop_assert_eq!(m.total() as usize, n);
        for v in [m.accuracy(), m.precision(), m.recall(), m.f1()] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert_eq!(m.misclassified() as usize,
            truth[..n].iter().zip(&pred).filter(|(t, p)| t != p).count());
    }

    /// The slab/open-addressing [`FlowTable`] is bit-identical to the
    /// hashmap reference implementation under arbitrary interleavings of
    /// INT ingest, sFlow ingest, and idle eviction, both with idle sweeps
    /// and with a never-idle config where every creation over the cap
    /// takes the oldest-record fallback. The clock is strictly increasing
    /// so every record's `last_seen_ns` is unique — the oldest-idle
    /// eviction fallback then has one well-defined victim in both tables,
    /// making the comparison exact rather than modulo ties.
    #[test]
    fn slab_flow_table_matches_hashmap_reference(
        ops in proptest::collection::vec(
            (0u8..8, 0u16..12, 40u16..1500, any::<u32>()),
            1..400,
        ),
    ) {
        use amlight::features::reference::HashFlowTable;
        use amlight::sflow::FlowSample;

        // Idle sweeps at 50 µs, then never idle: with the second config
        // every creation over the cap takes the capacity fallback.
        for idle_timeout_ns in [50_000, u64::MAX / 2] {
            let cfg = FlowTableConfig {
                idle_timeout_ns,
                max_flows: 8, // below the 12-key universe: eviction fires
            };
            let mut slab = FlowTable::new(cfg);
            let mut reference = HashFlowTable::new(cfg);
            let flow = |port: u16| FlowKey::new(
                [10, 0, 0, 1].into(),
                [10, 0, 0, 2].into(),
                5000 + port,
                443,
                Protocol::Tcp,
            );

            for (i, &(op, k, len, stamp)) in ops.iter().enumerate() {
                let now = (i as u64 + 1) * 10_000;
                match op {
                    0..=3 => {
                        let report = TelemetryReport {
                            flow: flow(k),
                            ip_len: len,
                            tcp_flags: Some(0x02),
                            instructions: InstructionSet::amlight(),
                            hops: vec![HopMetadata {
                                switch_id: 1,
                                ingress_tstamp: stamp.wrapping_sub(400),
                                egress_tstamp: stamp,
                                hop_latency: 0,
                                queue_occupancy: stamp % 32,
                            }].into(),
                            export_ns: now,
                        };
                        let (k1, r1) = slab.apply(&report.flow_update());
                        let (f1, seq1, pkts1) = (r1.features(), r1.update_seq, r1.packet_count);
                        let (k2, r2) = reference.apply(&report.flow_update());
                        prop_assert_eq!(k1, k2);
                        prop_assert_eq!(seq1, r2.update_seq);
                        prop_assert_eq!(pkts1, r2.packet_count);
                        prop_assert_eq!(f1, r2.features());
                    }
                    4..=6 => {
                        let sample = FlowSample {
                            flow: flow(k),
                            ip_len: len,
                            tcp_flags: Some(0x10),
                            observed_ns: now,
                            sampling_period: 4096,
                        };
                        let (k1, r1) = slab.apply(&sample.flow_update());
                        let (f1, seq1) = (r1.features(), r1.update_seq);
                        let (k2, r2) = reference.apply(&sample.flow_update());
                        prop_assert_eq!(k1, k2);
                        prop_assert_eq!(seq1, r2.update_seq);
                        prop_assert_eq!(f1, r2.features());
                    }
                    _ => {
                        prop_assert_eq!(slab.evict_idle(now), reference.evict_idle(now));
                    }
                }
            }

            prop_assert_eq!(slab.len(), reference.len());
            prop_assert_eq!(slab.created(), reference.created());
            prop_assert_eq!(slab.updated(), reference.updated());
            prop_assert_eq!(slab.evicted(), reference.evicted());
            for port in 0..12u16 {
                match (slab.get(&flow(port)), reference.get(&flow(port))) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.features(), b.features());
                        prop_assert_eq!(a.packet_count, b.packet_count);
                        prop_assert_eq!(a.last_seen_ns, b.last_seen_ns);
                    }
                    (None, None) => {}
                    (a, b) => prop_assert!(
                        false,
                        "presence diverged for port {}: slab={} ref={}",
                        port, a.is_some(), b.is_some()
                    ),
                }
            }
        }
    }

    #[test]
    fn flow_table_count_conservation(
        keys in proptest::collection::vec(0u16..20, 1..300),
    ) {
        // Ingest a random key sequence; created + updated == total and
        // the table holds exactly the distinct keys.
        let mut table = FlowTable::new(FlowTableConfig::default());
        for (i, &k) in keys.iter().enumerate() {
            let report = TelemetryReport {
                flow: FlowKey::new(
                    [10, 0, 0, 1].into(),
                    [10, 0, 0, 2].into(),
                    1000 + k,
                    80,
                    Protocol::Tcp,
                ),
                ip_len: 40,
                tcp_flags: Some(2),
                instructions: InstructionSet::amlight(),
                hops: vec![HopMetadata::default()].into(),
                export_ns: i as u64,
            };
            table.apply(&report.flow_update());
        }
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        prop_assert_eq!(table.len(), distinct.len());
        prop_assert_eq!(table.created() as usize, distinct.len());
        prop_assert_eq!(
            (table.created() + table.updated()) as usize,
            keys.len()
        );
        // Per-flow packet counts sum to the total ingested.
        let total: u64 = table.records().map(|r| r.packet_count).sum();
        prop_assert_eq!(total as usize, keys.len());
    }
}
