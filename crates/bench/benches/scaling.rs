//! Parallel-scaling benchmark: the threaded detection runtime across
//! shard counts — the concrete answer to the paper's §V call for
//! "faster processing capabilities" at production volume. Each shard
//! owns its flow table, triage stage and prediction loop
//! (`ThreadedPipeline::with_shards`), so this measures the live
//! daemon's scale-out path end to end over an in-memory replay.

use amlight_core::runtime::ThreadedPipeline;
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_events, train_bundle, TrainerConfig};
use amlight_features::FeatureSet;
use amlight_int::IntInstrumenter;
use amlight_ml::MlpConfig;
use amlight_net::Trace;
use amlight_net::TrafficClass;
use amlight_sim::{NetworkSim, Topology};
use amlight_traffic::ReplayLibrary;
use amlight_traffic::{TrafficMix, TrafficMixConfig};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

fn telemetry(packets: usize) -> Vec<amlight_int::TelemetryReport> {
    let mix = TrafficMix::new(TrafficMixConfig::paper_capture(3, 7));
    let trace: Trace = mix
        .generate()
        .records()
        .iter()
        .take(packets)
        .copied()
        .collect();
    let (topo, _, _) = Topology::testbed();
    let sim = NetworkSim::new(topo).run(&trace);
    IntInstrumenter::amlight().instrument(&trace, &sim)
}

fn bench_threaded_shards(c: &mut Criterion) {
    // Train once, then measure the full sharded detect path per shard
    // count.
    let lab = Testbed::new(TestbedConfig::default());
    let lib = ReplayLibrary::build(800, 17);
    let mut training = Vec::new();
    for class in TrafficClass::ALL {
        if class != TrafficClass::SlowLoris {
            training.extend(lab.replay_class(&lib, class));
        }
    }
    let raw = dataset_from_events(&training, FeatureSet::full());
    let bundle = train_bundle(
        &raw,
        FeatureSet::full(),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: 4,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    );
    let reports = telemetry(30_000);

    let mut g = c.benchmark_group("threaded_shards");
    g.throughput(Throughput::Elements(reports.len() as u64));
    g.sample_size(15);
    for shards in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter_batched(
                    || {
                        (
                            ThreadedPipeline::new(bundle.clone()).with_shards(shards),
                            reports.clone(),
                        )
                    },
                    |(pipe, reports)| pipe.run(reports).expect("no module thread panicked"),
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_threaded_shards);
criterion_main!(benches);
