//! End-to-end benchmark of the AmLight INT DDoS detector's daemon path.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload table1_replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run: set the system up (train, save, reload, bind, start) three
//! times; build the workload's inputs from `--seed`; drive them through
//! the single-thread stage functions (and, with `--trace 1`, a traced
//! copy of that run); through the threaded pipeline as a closed loop
//! (saturate); and over real UDP as an open loop paced at the
//! workload's offered rate (paced). See `RATIONALE.md`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). Progress and the full metric table go
//! to standard error; every result is also written to
//! `benchmark/results/`. The run exits non-zero when verdict parity or
//! event conservation fails.

mod analysis;
mod live;
mod single;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amlight_core::{
    train_bundle, trainer::dataset_from_labeled, ModelBundle, TelemetryBackend, TrainerConfig,
};
use amlight_int::TelemetryReport;
use amlight_net::TrafficClass;

use crate::trace::{Layer, Tracer, LAYERS};
use crate::workload::{Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Day length of the Table I capture the bundle is trained on.
const TRAIN_DAY_LEN_S: u64 = 3;
/// Training capture seed unless `--train-seed` is given.
const DEFAULT_TRAIN_SEED: u64 = 41_751;
/// Safety time box of the untraced single-thread run.
const SINGLE_BUDGET: Duration = Duration::from_secs(30);
/// Time box of one saturate pass.
const SATURATE_BUDGET: Duration = Duration::from_secs(30);
/// Saturate passes run for this long (at least one pass) as warm-up,
/// then until [`SATURATE_MIN`] more has passed and at least
/// [`SATURATE_PASSES`] passes were measured; `capacity_eps` is their
/// median.
const SATURATE_WARMUP: Duration = Duration::from_secs(1);
const SATURATE_MIN: Duration = Duration::from_secs(6);
const SATURATE_PASSES: usize = 2;
/// Stated tolerance for the traced per-layer rows summing to the
/// untraced single-thread cost per event.
const SUM_TOLERANCE: f64 = 0.35;

struct Args {
    workload: Workload,
    seed: u64,
    train_seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut train_seed = DEFAULT_TRAIN_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--train-seed" => train_seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if seed == train_seed {
        return Err("replay --seed must differ from --train-seed".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        train_seed,
        seconds,
        trace,
    })
}

/// The CLI's `train` path: hold SlowLoris out as the zero-day class,
/// non-fast trainer configuration, training window stamped.
fn train(capture: &[(TelemetryReport, TrafficClass)]) -> ModelBundle {
    let backend = TelemetryBackend::Int;
    let training: Vec<_> = capture
        .iter()
        .filter(|(_, c)| *c != TrafficClass::SlowLoris)
        .cloned()
        .collect();
    let (lo, hi) = training.iter().fold((u64::MAX, 0u64), |(lo, hi), (r, _)| {
        (lo.min(r.export_ns), hi.max(r.export_ns))
    });
    let view = backend.derive_view(&training, &Default::default());
    let raw = dataset_from_labeled(&view, backend.feature_set());
    train_bundle(&raw, backend.feature_set(), &TrainerConfig::default())
        .with_train_window(lo.min(hi), hi)
}

/// One set-up: train, save, reload, bind the ingest server and start
/// the pipeline on it. Returns the time it took and the bundle.
fn setup_once(
    capture: &[(TelemetryReport, TrafficClass)],
    path: &Path,
) -> std::io::Result<(Duration, ModelBundle)> {
    let start = Instant::now();
    let bundle = train(capture);
    bundle.save(path)?;
    let bundle = ModelBundle::load(path)?;
    let server = live::bind_server()?;
    let pipeline = live::pipeline(bundle.clone());
    let handle = pipeline.start(server.source());
    let took = start.elapsed();
    handle.stop();
    server.shutdown();
    handle
        .join()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::remove_file(path).ok();
    Ok((took, bundle))
}

/// A named measurement with its unit; `None` means not applicable to
/// this workload.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    opt(name, Some(value), unit)
}

fn opt(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(mt.name),
                mt.value.map_or("null".into(), json_num),
                json_str(mt.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The commit the tree was checked out at, if it is a git checkout.
fn git_rev(repo: &Path) -> String {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(repo.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <table1_replay|web_steady|spoofed_flood> --seed <n> \
                 [--seconds <n>] [--trace <0|1>] [--train-seed <n>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> std::io::Result<bool> {
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("results");
    std::fs::create_dir_all(&out_dir)?;
    let name = args.workload.name();
    let tag = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));

    // --- set-up, several times --------------------------------------
    let capture = workload::table1_capture(TRAIN_DAY_LEN_S, args.train_seed);
    let bundle_path = out_dir.join(format!("bundle-{}.json", std::process::id()));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bundle = None;
    for _ in 0..SETUPS {
        let (took, b) = setup_once(&capture, &bundle_path)?;
        setup_s.push(took.as_secs_f64());
        bundle = Some(b);
    }
    drop(capture);
    let bundle = bundle.expect("at least one set-up");
    eprintln!("[{name}] set-up {:?} s", setup_s);

    // --- inputs -------------------------------------------------------
    let t = Instant::now();
    let inputs: Arc<Inputs> = Arc::new(workload::build(args.workload, args.seed, args.seconds));
    eprintln!(
        "[{name}] inputs: {} events, {} flows, {} datagrams over {:.2} s ({:.1} s to build)",
        inputs.events(),
        inputs.flows(),
        inputs.datagrams.len(),
        inputs.span_ns as f64 / 1e9,
        t.elapsed().as_secs_f64()
    );

    // --- paced: open loop over UDP ------------------------------------
    // First after set-up, so the memory it grows is its own and not
    // freed memory other phases left behind.
    let mut violations: Vec<String> = Vec::new();
    let paced = live::run_paced(&inputs, &bundle)?;

    // --- saturate: closed loop ----------------------------------------
    // The first passes of a process run slower; they warm up and are
    // not counted.
    let mut warmup = Vec::new();
    let mut capacity = Vec::new();
    let mut sat_cpu_ns = 0u64;
    let mut sat_events = 0u64;
    let sat_start = Instant::now();
    loop {
        let warming = warmup.is_empty() || sat_start.elapsed() < SATURATE_WARMUP;
        if !warming
            && capacity.len() >= SATURATE_PASSES
            && sat_start.elapsed() >= SATURATE_WARMUP + SATURATE_MIN
        {
            break;
        }
        let run = live::run_saturate(&inputs, &bundle, SATURATE_BUDGET)?;
        violations.extend(analysis::saturate_conservation(&run));
        let eps = run.events_in as f64 / run.wall.as_secs_f64();
        if warming {
            warmup.push(eps);
            continue;
        }
        capacity.push(eps);
        sat_cpu_ns += run.cpu_ns;
        sat_events += run.events_in;
    }
    let capacity_eps = sys::median(&capacity);
    eprintln!(
        "[{name}] saturate: {} passes, {:.0} events/s",
        capacity.len(),
        capacity_eps
    );

    // --- single thread ------------------------------------------------
    let untraced = single::run_untraced(&inputs, &bundle, SINGLE_BUDGET);
    let ns_per_event =
        |run: &single::SingleRun| run.wall.as_nanos() as f64 / run.events.max(1) as f64;
    let mut untraced_ns = ns_per_event(&untraced);
    eprintln!(
        "[{name}] single thread: {} events in {:.2} s ({untraced_ns:.0} ns/event), {} attack verdicts",
        untraced.events,
        untraced.wall.as_secs_f64(),
        analysis::attacks(&untraced.codes)
    );
    if untraced.decode_errors > 0 {
        violations.push(format!(
            "single thread: {} decode errors",
            untraced.decode_errors
        ));
    }
    let mut traced_mismatched = 0u64;
    let traced = if args.trace {
        let mut tracer = Tracer::new(trace::RETAIN);
        let run = single::run_traced(&inputs, &bundle, untraced.datagrams, &mut tracer);
        let mism = analysis::code_mismatches(&untraced.codes, &run.codes);
        traced_mismatched = mism;
        if mism > 0 || run.events != untraced.events {
            violations.push(format!(
                "traced run disagrees with the stage structs on {mism} events"
            ));
        }
        tracer.write_spans(&out_dir.join(format!("{tag}-spans.csv")))?;
        // The untraced cost the traced rows are held against: the mean
        // of one untraced run before the traced one and one after, so
        // neither order effect lands on one side only.
        let again = single::run_untraced(&inputs, &bundle, SINGLE_BUDGET);
        untraced_ns = (untraced_ns + ns_per_event(&again)) / 2.0;
        Some((run, tracer))
    } else {
        None
    };

    let offered = inputs.events() as u64;
    violations.extend(analysis::paced_conservation(offered, &paced));
    let matched = analysis::match_paced(&inputs, &paced);
    let parity = analysis::parity(&inputs, &matched, &untraced.codes);
    let compared = parity.compared;
    if parity.mismatched > 0 {
        violations.push(format!(
            "verdict parity: {} of {compared} flows differ between paced and single-thread",
            parity.mismatched
        ));
    }
    if matched.records_unmatched > 0 {
        violations.push(format!(
            "{} verdicts for flows never offered",
            matched.records_unmatched
        ));
    }
    // An operation is one offered event; it fails when its outcome is
    // wrong: its flow's verdicts differ from the single-thread reference,
    // or the traced run disagrees with the stage structs on it. An event
    // with no final state (lost in the kernel, shed under overload, or
    // unprocessed at the deadline) is not a wrong outcome: it is measured
    // as `event_loss_ratio`, whose size depends on how the host schedules
    // the run.
    let failed = (parity.mismatched_events + traced_mismatched).min(offered);
    let finals = paced.created + paced.predictions + paced.triage_dropped;
    let loss_ratio = offered.saturating_sub(finals) as f64 / offered as f64;
    eprintln!(
        "[{name}] paced: offered {offered}, decoded {}, shed {}, pending {}, final {finals}, \
         {} verdicts, {} complete flows, parity {compared} flows{}",
        paced.decoded,
        paced.mailbox_shed,
        paced.pending,
        paced.predictions,
        matched.complete_flows,
        if paced.cut_at_deadline {
            ", cut at the deadline"
        } else {
            ""
        }
    );

    // --- metrics --------------------------------------------------------
    // p50 over every matched verdict; p99 as the median of per-window
    // p99s, so one stalled moment moves one window, not the figure.
    let p50 = matched.latency_q(0.50);
    let p99 = matched.windowed_q(0.99);
    let p99_whole = matched.latency_q(0.99);
    let p999 = matched.latency_q(0.999);
    if !(p50.is_finite() && p99.is_finite()) {
        violations.push("no verdict latency samples".into());
    }
    // The gated end-to-end metrics (BENCHMARK.json bounds them) ...
    let end_to_end = vec![
        m("setup_s", sys::median(&setup_s), "s"),
        m("capacity_eps", capacity_eps, "1/s"),
        m("verdict_p50_us", p50, "us"),
    ];
    // ... and the ones reported without a bound: too noisy run to run on
    // a shared two-core host, zero on some workload, or without a
    // subject on one (see RATIONALE.md).
    let rss_growth_mb = paced.rss_growth_bytes as f64 / (1024.0 * 1024.0);
    let unbounded = vec![
        m("verdict_p99_us", p99, "us"),
        m("rss_growth_mb", rss_growth_mb, "MB"),
        m("event_loss_ratio", loss_ratio, "ratio"),
        opt("update_recall", matched.update_recall, "ratio"),
        opt("flow_recall", matched.flow_recall, "ratio"),
        opt("benign_flow_fpr", matched.benign_flow_fpr, "ratio"),
        opt("detect_delay_ms", matched.detect_delay_ms, "ms"),
    ];

    let late_us: Vec<f64> = {
        let mut v: Vec<f64> = paced.gen.late_ns.iter().map(|&n| n as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let paced_cpu_ns = paced.cpu_ns.saturating_sub(paced.gen.cpu_ns);
    let batch_fill_us = paced.batch_fill_us;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };

    let mut layer_table = Vec::new();
    let mut per_layer = Vec::new();
    if let Some((run, tracer)) = &traced {
        let events = run.events.max(1) as f64;
        let row = |l: Layer| tracer.totals(l);
        let total = |l: Layer| row(l).incl_ns as f64;
        let per_op = |l: Layer| per(row(l).incl_ns as f64, row(l).calls);
        let traced_ns = run.wall.as_nanos() as f64 / events;
        // Loop glue outside every span is a row of its own, so the rows
        // add up to the traced cost per event.
        let spans_self: f64 = LAYERS.iter().map(|&l| row(l).self_ns as f64).sum();
        let glue = run.wall.as_nanos() as f64 - spans_self;
        for &l in &LAYERS {
            let t = row(l);
            layer_table.push((
                l.name(),
                t.calls,
                t.self_ns as f64 / events,
                t.incl_ns as f64 / events,
            ));
        }
        layer_table.push(("loop", run.events, glue / events, glue / events));
        let verdict_path_us = (total(Layer::Decode) / events
            + total(Layer::Ingest) / events
            + per(total(Layer::Predict), run.judged)
            + per_op(Layer::Aggregate))
            / 1e3;
        let sum_ratio = traced_ns / untraced_ns;
        eprintln!(
            "[{name}] traced: layer rows sum to {traced_ns:.0} ns/event vs untraced \
             {untraced_ns:.0} ({:+.1}%, tolerance {:.0}%{})",
            (sum_ratio - 1.0) * 100.0,
            SUM_TOLERANCE * 100.0,
            if (sum_ratio - 1.0).abs() > SUM_TOLERANCE {
                ", OUTSIDE"
            } else {
                ""
            },
        );
        per_layer = vec![
            m("ingest.decode_ns", total(Layer::Decode) / events, "ns"),
            m(
                "ingest.kernel_lost",
                offered.saturating_sub(paced.decoded) as f64,
                "count",
            ),
            m("ingest.mailbox_shed", paced.mailbox_shed as f64, "count"),
            m(
                "ingest.mailbox_depth_max",
                paced.mailbox_depth_max as f64,
                "count",
            ),
            m("ingest.batch_fill_us", batch_fill_us, "us"),
            m("table.apply_created_ns", per_op(Layer::ApplyCreated), "ns"),
            m("table.apply_updated_ns", per_op(Layer::ApplyUpdated), "ns"),
            m("table.live_flows_max", run.live_flows_max as f64, "count"),
            m("table.evicted", run.evicted as f64, "count"),
            m("triage.assess_ns", per_op(Layer::Triage), "ns"),
            m("triage.alarm_windows", paced.alarm_windows as f64, "count"),
            m(
                "triage.would_drop_ratio",
                per(paced.would_drop as f64, paced.scored),
                "ratio",
            ),
            m("db.write_ns", per_op(Layer::DbWrite), "ns"),
            m("db.log_len", paced.db_log_len as f64, "count"),
            m("db.flows_held", paced.db_flows as f64, "count"),
            m("db.predictions_held", paced.records.len() as f64, "count"),
            m("processor.ingest_ns", total(Layer::Ingest) / events, "ns"),
            m(
                "processor.judged_ratio",
                run.judged as f64 / events,
                "ratio",
            ),
            m(
                "predict.row_ns",
                per(total(Layer::Predict), run.judged),
                "ns",
            ),
            m(
                "predict.scale_ns",
                per(total(Layer::Scale), run.judged),
                "ns",
            ),
            m("predict.mlp_ns", per(total(Layer::Mlp), run.judged), "ns"),
            m(
                "predict.forest_ns",
                per(total(Layer::Forest), run.judged),
                "ns",
            ),
            m("predict.gnb_ns", per(total(Layer::Gnb), run.judged), "ns"),
            m("aggregate.ns", per_op(Layer::Aggregate), "ns"),
            m(
                "aggregate.windows_held",
                matched.aggregate_windows as f64,
                "count",
            ),
            m(
                "runtime.cpu_ns_per_event_paced",
                per(paced_cpu_ns as f64, paced.events_in),
                "ns",
            ),
            m(
                "runtime.cpu_ns_per_event_saturate",
                per(sat_cpu_ns as f64, sat_events),
                "ns",
            ),
            m(
                "runtime.queue_wait_us",
                p50 - verdict_path_us - batch_fill_us,
                "us",
            ),
            m("runtime.verdict_p99_us", p99, "us"),
            m("runtime.verdict_p99_whole_us", p99_whole, "us"),
            m("runtime.verdict_p999_us", p999, "us"),
            m("runtime.predictions", paced.predictions as f64, "count"),
            m("runtime.rss_growth_mb", rss_growth_mb, "MB"),
            m("runtime.event_loss_ratio", loss_ratio, "ratio"),
            m("generator.late_us_p99", sys::quantile(&late_us, 0.99), "us"),
            m(
                "generator.late_us_max",
                late_us.last().copied().unwrap_or(0.0),
                "us",
            ),
            m("trace.untraced_ns_per_event", untraced_ns, "ns"),
            m("trace.traced_ns_per_event", traced_ns, "ns"),
            m("trace.overhead_ns_per_event", traced_ns - untraced_ns, "ns"),
            m(
                "quality.benign_flow_fpr",
                matched.benign_flow_fpr.unwrap_or(0.0),
                "ratio",
            ),
        ];
    }

    let correct = violations.is_empty();
    for v in &violations {
        eprintln!("[{name}] CHECK FAILED: {v}");
    }
    eprintln!("[{name}] end-to-end metrics (seed {}):", args.seed);
    for mt in end_to_end.iter().chain(&unbounded) {
        match mt.value {
            Some(v) => eprintln!("  {:<18} {:>14.4} {}", mt.name, v, mt.unit),
            None => eprintln!("  {:<18} {:>14} {}", mt.name, "n/a", mt.unit),
        }
    }
    if !layer_table.is_empty() {
        eprintln!("[{name}] traced per-layer table (ns per event):");
        eprintln!(
            "  {:<22} {:>10} {:>10} {:>10}",
            "span", "calls", "self", "incl"
        );
        for (n, calls, s, i) in &layer_table {
            eprintln!("  {n:<22} {calls:>10} {s:>10.1} {i:>10.1}");
        }
        for mt in &per_layer {
            eprintln!(
                "  {:<34} {:>14.3} {}",
                mt.name,
                mt.value.unwrap_or(f64::NAN),
                mt.unit
            );
        }
    }

    // --- results file ---------------------------------------------------
    let repo = bench_dir.parent().unwrap_or(&bench_dir).to_path_buf();
    let mut env = vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu_model()),
        ("rustflags", env!("BENCH_RUSTFLAGS").to_string()),
        ("profile", env!("BENCH_PROFILE").to_string()),
        ("git_rev", git_rev(&repo)),
        ("seed", args.seed.to_string()),
        ("train_seed", args.train_seed.to_string()),
        ("train_day_len_s", TRAIN_DAY_LEN_S.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("transport", "udp over loopback".to_string()),
    ];
    env.extend(inputs.params.iter().map(|(k, v)| (*k, v.clone())));
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let table_json: Vec<String> = layer_table
        .iter()
        .map(|(n, calls, s, i)| {
            format!(
                "{{\"span\": {}, \"calls\": {calls}, \"self_ns_per_event\": {}, \"incl_ns_per_event\": {}}}",
                json_str(n),
                json_num(*s),
                json_num(*i)
            )
        })
        .collect();
    let checks: Vec<String> = violations.iter().map(|v| json_str(v)).collect();
    let setups: Vec<String> = setup_s.iter().map(|s| json_num(*s)).collect();
    let result = format!(
        "{{\"workload\": {}, \"correct\": {correct}, \"attempted\": {offered}, \"failed\": {failed}, \
         \"environment\": {{{}}}, \"end_to_end\": {}, \"reported\": {}, \"per_layer\": {}, \
         \"layer_table\": [{}], \"sum_tolerance\": {SUM_TOLERANCE}, \"setup_s_each\": [{}], \
         \"capacity_eps_each\": [{}], \"capacity_eps_warmup\": [{}], \"latency_samples\": {}, \"parity_flows\": {compared}, \
         \"check_failures\": [{}]}}\n",
        json_str(name),
        env_json.join(", "),
        metrics_json(&end_to_end),
        metrics_json(&unbounded),
        metrics_json(&per_layer),
        table_json.join(", "),
        setups.join(", "),
        capacity.iter().map(|c| json_num(*c)).collect::<Vec<_>>().join(", "),
        warmup.iter().map(|c| json_num(*c)).collect::<Vec<_>>().join(", "),
        matched.latency_us.len(),
        checks.join(", "),
    );
    std::fs::write(out_dir.join(format!("{tag}.json")), result)?;

    let printed = if args.trace { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {offered}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(printed)
    );
    Ok(correct)
}
