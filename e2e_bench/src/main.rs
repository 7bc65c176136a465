//! End-to-end benchmark of the default cnn-stack inference path.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload vgg16-dense --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Drives the public API the way a user does, makes every input from
//! `--seed`, checks every output, and prints as its last line one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. See README.md.

mod analysis;
mod check;
mod closed;
mod json;
mod metrics;
mod serve;
mod session;
mod stats;
mod trace;
mod workload;

use check::{Ops, Reference};
use stats::{median, percentile, quietest, quietest_samples, Percentile, LATENCY_SAMPLES};
use std::process::ExitCode;
use trace::Tracer;
use workload::{Inputs, Pass, Workload};

use cnn_stack::nn::ObsLevel;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` the traced run spends on its untraced baseline.
const BASELINE_SHARE: f64 = 0.3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end outcome of one measured pass of a workload.
struct EndToEnd {
    /// Quietest and all windows of the batch-1 latencies.
    windows: (usize, usize),
    p50: Percentile,
    p90: Percentile,
    throughput_ips: f64,
    max_qps: f64,
    setup_s: Vec<f64>,
    memory_bytes: f64,
    log: Vec<String>,
    serve: Option<serve::ServeRun>,
}

fn measure(
    w: Workload,
    inputs: &Inputs,
    refs: &[Reference],
    pass: Pass,
    tracer: &Tracer,
    ops: &mut Ops,
) -> EndToEnd {
    if w == Workload::ServeVgg16 {
        let variant = &w.variants()[0];
        let r = serve::run(variant, inputs, &refs[0], pass, tracer, ops);
        let latencies = quietest_samples(&r.ref_windows, LATENCY_SAMPLES);
        EndToEnd {
            windows: (
                quietest(&r.ref_windows, LATENCY_SAMPLES).len(),
                r.ref_windows.len(),
            ),
            p50: percentile(&latencies, 50.0),
            p90: percentile(&latencies, 90.0),
            throughput_ips: r.peak_goodput,
            max_qps: r.max_qps,
            setup_s: r.setup_s.clone(),
            memory_bytes: r.memory_bytes,
            log: r.log.clone(),
            serve: Some(r),
        }
    } else {
        let r = closed::run(w, inputs, refs, pass, tracer, ops);
        let b1 = quietest(&r.b1, LATENCY_SAMPLES);
        let latencies: Vec<f64> = b1.iter().flat_map(|w| w.samples.clone()).collect();
        let b1_secs: f64 = b1.iter().map(|w| w.secs).sum();
        let b8_secs = median(&quietest_samples(&r.b8, closed::B8_SAMPLES));
        EndToEnd {
            windows: (b1.len(), r.b1.len()),
            p50: percentile(&latencies, 50.0),
            p90: percentile(&latencies, 90.0),
            throughput_ips: r.b8_images as f64 / b8_secs,
            max_qps: latencies.len() as f64 / b1_secs,
            setup_s: r.setup_s,
            memory_bytes: r.memory_bytes,
            log: r.log,
            serve: None,
        }
    }
}

fn references(w: Workload, inputs: &Inputs) -> Result<Vec<Reference>, String> {
    w.variants()
        .iter()
        .map(|v| Reference::compute(&mut v.materialise().network, inputs, workload::THREADS))
        .collect()
}

/// The last line of the output.
fn result_line(ops: &Ops, values: &[(String, f64, &str)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(*v),
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.mismatches == 0,
        ops.attempted,
        ops.failed(),
        metrics.join(", ")
    )
}

fn untraced(args: &Args, inputs: &Inputs, refs: &[Reference], ops: &mut Ops) -> Vec<(String, f64)> {
    let w = args.workload;
    let tracer = Tracer::new(false);
    let pass = Pass {
        seconds: args.seconds,
        setup_reps: SETUP_REPS,
        obs: ObsLevel::Off,
    };
    let e = measure(w, inputs, refs, pass, &tracer, ops);
    for line in &e.log {
        println!("{line}");
    }
    println!(
        "latency over {} batch-1 requests in the quietest {} of {} windows: p50 has {} beyond it, p90 has {} beyond it",
        e.p90.samples, e.windows.0, e.windows.1, e.p50.beyond, e.p90.beyond
    );
    println!("setup_s samples: {:?}", e.setup_s);
    let success = if ops.attempted == 0 {
        0.0
    } else {
        1.0 - ops.failed() as f64 / ops.attempted as f64
    };
    vec![
        ("latency_ms_p50".into(), e.p50.value),
        ("latency_ms_p90".into(), e.p90.value),
        ("throughput_ips".into(), e.throughput_ips),
        ("max_qps_at_slo".into(), e.max_qps),
        ("setup_s".into(), median(&e.setup_s)),
        ("memory_bytes".into(), e.memory_bytes),
        ("success_ratio".into(), success),
    ]
}

fn traced(args: &Args, inputs: &Inputs, refs: &[Reference], ops: &mut Ops) -> Vec<(String, f64)> {
    let w = args.workload;
    let off = Tracer::new(false);
    let baseline = Pass {
        seconds: BASELINE_SHARE * args.seconds,
        setup_reps: 1,
        obs: ObsLevel::Off,
    };
    let baseline = measure(w, inputs, refs, baseline, &off, ops);
    let tracer = Tracer::new(true);
    let pass = Pass {
        seconds: args.seconds,
        setup_reps: 1,
        obs: ObsLevel::Metrics,
    };
    let e = measure(w, inputs, refs, pass, &tracer, ops);
    let mut log = e.log.clone();
    let mut values = analysis::analyse(w, inputs, refs, &tracer, ops, &mut log);
    for line in &log {
        println!("{line}");
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    values.insert(
        "obs.trace_overhead".into(),
        ratio(e.p50.value, baseline.p50.value),
    );
    if let Some(s) = &e.serve {
        let wait = s
            .metrics
            .as_ref()
            .and_then(|m| {
                m.histograms
                    .iter()
                    .find(|h| h.name == "serve.queue_wait_ns")
            })
            .map(|h| h.buckets.clone())
            .unwrap_or_default();
        values.insert(
            "serve.queue_wait_ms_p50".into(),
            stats::histogram_percentile(&wait, 50.0) / 1e6,
        );
        values.insert(
            "serve.queue_wait_ms_p90".into(),
            stats::histogram_percentile(&wait, 90.0) / 1e6,
        );
        let (requests, batches, slots) = serve::batch_accounting(&s.batch_sizes);
        values.insert("serve.mean_batch".into(), ratio(requests, batches));
        values.insert("serve.padding_ratio".into(), ratio(requests, slots));
        values.insert("serve.shed".into(), s.shed as f64);
        values.insert("serve.failed".into(), s.failed as f64);
        values.insert(
            "serve.gen_lateness_ms_p90".into(),
            percentile(&s.lateness_ms, 90.0).value,
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.chrome_json())) {
        Ok(()) => println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    metrics::PER_LAYER
        .iter()
        .map(|m| (m.name.clone(), values.get(&m.name).copied().unwrap_or(0.0)))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Contained kernel panics are part of what is measured: report each
    // in one line rather than with the default hook's backtrace.
    std::panic::set_hook(Box::new(|info| eprintln!("contained panic: {info}")));
    let inputs = Inputs::from_seed(args.seed);
    let refs = match references(args.workload, &inputs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot check outputs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ops = Ops::default();
    let values = if args.trace {
        traced(&args, &inputs, &refs, &mut ops)
    } else {
        untraced(&args, &inputs, &refs, &mut ops)
    };
    let units = if args.trace {
        &*metrics::PER_LAYER
    } else {
        &*metrics::END_TO_END
    };
    for note in &ops.notes {
        println!("failure: {note}");
    }
    let rows: Vec<(String, f64, &str)> = values
        .into_iter()
        .map(|(name, v)| {
            let def = units
                .iter()
                .find(|m| m.name == name)
                .expect("every reported metric is defined");
            let bound = def
                .bound
                .map_or(String::new(), |b| format!(", regression bound {b}"));
            println!(
                "{name} = {v} {} ({} is better{bound})",
                def.unit, def.better
            );
            (name, v, def.unit)
        })
        .collect();
    println!(
        "{} operations attempted, {} failed ({} errors, {} panics, {} outputs off the reference)",
        ops.attempted,
        ops.failed(),
        ops.errors,
        ops.panics,
        ops.mismatches
    );
    println!("{}", result_line(&ops, &rows));
    ExitCode::SUCCESS
}
