//! The closed-loop workloads: one caller runs batch-1 requests back to
//! back, then batch-8 passes, round-robin across the workload's model
//! variants, each with its own batch-1 and batch-8 session.

use crate::check::{Ops, Reference};
use crate::session::{health_lines, open, run_checked, Live};
use crate::stats::Window;
use crate::trace::Tracer;
use crate::workload::{Inputs, Pass, Workload, IMAGES, THREADS};
use cnn_stack::models::Model;
use cnn_stack::nn::{network_memory, ExecConfig, ObsLevel, PlanCompiler};
use std::time::Instant;

/// Share of the run given to batch-1 requests; the rest runs batch-8.
const B1_SHARE: f64 = 0.6;
/// Floors per window that hold however slow a pass is.
const MIN_B1_PER_VARIANT: usize = 3;
const MIN_B8_ROUNDS: usize = 2;
/// Samples are grouped into windows of at least this many seconds (and
/// whole round-robin cycles) for the quiet-window statistics
/// (`stats::quietest`).
const WINDOW_S: f64 = 0.25;
/// Batch-8 rounds the throughput is taken over at least.
pub const B8_SAMPLES: usize = 10;

pub struct ClosedRun {
    /// Batch-1 request latencies, milliseconds, in windows of whole
    /// round-robin cycles.
    pub b1: Vec<Window>,
    /// Seconds of each batch-8 round (one pass per variant), in windows.
    pub b8: Vec<Window>,
    /// Images one batch-8 round carries.
    pub b8_images: usize,
    /// Seconds from start until every session gave a good output, per
    /// set-up repetition.
    pub setup_s: Vec<f64>,
    /// Largest coloured arena peak plus the stored weight bytes.
    pub memory_bytes: f64,
    /// Per-session health, for the log.
    pub log: Vec<String>,
}

/// Builds, compiles and warms every session of the workload.
fn setup<'m>(
    w: Workload,
    models: &'m mut Vec<Model>,
    inputs: &Inputs,
    refs: &[Reference],
    obs: ObsLevel,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Vec<Live<'m>> {
    let variants = w.variants();
    let cfg = ExecConfig {
        threads: THREADS,
        observer: obs,
        ..ExecConfig::serial()
    };
    let compiler = PlanCompiler::standard();
    let mut keys = Vec::new();
    for (vi, v) in variants.iter().enumerate() {
        for batch in [1, IMAGES] {
            models.push(tracer.span_detail(
                "stack.try_materialise",
                || v.label.to_string(),
                || v.materialise(),
            ));
            keys.push((vi, batch));
        }
    }
    models
        .iter_mut()
        .zip(keys)
        .map(|(model, (vi, batch))| {
            let input = if batch == 1 {
                &inputs.singles[0]
            } else {
                &inputs.batch
            };
            let label = format!("{}/{}", model.kind, variants[vi].label);
            let (live, _) = open(
                label,
                vi,
                model,
                batch,
                &cfg,
                &compiler,
                input,
                Some(&refs[vi]),
                tracer,
                ops,
            );
            live
        })
        .collect()
}

/// Runs the workload: `pass.setup_reps` full set-ups, each followed by
/// an equal share of `pass.seconds` of requests, with the samples
/// pooled. The host's speed drifts over tens of seconds, so windows
/// spread across the whole run steady the medians more than one window
/// at its end.
pub fn run(
    w: Workload,
    inputs: &Inputs,
    refs: &[Reference],
    pass: Pass,
    tracer: &Tracer,
    ops: &mut Ops,
) -> ClosedRun {
    let mut run = ClosedRun {
        b1: Vec::new(),
        b8: Vec::new(),
        b8_images: 0,
        setup_s: Vec::new(),
        memory_bytes: 0.0,
        log: Vec::new(),
    };
    let window = pass.seconds / pass.setup_reps as f64;
    for _ in 0..pass.setup_reps {
        let mut models = Vec::new();
        let t = Instant::now();
        let mut live = tracer.request("setup", || {
            setup(w, &mut models, inputs, refs, pass.obs, tracer, ops)
        });
        run.setup_s.push(t.elapsed().as_secs_f64());
        measure(&mut live, window, inputs, refs, tracer, ops, &mut run);

        let peak = live
            .iter()
            .map(|l| l.session.plan().footprint().peak_bytes)
            .max()
            .unwrap_or(0);
        let weights: usize = live
            .iter()
            .filter(|l| l.batch == 1)
            .map(|l| {
                let net = l.session.network();
                let shape = l.session.plan().input_shape();
                network_memory(&net.descriptors(shape), false).weight_bytes
            })
            .sum();
        run.memory_bytes = (peak + weights) as f64;
        run.log = live.iter().flat_map(|l| health_lines(l)).collect();
    }
    run
}

/// The samples of the window opened at `window.0`, if any, as a closed
/// window; opens the next one.
fn close(window: &mut (Instant, Vec<f64>), into: &mut Vec<Window>) {
    if !window.1.is_empty() {
        into.push(Window {
            samples: std::mem::take(&mut window.1),
            secs: window.0.elapsed().as_secs_f64(),
        });
    }
    window.0 = Instant::now();
}

/// Batch-1 requests for a share of `seconds`, then batch-8 rounds for
/// the rest; appends to `run`.
fn measure(
    live: &mut [Live],
    seconds: f64,
    inputs: &Inputs,
    refs: &[Reference],
    tracer: &Tracer,
    ops: &mut Ops,
    run: &mut ClosedRun,
) {
    let (mut b1s, mut b8s): (Vec<&mut Live>, Vec<&mut Live>) =
        live.iter_mut().partition(|l| l.batch == 1);
    let nv = b1s.len();
    run.b8_images = IMAGES * nv;

    let start = Instant::now();
    let mut window = (start, Vec::new());
    let mut i = 0;
    loop {
        if i % nv == 0 {
            let done =
                start.elapsed().as_secs_f64() >= B1_SHARE * seconds && i >= MIN_B1_PER_VARIANT * nv;
            if done || window.0.elapsed().as_secs_f64() >= WINDOW_S {
                close(&mut window, &mut run.b1);
            }
            if done {
                break;
            }
        }
        let l = &mut b1s[i % nv];
        let img = (i / nv) % IMAGES;
        let r = &refs[l.variant];
        let got = tracer.request("request.b1", || {
            run_checked(l, &inputs.singles[img], img, Some(r), tracer, ops)
        });
        if let Some(s) = got {
            window.1.push(s * 1e3);
        }
        i += 1;
    }

    let start = Instant::now();
    let mut window = (start, Vec::new());
    let mut rounds = 0;
    loop {
        let mut busy = 0.0;
        let mut all_ok = true;
        for l in b8s.iter_mut() {
            let r = &refs[l.variant];
            match tracer.request("request.b8", || {
                run_checked(l, &inputs.batch, 0, Some(r), tracer, ops)
            }) {
                Some(s) => busy += s,
                None => all_ok = false,
            }
        }
        if all_ok {
            window.1.push(busy);
        }
        rounds += 1;
        let done =
            rounds >= MIN_B8_ROUNDS && start.elapsed().as_secs_f64() >= (1.0 - B1_SHARE) * seconds;
        if done || window.0.elapsed().as_secs_f64() >= WINDOW_S {
            close(&mut window, &mut run.b8);
        }
        if done {
            break;
        }
    }
}
