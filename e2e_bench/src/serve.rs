//! The open-loop serving workload: one generator thread offers requests
//! to a `Server` at a fixed ladder of rates and times each request from
//! the moment it was due.

use crate::check::{plan_budget, Ops, Reference};
use crate::stats::{
    max_qps_at_limit, quietest, quietest_samples, RungOutcome, Window, LATENCY_SAMPLES,
};
use crate::trace::Tracer;
use crate::workload::{Inputs, Pass, Variant, IMAGES};
use cnn_stack::nn::{network_memory, ConvAlgorithm, ExecConfig, ObsLevel, PlanCompiler};
use cnn_stack::obs::MetricsSnapshot;
use cnn_stack::serve::{Outcome, ServeConfig, Server, Ticket};
use cnn_stack::tensor::Tensor;
use std::time::{Duration, Instant};

/// Largest batch; the server's session ladder is 1, 4 and 8.
pub const MAX_BATCH: usize = 8;
/// Offered rates, requests per second. Fixed: never recalibrated to
/// the commit under test.
pub const LADDER_QPS: [f64; 8] = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];
/// The rung whose latencies are reported as `latency_ms_p50/p90`.
pub const REF_QPS: f64 = 20.0;
/// Limit on p90 latency from due time: 2.5× the batch-1 service time.
pub const LIMIT_MS: f64 = 50.0;
/// Requests the reference rung holds at least.
const REF_MIN_REQUESTS: usize = 100;
/// Share of the run the reference rung takes at least: enough windows
/// that its quietest ones hold `LATENCY_SAMPLES` requests while the
/// host is busy for half of the rung.
const REF_SHARE: f64 = 0.5;
/// Rungs besides the reference that share the rest of the run; a
/// ladder that meets the limit higher up runs longer.
const RUNGS_PER_RUN: f64 = 4.0;
/// Shortest rung.
const MIN_RUNG_S: f64 = 1.0;
/// Requests are grouped by due time into windows of this many seconds
/// for the quiet-window statistics (`stats::quietest`).
const WINDOW_S: f64 = 1.0;

/// The serving configuration: VGG-16, one worker, one engine thread.
pub fn config(obs: ObsLevel) -> ServeConfig {
    ServeConfig::builder([3, 32, 32])
        .max_batch(MAX_BATCH)
        .workers(1)
        .threads(1)
        .observer(obs)
        .build()
        .expect("a valid serving configuration")
}

/// The engine configuration `Server` compiles its sessions with: the
/// standard pipeline with im2col pinned, on one thread.
pub fn serving_exec(obs: ObsLevel) -> ExecConfig {
    ExecConfig {
        threads: 1,
        conv_algo: ConvAlgorithm::Im2col,
        observer: obs,
        ..ExecConfig::serial()
    }
}

pub struct ServeRun {
    /// Latencies from due time at the reference rate, milliseconds.
    pub ref_windows: Vec<Window>,
    pub max_qps: f64,
    /// Good responses per second of the busiest rung, from its first
    /// due time to its last response.
    pub peak_goodput: f64,
    pub setup_s: Vec<f64>,
    pub memory_bytes: f64,
    /// How late the generator sent each request, milliseconds.
    pub lateness_ms: Vec<f64>,
    /// Requests per batch, one entry per served request.
    pub batch_sizes: Vec<usize>,
    pub shed: u64,
    pub failed: u64,
    /// The server's own instruments at the end (traced runs).
    pub metrics: Option<MetricsSnapshot>,
    pub log: Vec<String>,
}

fn start(variant: &Variant, obs: ObsLevel, tracer: &Tracer) -> Server {
    let v = variant.clone();
    tracer
        .span("serve.Server::start", || {
            Server::start(config(obs), move || v.materialise().network)
        })
        .expect("the serving ladder compiles and pre-warms")
}

struct Pending {
    request: u64,
    /// Position in the rung's schedule.
    k: usize,
    img: usize,
    lateness_s: f64,
    ticket: Ticket,
}

/// Offers `qps` for `secs` seconds and waits for every answer.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    server: &Server,
    qps: f64,
    secs: f64,
    images: &[Tensor],
    reference: &Reference,
    tracer: &Tracer,
    ops: &mut Ops,
    out: &mut ServeRun,
) -> RungOutcome {
    let budget = plan_budget(["im2col-packed"]);
    let n = ((qps * secs).round() as usize).max(1);
    let per_window = ((qps * WINDOW_S).round() as usize).max(1);
    let mut rung = RungOutcome {
        qps,
        windows: (0..n.div_ceil(per_window))
            .map(|_| Window {
                samples: Vec::with_capacity(per_window),
                secs: per_window as f64 / qps,
            })
            .collect(),
        missed: 0,
        backlog: Vec::with_capacity(n),
    };
    let mut pending: Vec<Pending> = Vec::new();
    let mut done = Vec::new();
    let t0 = Instant::now();
    for k in 0..n {
        let due = t0 + Duration::from_secs_f64(k as f64 / qps);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lateness_s = Instant::now().saturating_duration_since(due).as_secs_f64();
        out.lateness_ms.push(lateness_s * 1e3);
        let img = k % IMAGES;
        ops.attempted += 1;
        let (request, submitted) = tracer.request("request.serve", || {
            let input = images[img].clone();
            let r = tracer.span("serve.Server::submit", || server.submit(input));
            (tracer.current_request(), r)
        });
        match submitted {
            Ok(ticket) => pending.push(Pending {
                request,
                k,
                img,
                lateness_s,
                ticket,
            }),
            Err(e) => {
                ops.errors += 1;
                ops.note(format!("submit: {e}"));
                rung.missed += 1;
            }
        }
        pending.retain(|p| match p.ticket.try_wait() {
            Some(resp) => {
                done.push((p.k, p.img, p.lateness_s, resp));
                false
            }
            None => true,
        });
        rung.backlog.push(pending.len());
    }
    for p in pending {
        let resp = tracer.within(p.request, "serve.Ticket::wait", || p.ticket.wait());
        done.push((p.k, p.img, p.lateness_s, resp));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut served = 0;
    for (k, img, lateness_s, resp) in done {
        match resp.outcome {
            Outcome::Served(s) => {
                if reference.check(img, s.output.data(), budget) {
                    served += 1;
                    rung.windows[k / per_window]
                        .samples
                        .push((lateness_s + s.latency.as_secs_f64()) * 1e3);
                    out.batch_sizes.push(s.batch_size);
                } else {
                    ops.mismatches += 1;
                    ops.note("served output failed the check".to_string());
                    rung.missed += 1;
                }
            }
            Outcome::Shed(reason) => {
                ops.errors += 1;
                out.shed += 1;
                rung.missed += 1;
                ops.note(format!("shed: {reason:?}"));
            }
            Outcome::Failed(cause) => {
                ops.errors += 1;
                out.failed += 1;
                rung.missed += 1;
                ops.note(format!("failed: {cause}"));
            }
        }
    }
    out.peak_goodput = out.peak_goodput.max(served as f64 / wall_s);
    rung
}

/// `(requests, batches, session slots)` from the batch size each served
/// request reported: a batch of `b` requests answers `b` tickets and
/// runs on the smallest ladder rung (1, 4, 8) that holds it.
pub fn batch_accounting(batch_sizes: &[usize]) -> (f64, f64, f64) {
    let mut per_size = [0usize; MAX_BATCH + 1];
    for &b in batch_sizes {
        per_size[b.clamp(1, MAX_BATCH)] += 1;
    }
    let (mut batches, mut slots) = (0.0, 0.0);
    for (b, &tickets) in per_size.iter().enumerate().skip(1) {
        let n = (tickets as f64 / b as f64).ceil();
        let rung = [1, 4, MAX_BATCH]
            .into_iter()
            .find(|r| *r >= b)
            .unwrap_or(MAX_BATCH);
        batches += n;
        slots += n * rung as f64;
    }
    (batch_sizes.len() as f64, batches, slots)
}

/// Runs the workload: `pass.setup_reps` server starts (the last is
/// kept), then the reference rung and the rest of the ladder in
/// `pass.seconds`.
pub fn run(
    variant: &Variant,
    inputs: &Inputs,
    reference: &Reference,
    pass: Pass,
    tracer: &Tracer,
    ops: &mut Ops,
) -> ServeRun {
    let Pass {
        seconds,
        setup_reps,
        obs,
    } = pass;
    let mut out = ServeRun {
        ref_windows: Vec::new(),
        max_qps: 0.0,
        peak_goodput: 0.0,
        setup_s: Vec::new(),
        memory_bytes: serving_memory(variant) as f64,
        lateness_ms: Vec::new(),
        batch_sizes: Vec::new(),
        shed: 0,
        failed: 0,
        metrics: None,
        log: Vec::new(),
    };
    let mut server = None;
    for _ in 0..setup_reps {
        let t = Instant::now();
        let s = tracer.request("setup", || start(variant, obs, tracer));
        out.setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = server.replace(s) {
            old.shutdown();
        }
    }
    let server = server.expect("at least one set-up");
    let images: Vec<Tensor> = inputs
        .singles
        .iter()
        .map(|t| Tensor::from_vec([3, 32, 32], t.data().to_vec()))
        .collect();

    let ref_s = (REF_MIN_REQUESTS as f64 / REF_QPS).max(REF_SHARE * seconds);
    let rung_s = ((seconds - ref_s) / RUNGS_PER_RUN).max(MIN_RUNG_S);
    let mut rungs: Vec<RungOutcome> = Vec::new();
    let mut misses_in_a_row = 0;
    for qps in LADDER_QPS {
        let secs = if qps == REF_QPS { ref_s } else { rung_s };
        let rung = run_rung(
            &server, qps, secs, &images, reference, tracer, ops, &mut out,
        );
        let meets = crate::stats::rung_meets(&rung, LIMIT_MS, MAX_BATCH);
        let quiet = quietest_samples(&rung.windows, LATENCY_SAMPLES);
        out.log.push(format!(
            "rung {qps} qps: {} served, {} missed, p90 {:.2} ms over {} samples in the quietest {} of {} windows, {}",
            rung.windows.iter().map(|w| w.samples.len()).sum::<usize>(),
            rung.missed,
            crate::stats::percentile(&quiet, 90.0).value,
            quiet.len(),
            quietest(&rung.windows, LATENCY_SAMPLES).len(),
            rung.windows.len(),
            if meets {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if qps == REF_QPS {
            out.ref_windows = rung.windows.clone();
        }
        rungs.push(rung);
        // Two misses in a row: the rest of the ladder only overloads.
        misses_in_a_row = if meets { 0 } else { misses_in_a_row + 1 };
        if misses_in_a_row == 2 && qps > REF_QPS {
            break;
        }
    }
    out.max_qps = max_qps_at_limit(&rungs, LIMIT_MS, MAX_BATCH);
    out.metrics = server.observer().map(|o| o.snapshot());
    let health = server.shutdown();
    out.log.push(format!(
        "server health: {} submitted, {} served, {} shed, {} failed, {} demotion(s)",
        health.submitted,
        health.served,
        health.shed_queue_full + health.shed_deadline,
        health.failed,
        health.total_demotions()
    ));
    out
}

/// Largest coloured arena peak among plans equivalent to the server's
/// session ladder, plus the stored weight bytes of one replica.
fn serving_memory(variant: &Variant) -> usize {
    let mut model = variant.materialise();
    let exec = serving_exec(ObsLevel::Off);
    let mut peak = 0;
    for batch in [1, 4, MAX_BATCH] {
        let shape = model.input_shape(batch);
        let plan = PlanCompiler::standard()
            .run(&mut model.network, &shape, &exec)
            .expect("the serving plan compiles");
        peak = peak.max(plan.footprint().peak_bytes);
    }
    let weights =
        network_memory(&model.network.descriptors(&model.input_shape(1)), false).weight_bytes;
    peak + weights
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accounting_counts_padding() {
        // Two singles, one batch of three (rung 4), one full batch.
        let sizes = [1, 1, 3, 3, 3, 8, 8, 8, 8, 8, 8, 8, 8];
        assert_eq!(batch_accounting(&sizes), (13.0, 4.0, 14.0));
        assert_eq!(batch_accounting(&[]), (0.0, 0.0, 0.0));
    }
}
