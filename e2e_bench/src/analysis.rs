//! The per-layer half of the traced run: for every plan the workload
//! runs, re-open it with the `obs` metrics instruments on, read the
//! layer counters over one pass, replay each compiled step through
//! `Layer::forward` against its alternatives, and time whole sessions
//! compiled under each forced global algorithm.

use crate::check::{Ops, Reference};
use crate::session::{effective_tags, health_lines, kept_steps, open, run_checked, time_min};
use crate::trace::Tracer;
use crate::workload::{
    is_gemm_tag, step_tag, Inputs, Variant, Workload, ALGO_TAGS, IMAGES, STEP_BUCKETS, THREADS,
};
use cnn_stack::nn::{
    network_memory, Conv2d, ConvAlgorithm, ExecConfig, FoldAndFuse, InferencePlan, Layer,
    LayerKind, Linear, Network, ObsLevel, Phase, PlanCompiler, PlanStep, ResidualBlock,
    WeightFormat,
};
use cnn_stack::obs::MetricsSnapshot;
use cnn_stack::tensor::{GemmAlgorithm, Tensor};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Per-layer metric values by name.
pub type Values = BTreeMap<String, f64>;

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

fn gauge(s: &MetricsSnapshot, name: &str) -> f64 {
    s.gauge(name).unwrap_or(0) as f64
}

/// Plan-shape counts: steps, fused steps, and steps per selected
/// algorithm.
fn plan_counts(plan: &InferencePlan) -> Values {
    let mut v = Values::new();
    v.insert("passes.steps".into(), plan.steps().len() as f64);
    v.insert(
        "passes.fused_steps".into(),
        plan.steps().iter().filter(|s| s.span > 1).count() as f64,
    );
    for s in plan.steps() {
        let tag = step_tag(s);
        if ALGO_TAGS.contains(&tag) {
            *v.entry(format!("passes.selected.{tag}")).or_insert(0.0) += 1.0;
        }
    }
    v
}

/// The kernel counters of the `obs` registry between two snapshots.
fn pass_counters(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Values {
    [
        ("tensor.gemm_flops", "gemm.flops"),
        ("tensor.bytes_packed", "gemm.bytes_packed"),
        ("tensor.winograd_tiles", "conv.winograd.tiles"),
        ("tensor.ternary_calls", "gemm.kernel.ternary"),
    ]
    .into_iter()
    .map(|(ours, theirs)| {
        (
            ours.to_string(),
            counter(after, theirs) - counter(before, theirs),
        )
    })
    .collect()
}

/// One replayed step.
struct StepTime {
    bucket: &'static str,
    /// Replayed time of the step's current algorithm.
    chosen_s: f64,
    /// Fastest of the current algorithm and every alternative.
    best_s: f64,
}

/// A way to run a step other than its current one.
struct Alt {
    label: &'static str,
    cfg: ExecConfig,
    format: Option<WeightFormat>,
}

fn is_ternary(data: &[f32]) -> bool {
    let mut pos = None;
    let mut neg = None;
    data.iter().all(|&v| {
        let slot = if v > 0.0 {
            &mut pos
        } else if v < 0.0 {
            &mut neg
        } else {
            return true;
        };
        *slot.get_or_insert(v) == v
    })
}

/// The alternatives the plan compiler could have chosen for a step;
/// residual blocks are forced as a whole.
fn alternatives(layer: &mut Box<dyn Layer>, step: &PlanStep) -> Vec<Alt> {
    let base = step.cfg;
    let conv = |algo, gemm| ExecConfig {
        conv_algo: algo,
        gemm_algo: gemm,
        ..base
    };
    let dense = Some(WeightFormat::Dense);
    let any = layer.as_any_mut();
    if let Some(c) = any.downcast_mut::<Conv2d>() {
        let g = c.geometry(step.input_shape[2], step.input_shape[3]);
        let mut alts = vec![
            Alt {
                label: "direct",
                cfg: conv(ConvAlgorithm::Direct, GemmAlgorithm::Packed),
                format: dense,
            },
            Alt {
                label: "im2col-packed",
                cfg: conv(ConvAlgorithm::Im2col, GemmAlgorithm::Packed),
                format: dense,
            },
            Alt {
                label: "csr",
                cfg: conv(ConvAlgorithm::Direct, GemmAlgorithm::Packed),
                format: Some(WeightFormat::Csr),
            },
        ];
        if g.k_h == 3 && g.k_w == 3 && g.stride == 1 {
            for (label, algo) in [
                ("winograd", ConvAlgorithm::Winograd),
                ("winograd-f4", ConvAlgorithm::WinogradF4),
            ] {
                alts.push(Alt {
                    label,
                    cfg: conv(algo, GemmAlgorithm::Packed),
                    format: dense,
                });
            }
        }
        if g.k_h * g.k_w > 9 {
            alts.push(Alt {
                label: "fft",
                cfg: conv(ConvAlgorithm::Fft, GemmAlgorithm::Packed),
                format: dense,
            });
        }
        if is_ternary(c.weight().value.data()) {
            alts.push(Alt {
                label: "im2col-ternary",
                cfg: conv(ConvAlgorithm::Im2col, GemmAlgorithm::TernaryPacked),
                format: Some(WeightFormat::Ternary),
            });
        }
        alts
    } else if let Some(l) = any.downcast_mut::<Linear>() {
        let gemm = |g| ExecConfig {
            gemm_algo: g,
            ..base
        };
        let mut alts = vec![
            Alt {
                label: "gemm-packed",
                cfg: gemm(GemmAlgorithm::Packed),
                format: dense,
            },
            Alt {
                label: "gemm-scalar",
                cfg: gemm(GemmAlgorithm::Blocked),
                format: dense,
            },
            Alt {
                label: "gemm-csr",
                cfg: gemm(GemmAlgorithm::Packed),
                format: Some(WeightFormat::Csr),
            },
        ];
        if is_ternary(l.weight().value.data()) {
            alts.push(Alt {
                label: "gemm-ternary",
                cfg: gemm(GemmAlgorithm::TernaryPacked),
                format: Some(WeightFormat::Ternary),
            });
        }
        alts
    } else if any.downcast_mut::<ResidualBlock>().is_some() {
        [
            ("residual/direct", ConvAlgorithm::Direct),
            ("residual/im2col", ConvAlgorithm::Im2col),
            ("residual/winograd", ConvAlgorithm::Winograd),
            ("residual/winograd-f4", ConvAlgorithm::WinogradF4),
        ]
        .into_iter()
        .map(|(label, algo)| Alt {
            label,
            cfg: conv(algo, base.gemm_algo),
            format: None,
        })
        .collect()
    } else {
        Vec::new()
    }
}

fn format_of(layer: &mut Box<dyn Layer>) -> Option<WeightFormat> {
    let any = layer.as_any_mut();
    if let Some(c) = any.downcast_mut::<Conv2d>() {
        Some(c.format())
    } else {
        any.downcast_mut::<Linear>().map(|l| l.format())
    }
}

fn set_format(layer: &mut Box<dyn Layer>, format: WeightFormat) {
    let any = layer.as_any_mut();
    if let Some(c) = any.downcast_mut::<Conv2d>() {
        c.set_format(format);
    } else if let Some(l) = any.downcast_mut::<Linear>() {
        l.set_format(format);
    } else if let Some(r) = any.downcast_mut::<ResidualBlock>() {
        r.set_format(format);
    }
}

/// One `Layer::forward` call, timed; `None` if it panicked.
fn forward(
    layer: &mut Box<dyn Layer>,
    x: &Tensor,
    cfg: &ExecConfig,
    what: &str,
    tracer: &Tracer,
) -> Option<(Tensor, f64)> {
    let t = Instant::now();
    let y = tracer.span_detail(
        "nn.Layer::forward",
        || what.to_string(),
        || catch_unwind(AssertUnwindSafe(|| layer.forward(x, Phase::Eval, cfg))),
    );
    let s = t.elapsed().as_secs_f64();
    y.ok().map(|y| (y, s))
}

/// Replays every step of a compiled plan on its (post-session) network.
fn replay(
    net: &mut Network,
    steps: &[PlanStep],
    effective: &[&'static str],
    input: &Tensor,
    tracer: &Tracer,
) -> Vec<StepTime> {
    let mut x = input.clone();
    let mut out = Vec::new();
    for (step, tag) in steps.iter().zip(effective) {
        let layer = &mut net.layers_mut()[step.layer];
        let what = |label: &str| format!("{} as {label}", step.name);
        layer.prepare(&step.cfg);
        let mut first = forward(layer, &x, &step.cfg, &what(tag), tracer);
        if first.is_none() && format_of(layer) == Some(WeightFormat::Csr) {
            // The guard's CSR-to-dense rung, as the session applies it.
            set_format(layer, WeightFormat::Dense);
            layer.prepare(&step.cfg);
            first = forward(layer, &x, &step.cfg, &what(tag), tracer);
        }
        let Some((y, first_s)) = first else {
            break;
        };
        let chosen_s = time_min(Some(first_s), || {
            forward(layer, &x, &step.cfg, &what(tag), tracer).map(|r| r.1)
        })
        .unwrap_or(first_s);
        let compiled_format = format_of(layer);
        let mut best_s = chosen_s;
        for alt in alternatives(layer, step) {
            if let Some(f) = alt.format {
                set_format(layer, f);
            }
            layer.prepare(&alt.cfg);
            if let Some(s) = time_min(None, || {
                forward(layer, &x, &alt.cfg, &what(alt.label), tracer).map(|r| r.1)
            }) {
                best_s = best_s.min(s);
            }
        }
        if let Some(f) = compiled_format {
            set_format(layer, f);
        }
        let bucket = STEP_BUCKETS
            .iter()
            .find(|b| *b == tag)
            .copied()
            .unwrap_or("other");
        out.push(StepTime {
            bucket,
            chosen_s,
            best_s,
        });
        x = y;
    }
    out
}

fn uses_large_kernels(net: &Network, shape: &[usize]) -> bool {
    net.descriptors(shape)
        .iter()
        .any(|d| matches!(&d.kind, LayerKind::Conv { geom, .. } if geom.k_h * geom.k_w > 9))
}

/// A fresh session of `variant` timed outside the workload: its
/// operations are not counted and its outputs not checked.
struct Probe {
    secs: f64,
    /// Worker-pool busy time over one pass, and pass time × workers.
    busy_ns: f64,
    capacity_ns: f64,
}

fn probe(
    variant: &Variant,
    batch: usize,
    cfg: &ExecConfig,
    compiler: &PlanCompiler,
    input: &Tensor,
    tracer: &Tracer,
) -> Option<Probe> {
    let mut model = tracer.span("stack.try_materialise", || variant.materialise());
    let mut scratch = Ops::default();
    let (mut live, opened) = open(
        format!("{} probe", variant.label),
        0,
        &mut model,
        batch,
        cfg,
        compiler,
        input,
        None,
        tracer,
        &mut scratch,
    );
    opened.first_ok_s?;
    let observer = live.session.observer().cloned().expect("metrics are on");
    let before = observer.snapshot();
    let once = run_checked(&mut live, input, 0, None, tracer, &mut scratch)?;
    let after = observer.snapshot();
    let busy_ns = counter(&after, "pool.worker_busy_ns") - counter(&before, "pool.worker_busy_ns");
    let capacity_ns = once * 1e9 * gauge(&after, "pool.workers");
    let secs = time_min(Some(once), || {
        run_checked(&mut live, input, 0, None, tracer, &mut scratch)
    })?;
    Some(Probe {
        secs,
        busy_ns,
        capacity_ns,
    })
}

/// Sums and ratios over every analysed session.
#[derive(Default)]
struct Totals {
    values: Values,
    regret: [f64; 2],
    std_s: [f64; 2],
    best_forced_s: [f64; 2],
    t1_s: f64,
    t2_s: f64,
    gemm_flops: f64,
    gemm_time_s: f64,
    busy_ns: f64,
    busy_capacity_ns: f64,
    kept: f64,
    steps: f64,
    sparsity: Vec<f64>,
}

impl Totals {
    fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &str, v: f64) {
        let e = self.values.entry(name.to_string()).or_insert(0.0);
        *e = e.max(v);
    }
}

/// Analyses every plan of the workload and returns the per-layer
/// metrics that do not come from the timed loop.
pub fn analyse(
    w: Workload,
    inputs: &Inputs,
    refs: &[Reference],
    tracer: &Tracer,
    ops: &mut Ops,
    log: &mut Vec<String>,
) -> Values {
    let serving = w == Workload::ServeVgg16;
    let base = ExecConfig {
        threads: THREADS,
        observer: ObsLevel::Metrics,
        ..if serving {
            crate::serve::serving_exec(ObsLevel::Metrics)
        } else {
            ExecConfig::serial()
        }
    };
    let standard = PlanCompiler::standard();
    let mut tot = Totals::default();
    for (vi, v) in w.variants().iter().enumerate() {
        for (bi, batch) in [1, IMAGES].into_iter().enumerate() {
            let input = if batch == 1 {
                &inputs.singles[0]
            } else {
                &inputs.batch
            };
            tracer.request("analysis", || {
                let t = Instant::now();
                drop(tracer.span("models.ModelKind::build_width", || {
                    v.config.model.build_width(10, 1.0)
                }));
                let build_s = t.elapsed().as_secs_f64();
                tot.add("models.build_s", build_s);
                let t = Instant::now();
                let mut model = tracer.span("stack.try_materialise", || v.materialise());
                if v.is_compressed() {
                    tot.add(
                        "compress.apply_s",
                        (t.elapsed().as_secs_f64() - build_s).max(0.0),
                    );
                }
                let shape = model.input_shape(batch);
                if batch == 1 {
                    let descs = model.network.descriptors(&shape);
                    tot.add(
                        "compress.weight_bytes",
                        network_memory(&descs, false).weight_bytes as f64,
                    );
                    tot.sparsity.push(model.network.weight_sparsity(&shape));
                }
                let large = uses_large_kernels(&model.network, &shape);

                let label = format!("{}/{}", model.kind, v.label);
                let (mut live, opened) = open(
                    label,
                    vi,
                    &mut model,
                    batch,
                    &base,
                    &standard,
                    input,
                    Some(&refs[vi]),
                    tracer,
                    ops,
                );
                tot.add("passes.compile_s", opened.compile_s);
                tot.add("engine.prepare_s", opened.prepare_s);
                tot.add("engine.first_run_s", opened.first_run_s);
                let plan = live.session.plan().clone();
                for (name, v) in plan_counts(&plan) {
                    tot.add(&name, v);
                }
                tot.max("plan.peak_bytes", plan.footprint().peak_bytes as f64);
                tot.max("engine.arena_bytes", live.session.arena_bytes() as f64);
                tot.max(
                    "engine.arena_reuse_bytes",
                    live.session.arena_reuse_bytes() as f64,
                );

                // One counted pass, then the standard plan's time.
                let observer = live.session.observer().cloned().expect("metrics are on");
                let before = observer.snapshot();
                let once = run_checked(&mut live, input, 0, Some(&refs[vi]), tracer, ops);
                let after = observer.snapshot();
                let delta = |name| counter(&after, name) - counter(&before, name);
                for (name, v) in pass_counters(&before, &after) {
                    tot.add(&name, v);
                }
                tot.gemm_flops += delta("gemm.flops");
                let std_s = time_min(once, || {
                    run_checked(&mut live, input, 0, Some(&refs[vi]), tracer, ops)
                });

                let health = live.session.health().clone();
                tot.add("guard.demotions", counter(&after, "guard.demotions"));
                tot.add("guard.panics_contained", health.panics_contained as f64);
                tot.kept += kept_steps(&plan, &health) as f64;
                tot.steps += plan.steps().len() as f64;
                log.extend(health_lines(&live));
                let effective = effective_tags(&plan, &health);
                drop(live);

                for st in replay(&mut model.network, plan.steps(), &effective, input, tracer) {
                    tot.regret[bi] += st.chosen_s - st.best_s;
                    tot.add(&format!("engine.step_s.{}", st.bucket), st.chosen_s);
                    if is_gemm_tag(st.bucket) {
                        tot.gemm_time_s += st.chosen_s;
                    }
                }
                drop(model);

                let mut forced = vec![
                    ConvAlgorithm::Direct,
                    ConvAlgorithm::Im2col,
                    ConvAlgorithm::Winograd,
                    ConvAlgorithm::WinogradF4,
                ];
                if large {
                    forced.push(ConvAlgorithm::Fft);
                }
                let fuse_only = PlanCompiler::new().with_pass(FoldAndFuse);
                let best = forced
                    .into_iter()
                    .filter_map(|algo| {
                        let cfg = ExecConfig {
                            conv_algo: algo,
                            ..base
                        };
                        let t = probe(v, batch, &cfg, &fuse_only, input, tracer).map(|p| p.secs);
                        log.push(format!(
                            "forced {algo:?} {} b{batch}: {}",
                            v.label,
                            t.map_or("failed".to_string(), |t| format!("{:.2} ms", t * 1e3))
                        ));
                        t
                    })
                    .fold(f64::INFINITY, f64::min);
                if let Some(std_s) = std_s {
                    log.push(format!(
                        "standard {} b{batch}: {:.2} ms",
                        v.label,
                        std_s * 1e3
                    ));
                    if best.is_finite() {
                        tot.std_s[bi] += std_s;
                        tot.best_forced_s[bi] += best;
                    }
                    if batch == IMAGES {
                        let two = ExecConfig { threads: 2, ..base };
                        if let Some(p) = probe(v, batch, &two, &standard, input, tracer) {
                            tot.t1_s += std_s;
                            tot.t2_s += p.secs;
                            tot.busy_ns += p.busy_ns;
                            tot.busy_capacity_ns += p.capacity_ns;
                        }
                    }
                }
            });
        }
    }

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut values = std::mem::take(&mut tot.values);
    values.insert("passes.regret_s.b1".into(), tot.regret[0]);
    values.insert("passes.regret_s.b8".into(), tot.regret[1]);
    values.insert(
        "plan.vs_best_forced.b1".into(),
        ratio(tot.std_s[0], tot.best_forced_s[0]),
    );
    values.insert(
        "plan.vs_best_forced.b8".into(),
        ratio(tot.std_s[1], tot.best_forced_s[1]),
    );
    values.insert("parallel.speedup.b8".into(), ratio(tot.t1_s, tot.t2_s));
    values.insert(
        "parallel.busy_ratio".into(),
        ratio(tot.busy_ns, tot.busy_capacity_ns),
    );
    values.insert(
        "tensor.gemm_gflops".into(),
        ratio(tot.gemm_flops, tot.gemm_time_s) / 1e9,
    );
    values.insert("engine.plan_kept_ratio".into(), ratio(tot.kept, tot.steps));
    values.insert(
        "compress.sparsity".into(),
        ratio(tot.sparsity.iter().sum(), tot.sparsity.len() as f64),
    );
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack::models::ModelKind;

    /// Plan and kernel counts over one pass of a narrow VGG-16.
    fn counts(seed: u64) -> Values {
        let inputs = Inputs::from_seed(seed);
        let mut model = ModelKind::Vgg16.build_width(10, 0.125);
        let cfg = ExecConfig {
            observer: ObsLevel::Metrics,
            ..ExecConfig::serial()
        };
        let tracer = Tracer::new(false);
        let mut ops = Ops::default();
        let (mut live, _) = open(
            "vgg".into(),
            0,
            &mut model,
            1,
            &cfg,
            &PlanCompiler::standard(),
            &inputs.singles[0],
            None,
            &tracer,
            &mut ops,
        );
        let observer = live.session.observer().cloned().expect("metrics are on");
        let before = observer.snapshot();
        run_checked(&mut live, &inputs.singles[1], 1, None, &tracer, &mut ops);
        let after = observer.snapshot();
        let mut v = plan_counts(live.session.plan());
        v.extend(pass_counters(&before, &after));
        assert_eq!(ops.failed(), 0);
        v
    }

    #[test]
    fn one_seed_gives_identical_count_metrics() {
        let a = counts(5);
        assert_eq!(a, counts(5));
        assert!(a["tensor.gemm_flops"] > 0.0);
        assert!(a["passes.fused_steps"] > 0.0);
    }

    #[test]
    fn ternary_scan() {
        assert!(is_ternary(&[0.5, -0.25, 0.0, 0.5, -0.25]));
        assert!(!is_ternary(&[0.5, 0.25]));
    }
}
