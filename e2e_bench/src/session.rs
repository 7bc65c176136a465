//! Driving one `InferenceSession` the way a caller does: compile, bind,
//! run until the first good output, then run and check each request.

use crate::check::{panic_text, Ops, Reference};
use crate::trace::Tracer;
use crate::workload::step_tag;
use cnn_stack::models::Model;
use cnn_stack::nn::{
    DemotionAction, ExecConfig, HealthReport, InferencePlan, InferenceSession, PlanCompiler,
};
use cnn_stack::tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Calls a session gets to produce its first good output. The guard
/// demotes at most one step per contained panic and retries at most
/// three times per call, so a plan with many failing steps needs
/// several calls.
const FIRST_RUN_ATTEMPTS: usize = 8;

/// A bound session with the output buffer and check it runs against.
pub struct Live<'m> {
    pub label: String,
    pub variant: usize,
    pub batch: usize,
    pub session: InferenceSession<'m>,
    pub out: Tensor,
    /// Output-check budget of the compiled plan.
    pub budget: f32,
}

/// What opening one session cost.
#[derive(Clone, Debug, Default)]
pub struct Opened {
    pub compile_s: f64,
    pub prepare_s: f64,
    /// From the first call to the first good output, failed calls
    /// included.
    pub first_run_s: f64,
    /// Duration of the call that produced the first good output.
    pub first_ok_s: Option<f64>,
}

/// Compiles `model` at batch `batch`, binds a session and runs it on
/// `input` until an output passes the check.
#[allow(clippy::too_many_arguments)]
pub fn open<'m>(
    label: String,
    variant: usize,
    model: &'m mut Model,
    batch: usize,
    cfg: &ExecConfig,
    compiler: &PlanCompiler,
    input: &Tensor,
    reference: Option<&Reference>,
    tracer: &Tracer,
    ops: &mut Ops,
) -> (Live<'m>, Opened) {
    let mut opened = Opened::default();
    let shape = model.input_shape(batch);
    let t = Instant::now();
    let plan: InferencePlan = tracer
        .span_detail(
            "passes.PlanCompiler::run",
            || label.clone(),
            || compiler.run(&mut model.network, &shape, cfg),
        )
        .expect("the workload models compile");
    opened.compile_s = t.elapsed().as_secs_f64();
    let budget = crate::check::plan_budget(plan.steps().iter().map(step_tag));
    let out = Tensor::zeros(plan.output_shape().to_vec());
    let t = Instant::now();
    let session = tracer
        .span("engine.InferenceSession::new", || {
            InferenceSession::new(&mut model.network, plan)
        })
        .expect("a freshly compiled plan binds to its network");
    opened.prepare_s = t.elapsed().as_secs_f64();
    let mut live = Live {
        label,
        variant,
        batch,
        session,
        out,
        budget,
    };
    let t = Instant::now();
    for _ in 0..FIRST_RUN_ATTEMPTS {
        if let Some(s) = run_checked(&mut live, input, 0, reference, tracer, ops) {
            opened.first_ok_s = Some(s);
            break;
        }
    }
    opened.first_run_s = t.elapsed().as_secs_f64();
    (live, opened)
}

/// One `run_into` call: counts it, contains an escaping panic, checks
/// the output (rows are images `first, first + 1, …`) and returns the
/// call's duration in seconds when it succeeded and passed the check.
pub fn run_checked(
    live: &mut Live,
    input: &Tensor,
    first: usize,
    reference: Option<&Reference>,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Option<f64> {
    ops.attempted += 1;
    let t = Instant::now();
    let result = tracer.span("engine.InferenceSession::run_into", || {
        catch_unwind(AssertUnwindSafe(|| {
            live.session.run_into(input, &mut live.out)
        }))
    });
    let secs = t.elapsed().as_secs_f64();
    match result {
        Ok(Ok(())) => {
            let ok = reference.is_none_or(|r| r.check(first, live.out.data(), live.budget));
            if ok {
                Some(secs)
            } else {
                ops.mismatches += 1;
                ops.note(format!(
                    "{} b{}: output failed the check",
                    live.label, live.batch
                ));
                None
            }
        }
        Ok(Err(e)) => {
            ops.errors += 1;
            ops.note(format!("{} b{}: {e}", live.label, live.batch));
            None
        }
        Err(p) => {
            ops.panics += 1;
            ops.note(format!(
                "{} b{}: panic {}",
                live.label,
                live.batch,
                panic_text(&*p)
            ));
            None
        }
    }
}

/// The algorithm each step runs now: its compiled tag, moved down the
/// guard's ladder by every demotion recorded against it.
pub fn effective_tags(plan: &InferencePlan, health: &HealthReport) -> Vec<&'static str> {
    let mut tags: Vec<&'static str> = plan.steps().iter().map(step_tag).collect();
    for d in &health.demotions {
        let Some(tag) = tags.get_mut(d.layer_index) else {
            continue;
        };
        *tag = match (d.action, *tag) {
            (DemotionAction::CsrToDense, "gemm-csr") => "gemm-packed",
            (DemotionAction::CsrToDense, _) => "direct",
            (DemotionAction::Winograd4ToWinograd2, _) => "winograd",
            (DemotionAction::WinogradToIm2col | DemotionAction::FftToIm2col, _) => "im2col-packed",
            (DemotionAction::PackedToBlocked, t) if t.starts_with("gemm") => "gemm-scalar",
            (DemotionAction::PackedToBlocked, _) => "im2col-blocked",
            (DemotionAction::QuantisedToPacked, t) if t.starts_with("gemm") => "gemm-packed",
            (DemotionAction::QuantisedToPacked, _) => "im2col-packed",
        };
    }
    tags
}

/// Steps still on their compiled choice.
pub fn kept_steps(plan: &InferencePlan, health: &HealthReport) -> usize {
    let mut demoted: Vec<usize> = health.demotions.iter().map(|d| d.layer_index).collect();
    demoted.sort_unstable();
    demoted.dedup();
    plan.steps().len() - demoted.len()
}

/// Human-readable health of one session: contained panics, each
/// demotion, and every step whose algorithm changed.
pub fn health_lines(live: &Live) -> Vec<String> {
    let health = live.session.health();
    let plan = live.session.plan();
    let mut lines = vec![format!(
        "health {} b{}: {} panic(s) contained, {} demotion(s), {}/{} steps on their compiled choice",
        live.label,
        live.batch,
        health.panics_contained,
        health.demotions.len(),
        kept_steps(plan, health),
        plan.steps().len()
    )];
    for d in &health.demotions {
        lines.push(format!(
            "  demoted step {} ({}): {:?} after {:?}",
            d.layer_index, d.layer_name, d.action, d.reason
        ));
    }
    let effective = effective_tags(plan, health);
    for (i, (step, now)) in plan.steps().iter().zip(&effective).enumerate() {
        if step_tag(step) != *now {
            lines.push(format!("  step {i} now runs {now}"));
        }
    }
    lines
}

/// Minimum of the durations `f` reports over up to three calls,
/// stopping once 0.3 s have been spent or a call fails. A first sample
/// already taken (`seed`) stands alone when it exceeds that time, so
/// slow plans run once.
pub fn time_min(seed: Option<f64>, mut f: impl FnMut() -> Option<f64>) -> Option<f64> {
    const SPEND_S: f64 = 0.3;
    if let Some(s) = seed.filter(|s| *s >= SPEND_S) {
        return Some(s);
    }
    let start = Instant::now();
    let mut best: Option<f64> = None;
    for _ in 0..3 {
        let s = f()?;
        best = Some(best.map_or(s, |b: f64| b.min(s)));
        if start.elapsed().as_secs_f64() >= SPEND_S {
            break;
        }
    }
    best
}
