//! The pass-based plan compiler.
//!
//! [`InferencePlan::compile`] maps every layer to one step under one
//! global [`ExecConfig`] — the paper's "pick a configuration for the
//! whole network" baseline. This module replaces that construction with
//! a compilation pipeline: the network is lowered to a typed op list
//! ([`crate::ir`]), a sequence of [`PlanPass`]es rewrites it, and the
//! result is lowered to [`PlanStep`](crate::engine::PlanStep)s with
//! per-step spans and per-step configurations.
//!
//! The three shipped passes implement the paper's across-stack levers:
//!
//! * [`FoldAndFuse`] — folds batch norms into their producing
//!   convolutions ([`crate::fold_batchnorm`]), then absorbs the exact
//!   identity batch norms and trailing ReLUs into the producing step, so
//!   `conv → BN → ReLU` executes as **one kernel** (the ReLU runs in the
//!   packed GEMM write-back epilogue — no extra sweep over the output).
//! * [`SelectAlgorithms`] — a per-layer cost model (FLOPs, im2col
//!   footprint, *measured* weight sparsity) choosing direct /
//!   im2col+packed / Winograd / CSR per layer. The global
//!   `conv_algo`/`gemm_algo` knobs remain available as overrides: a
//!   non-default base value wins over the model.
//! * [`Autotune`] — opt-in empirical refinement: micro-benchmarks the
//!   top-2 cost-model candidates per layer shape and persists winners to
//!   a tuning cache keyed by shape and thread count, reused across
//!   sessions (`CNN_STACK_TUNE_CACHE`, then `~/.cache/cnn-stack/`).
//!
//! Compilation mutates the network (folding rewrites weights, selection
//! may switch weight formats) — it is a deployment-time transformation,
//! like calling [`crate::fold_batchnorm`] by hand. Pass order matters:
//! fusion first (it re-lowers after folding), selection second (it keeps
//! fusion's `fused_relu` flags), autotune last.
//!
//! # Example
//!
//! ```
//! use cnn_stack_nn::{
//!     BatchNorm2d, Conv2d, ExecConfig, Flatten, InferencePlan, InferenceSession, Linear,
//!     MaxPool2d, Network, PlanCompiler, ReLU,
//! };
//! use cnn_stack_tensor::Tensor;
//!
//! let mut net = Network::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, 1)),
//!     Box::new(BatchNorm2d::new(8)),
//!     Box::new(ReLU::new()),
//!     Box::new(MaxPool2d::new(2)),
//!     Box::new(Flatten::new()),
//!     Box::new(Linear::new(8 * 4 * 4, 10, 2)),
//! ])
//! .unwrap();
//! let cfg = ExecConfig::serial();
//! let plan = PlanCompiler::standard()
//!     .run(&mut net, &[1, 3, 8, 8], &cfg)
//!     .unwrap();
//! // conv+bn+relu collapsed into one step; 6 layers, 4 steps.
//! assert_eq!(plan.steps().len(), 4);
//! assert_eq!(plan.steps()[0].span, 3);
//! let mut session = InferenceSession::new(&mut net, plan).unwrap();
//! let y = session.run(&Tensor::zeros([1, 3, 8, 8])).unwrap();
//! assert_eq!(y.shape().dims(), &[1, 10]);
//! ```

use crate::engine::{compile_step, InferencePlan, PlanStep};
use crate::error::{Error, PlanError};
use crate::fold;
use crate::ir::{self, IrOp, OpKind};
use crate::layer::{ArenaStrategy, ConvAlgorithm, ExecConfig, Phase, WeightFormat};
use crate::liveness::{MemoryFootprint, StepExtent};
use crate::network::Network;
use cnn_stack_tensor::{GemmAlgorithm, Tensor};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Mutable compilation state handed to each [`PlanPass`]: the network,
/// the base configuration, and the op list being rewritten.
pub struct PassContext<'a> {
    net: &'a mut Network,
    input_shape: Vec<usize>,
    base_cfg: ExecConfig,
    /// The op list; passes rewrite it in place.
    pub ops: Vec<IrOp>,
}

impl PassContext<'_> {
    /// The network under compilation.
    pub fn net(&mut self) -> &mut Network {
        self.net
    }

    /// The compilation input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The base (global) configuration compilation started from.
    pub fn base_cfg(&self) -> &ExecConfig {
        &self.base_cfg
    }

    /// Re-lowers the network into a fresh op list, discarding all spans
    /// and per-op configuration decisions made so far. Passes that
    /// mutate network weights (e.g. batch-norm folding) call this before
    /// making structural decisions.
    pub fn relower(&mut self) -> Result<(), Error> {
        self.ops = ir::lower(self.net, &self.input_shape, &self.base_cfg)?;
        Ok(())
    }
}

/// One rewrite of the op list; see the [module docs](self) for the
/// shipped passes and their ordering contract.
pub trait PlanPass {
    /// Pass name, for diagnostics.
    fn name(&self) -> &'static str;
    /// Rewrites `ctx.ops` (and possibly the network).
    fn run(&self, ctx: &mut PassContext) -> Result<(), Error>;
}

/// An ordered pass pipeline that compiles a network into an
/// [`InferencePlan`]; see the [module docs](self).
#[derive(Default)]
pub struct PlanCompiler {
    passes: Vec<Box<dyn PlanPass>>,
}

impl PlanCompiler {
    /// An empty pipeline — [`run`](Self::run) then matches
    /// [`InferencePlan::compile`] step for step.
    pub fn new() -> Self {
        PlanCompiler { passes: Vec::new() }
    }

    /// The default deployment pipeline: [`FoldAndFuse`] then
    /// [`SelectAlgorithms`].
    pub fn standard() -> Self {
        Self::new()
            .with_pass(FoldAndFuse)
            .with_pass(SelectAlgorithms::new())
    }

    /// [`standard`](Self::standard) plus the opt-in [`Autotune`] pass
    /// with its default cache location.
    pub fn autotuned() -> Self {
        Self::standard().with_pass(Autotune::new())
    }

    /// The brownout pipeline: [`FoldAndFuse`] then [`ForceThroughput`].
    /// This is what the serving layer compiles its *degraded* session
    /// ladder with — when the circuit breaker trips under overload,
    /// workers swap onto plans that trade fidelity levers (cost-model
    /// CSR wins, Winograd, paranoid guard scans — the guard level is the
    /// caller's knob) for the flattest, most predictable throughput
    /// path: im2col + packed GEMM with the fused-ReLU epilogue
    /// everywhere.
    pub fn degraded() -> Self {
        Self::new()
            .with_pass(FoldAndFuse)
            .with_pass(ForceThroughput)
    }

    /// Appends a pass to the pipeline.
    pub fn with_pass(mut self, pass: impl PlanPass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs the pipeline: lower, apply every pass in order, solve the
    /// memory budget if one is set, lower the final op list to plan
    /// steps.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on a zero thread count, an
    /// empty/zero-extent input shape, or a layer/shape rank mismatch —
    /// the same contract as [`InferencePlan::compile`]. With
    /// `cfg.plan_budget` set, returns
    /// [`PlanError::BudgetInfeasible`] (as [`Error::Plan`]) when even
    /// the smallest-workspace algorithm selection cannot fit the
    /// budget; the error carries the smallest feasible budget.
    pub fn run(
        &self,
        net: &mut Network,
        input_shape: &[usize],
        cfg: &ExecConfig,
    ) -> Result<InferencePlan, Error> {
        if cfg.threads == 0 {
            return Err(Error::InvalidConfig(
                "at least one thread required".to_string(),
            ));
        }
        if input_shape.is_empty() || input_shape.contains(&0) {
            return Err(Error::InvalidConfig(format!(
                "input shape {input_shape:?} must be non-empty with non-zero extents"
            )));
        }
        let mut ctx = PassContext {
            ops: ir::lower(net, input_shape, cfg)?,
            net,
            input_shape: input_shape.to_vec(),
            base_cfg: *cfg,
        };
        for pass in &self.passes {
            pass.run(&mut ctx)?;
        }
        if let Some(budget) = cfg.plan_budget {
            fit_budget(&mut ctx, budget)?;
        }
        let mut steps: Vec<PlanStep> = Vec::with_capacity(ctx.ops.len());
        for op in &ctx.ops {
            let layer = ctx.net.layers()[op.layer].as_ref();
            let mut step = compile_step(layer, op.layer, &op.input_shape, &op.cfg)?;
            step.span = op.span;
            step.name = op.name.clone();
            step.macs = op.macs;
            steps.push(step);
        }
        let plan = InferencePlan::from_parts(input_shape.to_vec(), *cfg, steps);
        // Admission: after best-effort solving (or a standdown on user
        // overrides) the plan either fits or nothing reachable does —
        // the solved plan's peak *is* the smallest feasible budget.
        if let Some(budget) = cfg.plan_budget {
            let peak = plan.strategy_peak_bytes();
            if peak > budget {
                return Err(Error::Plan(PlanError::BudgetInfeasible {
                    budget_bytes: budget,
                    min_feasible_bytes: peak,
                }));
            }
        }
        Ok(plan)
    }
}

impl InferencePlan {
    /// Compiles `net` through `compiler`'s pass pipeline — the pass-based
    /// successor of [`compile`](InferencePlan::compile). Mutates the
    /// network (folding, weight-format switches); see the
    /// [`passes`](self) module docs.
    pub fn build(
        net: &mut Network,
        input_shape: &[usize],
        cfg: &ExecConfig,
        compiler: &PlanCompiler,
    ) -> Result<InferencePlan, Error> {
        compiler.run(net, input_shape, cfg)
    }
}

// ---------------------------------------------------------------------
// Pass 1: fold-and-fuse
// ---------------------------------------------------------------------

/// Folds batch norms into their producers, then absorbs exact-identity
/// batch norms and trailing ReLUs into the producing conv/linear step;
/// see the [module docs](self).
pub struct FoldAndFuse;

impl PlanPass for FoldAndFuse {
    fn name(&self) -> &'static str {
        "fold-and-fuse"
    }

    fn run(&self, ctx: &mut PassContext) -> Result<(), Error> {
        // The exact variant also folds near-identity batch norms
        // (`scale = 1/sqrt(1 + eps)`), which must execute if kept but
        // become absorbable exact identities once folded.
        fold::fold_batchnorm_exact(ctx.net);
        // Folding rewrote weights and turned batch norms into exact
        // identities — re-derive the op facts before fusing.
        ctx.relower()?;
        let ops = std::mem::take(&mut ctx.ops);
        let mut fused: Vec<IrOp> = Vec::with_capacity(ops.len());
        let mut iter = ops.into_iter().peekable();
        while let Some(mut op) = iter.next() {
            // conv/dw/linear + exact-identity BN → skip the BN.
            if op.kind.absorbs_identity_bn()
                && matches!(
                    iter.peek().map(|n| &n.kind),
                    Some(OpKind::BatchNorm { identity: true, .. })
                )
            {
                let bn = iter.next().expect("peeked");
                op.span += bn.span;
                op.macs += bn.macs;
                op.output_shape = bn.output_shape;
                op.name.push_str(" + bn");
            }
            // conv/linear + ReLU → one kernel via the write-back epilogue.
            if op.kind.fuses_relu() && matches!(iter.peek().map(|n| &n.kind), Some(OpKind::Relu)) {
                let relu = iter.next().expect("peeked");
                op.span += relu.span;
                op.macs += relu.macs;
                op.output_shape = relu.output_shape;
                op.cfg.fused_relu = true;
                op.name.push_str(" + relu");
            }
            fused.push(op);
        }
        ctx.ops = fused;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Pass 2: algorithm selection
// ---------------------------------------------------------------------

/// A per-layer execution strategy the cost model can pick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Direct 7-loop dense convolution.
    DirectConv,
    /// im2col lowering into the packed GEMM engine.
    Im2colPacked,
    /// F(2×2, 3×3) Winograd (3×3 stride-1 dense convolutions only).
    Winograd,
    /// F(4×4, 3×3) Winograd (3×3 stride-1 dense convolutions only):
    /// 4× fewer multiplies than direct at a tiny fixed workspace, so
    /// it is the budget solver's fastest small-footprint refuge when
    /// the packed engine's im2col workspace does not fit.
    WinogradF4,
    /// Real 2-D FFT convolution (dense weights, any kernel/stride).
    /// Only proposed for kernels strictly larger than 3×3 — the plane
    /// transforms never amortise at CNN-typical 3×3/1×1 shapes.
    FftConv,
    /// CSR sparse-direct convolution.
    CsrConv,
    /// Packed GEMM linear layer.
    PackedLinear,
    /// Scalar row-loop linear layer.
    ScalarLinear,
    /// CSR sparse linear layer.
    CsrLinear,
    /// im2col lowering into the packed **ternary** GEMM engine (2-bit
    /// weight codes, transposed product). Value-preserving, so proposed
    /// whenever the weights are exactly ternary.
    TernaryConv,
    /// Packed ternary GEMM linear layer. Value-preserving, proposed
    /// whenever the weights are exactly ternary.
    TernaryLinear,
    /// Packed int8 GEMM linear layer. **Lossy** (activations are
    /// re-quantised per call), so only proposed for layers already
    /// placed in [`WeightFormat::Int8`] by the caller.
    Int8Linear,
}

impl AlgoChoice {
    /// Stable tag used in the tuning cache.
    fn tag(self) -> &'static str {
        match self {
            AlgoChoice::DirectConv => "direct",
            AlgoChoice::Im2colPacked => "im2col-packed",
            AlgoChoice::Winograd => "winograd",
            AlgoChoice::WinogradF4 => "winograd-f4",
            AlgoChoice::FftConv => "fft",
            AlgoChoice::CsrConv => "csr",
            AlgoChoice::PackedLinear => "gemm-packed",
            AlgoChoice::ScalarLinear => "gemm-scalar",
            AlgoChoice::CsrLinear => "gemm-csr",
            AlgoChoice::TernaryConv => "im2col-ternary",
            AlgoChoice::TernaryLinear => "gemm-ternary",
            AlgoChoice::Int8Linear => "gemm-int8",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "direct" => AlgoChoice::DirectConv,
            "im2col-packed" => AlgoChoice::Im2colPacked,
            "winograd" => AlgoChoice::Winograd,
            "winograd-f4" => AlgoChoice::WinogradF4,
            "fft" => AlgoChoice::FftConv,
            "csr" => AlgoChoice::CsrConv,
            "gemm-packed" => AlgoChoice::PackedLinear,
            "gemm-scalar" => AlgoChoice::ScalarLinear,
            "gemm-csr" => AlgoChoice::CsrLinear,
            "im2col-ternary" => AlgoChoice::TernaryConv,
            "gemm-ternary" => AlgoChoice::TernaryLinear,
            "gemm-int8" => AlgoChoice::Int8Linear,
            _ => return None,
        })
    }
}

// Cost-model throughput anchors, measured on this crate's own kernels
// (BENCH_gemm.json, 512³ single-thread): the packed micro-kernel engine
// sustains ~54 GFLOP/s where the scalar blocked/naive kernels sustain
// ~1.8. CSR pays per-nonzero index chasing (~1.2 GFLOP/s dense-equivalent
// on its stored nonzeros), which reproduces the paper's §V finding that
// sparse formats only win at extreme sparsity: against the packed engine
// the crossover density is ≈ 1.2/54 ≈ 2%. The F(2×2) anchor prices its
// multiply count below the per-tile kernel's measured rate
// (BENCH_conv.json: ~6 GFLOP/s on the same count); it orders F(2×2)
// just above direct, which is all its two roles need — zero-workspace
// budget refuge and guard-demotion rung — since the cost model never
// prefers it to packed im2col.
const PACKED_GFLOPS: f64 = 54.0;
const SCALAR_GFLOPS: f64 = 1.8;
const SPARSE_GFLOPS: f64 = 1.2;
const WINOGRAD_GFLOPS: f64 = 0.9;
// The quantised micro-kernels run the same FMA ladder as the f32 kernel
// with a per-step decode prologue (2-bit shift/permute select, or i8 →
// f32 widening); the anchors price that overhead. Their wins come from
// the traffic terms below (2-bit/1-byte weight streams) and, for the
// transposed ternary convolution, from moving a tiny output plane off
// the NR-padded column dimension — both modelled explicitly.
const TERNARY_GFLOPS: f64 = 48.0;
const INT8_GFLOPS: f64 = 50.0;
// F(4×4, 3×3) is priced by the three stages `winograd4_conv2d_into`
// executes, anchored on min-of-N single-thread timings at the VGG-16
// CIFAR shapes (2-core Xeon). The 3×3→6×6 filter transforms are rebuilt
// on every call and scattered frequency-major: ~135 ns each, 35 ms for
// a 512×512 bank, over 30× that layer's packed im2col time. Each
// 16-tile block of the multiply stage runs 36·oc·ic·16 MACs and streams
// the whole 36·oc·ic bank, whether one lane or sixteen are live. Input
// and output transforms cost ~60 ns per (tile, channel). Measured with
// its bank stream, a block sustains ~17–24 GFLOP/s at batch 8; the
// block anchors price it about 2× slower, the same pessimism the im2col
// arm carries at these shapes, so the predicted F4/im2col ratios track
// the measured ones and both pick im2col on every VGG-16 layer.
const WINOGRAD4_FILTER_S: f64 = 135e-9;
const WINOGRAD4_BLOCK_GFLOPS: f64 = 12.0;
const WINOGRAD4_TILE_CHANNEL_S: f64 = 60e-9;
// The radix-2 split-complex FFT kernel's sustained rate over plane
// transforms + frequency-domain MACs (BENCH_conv.json, large-kernel
// sweep). Scalar, so ~30× below the packed GEMM engine — FFT wins only
// where it removes ~two orders of magnitude of arithmetic and im2col
// pack traffic, i.e. large kernels over large maps.
const FFT_GFLOPS: f64 = 1.5;
/// Streaming bandwidth charged for building/packing the im2col matrix
/// and for weight-panel traffic.
const PACK_BYTES_PER_SEC: f64 = 4.0e9;

/// FLOPs the packed tile grid actually executes for an `[m × k]·[k × n]`
/// product: ragged edges run full `MR × NR` micro-kernels on zero-padded
/// lanes, so tiny dimensions pay their round-up. This is what makes the
/// transposed ternary convolution win on late VGG layers — a 2×2 output
/// plane pads 4 → 16 columns under f32 but only 4 → 6 rows transposed.
fn tile_padded_flops(m: usize, k: usize, n: usize) -> f64 {
    let m_pad = m.div_ceil(cnn_stack_tensor::MR) * cnn_stack_tensor::MR;
    let n_pad = n.div_ceil(cnn_stack_tensor::NR) * cnn_stack_tensor::NR;
    2.0 * m_pad as f64 * k as f64 * n_pad as f64
}

/// Predicted seconds for one single-thread forward of `op` under
/// `choice`. Relative accuracy is all that matters: every path
/// parallelises over the same outer loop, so thread count scales all
/// candidates alike.
fn predicted_seconds(op: &IrOp, choice: AlgoChoice) -> f64 {
    let flops = 2.0 * op.macs as f64;
    let batch = op.input_shape.first().copied().unwrap_or(1).max(1);
    match choice {
        AlgoChoice::DirectConv | AlgoChoice::ScalarLinear => flops / (SCALAR_GFLOPS * 1e9),
        AlgoChoice::Im2colPacked => {
            let OpKind::Conv {
                geom, out_channels, ..
            } = &op.kind
            else {
                return flops / (PACKED_GFLOPS * 1e9);
            };
            let plane = geom.out_positions();
            let k = geom.patch_len();
            // Mirror the engine's small-plane batching: groups of images
            // merge their columns until one column grain is filled, so
            // the NR round-up is paid once per group, not per image.
            let group = ((4 * cnn_stack_tensor::NR) / plane.max(1)).clamp(1, batch);
            let groups = batch as f64 / group as f64;
            let eff = groups * tile_padded_flops(*out_channels, k, group * plane);
            let weight_traffic = groups * (out_channels * k * 4) as f64;
            let footprint = (k * plane * 4) as f64 * batch as f64;
            // Pointwise stride-1 convolutions skip the im2col
            // indirection entirely (the image is the column matrix) —
            // only the panel repack remains.
            let pack = if geom.is_pointwise_identity() {
                footprint * 0.5
            } else {
                footprint
            };
            eff / (PACKED_GFLOPS * 1e9) + (pack + weight_traffic) / PACK_BYTES_PER_SEC
        }
        AlgoChoice::TernaryConv => {
            let OpKind::Conv {
                geom, out_channels, ..
            } = &op.kind
            else {
                return f64::INFINITY;
            };
            let plane = geom.out_positions();
            let k = geom.patch_len();
            // Transposed product Outᵀ = Colᵀ·Wᵀ, per image: the plane is
            // the MR-padded row dimension, the weights stream as 2-bit
            // codes (16× less panel traffic than f32).
            let eff = batch as f64 * tile_padded_flops(plane, k, *out_channels);
            let weight_traffic = batch as f64 * (out_channels * k) as f64 / 4.0;
            let footprint = (k * plane * 4) as f64 * batch as f64;
            eff / (TERNARY_GFLOPS * 1e9) + (footprint + weight_traffic) / PACK_BYTES_PER_SEC
        }
        AlgoChoice::PackedLinear | AlgoChoice::TernaryLinear | AlgoChoice::Int8Linear => {
            let OpKind::Linear {
                in_features,
                out_features,
                ..
            } = &op.kind
            else {
                return f64::INFINITY;
            };
            let eff = tile_padded_flops(batch, *in_features, *out_features);
            // At serving batch sizes the product is bound by streaming
            // the weight panels; the quantised formats' narrower panels
            // are exactly where they win.
            let elems = (in_features * out_features) as f64;
            let (gflops, weight_traffic) = match choice {
                AlgoChoice::PackedLinear => (PACKED_GFLOPS, elems * 4.0),
                AlgoChoice::TernaryLinear => (TERNARY_GFLOPS, elems / 4.0),
                _ => (INT8_GFLOPS, elems),
            };
            eff / (gflops * 1e9) + weight_traffic / PACK_BYTES_PER_SEC
        }
        AlgoChoice::Winograd => flops / 2.25 / (WINOGRAD_GFLOPS * 1e9),
        AlgoChoice::WinogradF4 => {
            let OpKind::Conv {
                geom, out_channels, ..
            } = &op.kind
            else {
                return f64::INFINITY;
            };
            let bank = (out_channels * geom.in_channels) as f64;
            let tiles = geom.out_h.div_ceil(4) * geom.out_w.div_ceil(4);
            let blocks = batch * tiles.div_ceil(cnn_stack_tensor::WINOGRAD4_TILE_BLOCK);
            let block_flops = 2.0 * 36.0 * bank * cnn_stack_tensor::WINOGRAD4_TILE_BLOCK as f64;
            let per_block = block_flops / (WINOGRAD4_BLOCK_GFLOPS * 1e9)
                + 36.0 * bank * 4.0 / PACK_BYTES_PER_SEC;
            let tile_channels = (batch * tiles * (geom.in_channels + out_channels)) as f64;
            bank * WINOGRAD4_FILTER_S
                + blocks as f64 * per_block
                + tile_channels * WINOGRAD4_TILE_CHANNEL_S
        }
        AlgoChoice::FftConv => {
            let OpKind::Conv {
                geom, out_channels, ..
            } = &op.kind
            else {
                return f64::INFINITY;
            };
            let (ph, pw) = cnn_stack_tensor::fft_plane_dims(geom);
            let ps = (ph * pw) as f64;
            let in_c = geom.in_channels as f64;
            let oc = *out_channels as f64;
            // One radix-2 plane transform ≈ 5·ps·log₂(ps) flops;
            // conjugate-pair packing halves the transform count.
            // Filter spectra are computed once per call, so they
            // amortise over the batch; input/inverse transforms and
            // the 8-flop complex MAC per (o, c, frequency) do not.
            let plane_flops = 5.0 * ps * ps.log2().max(1.0);
            let filter_planes = (oc * in_c / 2.0).ceil();
            let image_planes = (in_c / 2.0).ceil() + (oc / 2.0).ceil();
            let transforms = filter_planes + batch as f64 * image_planes;
            let pointwise = batch as f64 * oc * in_c * ps * 8.0;
            (transforms * plane_flops + pointwise) / (FFT_GFLOPS * 1e9)
        }
        AlgoChoice::CsrConv | AlgoChoice::CsrLinear => {
            let density = match &op.kind {
                OpKind::Conv { sparsity, .. } | OpKind::Linear { sparsity, .. } => 1.0 - sparsity,
                _ => 1.0,
            };
            flops * density / (SPARSE_GFLOPS * 1e9)
        }
    }
}

/// Valid candidates for `op`, cheapest predicted first; empty for ops
/// the selector does not touch.
fn candidates(op: &IrOp) -> Vec<(AlgoChoice, f64)> {
    let mut c: Vec<AlgoChoice> = match &op.kind {
        OpKind::Conv { geom, ternary, .. } => {
            let mut v = vec![
                AlgoChoice::DirectConv,
                AlgoChoice::Im2colPacked,
                AlgoChoice::CsrConv,
            ];
            if geom.k_h == 3 && geom.k_w == 3 && geom.stride == 1 {
                v.push(AlgoChoice::Winograd);
                v.push(AlgoChoice::WinogradF4);
            }
            // FFT never amortises its plane transforms at 3×3 and
            // below; proposing it there would only churn the autotuner.
            if geom.k_h * geom.k_w > 9 {
                v.push(AlgoChoice::FftConv);
            }
            // Value-preserving, so auto-selectable: the packed ternary
            // kernel decodes the codes to the exact weight values.
            if *ternary {
                v.push(AlgoChoice::TernaryConv);
            }
            v
        }
        OpKind::Linear {
            format, ternary, ..
        } => {
            let mut v = vec![
                AlgoChoice::PackedLinear,
                AlgoChoice::ScalarLinear,
                AlgoChoice::CsrLinear,
            ];
            if *ternary {
                v.push(AlgoChoice::TernaryLinear);
            }
            // Int8 is lossy (per-call activation quantisation): only a
            // candidate when the caller already opted the layer in.
            if *format == WeightFormat::Int8 {
                v.push(AlgoChoice::Int8Linear);
            }
            v
        }
        _ => Vec::new(),
    };
    c.sort_by(|a, b| predicted_seconds(op, *a).total_cmp(&predicted_seconds(op, *b)));
    c.into_iter()
        .map(|ch| (ch, predicted_seconds(op, ch)))
        .collect()
}

/// Applies `choice` to the op's config and, when the choice implies a
/// weight-format switch, to the layer itself.
fn apply_choice(net: &mut Network, op: &mut IrOp, choice: AlgoChoice) {
    let layers = net.layers_mut();
    match choice {
        AlgoChoice::DirectConv => {
            op.cfg.conv_algo = ConvAlgorithm::Direct;
            set_layer_format(layers, op.layer, WeightFormat::Dense);
        }
        AlgoChoice::Im2colPacked => {
            op.cfg.conv_algo = ConvAlgorithm::Im2col;
            op.cfg.gemm_algo = GemmAlgorithm::Packed;
            set_layer_format(layers, op.layer, WeightFormat::Dense);
        }
        AlgoChoice::Winograd => {
            op.cfg.conv_algo = ConvAlgorithm::Winograd;
            set_layer_format(layers, op.layer, WeightFormat::Dense);
        }
        AlgoChoice::WinogradF4 => {
            op.cfg.conv_algo = ConvAlgorithm::WinogradF4;
            set_layer_format(layers, op.layer, WeightFormat::Dense);
        }
        AlgoChoice::FftConv => {
            op.cfg.conv_algo = ConvAlgorithm::Fft;
            set_layer_format(layers, op.layer, WeightFormat::Dense);
        }
        AlgoChoice::CsrConv => {
            op.cfg.conv_algo = ConvAlgorithm::Direct;
            set_layer_format(layers, op.layer, WeightFormat::Csr);
        }
        AlgoChoice::PackedLinear => {
            op.cfg.gemm_algo = GemmAlgorithm::Packed;
            set_layer_format(layers, op.layer, WeightFormat::Dense);
        }
        AlgoChoice::ScalarLinear => {
            op.cfg.gemm_algo = GemmAlgorithm::Blocked;
            set_layer_format(layers, op.layer, WeightFormat::Dense);
        }
        AlgoChoice::CsrLinear => {
            set_layer_format(layers, op.layer, WeightFormat::Csr);
        }
        AlgoChoice::TernaryConv => {
            op.cfg.conv_algo = ConvAlgorithm::Im2col;
            op.cfg.gemm_algo = GemmAlgorithm::TernaryPacked;
            set_layer_format(layers, op.layer, WeightFormat::Ternary);
        }
        AlgoChoice::TernaryLinear => {
            op.cfg.gemm_algo = GemmAlgorithm::TernaryPacked;
            set_layer_format(layers, op.layer, WeightFormat::Ternary);
        }
        AlgoChoice::Int8Linear => {
            op.cfg.gemm_algo = GemmAlgorithm::Int8Packed;
            set_layer_format(layers, op.layer, WeightFormat::Int8);
        }
    }
    // Keep the IR's format fact in sync for later passes.
    if let OpKind::Conv { format, .. } | OpKind::Linear { format, .. } = &mut op.kind {
        *format = match choice {
            AlgoChoice::CsrConv | AlgoChoice::CsrLinear => WeightFormat::Csr,
            AlgoChoice::TernaryConv | AlgoChoice::TernaryLinear => WeightFormat::Ternary,
            AlgoChoice::Int8Linear => WeightFormat::Int8,
            _ => WeightFormat::Dense,
        };
    }
    // Tag the step name with the winning algorithm so plan reports show
    // per-layer choices. Replace any tag from an earlier pass (autotune
    // re-applies on top of cost-model selection).
    if op.name.ends_with(']') {
        if let Some(pos) = op.name.rfind(" [") {
            op.name.truncate(pos);
        }
    }
    let _ = write!(op.name, " [{}]", choice.tag());
}

fn set_layer_format(layers: &mut [Box<dyn crate::layer::Layer>], idx: usize, format: WeightFormat) {
    // Quantised formats always re-run `set_format`, even when the label
    // already matches: an earlier pass (BN folding) may have rewritten
    // the weights through `weight_mut`, which drops the code snapshot —
    // without a fresh pack the step would silently run the f32
    // fallback. Re-packing is a compile-time cost only. Dense/CSR keep
    // the skip (CSR snapshots are rebuilt by `weight_mut` callers via
    // `set_format`, and re-snapshotting dense is a no-op).
    let refresh = matches!(format, WeightFormat::Ternary | WeightFormat::Int8);
    let layer = layers[idx].as_any_mut();
    if let Some(c) = layer.downcast_mut::<crate::Conv2d>() {
        if refresh || c.format() != format {
            c.set_format(format);
        }
    } else if let Some(fc) = layer.downcast_mut::<crate::Linear>() {
        if refresh || fc.format() != format {
            fc.set_format(format);
        }
    }
}

/// Chooses an execution strategy per conv/linear op from the cost model;
/// see the [module docs](self). A non-default `conv_algo` or `gemm_algo`
/// in the base config is treated as a user override and left untouched
/// (use [`SelectAlgorithms::forced`] to select regardless).
pub struct SelectAlgorithms {
    honor_overrides: bool,
}

impl SelectAlgorithms {
    /// Selector that honours non-default base knobs as overrides.
    pub fn new() -> Self {
        SelectAlgorithms {
            honor_overrides: true,
        }
    }

    /// Selector that always applies the cost model, ignoring the base
    /// `conv_algo`/`gemm_algo`.
    pub fn forced() -> Self {
        SelectAlgorithms {
            honor_overrides: false,
        }
    }
}

impl Default for SelectAlgorithms {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanPass for SelectAlgorithms {
    fn name(&self) -> &'static str {
        "select-algorithms"
    }

    fn run(&self, ctx: &mut PassContext) -> Result<(), Error> {
        let defaults = ExecConfig::serial();
        if self.honor_overrides
            && (ctx.base_cfg.conv_algo != defaults.conv_algo
                || ctx.base_cfg.gemm_algo != defaults.gemm_algo)
        {
            return Ok(());
        }
        let mut ops = std::mem::take(&mut ctx.ops);
        for op in &mut ops {
            if let Some(&(best, _)) = candidates(op).first() {
                apply_choice(ctx.net, op, best);
            }
        }
        ctx.ops = ops;
        Ok(())
    }
}

/// Degradation pass for brownout serving: forces the throughput-biased
/// im2col+packed configuration on every conv and linear op, ignoring
/// the cost model, measured sparsity, and any base-config override.
/// Sparse layers are densified and Winograd candidates are ignored —
/// under brownout the objective is the highest *predictable* batch
/// throughput, not the fastest plan for this particular weight tensor.
pub struct ForceThroughput;

impl PlanPass for ForceThroughput {
    fn name(&self) -> &'static str {
        "force-throughput"
    }

    fn run(&self, ctx: &mut PassContext) -> Result<(), Error> {
        let mut ops = std::mem::take(&mut ctx.ops);
        for op in &mut ops {
            match &op.kind {
                OpKind::Conv { .. } => apply_choice(ctx.net, op, AlgoChoice::Im2colPacked),
                OpKind::Linear { .. } => apply_choice(ctx.net, op, AlgoChoice::PackedLinear),
                _ => {}
            }
        }
        ctx.ops = ops;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Budget solver: fastest plan under N bytes
// ---------------------------------------------------------------------

/// One algorithm option for one op during budget solving. `choice` is
/// `None` for ops the selector does not touch (their extent is fixed);
/// `Some` entries can be (re-)applied via [`apply_choice`].
struct BudgetCand {
    choice: Option<AlgoChoice>,
    secs: f64,
    extent: StepExtent,
}

/// Peak arena bytes of a step-extent sequence under `arena` — the same
/// number `InferencePlan::strategy_peak_bytes` reports for the compiled
/// plan, so solver decisions and the admission check agree.
fn arena_peak_bytes(extents: &[StepExtent], arena: ArenaStrategy) -> usize {
    let fp = MemoryFootprint::of(extents);
    match arena {
        ArenaStrategy::Coloured => fp.peak_bytes,
        ArenaStrategy::PingPong => fp.naive_bytes,
    }
}

/// Memory extent of one op compiled under its current per-op config —
/// a real `compile_step` probe, so the workspace numbers are the
/// kernels' own, not a cost-model estimate.
fn op_extent(net: &Network, op: &IrOp) -> Result<StepExtent, Error> {
    let step = compile_step(
        net.layers()[op.layer].as_ref(),
        op.layer,
        &op.input_shape,
        &op.cfg,
    )?;
    Ok(StepExtent {
        output_elems: step.output_elems,
        workspace_elems: step.workspace_elems,
        scratch_elems: step.scratch_elems,
    })
}

/// Whether `choice` describes the op's *current* configuration, so the
/// solver can start from the pass pipeline's selection (including an
/// autotuned winner) rather than resetting every op to the cost model's
/// predicted-fastest.
fn matches_current(op: &IrOp, choice: AlgoChoice) -> bool {
    let format = match &op.kind {
        OpKind::Conv { format, .. } | OpKind::Linear { format, .. } => *format,
        _ => return false,
    };
    let cfg = &op.cfg;
    match choice {
        AlgoChoice::DirectConv => {
            cfg.conv_algo == ConvAlgorithm::Direct && format == WeightFormat::Dense
        }
        AlgoChoice::Im2colPacked => {
            cfg.conv_algo == ConvAlgorithm::Im2col
                && cfg.gemm_algo == GemmAlgorithm::Packed
                && format == WeightFormat::Dense
        }
        AlgoChoice::Winograd => cfg.conv_algo == ConvAlgorithm::Winograd,
        AlgoChoice::WinogradF4 => cfg.conv_algo == ConvAlgorithm::WinogradF4,
        AlgoChoice::FftConv => cfg.conv_algo == ConvAlgorithm::Fft,
        AlgoChoice::CsrConv | AlgoChoice::CsrLinear => format == WeightFormat::Csr,
        AlgoChoice::TernaryConv | AlgoChoice::TernaryLinear => format == WeightFormat::Ternary,
        AlgoChoice::Int8Linear => format == WeightFormat::Int8,
        AlgoChoice::PackedLinear => {
            cfg.gemm_algo == GemmAlgorithm::Packed && format == WeightFormat::Dense
        }
        AlgoChoice::ScalarLinear => {
            cfg.gemm_algo == GemmAlgorithm::Blocked && format == WeightFormat::Dense
        }
    }
}

/// Solves "fastest plan under the budget" over the pipeline's op list.
///
/// The solver first checks the liveness-derived peak of the current
/// selection; when it already fits, nothing changes (an autotuned
/// winner stays an autotuned winner). When over budget, it probes every
/// conv/linear candidate's true workspace via [`compile_step`] and then
/// greedily demotes: each round it evaluates, for every op, a move to
/// that op's fastest strictly-smaller-workspace algorithm (im2col +
/// packed falls back towards Winograd/direct, packed linear towards
/// blocked), recomputes the coloured peak each move would produce, and
/// applies the move with the lowest resulting peak, breaking ties
/// towards the smallest predicted slowdown. When every op sits at its
/// smallest workspace and the plan still exceeds the budget, the floor
/// selection is left applied and the caller's admission check reports
/// [`PlanError::BudgetInfeasible`] with that floor as the smallest
/// feasible budget.
///
/// A non-default `conv_algo`/`gemm_algo` in the base config is a user
/// override and the solver stands down, exactly like
/// [`SelectAlgorithms`]: the admission check then reports infeasibility
/// rather than silently rewriting the user's plan.
fn fit_budget(ctx: &mut PassContext, budget_bytes: usize) -> Result<(), Error> {
    let defaults = ExecConfig::serial();
    if ctx.base_cfg.conv_algo != defaults.conv_algo || ctx.base_cfg.gemm_algo != defaults.gemm_algo
    {
        return Ok(());
    }
    let arena = ctx.base_cfg.arena;
    let current: Vec<StepExtent> = ctx
        .ops
        .iter()
        .map(|op| op_extent(ctx.net, op))
        .collect::<Result<_, _>>()?;
    if arena_peak_bytes(&current, arena) <= budget_bytes {
        return Ok(());
    }

    let mut ops = std::mem::take(&mut ctx.ops);
    let mut tables: Vec<Vec<BudgetCand>> = Vec::with_capacity(ops.len());
    let mut selected: Vec<usize> = Vec::with_capacity(ops.len());
    for (op, cur) in ops.iter_mut().zip(&current) {
        let cands = candidates(op);
        if cands.is_empty() {
            tables.push(vec![BudgetCand {
                choice: None,
                secs: 0.0,
                extent: *cur,
            }]);
            selected.push(0);
            continue;
        }
        // Record which candidate the pipeline currently has applied
        // *before* probing overwrites the op's config.
        let init = cands
            .iter()
            .position(|&(c, _)| matches_current(op, c))
            .unwrap_or(0);
        let mut table = Vec::with_capacity(cands.len());
        for (choice, secs) in cands {
            apply_choice(ctx.net, op, choice);
            table.push(BudgetCand {
                choice: Some(choice),
                secs,
                extent: op_extent(ctx.net, op)?,
            });
        }
        tables.push(table);
        selected.push(init);
    }

    loop {
        let extents: Vec<StepExtent> = tables
            .iter()
            .zip(&selected)
            .map(|(t, &j)| t[j].extent)
            .collect();
        if arena_peak_bytes(&extents, arena) <= budget_bytes {
            break;
        }
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for (i, table) in tables.iter().enumerate() {
            let cur = &table[selected[i]];
            // Candidates are sorted fastest-first, so `position` finds
            // the fastest algorithm that actually shrinks this op.
            let Some(j) = table
                .iter()
                .position(|c| c.extent.workspace_elems < cur.extent.workspace_elems)
            else {
                continue;
            };
            let mut trial = extents.clone();
            trial[i] = table[j].extent;
            let new_peak = arena_peak_bytes(&trial, arena);
            let dsecs = table[j].secs - cur.secs;
            let better = match best {
                None => true,
                Some((_, _, bp, bd)) => new_peak < bp || (new_peak == bp && dsecs < bd),
            };
            if better {
                best = Some((i, j, new_peak, dsecs));
            }
        }
        let Some((i, j, _, _)) = best else {
            // Every op already sits at its smallest workspace; the
            // caller's admission check reports the floor.
            break;
        };
        selected[i] = j;
    }

    // Leave the network and op list in the solved state (probing left
    // them on each op's last-probed candidate).
    for (op, (table, &j)) in ops.iter_mut().zip(tables.iter().zip(&selected)) {
        if let Some(choice) = table[j].choice {
            apply_choice(ctx.net, op, choice);
        }
    }
    ctx.ops = ops;
    Ok(())
}

// ---------------------------------------------------------------------
// Pass 3: empirical autotune
// ---------------------------------------------------------------------

/// Opt-in empirical refinement of the cost model: micro-benchmarks the
/// top-2 predicted candidates per conv/linear op and applies the
/// measured winner, persisting it to a tuning cache so later
/// compilations of the same shape skip the measurement.
///
/// Cache resolution order: an explicit [`with_cache_path`]
/// (Autotune::with_cache_path) argument, the `CNN_STACK_TUNE_CACHE`
/// environment variable, then `~/.cache/cnn-stack/tune.tsv`. Entries are
/// keyed by op kind, GEMM dimensions, batch, measured-sparsity bucket,
/// and thread count. Cache I/O is best-effort: an unreadable or
/// unwritable cache degrades to measuring every compilation.
pub struct Autotune {
    cache_path: Option<PathBuf>,
    samples: u32,
}

impl Autotune {
    /// Autotuner with the default cache resolution.
    pub fn new() -> Self {
        Autotune {
            cache_path: None,
            samples: 3,
        }
    }

    /// Autotuner writing to an explicit cache file (tests point this at
    /// a temp dir for determinism).
    pub fn with_cache_path(path: impl Into<PathBuf>) -> Self {
        Autotune {
            cache_path: Some(path.into()),
            samples: 3,
        }
    }

    fn resolve_cache_path(&self) -> Option<PathBuf> {
        if let Some(p) = &self.cache_path {
            return Some(p.clone());
        }
        if let Ok(p) = std::env::var("CNN_STACK_TUNE_CACHE") {
            if !p.is_empty() {
                return Some(PathBuf::from(p));
            }
        }
        std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".cache/cnn-stack/tune.tsv"))
    }

    /// Best-of-`samples` wall-clock seconds for one forward of the op's
    /// primary layer under `cfg`, after a warm-up run (which also packs
    /// any plan-time panels via `prepare`).
    fn measure(net: &mut Network, op: &IrOp, cfg: &ExecConfig, samples: u32) -> f64 {
        let layer = &mut net.layers_mut()[op.layer];
        layer.visit_mut(&mut |l| l.prepare(cfg));
        let x = Tensor::from_fn(op.input_shape.clone(), |i| ((i % 23) as f32 - 11.0) * 0.05);
        let _ = layer.forward(&x, Phase::Eval, cfg);
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let t = Instant::now();
            let _ = layer.forward(&x, Phase::Eval, cfg);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }
}

impl Default for Autotune {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable cache key for an op at one shape and thread count.
fn tune_key(op: &IrOp, threads: usize) -> Option<String> {
    let batch = op.input_shape.first().copied().unwrap_or(1);
    match &op.kind {
        OpKind::Conv {
            geom,
            out_channels,
            sparsity,
            ..
        } => Some(format!(
            "conv:m{}k{}n{}:b{batch}:sp{:.2}:t{threads}",
            out_channels,
            geom.patch_len(),
            geom.out_positions(),
            sparsity,
        )),
        OpKind::Linear {
            in_features,
            out_features,
            sparsity,
            ..
        } => Some(format!(
            "linear:m{batch}k{in_features}n{out_features}:sp{:.2}:t{threads}",
            sparsity,
        )),
        _ => None,
    }
}

fn load_cache(path: &Path) -> Vec<(String, AlgoChoice)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let (key, tag) = line.split_once('\t')?;
            Some((key.to_string(), AlgoChoice::from_tag(tag)?))
        })
        .collect()
}

fn store_cache(path: &Path, entries: &[(String, AlgoChoice)]) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut text = String::new();
    for (key, choice) in entries {
        text.push_str(key);
        text.push('\t');
        text.push_str(choice.tag());
        text.push('\n');
    }
    let _ = std::fs::write(path, text);
}

impl PlanPass for Autotune {
    fn name(&self) -> &'static str {
        "autotune"
    }

    fn run(&self, ctx: &mut PassContext) -> Result<(), Error> {
        let cache_path = self.resolve_cache_path();
        let mut cache = cache_path.as_deref().map(load_cache).unwrap_or_default();
        let mut dirty = false;
        let threads = ctx.base_cfg.threads;
        let mut ops = std::mem::take(&mut ctx.ops);
        for op in &mut ops {
            let Some(key) = tune_key(op, threads) else {
                continue;
            };
            if let Some((_, cached)) = cache.iter().find(|(k, _)| *k == key) {
                apply_choice(ctx.net, op, *cached);
                continue;
            }
            let mut top: Vec<AlgoChoice> =
                candidates(op).into_iter().take(2).map(|(c, _)| c).collect();
            if top.len() < 2 {
                continue; // nothing to compare; keep the selector's pick
            }
            // Light budget filter: a candidate whose own step residency
            // (input + output + workspace are simultaneously live)
            // exceeds the budget can never appear in a feasible plan,
            // so don't spend samples measuring it. A budget-influenced
            // winner must not enter the budget-agnostic tuning cache.
            let mut cacheable = true;
            if let Some(budget) = ctx.base_cfg.plan_budget {
                let input_elems: usize = op.input_shape.iter().product();
                let mut keep = Vec::with_capacity(top.len());
                for &choice in &top {
                    apply_choice(ctx.net, op, choice);
                    let ext = op_extent(ctx.net, op)?;
                    let resident = 4 * (input_elems + ext.output_elems + ext.workspace_elems);
                    if resident <= budget {
                        keep.push(choice);
                    }
                }
                cacheable = keep.len() == top.len();
                top = keep;
                if top.is_empty() {
                    continue; // nothing fits here; the budget solver repairs later
                }
                if top.len() == 1 {
                    apply_choice(ctx.net, op, top[0]);
                    continue;
                }
            }
            let mut winner = top[0];
            let mut best = f64::INFINITY;
            for &choice in &top {
                apply_choice(ctx.net, op, choice);
                let t = Self::measure(ctx.net, op, &op.cfg, self.samples);
                if t < best {
                    best = t;
                    winner = choice;
                }
            }
            apply_choice(ctx.net, op, winner);
            if cacheable {
                cache.push((key, winner));
                dirty = true;
            }
        }
        ctx.ops = ops;
        if dirty {
            if let Some(path) = &cache_path {
                store_cache(path, &cache);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, Flatten, InferenceSession, Linear, MaxPool2d, Network, ReLU};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    fn fusable_net(seed: u64) -> Network {
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 6, 3, 1, 1, seed)),
            Box::new(BatchNorm2d::new(6)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(6 * 4 * 4, 5, seed + 1)),
            Box::new(ReLU::new()),
        ])
        .unwrap();
        // Give the batch norm non-trivial statistics so folding does
        // real work.
        let bn = net.layers_mut()[1]
            .as_any_mut()
            .downcast_mut::<BatchNorm2d>()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed + 7);
        for g in bn.gamma_mut().value.data_mut() {
            *g = rng.gen_range(0.5..1.5);
        }
        net
    }

    #[test]
    fn empty_pipeline_matches_compile() {
        let mut net = fusable_net(11);
        let cfg = ExecConfig::serial();
        let direct = InferencePlan::compile(&net, &[2, 3, 8, 8], &cfg).unwrap();
        let built = PlanCompiler::new()
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        assert_eq!(built.steps().len(), direct.steps().len());
        for (a, b) in built.steps().iter().zip(direct.steps()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.span, 1);
            assert_eq!(a.output_shape, b.output_shape);
        }
    }

    #[test]
    fn fold_and_fuse_collapses_conv_bn_relu() {
        let mut net = fusable_net(3);
        let cfg = ExecConfig::serial();
        let plan = PlanCompiler::new()
            .with_pass(FoldAndFuse)
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        // 7 layers → 4 steps: [conv+bn+relu][pool][flatten][linear+relu].
        assert_eq!(plan.steps().len(), 4);
        assert_eq!(plan.steps()[0].span, 3);
        assert!(plan.steps()[0].cfg.fused_relu);
        assert_eq!(plan.steps()[3].span, 2);
        assert!(plan.steps()[3].cfg.fused_relu);
        let covered: usize = plan.steps().iter().map(|s| s.span).sum();
        assert_eq!(covered, 7);
    }

    #[test]
    fn fused_plan_matches_unfused_execution() {
        let x = random([2, 3, 8, 8], 42);
        let cfg = ExecConfig::serial();
        // Reference: unfused network, uniform plan (folding is applied
        // to both networks first so the weights are identical).
        let mut reference = fusable_net(3);
        crate::fold_batchnorm(&mut reference);
        let ref_plan = InferencePlan::compile(&reference, &[2, 3, 8, 8], &cfg).unwrap();
        let mut ref_session = InferenceSession::new(&mut reference, ref_plan).unwrap();
        let want = ref_session.run(&x).unwrap();

        let mut net = fusable_net(3);
        let plan = PlanCompiler::new()
            .with_pass(FoldAndFuse)
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        let got = session.run(&x).unwrap();
        assert_eq!(got.shape().dims(), want.shape().dims());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g, w, "fused and unfused outputs must agree exactly");
        }
    }

    #[test]
    fn near_identity_batchnorm_is_not_absorbed() {
        // A fresh (unfolded, never-folded) batch norm scales by
        // 1/sqrt(1+eps) — skipping it would change outputs, so the
        // fuser must keep it when folding cannot run (e.g. after a
        // non-conv producer).
        let mut net = Network::new(vec![
            Box::new(MaxPool2d::new(2)),
            Box::new(BatchNorm2d::new(3)),
        ])
        .unwrap();
        let cfg = ExecConfig::serial();
        let plan = PlanCompiler::new()
            .with_pass(FoldAndFuse)
            .run(&mut net, &[1, 3, 8, 8], &cfg)
            .unwrap();
        assert_eq!(plan.steps().len(), 2);
    }

    #[test]
    fn selection_picks_packed_for_dense_and_csr_for_extreme_sparsity() {
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 16, 3, 1, 1, 2)),
            Box::new(Conv2d::new(16, 16, 3, 1, 1, 3)),
        ])
        .unwrap();
        // Prune the second conv to ~99% sparsity: CSR beats packed
        // only beyond the ≈98% crossover.
        {
            let conv = net.layers_mut()[1]
                .as_any_mut()
                .downcast_mut::<Conv2d>()
                .unwrap();
            let data = conv.weight_mut().value.data_mut();
            let keep = data.len() / 100;
            for v in data.iter_mut().skip(keep) {
                *v = 0.0;
            }
        }
        let cfg = ExecConfig::serial();
        let plan = PlanCompiler::standard()
            .run(&mut net, &[1, 3, 16, 16], &cfg)
            .unwrap();
        assert_eq!(plan.steps()[0].cfg.conv_algo, ConvAlgorithm::Im2col);
        assert_eq!(plan.steps()[0].cfg.gemm_algo, GemmAlgorithm::Packed);
        // The sparse layer went CSR + direct.
        assert_eq!(plan.steps()[1].cfg.conv_algo, ConvAlgorithm::Direct);
        let sparse_layer = net.layers_mut()[1]
            .as_any_mut()
            .downcast_mut::<Conv2d>()
            .unwrap();
        assert_eq!(sparse_layer.format(), WeightFormat::Csr);
    }

    #[test]
    fn winograd4_is_priced_per_tile_block() {
        // Output planes of 1×1 to 4×4 are each one 4×4 tile, so one
        // 16-lane block: the same multiply stage, the same bank stream
        // and the same per-call filter transforms, whatever the plane.
        let net = Network::new(vec![Box::new(Conv2d::new(512, 512, 3, 1, 1, 4))]).unwrap();
        let cfg = ExecConfig::serial();
        let priced: Vec<(f64, f64)> = (1..=4)
            .map(|hw| {
                let ops = crate::ir::lower(&net, &[1, 512, hw, hw], &cfg).unwrap();
                (
                    predicted_seconds(&ops[0], AlgoChoice::WinogradF4),
                    predicted_seconds(&ops[0], AlgoChoice::Im2colPacked),
                )
            })
            .collect();
        for &(f4, im2col) in &priced {
            assert_eq!(f4, priced[0].0, "one tile block per plane up to 4×4");
            assert!(f4 > im2col, "F4 {f4} s must exceed im2col {im2col} s");
        }
    }

    #[test]
    fn selection_honours_global_override() {
        let mut net = Network::new(vec![Box::new(Conv2d::new(3, 8, 3, 1, 1, 2))]).unwrap();
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            gemm_algo: GemmAlgorithm::Blocked,
            ..ExecConfig::serial()
        };
        let plan = PlanCompiler::standard()
            .run(&mut net, &[1, 3, 8, 8], &cfg)
            .unwrap();
        // Non-default base knobs are a user override: kept verbatim.
        assert_eq!(plan.steps()[0].cfg.conv_algo, ConvAlgorithm::Im2col);
        assert_eq!(plan.steps()[0].cfg.gemm_algo, GemmAlgorithm::Blocked);
    }

    #[test]
    fn selected_plan_executes_and_matches_reference() {
        let x = random([2, 3, 8, 8], 9);
        let cfg = ExecConfig::serial();
        let mut reference = fusable_net(5);
        let want = reference.forward(&x, Phase::Eval, &cfg);

        let mut net = fusable_net(5);
        let plan = PlanCompiler::standard()
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        let got = session.run(&x).unwrap();
        assert_eq!(got.shape().dims(), want.shape().dims());
        for (g, w) in got.data().iter().zip(want.data()) {
            let err = (g - w).abs();
            // Folding changes the arithmetic (BN absorbed into the
            // weights), so exact equality is not expected — agreement
            // to folding tolerance is.
            assert!(err <= 1e-4 * w.abs().max(1.0), "got {g}, want {w}");
        }
    }

    #[test]
    fn autotune_persists_and_reuses_cache() {
        let dir = std::env::temp_dir().join(format!("cnn-stack-tune-test-{}", std::process::id()));
        let path = dir.join("tune.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = ExecConfig::serial();

        let mut net = fusable_net(13);
        let plan_a = PlanCompiler::standard()
            .with_pass(Autotune::with_cache_path(path.clone()))
            .run(&mut net, &[1, 3, 8, 8], &cfg)
            .unwrap();
        let text = std::fs::read_to_string(&path).expect("cache written");
        assert!(text.lines().count() >= 2, "conv and linear entries: {text}");

        // Second compilation replays the cache: identical selections,
        // no re-measurement dependence.
        let mut net_b = fusable_net(13);
        let plan_b = PlanCompiler::standard()
            .with_pass(Autotune::with_cache_path(path.clone()))
            .run(&mut net_b, &[1, 3, 8, 8], &cfg)
            .unwrap();
        for (a, b) in plan_a.steps().iter().zip(plan_b.steps()) {
            assert_eq!(a.cfg.conv_algo, b.cfg.conv_algo, "step {}", a.name);
            assert_eq!(a.cfg.gemm_algo, b.cfg.gemm_algo, "step {}", a.name);
        }
        let text_b = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, text_b, "cache hit must not rewrite the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trips_tags() {
        for choice in [
            AlgoChoice::DirectConv,
            AlgoChoice::Im2colPacked,
            AlgoChoice::Winograd,
            AlgoChoice::CsrConv,
            AlgoChoice::PackedLinear,
            AlgoChoice::ScalarLinear,
            AlgoChoice::CsrLinear,
            AlgoChoice::TernaryConv,
            AlgoChoice::TernaryLinear,
            AlgoChoice::Int8Linear,
        ] {
            assert_eq!(AlgoChoice::from_tag(choice.tag()), Some(choice));
        }
        assert_eq!(AlgoChoice::from_tag("nonsense"), None);
    }

    fn budget_net(seed: u64) -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 16, 3, 1, 1, seed)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(16 * 6 * 6, 10, seed + 1)),
        ])
        .unwrap()
    }

    #[test]
    fn loose_budget_keeps_pipeline_selection() {
        let shape = [2usize, 3, 12, 12];
        let mut free_net = budget_net(31);
        let free = PlanCompiler::standard()
            .run(&mut free_net, &shape, &ExecConfig::serial())
            .unwrap();
        let mut capped_net = budget_net(31);
        let cfg = ExecConfig::builder().plan_budget(1 << 30).build().unwrap();
        let capped = PlanCompiler::standard()
            .run(&mut capped_net, &shape, &cfg)
            .unwrap();
        for (a, b) in free.steps().iter().zip(capped.steps()) {
            assert_eq!(a.cfg.conv_algo, b.cfg.conv_algo, "step {}", a.name);
            assert_eq!(a.cfg.gemm_algo, b.cfg.gemm_algo, "step {}", a.name);
        }
    }

    #[test]
    fn tight_budget_demotes_to_smaller_workspace() {
        let shape = [2usize, 3, 12, 12];
        let mut free_net = budget_net(32);
        let free = PlanCompiler::standard()
            .run(&mut free_net, &shape, &ExecConfig::serial())
            .unwrap();
        let free_peak = free.footprint().peak_bytes;
        assert!(free_peak > 0);
        // Ask for just under the unconstrained peak: the solver must
        // demote at least one step onto a smaller-workspace algorithm.
        let budget = free_peak - 4;
        let mut capped_net = budget_net(32);
        let cfg = ExecConfig::builder().plan_budget(budget).build().unwrap();
        let capped = PlanCompiler::standard()
            .run(&mut capped_net, &shape, &cfg)
            .unwrap();
        assert!(capped.footprint().peak_bytes <= budget);
        assert!(
            free.steps()
                .iter()
                .zip(capped.steps())
                .any(|(a, b)| a.cfg.conv_algo != b.cfg.conv_algo
                    || a.cfg.gemm_algo != b.cfg.gemm_algo),
            "a demotion must have happened"
        );
        // The demoted plan still computes the right function.
        let x = random(shape, 77);
        let mut free_sess = InferenceSession::new(&mut free_net, free).unwrap();
        let mut capped_sess = InferenceSession::new(&mut capped_net, capped).unwrap();
        let ya = free_sess.run(&x).unwrap();
        let yb = capped_sess.run(&x).unwrap();
        for (a, b) in ya.data().iter().zip(yb.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn infeasible_budget_reports_achievable_floor() {
        let shape = [2usize, 3, 12, 12];
        let mut net = budget_net(33);
        let cfg = ExecConfig::builder().plan_budget(64).build().unwrap();
        let err = PlanCompiler::standard()
            .run(&mut net, &shape, &cfg)
            .unwrap_err();
        let Error::Plan(PlanError::BudgetInfeasible {
            budget_bytes,
            min_feasible_bytes,
        }) = err
        else {
            panic!("expected BudgetInfeasible, got {err:?}");
        };
        assert_eq!(budget_bytes, 64);
        assert!(min_feasible_bytes > 64);
        // The reported floor is itself achievable.
        let mut net2 = budget_net(33);
        let cfg2 = ExecConfig::builder()
            .plan_budget(min_feasible_bytes)
            .build()
            .unwrap();
        let plan = PlanCompiler::standard()
            .run(&mut net2, &shape, &cfg2)
            .unwrap();
        assert!(plan.footprint().peak_bytes <= min_feasible_bytes);
    }

    #[test]
    fn user_override_stands_down_solver() {
        // An explicit conv_algo override must not be rewritten to fit;
        // the compiler reports infeasibility instead.
        let shape = [2usize, 3, 12, 12];
        let mut net = budget_net(34);
        let cfg = ExecConfig::builder()
            .conv_algo(ConvAlgorithm::Im2col)
            .plan_budget(64)
            .build()
            .unwrap();
        let err = PlanCompiler::standard()
            .run(&mut net, &shape, &cfg)
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Plan(PlanError::BudgetInfeasible { .. })
        ));
    }
}
