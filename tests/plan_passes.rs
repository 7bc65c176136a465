//! Integration tests for the pass-based plan compiler: fused
//! conv+BN+ReLU equivalence against the unfused reference (property
//! based, across strides/paddings/non-finite inputs), the pointwise
//! packed-GEMM fast path, weight-panel cache invalidation through
//! residual-block accessors, and autotune cache determinism.

use cnn_stack::models::vgg16;
use cnn_stack::nn::{
    fold_batchnorm, Autotune, BatchNorm2d, Conv2d, ConvAlgorithm, ExecConfig, Flatten, FoldAndFuse,
    GuardConfig, InferencePlan, InferenceSession, Linear, MaxPool2d, Network, Phase, PlanCompiler,
    ReLU, ResidualBlock, WeightFormat,
};
use cnn_stack::tensor::Tensor;
use proptest::prelude::*;

/// Equality up to NaN payload and zero sign: fusion skips the folded
/// batch norm's `x * 1.0 + 0.0` identity, which canonicalises `-0.0` to
/// `+0.0` and may requiet a NaN; everything else must match bitwise.
fn same_bits(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || (a == 0.0 && b == 0.0) || a.to_bits() == b.to_bits()
}

/// conv(k, stride, padding) + BN + ReLU with the batch norm pushed away
/// from the identity, deterministically per seed.
fn conv_bn_relu_net(kernel: usize, stride: usize, padding: usize, seed: u64) -> Network {
    let mut net = Network::new(vec![
        Box::new(Conv2d::new(3, 6, kernel, stride, padding, seed)),
        Box::new(BatchNorm2d::new(6)),
        Box::new(ReLU::new()),
    ])
    .unwrap();
    let bn = net.layers_mut()[1]
        .as_any_mut()
        .downcast_mut::<BatchNorm2d>()
        .unwrap();
    for (i, g) in bn.gamma_mut().value.data_mut().iter_mut().enumerate() {
        *g = 0.6 + 0.17 * (i as f32) + (seed % 5) as f32 * 0.03;
    }
    net
}

fn deterministic_input(shape: [usize; 4]) -> Tensor {
    Tensor::from_fn(shape, |i| ((i * 29 % 17) as f32) * 0.11 - 0.9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused plan (BN folded + absorbed, ReLU applied in the kernel
    /// epilogue) must reproduce the unfused reference — same folded
    /// weights, but BN and ReLU executed as separate layer sweeps —
    /// element for element, including NaN/Inf propagation.
    #[test]
    fn fused_conv_bn_relu_matches_unfused_reference(
        k in 0usize..2,
        stride in 1usize..3,
        padding in 0usize..2,
        nonfinite in 0usize..3,
        seed in 0u64..25,
    ) {
        let kernel = if k == 0 { 1 } else { 3 };
        let shape = [1usize, 3, 8, 8];
        let mut input = deterministic_input(shape);
        match nonfinite {
            1 => {
                input.data_mut()[5] = f32::NAN;
                input.data_mut()[40] = f32::NAN;
            }
            2 => {
                input.data_mut()[3] = f32::INFINITY;
                input.data_mut()[33] = f32::NEG_INFINITY;
            }
            _ => {}
        }
        let cfg = ExecConfig::serial();

        // Reference: fold the batch norm by hand (the same arithmetic
        // the fold-and-fuse pass applies), then execute every layer
        // separately — identity BN sweep, standalone ReLU sweep.
        let mut ref_net = conv_bn_relu_net(kernel, stride, padding, seed);
        fold_batchnorm(&mut ref_net);
        let ref_plan = InferencePlan::compile(&ref_net, &shape, &cfg).unwrap();
        prop_assert_eq!(ref_plan.steps().len(), 3);
        let mut ref_session =
            InferenceSession::with_guard(&mut ref_net, ref_plan, GuardConfig::Off).unwrap();
        let mut want = Tensor::zeros(ref_session.plan().output_shape().to_vec());
        ref_session.run_into(&input, &mut want).unwrap();

        // Fused: the fold-and-fuse pass collapses all three layers into
        // one step with a ReLU epilogue.
        let mut fused_net = conv_bn_relu_net(kernel, stride, padding, seed);
        let plan = PlanCompiler::new()
            .with_pass(FoldAndFuse)
            .run(&mut fused_net, &shape, &cfg)
            .unwrap();
        prop_assert_eq!(plan.steps().len(), 1);
        prop_assert_eq!(plan.steps()[0].span, 3);
        prop_assert!(plan.steps()[0].cfg.fused_relu);
        let mut session =
            InferenceSession::with_guard(&mut fused_net, plan, GuardConfig::Off).unwrap();
        let mut got = Tensor::zeros(session.plan().output_shape().to_vec());
        session.run_into(&input, &mut got).unwrap();

        prop_assert_eq!(want.shape().dims(), got.shape().dims());
        for (i, (w, g)) in want.data().iter().zip(got.data()).enumerate() {
            prop_assert!(
                same_bits(*w, *g),
                "elem {}: unfused {:?} vs fused {:?} (k={} s={} p={} nf={})",
                i, w, g, kernel, stride, padding, nonfinite
            );
        }
    }
}

/// A 1×1 stride-1 pad-0 convolution under im2col+packed takes the
/// pointwise fast path (no im2col pack); it must match the direct
/// reference.
#[test]
fn pointwise_conv_packed_path_matches_direct() {
    let shape = [2usize, 8, 10, 10];
    let input = deterministic_input(shape);

    let mut direct_net = Network::new(vec![Box::new(Conv2d::new(8, 16, 1, 1, 0, 11))]).unwrap();
    let want = direct_net.forward(&input, Phase::Eval, &ExecConfig::serial());

    let mut packed_net = Network::new(vec![Box::new(Conv2d::new(8, 16, 1, 1, 0, 11))]).unwrap();
    let cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };
    let plan = InferencePlan::compile(&packed_net, &shape, &cfg).unwrap();
    let mut session =
        InferenceSession::with_guard(&mut packed_net, plan, GuardConfig::Off).unwrap();
    let mut got = Tensor::zeros(session.plan().output_shape().to_vec());
    session.run_into(&input, &mut got).unwrap();

    assert_eq!(want.shape().dims(), got.shape().dims());
    assert!(want.allclose(&got, 1e-4));
}

/// `weight_mut` through a residual block's accessors must invalidate the
/// plan-time packed weight panels: a forward pass after the mutation has
/// to see the new weights, not a stale cache.
#[test]
fn residual_weight_mut_invalidates_cached_panels() {
    let shape = [1usize, 4, 8, 8];
    let input = deterministic_input(shape);
    let cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };

    let mut net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 21))]).unwrap();
    // Prepare caches packed panels for the internal convolutions.
    for layer in net.layers_mut() {
        layer.visit_mut(&mut |l| l.prepare(&cfg));
    }
    let before = net.forward(&input, Phase::Eval, &cfg);

    // Mutate conv1 through the residual accessor chain.
    let block = net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    for w in block.conv1_mut().weight_mut().value.data_mut() {
        *w *= 2.0;
    }
    let after = net.forward(&input, Phase::Eval, &cfg);
    assert!(
        !after.allclose(&before, 1e-6),
        "doubling conv1 weights must change the output"
    );

    // Reference: identical block whose weights were doubled before any
    // panel was ever cached.
    let mut ref_net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 21))]).unwrap();
    let ref_block = ref_net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    for w in ref_block.conv1_mut().weight_mut().value.data_mut() {
        *w *= 2.0;
    }
    let want = ref_net.forward(&input, Phase::Eval, &cfg);
    assert!(after.allclose(&want, 1e-6));
}

/// `set_format` through a residual accessor must rebuild the CSR cache
/// from the *current* weights and drop stale packed panels.
#[test]
fn residual_set_format_refreshes_csr_from_current_weights() {
    let shape = [1usize, 4, 8, 8];
    let input = deterministic_input(shape);
    let packed_cfg = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };

    let mut net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 33))]).unwrap();
    for layer in net.layers_mut() {
        layer.visit_mut(&mut |l| l.prepare(&packed_cfg));
    }
    let block = net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    // Mutate, then switch conv2 to CSR: the sparse cache must capture
    // the mutated weights.
    for w in block.conv2_mut().weight_mut().value.data_mut() {
        *w *= -1.5;
    }
    block.conv2_mut().set_format(WeightFormat::Csr);
    let got = net.forward(&input, Phase::Eval, &ExecConfig::serial());

    let mut ref_net = Network::new(vec![Box::new(ResidualBlock::new(4, 4, 1, 33))]).unwrap();
    let ref_block = ref_net.layers_mut()[0]
        .as_any_mut()
        .downcast_mut::<ResidualBlock>()
        .unwrap();
    for w in ref_block.conv2_mut().weight_mut().value.data_mut() {
        *w *= -1.5;
    }
    ref_block.conv2_mut().set_format(WeightFormat::Csr);
    let want = ref_net.forward(&input, Phase::Eval, &ExecConfig::serial());
    assert!(got.allclose(&want, 0.0));
}

/// A fusable multi-stage network for the autotune smoke test.
fn autotune_net(seed: u64) -> Network {
    Network::new(vec![
        Box::new(Conv2d::new(3, 6, 3, 1, 1, seed)),
        Box::new(BatchNorm2d::new(6)),
        Box::new(ReLU::new()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(6 * 4 * 4, 5, seed + 1)),
    ])
    .unwrap()
}

/// Autotuning with a fixed cache file is deterministic: the second
/// compilation reuses the persisted winners and produces the identical
/// plan without rewriting the cache.
#[test]
fn autotune_cache_reuse_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("cnn-stack-plan-passes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("tune.tsv");
    let shape = [1usize, 3, 8, 8];
    let cfg = ExecConfig::serial();
    let compiler = PlanCompiler::standard().with_pass(Autotune::with_cache_path(&cache));

    let mut net_a = autotune_net(3);
    let plan_a = compiler.run(&mut net_a, &shape, &cfg).unwrap();
    let cache_after_first = std::fs::read_to_string(&cache).unwrap();
    assert!(!cache_after_first.is_empty());

    let mut net_b = autotune_net(3);
    let plan_b = compiler.run(&mut net_b, &shape, &cfg).unwrap();
    let cache_after_second = std::fs::read_to_string(&cache).unwrap();

    assert_eq!(plan_a.steps().len(), plan_b.steps().len());
    for (a, b) in plan_a.steps().iter().zip(plan_b.steps()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.span, b.span);
        assert_eq!(a.cfg.conv_algo, b.cfg.conv_algo);
        assert_eq!(a.cfg.gemm_algo, b.cfg.gemm_algo);
        assert_eq!(a.cfg.fused_relu, b.cfg.fused_relu);
    }
    // A pure cache hit must not rewrite the file.
    assert_eq!(cache_after_first, cache_after_second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A single large-kernel stem layer where the FFT algorithm removes
/// two orders of magnitude of arithmetic and all of im2col's pack
/// traffic: the cost model must select it unprompted.
#[test]
fn cost_model_selects_fft_for_large_kernel_stem() {
    let mut net = Network::new(vec![
        Box::new(Conv2d::new(2, 2, 31, 1, 0, 11)) as Box<dyn cnn_stack::nn::Layer>
    ])
    .unwrap();
    let cfg = ExecConfig::serial();
    let plan = PlanCompiler::standard()
        .run(&mut net, &[1, 2, 98, 98], &cfg)
        .unwrap();
    let step = &plan.steps()[0];
    assert_eq!(
        step.cfg.conv_algo,
        ConvAlgorithm::Fft,
        "31×31 over 98×98 should price FFT below im2col+packed; step: {}",
        step.name
    );
    assert!(
        step.name.ends_with("[fft]"),
        "selection must be visible in the step name: {}",
        step.name
    );
}

/// Under a memory budget the solver must walk the conv off the packed
/// im2col engine onto Winograd F(4×4) — the fastest candidate with a
/// strictly smaller workspace — rather than all the way down to the
/// direct kernel.
#[test]
fn budget_solver_prefers_winograd4_over_direct_as_refuge() {
    let shape = [2usize, 16, 32, 32];
    let free_cfg = ExecConfig::serial();
    let mut net = Network::new(vec![
        Box::new(Conv2d::new(16, 16, 3, 1, 1, 5)) as Box<dyn cnn_stack::nn::Layer>
    ])
    .unwrap();
    let free_plan = PlanCompiler::standard()
        .run(&mut net, &shape, &free_cfg)
        .unwrap();
    assert_eq!(free_plan.steps()[0].cfg.conv_algo, ConvAlgorithm::Im2col);
    let free_peak = free_plan.footprint().peak_bytes;

    let capped = ExecConfig::builder()
        .plan_budget(free_peak - 1)
        .build()
        .unwrap();
    let mut net = Network::new(vec![
        Box::new(Conv2d::new(16, 16, 3, 1, 1, 5)) as Box<dyn cnn_stack::nn::Layer>
    ])
    .unwrap();
    let plan = PlanCompiler::standard()
        .run(&mut net, &shape, &capped)
        .unwrap();
    let step = &plan.steps()[0];
    assert_eq!(
        step.cfg.conv_algo,
        ConvAlgorithm::WinogradF4,
        "the budget refuge should be F(4×4), not direct; step: {}",
        step.name
    );
    assert!(plan.footprint().peak_bytes < free_peak);

    // The demoted plan still computes the right function.
    let input = deterministic_input(shape);
    let mut direct_net = Network::new(vec![
        Box::new(Conv2d::new(16, 16, 3, 1, 1, 5)) as Box<dyn cnn_stack::nn::Layer>
    ])
    .unwrap();
    let want = direct_net.forward(&input, Phase::Eval, &ExecConfig::serial());
    let mut session = InferenceSession::new(&mut net, plan).unwrap();
    let got = session.run(&input).unwrap();
    let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (g, r) in got.data().iter().zip(want.data()) {
        assert!((g - r).abs() <= 1e-3 * scale.max(1.0));
    }
}

/// Full-width VGG-16 at batch 1 and 8: every conv with an output plane
/// of at most 4×4 is a single Winograd tile, so F(4×4) would run a whole
/// 16-lane block and rebuild its filter bank for one tile. The cost
/// model must leave all of them on another algorithm.
#[test]
fn standard_plan_keeps_small_vgg16_planes_off_winograd4() {
    for batch in [1usize, 8] {
        let mut model = vgg16(10);
        let plan = PlanCompiler::standard()
            .run(
                &mut model.network,
                &[batch, 3, 32, 32],
                &ExecConfig::serial(),
            )
            .unwrap();
        for step in plan.steps() {
            let out = &step.output_shape;
            let small = out.len() == 4 && out[2] <= 4 && out[3] <= 4;
            assert!(
                !(small && step.cfg.conv_algo == ConvAlgorithm::WinogradF4),
                "b{batch}: {} selected winograd-f4 for a {}x{} plane",
                step.name,
                out[2],
                out[3]
            );
        }
    }
}

/// Autotune over a stem whose candidate list now includes FFT stays
/// deterministic: the second compilation is a pure cache hit (byte
/// stable file) and reproduces the identical selection.
#[test]
fn autotune_with_fft_candidate_is_cache_deterministic() {
    let dir = std::env::temp_dir().join(format!("cnn-stack-fft-tune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("tune.tsv");
    let shape = [1usize, 2, 98, 98];
    let cfg = ExecConfig::serial();
    let compiler = PlanCompiler::standard().with_pass(Autotune::with_cache_path(&cache));

    let mut net_a = Network::new(vec![
        Box::new(Conv2d::new(2, 2, 31, 1, 0, 17)) as Box<dyn cnn_stack::nn::Layer>
    ])
    .unwrap();
    let plan_a = compiler.run(&mut net_a, &shape, &cfg).unwrap();
    let cache_first = std::fs::read_to_string(&cache).unwrap();
    assert!(!cache_first.is_empty());

    let mut net_b = Network::new(vec![
        Box::new(Conv2d::new(2, 2, 31, 1, 0, 17)) as Box<dyn cnn_stack::nn::Layer>
    ])
    .unwrap();
    let plan_b = compiler.run(&mut net_b, &shape, &cfg).unwrap();
    let cache_second = std::fs::read_to_string(&cache).unwrap();

    assert_eq!(cache_first, cache_second, "cache hit must not rewrite");
    assert_eq!(
        plan_a.steps()[0].cfg.conv_algo,
        plan_b.steps()[0].cfg.conv_algo
    );
    assert_eq!(plan_a.steps()[0].name, plan_b.steps()[0].name);
    let _ = std::fs::remove_dir_all(&dir);
}
