//! Integration tests for the arena-backed inference engine: the
//! zero-allocation steady state, profile/descriptor alignment, and
//! bit-exact agreement with `Network::forward` on the paper's models.
//!
//! The allocation test needs a counting `#[global_allocator]`, which
//! applies to the whole test binary — that is why these tests live in
//! their own integration-test file.

use cnn_stack::models::ModelKind;
use cnn_stack::nn::{ExecConfig, InferencePlan, InferenceSession, Phase};
use cnn_stack::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// System allocator wrapper that counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide and the test harness runs tests on
/// parallel threads, so every test in this binary holds this lock: the
/// allocation test then counts only its own session's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn allocations_during(mut f: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The headline acceptance criterion: after the plan is compiled and one
/// warm-up pass has sized the arena, a VGG-16 batch-4 inference performs
/// zero heap allocations.
#[test]
fn vgg16_batch4_steady_state_makes_no_heap_allocations() {
    let _serial = serial();
    let mut model = ModelKind::Vgg16.build_width(10, 0.25);
    let cfg = ExecConfig::serial();
    let input = Tensor::zeros([4, 3, 32, 32]);
    let plan = InferencePlan::compile(&model.network, input.shape().dims(), &cfg)
        .expect("VGG-16 accepts CIFAR-shaped input");
    assert!(
        plan.fully_supported(),
        "every VGG-16 layer should take the arena fast path"
    );
    let mut session =
        InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    session
        .run_into(&input, &mut out)
        .expect("shape matches plan");

    let allocs = allocations_during(|| {
        session
            .run_into(&input, &mut out)
            .expect("shape matches plan")
    });
    assert_eq!(
        allocs, 0,
        "steady-state session pass performed {allocs} heap allocations"
    );
}

/// The session profile has one row per top-level layer, index-aligned
/// with the network, and each executed pass increments the run counter.
/// For the flat models (VGG-16, MobileNet) that row count also equals
/// `descriptors()`; ResNet-18's residual blocks expand to more
/// descriptor rows than profiled layers.
#[test]
fn session_profile_rows_align_with_descriptors() {
    let _serial = serial();
    for kind in ModelKind::all() {
        let mut model = kind.build_width(10, 0.25);
        let input_shape = [1usize, 3, 32, 32];
        let descs = {
            let mut shape = input_shape.to_vec();
            model
                .network
                .layers()
                .iter()
                .map(|l| {
                    let d = l.descriptor(&shape);
                    shape = d.output_shape.clone();
                    d
                })
                .collect::<Vec<_>>()
        };
        if !matches!(kind, ModelKind::ResNet18) {
            assert_eq!(
                descs.len(),
                model.network.descriptors(&input_shape).len(),
                "{}: flat model, so expanded descriptors match layers",
                kind.name()
            );
        }
        let cfg = ExecConfig::serial();
        let plan = InferencePlan::compile(&model.network, &input_shape, &cfg)
            .expect("paper models accept CIFAR-shaped input");
        let mut session =
            InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
        let input = Tensor::zeros(input_shape.to_vec());
        let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
        session
            .run_into(&input, &mut out)
            .expect("shape matches plan");
        session
            .run_into(&input, &mut out)
            .expect("shape matches plan");

        let profile = session.profile();
        assert_eq!(profile.runs(), 2, "{}: two passes recorded", kind.name());
        assert_eq!(
            profile.rows().len(),
            descs.len(),
            "{}: one profile row per descriptor",
            kind.name()
        );
        for (row, d) in profile.rows().iter().zip(&descs) {
            assert_eq!(row.name, d.name, "{}: rows follow layer order", kind.name());
        }

        session.reset_profile();
        assert_eq!(session.profile().runs(), 0);
        assert_eq!(session.profile().rows().len(), descs.len());
    }
}

/// Session output is bit-identical to the allocating `Network::forward`
/// path on all three paper models.
#[test]
fn session_bit_matches_forward_on_paper_models() {
    let _serial = serial();
    for kind in ModelKind::all() {
        let mut model = kind.build_width(10, 0.1);
        let cfg = ExecConfig::serial();
        let input = Tensor::from_fn([2, 3, 32, 32], |i| {
            ((i as u64 * 2654435761) % 197) as f32 * 0.01 - 1.0
        });
        let expected = model.network.forward(&input, Phase::Eval, &cfg);
        let plan = InferencePlan::compile(&model.network, input.shape().dims(), &cfg)
            .expect("paper models accept CIFAR-shaped input");
        let mut session =
            InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
        let got = session.run(&input).expect("input matches plan");
        assert_eq!(
            got.shape().dims(),
            expected.shape().dims(),
            "{}",
            kind.name()
        );
        assert_eq!(
            got.data(),
            expected.data(),
            "{}: outputs diverge",
            kind.name()
        );
    }
}
