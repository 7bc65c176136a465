//! The four workloads, the model variants each one runs, and the
//! inputs every run draws from its seed.

use cnn_stack::dataset::{DatasetConfig, SyntheticCifar};
use cnn_stack::models::{Model, ModelKind};
use cnn_stack::nn::{ConvAlgorithm, ObsLevel, PlanStep};
use cnn_stack::stack::{try_materialise, CompressionChoice, PlatformChoice, StackConfig};
use cnn_stack::tensor::{GemmAlgorithm, Tensor};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Vgg16Dense,
    MobilenetCompressed,
    ServeVgg16,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Vgg16Dense,
        Workload::MobilenetCompressed,
        Workload::ServeVgg16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Vgg16Dense => "vgg16-dense",
            Workload::MobilenetCompressed => "mobilenet-compressed",
            Workload::ServeVgg16 => "serve-vgg16",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The model variants the workload keeps resident; closed-loop
    /// requests go round-robin across them.
    pub fn variants(self) -> Vec<Variant> {
        let plain = |model| Variant {
            label: "dense",
            config: StackConfig::plain(model, PlatformChoice::IntelI7),
        };
        let compressed = |label, choice| Variant {
            label,
            config: StackConfig::plain(ModelKind::MobileNet, PlatformChoice::IntelI7)
                .compress(choice),
        };
        match self {
            Workload::Vgg16Dense | Workload::ServeVgg16 => vec![plain(ModelKind::Vgg16)],
            // Weight pruning at 90 % rather than Table III's 23.46 %
            // elbow: at the elbow the planner selects no CSR step, so
            // the sparse kernel would go unmeasured. At 90 % it selects
            // CSR on three b1 steps; see README.md for why not 95 %.
            Workload::MobilenetCompressed => vec![
                compressed(
                    "weight-pruned-90",
                    CompressionChoice::WeightPruning { sparsity_pct: 90.0 },
                ),
                compressed(
                    "channel-pruned-80.33",
                    CompressionChoice::ChannelPruning {
                        compression_pct: 80.33,
                    },
                ),
                compressed(
                    "ttq-0.20",
                    CompressionChoice::TernaryQuantisation { threshold: 0.20 },
                ),
            ],
        }
    }
}

/// One resident model: an architecture plus its compression.
#[derive(Clone, Debug)]
pub struct Variant {
    pub label: &'static str,
    pub config: StackConfig,
}

impl Variant {
    /// Builds the full-width model and applies the compression.
    pub fn materialise(&self) -> Model {
        try_materialise(&self.config, 1.0).expect("workload stack configurations are valid")
    }

    pub fn is_compressed(&self) -> bool {
        self.config.compression != CompressionChoice::Plain
    }
}

/// Engine threads per session. The host has two cores; the
/// two-thread ResNet-18 workload was dropped because its timings shifted
/// by a third between sets of runs (see README.md), so every workload
/// runs one engine thread and the traced run measures the two-thread
/// speed-up separately.
pub const THREADS: usize = 1;

/// How one measured pass of a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Seconds of requests after set-up.
    pub seconds: f64,
    /// Full set-ups; the last one is kept and measured.
    pub setup_reps: usize,
    /// Observability level of every session the pass opens.
    pub obs: ObsLevel,
}

/// Distinct images a run cycles through; a batch-8 pass carries all.
pub const IMAGES: usize = 8;

/// The run's inputs, a pure function of the seed.
pub struct Inputs {
    /// All images as one `[IMAGES, 3, 32, 32]` batch.
    pub batch: Tensor,
    /// The same images one by one, `[1, 3, 32, 32]` each.
    pub singles: Vec<Tensor>,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Self {
        let data = SyntheticCifar::new(DatasetConfig {
            train_size: 1,
            test_size: IMAGES,
            noise_std: 0.3,
            seed,
        });
        let (batch, _) = data.test_batch(0, IMAGES);
        let per = batch.len() / IMAGES;
        let singles = batch
            .data()
            .chunks(per)
            .map(|img| Tensor::from_vec([1, 3, 32, 32], img.to_vec()))
            .collect();
        Inputs { batch, singles }
    }
}

/// Algorithm tags of the plan compiler (`AlgoChoice`), in its order.
pub const ALGO_TAGS: [&str; 12] = [
    "direct",
    "im2col-packed",
    "winograd",
    "winograd-f4",
    "fft",
    "csr",
    "gemm-packed",
    "gemm-scalar",
    "gemm-csr",
    "im2col-ternary",
    "gemm-ternary",
    "gemm-int8",
];

/// Time buckets of the step replay: every algorithm tag plus the steps
/// the selector does not touch.
pub const STEP_BUCKETS: [&str; 15] = [
    "direct",
    "im2col-packed",
    "winograd",
    "winograd-f4",
    "fft",
    "csr",
    "gemm-packed",
    "gemm-scalar",
    "gemm-csr",
    "im2col-ternary",
    "gemm-ternary",
    "gemm-int8",
    "residual",
    "depthwise",
    "other",
];

/// The step's algorithm: the selector's `[tag]` when it chose one,
/// otherwise derived from the step's configuration and layer kind.
pub fn step_tag(step: &PlanStep) -> &'static str {
    if let Some(open) = step.name.rfind(" [") {
        let tag = step.name[open + 2..].trim_end_matches(']');
        if let Some(t) = ALGO_TAGS.iter().find(|t| **t == tag) {
            return t;
        }
    }
    let name = step.name.as_str();
    if name.starts_with("resblock") {
        "residual"
    } else if name.starts_with("dwconv") {
        "depthwise"
    } else if name.starts_with("conv") {
        match step.cfg.conv_algo {
            ConvAlgorithm::Direct => "direct",
            ConvAlgorithm::Winograd => "winograd",
            ConvAlgorithm::WinogradF4 => "winograd-f4",
            ConvAlgorithm::Fft => "fft",
            ConvAlgorithm::Im2col => match step.cfg.gemm_algo {
                GemmAlgorithm::TernaryPacked => "im2col-ternary",
                _ => "im2col-packed",
            },
        }
    } else if name.starts_with("linear") {
        match step.cfg.gemm_algo {
            GemmAlgorithm::Packed => "gemm-packed",
            GemmAlgorithm::TernaryPacked => "gemm-ternary",
            GemmAlgorithm::Int8Packed => "gemm-int8",
            _ => "gemm-scalar",
        }
    } else {
        "other"
    }
}

/// Whether a step of this tag runs through a packed GEMM.
pub fn is_gemm_tag(tag: &str) -> bool {
    tag.starts_with("im2col") || matches!(tag, "gemm-packed" | "gemm-ternary" | "gemm-int8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs() {
        let a = Inputs::from_seed(7);
        let b = Inputs::from_seed(7);
        let c = Inputs::from_seed(8);
        assert_eq!(a.batch.data(), b.batch.data());
        assert_ne!(a.batch.data(), c.batch.data());
        assert_eq!(a.singles.len(), IMAGES);
        assert_eq!(a.singles[3].data(), &a.batch.data()[3 * 3072..4 * 3072]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
