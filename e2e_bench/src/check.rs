//! The output check and failure accounting.
//!
//! Every output is compared with `Network::forward` on an independently
//! built, uncompiled copy of the same (compressed) model: no batch-norm
//! folding, no fusion, no algorithm selection, no arena. The reference
//! runs im2col over the packed GEMM, which `tests/conv_conformance.rs`
//! holds within 1e-5 of the naive loop; the direct loop would cost
//! about half a second per VGG-16 image and dominate every run.

use crate::workload::{Inputs, IMAGES};
use cnn_stack::nn::{ConvAlgorithm, ExecConfig, Network, Phase};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Max-norm relative error budget of one algorithm, as
/// `tests/conv_conformance.rs` sets it per kernel. Bit-exact kernels
/// and steps the selector does not touch get the im2col budget, the
/// reassociation the reference itself carries.
pub fn algo_budget(tag: &str) -> f32 {
    match tag {
        "winograd" => 2e-4,
        "winograd-f4" => 1e-3,
        // 32·log2(plane)·ε for the 64×64 plane of a padded 32×32 map.
        "fft" => 32.0 * 12.0 * f32::EPSILON,
        _ => 1e-5,
    }
}

/// The budget of a whole plan: the loosest budget among its steps.
pub fn plan_budget<'a>(tags: impl IntoIterator<Item = &'a str>) -> f32 {
    tags.into_iter().map(algo_budget).fold(1e-5, f32::max)
}

/// The conformance harness's max-norm relative error.
pub fn max_rel_err(got: &[f32], reference: &[f32]) -> f32 {
    let scale = reference
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(1e-6);
    got.iter()
        .zip(reference)
        .fold(0.0f32, |m, (g, r)| m.max((g - r).abs()))
        / scale
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &x)| {
            if x > bv {
                (i, x)
            } else {
                (bi, bv)
            }
        })
        .0
}

/// Whether `got` matches `reference`: same length, no error beyond the
/// budget, and the same top-1 class — or a class the reference scores
/// within the budget of its top one (a tie the budget cannot resolve).
pub fn output_matches(got: &[f32], reference: &[f32], budget: f32) -> bool {
    if got.len() != reference.len() || got.iter().any(|v| !v.is_finite()) {
        return false;
    }
    if max_rel_err(got, reference) > budget {
        return false;
    }
    let scale = reference
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(1e-6);
    let top = argmax(reference);
    let picked = argmax(got);
    picked == top || reference[top] - reference[picked] <= budget * scale
}

/// Reference logits of every input image for one model variant.
pub struct Reference {
    rows: Vec<Vec<f32>>,
}

impl Reference {
    /// Runs `net` (freshly built, never compiled) over all images.
    pub fn compute(net: &mut Network, inputs: &Inputs, threads: usize) -> Result<Self, String> {
        let cfg = ExecConfig {
            threads,
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        };
        let out = catch_unwind(AssertUnwindSafe(|| {
            net.forward(&inputs.batch, Phase::Eval, &cfg)
        }))
        .map_err(|p| format!("reference forward panicked: {}", panic_text(&*p)))?;
        let per = out.len() / IMAGES;
        Ok(Reference {
            rows: out.data().chunks(per).map(<[f32]>::to_vec).collect(),
        })
    }

    /// Checks the output rows of images `first, first + 1, …`.
    pub fn check(&self, first: usize, got: &[f32], budget: f32) -> bool {
        let per = self.rows[0].len();
        got.len().is_multiple_of(per)
            && got
                .chunks(per)
                .enumerate()
                .all(|(i, row)| output_matches(row, &self.rows[(first + i) % IMAGES], budget))
    }
}

/// The text of a caught panic payload.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Operations attempted and how the failed ones failed.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    /// `run_into` returned `Err` (warm-up included), or a served
    /// request was shed or failed.
    pub errors: u64,
    /// A panic escaped the call.
    pub panics: u64,
    /// An output failed the check.
    pub mismatches: u64,
    /// First few failure messages, for the log.
    pub notes: Vec<String>,
}

impl Ops {
    pub fn failed(&self) -> u64 {
        self.errors + self.panics + self.mismatches
    }

    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_follow_the_conformance_table() {
        assert_eq!(plan_budget(["direct", "im2col-packed"]), 1e-5);
        assert_eq!(plan_budget(["direct", "winograd-f4", "winograd"]), 1e-3);
        assert!(algo_budget("fft") > 1e-5 && algo_budget("fft") < 1e-4);
    }

    #[test]
    fn matching_needs_error_and_top1() {
        let r = [1.0, 3.0, 2.0];
        assert!(output_matches(&[1.0, 3.0, 2.0], &r, 1e-5));
        assert!(!output_matches(&[1.0, 3.1, 2.0], &r, 1e-5));
        assert!(!output_matches(&[1.0, f32::NAN, 2.0], &r, 1.0));
        assert!(!output_matches(&[1.0, 3.0], &r, 1.0));
        // A near-tie may flip within the budget.
        let tie = [1.0, 2.0, 2.0 - 1e-7];
        assert!(output_matches(&[1.0, 2.0 - 1e-7, 2.0], &tie, 1e-5));
        // A clear winner may not.
        assert!(!output_matches(&[1.0, 1.94, 1.96], &[1.0, 2.0, 1.9], 0.04));
        // All-zero logits (a collapsed pruned model) compare exactly.
        assert!(output_matches(&[0.0; 4], &[0.0; 4], 1e-5));
    }
}
