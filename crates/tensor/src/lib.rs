//! Dense tensor library for the cnn-stack workspace.
//!
//! This crate is the lowest layer of the reproduction: a small, fully
//! self-contained dense tensor library in the NCHW convention, together
//! with the data-layout transformations (`im2col`/`col2im`) and the GEMM
//! kernels (naive, blocked, and tile-parameterised) that the paper's
//! "Data Formats and Algorithms" stack layer (§IV-C/§IV-D) evaluates.
//!
//! # Example
//!
//! ```
//! use cnn_stack_tensor::{Tensor, gemm};
//!
//! let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
//! let b = Tensor::from_vec([3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
//! let c = gemm::matmul(&a, &b);
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
//! ```

pub mod error;
pub mod fft;
pub mod gemm;
pub mod im2col;
pub mod init;
pub mod ops;
pub mod shape;
pub mod tensor;
pub mod winograd;

pub use error::KernelError;
pub use fft::{fft_conv2d, fft_conv2d_into, fft_conv_scratch_elems, fft_plane_dims};
pub use gemm::{
    gemm_kernel_name, gemm_packed_into, gemm_prepacked, gemm_prepacked_epilogue,
    gemm_prepacked_int8, gemm_prepacked_ternary, matmul, pack_a_i8_into, pack_a_into,
    pack_a_transposed_into, pack_b_into, pack_b_ternary_transposed_into, pack_b_transposed_i8_into,
    pack_b_transposed_into, quantise_i8, quantise_scale_i8, GemmAlgorithm, GemmEpilogue, GemmPlan,
    TileConfig, MR, NR,
};
pub use im2col::{
    col2im, im2col, im2col_into, pack_b_im2col_batch_into, pack_b_im2col_into, Conv2dGeometry,
};
pub use shape::Shape;
pub use tensor::Tensor;
pub use winograd::{
    winograd4_conv2d, winograd4_conv2d_into, winograd4_scratch_elems, winograd_conv2d,
    WINOGRAD4_TILE_BLOCK,
};
