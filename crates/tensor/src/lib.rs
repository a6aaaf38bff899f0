//! # subfed-tensor
//!
//! A small, dependency-light dense `f32` tensor library used as the numeric
//! substrate of the Sub-FedAvg reproduction. It provides exactly the
//! operations needed to train the paper's CNNs (CNN-5 and LeNet-5) with
//! layer-wise backpropagation:
//!
//! * row-major n-dimensional [`Tensor`]s with checked constructors,
//! * elementwise and scalar arithmetic (allocating and in-place),
//! * matrix multiplication including the transposed variants needed by
//!   backprop ([`linalg::matmul`], [`linalg::matmul_tn`], [`linalg::matmul_nt`]),
//!   as cache-blocked kernels with slice-level entry points,
//! * mask-derived compressed-row kernels so pruned layers do
//!   proportionally less work ([`sparse`]),
//! * `im2col`/`col2im` lowering for convolutions, single-image and
//!   batch-fused ([`conv`]),
//! * a reusable scratch-buffer arena for the training hot path
//!   ([`workspace`]),
//! * reductions and softmax utilities ([`reduce`]),
//! * seeded random initialisation ([`init`]).
//!
//! Kernel design and measured numbers live in `docs/PERFORMANCE.md`.
//!
//! # Example
//!
//! ```
//! use subfed_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.add(&b);
//! assert_eq!(c.data()[0], 1.5);
//! # Ok::<(), subfed_tensor::ShapeError>(())
//! ```

#![forbid(unsafe_code)]

mod error;
mod tensor;

pub mod conv;
pub mod init;
pub mod linalg;
pub mod reduce;
pub mod sparse;
pub mod workspace;

pub use error::{ShapeError, TensorError};
pub use tensor::Tensor;

/// Absolute-and-relative closeness test used throughout the test suites.
///
/// Returns `true` when `|a - b| <= atol + rtol * |b|`.
pub fn approx_eq(a: f32, b: f32, atol: f32, rtol: f32) -> bool {
    (a - b).abs() <= atol + rtol * b.abs()
}

/// Asserts two slices are elementwise close; panics with the first offending
/// index otherwise. Intended for tests.
///
/// # Panics
///
/// Panics if the slices differ in length or any element pair is not close.
pub fn assert_slice_close(a: &[f32], b: &[f32], atol: f32, rtol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            approx_eq(x, y, atol, rtol),
            "slices differ at index {i}: {x} vs {y} (atol={atol}, rtol={rtol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.0001, 1e-3, 0.0));
        assert!(!approx_eq(1.0, 1.1, 1e-3, 0.0));
        assert!(approx_eq(100.0, 100.05, 0.0, 1e-3));
    }

    #[test]
    #[should_panic(expected = "slices differ")]
    fn assert_slice_close_panics_on_mismatch() {
        assert_slice_close(&[1.0, 2.0], &[1.0, 3.0], 1e-6, 0.0);
    }
}
