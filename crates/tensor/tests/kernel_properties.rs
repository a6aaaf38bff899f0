//! Properties of the lane-vectorized kernel stack that the module docs
//! promise and the rest of the workspace relies on:
//!
//! - the blocked GEMMs agree with the naive triple loop on degenerate
//!   shapes (zero inner dimension, single rows/columns, off-tile sizes
//!   that exercise every partial-tile path);
//! - the register-blocked sparse kernels are **bitwise** equal to their
//!   scalar same-chain oracles — blocking must not move a single ULP;
//! - the direct tap-list convolution matches the im2col + GEMM path on
//!   both dense and pruned weights.

use proptest::prelude::*;
use subfed_tensor::conv::{
    build_taps_dense, build_taps_sparse, conv2d_taps_batch, im2col_batch, taps_supported, ConvGeom,
};
use subfed_tensor::linalg::{
    gemm, gemm_nt, gemm_tn, naive_matmul, naive_matmul_nt, naive_matmul_tn,
};
use subfed_tensor::sparse::{spmm, spmm_reference, spmm_t, spmm_t_reference, RowPattern};
use subfed_tensor::Tensor;

/// Deterministic filler: varied, sign-mixed, exactly representable
/// steps so tests are reproducible without an RNG dependency.
fn ramp(len: usize, scale: f32, phase: usize) -> Vec<f32> {
    (0..len).map(|i| ((((i + phase) * 2654435761) >> 7) % 255) as f32 * scale - 0.5).collect()
}

/// Shapes that hit every boundary of the tile geometry: zero reduction,
/// unit dims, sub-tile m/n, exact tiles, and off-tile tails past the
/// `MR`/`NR`/`KC` edges (6, 32, 256).
const GEMM_SHAPES: [(usize, usize, usize); 8] = [
    (1, 0, 1),
    (1, 1, 1),
    (3, 5, 2),
    (6, 16, 32),
    (7, 17, 33),
    (13, 260, 63),
    (12, 256, 64),
    (5, 300, 37),
];

#[test]
fn blocked_gemms_match_naive_on_degenerate_shapes() {
    for &(m, k, n) in &GEMM_SHAPES {
        let a = ramp(m * k, 0.01, 1);
        let b = ramp(k * n, 0.02, 7);
        let ta = Tensor::from_parts(vec![m, k], a.clone());
        let tb = Tensor::from_parts(vec![k, n], b.clone());
        let mut out = vec![f32::NAN; m * n];
        gemm(m, k, n, &a, &b, &mut out);
        let naive = naive_matmul(&ta, &tb);
        subfed_tensor::assert_slice_close(&out, naive.data(), 1e-4, 1e-4);

        // Aᵀ·B: reuse `a` as the [k, m] operand.
        let ta_t = Tensor::from_parts(vec![k, m], ramp(k * m, 0.01, 3));
        gemm_tn(k, m, n, ta_t.data(), &b, &mut out);
        let naive_tn = naive_matmul_tn(&ta_t, &tb);
        subfed_tensor::assert_slice_close(&out, naive_tn.data(), 1e-4, 1e-4);

        // A·Bᵀ: `b` reshaped as [n, k].
        let tb_t = Tensor::from_parts(vec![n, k], ramp(n * k, 0.02, 11));
        gemm_nt(m, k, n, &a, tb_t.data(), &mut out);
        let naive_nt = naive_matmul_nt(&ta, &tb_t);
        subfed_tensor::assert_slice_close(&out, naive_nt.data(), 1e-4, 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_sparse_kernels_are_bitwise_equal_to_their_oracles(
        rows in 1usize..12,
        cols in 1usize..20,
        n in 1usize..40,
        seed in 0usize..1000,
    ) {
        let bits: Vec<f32> =
            (0..rows * cols).map(|i| f32::from(u8::from((i * 7 + seed) % 3 != 0))).collect();
        let pat = RowPattern::from_mask(rows, cols, &bits);
        let vals = ramp(rows * cols, 0.03, seed);
        let b = ramp(cols * n, 0.05, seed + 1);
        let mut fast = vec![f32::NAN; rows * n];
        let mut oracle = vec![f32::NAN; rows * n];
        spmm(&pat, &vals, &b, n, &mut fast);
        spmm_reference(&pat, &vals, &b, n, &mut oracle);
        prop_assert_eq!(&fast, &oracle);

        let bt = ramp(rows * n, 0.05, seed + 2);
        let mut fast_t = vec![f32::NAN; cols * n];
        let mut oracle_t = vec![f32::NAN; cols * n];
        spmm_t(&pat, &vals, &bt, n, &mut fast_t);
        spmm_t_reference(&pat, &vals, &bt, n, &mut oracle_t);
        prop_assert_eq!(&fast_t, &oracle_t);
    }
}

/// Reference conv through the committed im2col + GEMM path, reordered to
/// the tap kernel's `[batch, cout, oh·ow]` layout with bias added.
fn conv_via_im2col(
    images: &[f32],
    geom: &ConvGeom,
    batch: usize,
    weight: &[f32],
    cout: usize,
    bias: &[f32],
) -> Vec<f32> {
    let (cr, cc) = (geom.col_rows(), geom.col_cols());
    let fused = batch * cc;
    let mut cols = vec![0.0f32; cr * fused];
    im2col_batch(images, geom, batch, &mut cols);
    let mut prod = vec![0.0f32; cout * fused];
    gemm(cout, cr, fused, weight, &cols, &mut prod);
    let mut out = vec![0.0f32; batch * cout * cc];
    for bi in 0..batch {
        for oc in 0..cout {
            for p in 0..cc {
                out[bi * cout * cc + oc * cc + p] = prod[oc * fused + bi * cc + p] + bias[oc];
            }
        }
    }
    out
}

#[test]
fn tap_list_conv_matches_im2col_on_dense_and_pruned_weights() {
    // One geometry per row-kernel dispatch arm: ow = 8, 12, 16, 24, 40.
    for &(c, h, w, kh, cout, batch) in &[
        (1, 10, 12, 3, 2, 1),
        (2, 9, 16, 5, 3, 2),
        (3, 8, 18, 3, 4, 2),
        (1, 30, 28, 5, 2, 3),
        (2, 44, 44, 5, 3, 1),
    ] {
        let geom = ConvGeom { channels: c, height: h, width: w, kh, kw: kh, stride: 1, pad: 0 };
        assert!(taps_supported(&geom), "shape list drifted out of the tap envelope");
        let cr = geom.col_rows();
        let images = ramp(batch * c * h * w, 0.02, w);
        let weight = ramp(cout * cr, 0.04, h);
        let bias = ramp(cout, 0.1, 13);
        let reference = conv_via_im2col(&images, &geom, batch, &weight, cout, &bias);

        let (tap_ptr, taps) = build_taps_dense(&weight, &geom, cout);
        let mut got = vec![f32::NAN; reference.len()];
        conv2d_taps_batch(&images, &geom, batch, &tap_ptr, &taps, &bias, &mut got);
        subfed_tensor::assert_slice_close(&got, &reference, 1e-4, 1e-4);

        // Prune ~40% of the weights (row 1 entirely) and check the sparse
        // tap builder against the same reference on the masked weights.
        let bits: Vec<f32> =
            (0..cout * cr).map(|i| f32::from(u8::from(i / cr != 1 && (i * 11) % 5 != 0))).collect();
        let masked: Vec<f32> = weight.iter().zip(&bits).map(|(&v, &m)| v * m).collect();
        let pat = RowPattern::from_mask(cout, cr, &bits);
        let sparse_ref = conv_via_im2col(&images, &geom, batch, &masked, cout, &bias);
        let (sp_ptr, sp_taps) = build_taps_sparse(&pat, &masked, &geom);
        conv2d_taps_batch(&images, &geom, batch, &sp_ptr, &sp_taps, &bias, &mut got);
        subfed_tensor::assert_slice_close(&got, &sparse_ref, 1e-4, 1e-4);
    }
}
