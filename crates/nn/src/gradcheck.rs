#![allow(clippy::needless_range_loop)]
//! Finite-difference gradient checking, used by every layer's test module.
//!
//! The scalar objective is `L(x) = ½‖f(x)‖²` so that `dL/dy = y`, which lets
//! the checker drive `backward_ws` without a loss layer. Both the input
//! gradient and every parameter gradient are compared against central
//! differences.

use crate::{Layer, Mode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use subfed_tensor::init::{uniform, SeededRng};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

fn objective(layer: &mut Box<dyn Layer>, x: &Tensor, ws: &mut Workspace) -> f32 {
    let y = layer.forward_ws(x, Mode::Train, ws);
    0.5 * y.sq_norm()
}

fn check_close(analytic: f32, numeric: f32, tol: f32, what: &str) {
    let denom = 1.0 + analytic.abs() + numeric.abs();
    assert!(
        (analytic - numeric).abs() / denom <= tol,
        "{what}: analytic {analytic} vs numeric {numeric} (tol {tol})"
    );
}

/// Checks `layer`'s input and parameter gradients on a random input of
/// `input_shape` against central finite differences.
///
/// # Panics
///
/// Panics (failing the test) if any coordinate's analytic and numeric
/// gradients disagree beyond `tol`.
pub fn check_layer(mut layer: Box<dyn Layer>, input_shape: &[usize], eps: f32, tol: f32) {
    let mut rng = SeededRng::new(0xFEED);
    let x = uniform(input_shape, -1.0, 1.0, &mut rng);

    // Analytic pass.
    let mut ws = Workspace::new();
    let y = layer.forward_ws(&x, Mode::Train, &mut ws);
    let dx = layer.backward_ws(&y, &mut ws);
    let param_grads: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();

    // Numeric input gradient (sample at most ~200 coordinates).
    let stride = (x.len() / 200).max(1);
    for idx in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let lp = objective(&mut layer, &xp, &mut ws);
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let lm = objective(&mut layer, &xm, &mut ws);
        let numeric = (lp - lm) / (2.0 * eps);
        check_close(dx.data()[idx], numeric, tol, &format!("input grad [{idx}]"));
    }

    // Numeric parameter gradients.
    let n_params = layer.params().len();
    for pi in 0..n_params {
        let plen = layer.params()[pi].len();
        let pstride = (plen / 100).max(1);
        for idx in (0..plen).step_by(pstride) {
            let orig = layer.params()[pi].value.data()[idx];
            layer.params_mut()[pi].value.data_mut()[idx] = orig + eps;
            let lp = objective(&mut layer, &x, &mut ws);
            layer.params_mut()[pi].value.data_mut()[idx] = orig - eps;
            let lm = objective(&mut layer, &x, &mut ws);
            layer.params_mut()[pi].value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            check_close(
                param_grads[pi].data()[idx],
                numeric,
                tol,
                &format!("param {pi} grad [{idx}]"),
            );
        }
    }
}

/// Checks [`Layer::backward_params_ws`] against [`Layer::backward_ws`] on
/// two clones of `layer` after the same training forward:
///
/// * every parameter's `grad` is bit-equal;
/// * both leave the same number of retained [`Workspace`] buffers (each
///   workspace is warmed by one full step first, as in training);
/// * the forward cache is consumed, so a second call panics with
///   `backward without forward`.
///
/// # Panics
///
/// Panics (failing the test) on the first property that does not hold.
pub fn check_params_only_backward(layer: &dyn Layer, input_shape: &[usize]) {
    let mut rng = SeededRng::new(0xBACC);
    let x = uniform(input_shape, -1.0, 1.0, &mut rng);
    let mut full = layer.clone_box();
    let mut params_only = layer.clone_box();
    let mut ws_full = Workspace::new();
    let mut ws_params = Workspace::new();
    for (l, ws) in [(&mut full, &mut ws_full), (&mut params_only, &mut ws_params)] {
        let y = l.forward_ws(&x, Mode::Train, ws);
        let _ = l.backward_ws(&y, ws);
    }

    let y = full.forward_ws(&x, Mode::Train, &mut ws_full);
    let dy = uniform(y.shape(), -1.0, 1.0, &mut rng);
    let _ = full.backward_ws(&dy, &mut ws_full);
    let y_params = params_only.forward_ws(&x, Mode::Train, &mut ws_params);
    assert_eq!(y.data(), y_params.data(), "{}: forward diverged", layer.name());
    params_only.backward_params_ws(&dy, &mut ws_params);

    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for (pi, (a, b)) in full.params().iter().zip(params_only.params()).enumerate() {
        assert_eq!(a.grad.shape(), b.grad.shape(), "{}: param {pi} grad shape", layer.name());
        assert_eq!(bits(&a.grad), bits(&b.grad), "{}: param {pi} grad bits", layer.name());
    }
    assert_eq!(ws_full.retained(), ws_params.retained(), "{}: retained buffers", layer.name());

    let again = catch_unwind(AssertUnwindSafe(|| {
        params_only.backward_params_ws(&dy, &mut ws_params);
    }));
    let payload = again.expect_err("second backward_params_ws must panic");
    let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
    assert!(msg.contains("backward without forward"), "{}: panicked with {msg:?}", layer.name());
}
