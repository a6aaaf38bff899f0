use crate::layer::take_cache;
use crate::{Layer, Mode};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// Rectified linear unit, applied elementwise.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    cache: Option<Tensor>,
}

impl ReLU {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        let out = input.map(|v| v.max(0.0));
        if mode == Mode::Train {
            // lint: allow(hot-path-alloc) — backward cache snapshot, an owned Tensor by API contract
            self.cache = Some(input.clone());
        } else {
            self.cache = None;
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let x = take_cache(&mut self.cache, "relu");
        grad_out.zip_map(&x, |g, v| if v > 0.0 { g } else { 0.0 }, "relu backward")
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Leaky rectified linear unit: `x` for `x > 0`, `slope·x` otherwise.
#[derive(Debug, Clone)]
pub struct LeakyReLU {
    slope: f32,
    cache: Option<Tensor>,
}

impl LeakyReLU {
    /// Creates a leaky ReLU with the given negative-side slope.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= slope < 1.0`.
    pub fn new(slope: f32) -> Self {
        assert!((0.0..1.0).contains(&slope), "slope must be in [0, 1), got {slope}");
        Self { slope, cache: None }
    }
}

impl Layer for LeakyReLU {
    fn name(&self) -> &'static str {
        "leaky_relu"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        let s = self.slope;
        let out = input.map(|v| if v > 0.0 { v } else { s * v });
        if mode == Mode::Train {
            // lint: allow(hot-path-alloc) — backward cache snapshot, an owned Tensor by API contract
            self.cache = Some(input.clone());
        } else {
            self.cache = None;
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let x = take_cache(&mut self.cache, "leaky_relu");
        let s = self.slope;
        grad_out.zip_map(&x, |g, v| if v > 0.0 { g } else { s * g }, "leaky_relu backward")
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic tangent activation (LeNet-5's original nonlinearity, used
/// by the classic-architecture ablation).
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cache: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        let out = input.map(f32::tanh);
        if mode == Mode::Train {
            // Cache the *output*: tanh' = 1 - tanh².
            // lint: allow(hot-path-alloc) — backward cache snapshot, an owned Tensor by API contract
            self.cache = Some(out.clone());
        } else {
            self.cache = None;
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let y = take_cache(&mut self.cache, "tanh");
        grad_out.zip_map(&y, |g, t| g * (1.0 - t * t), "tanh backward")
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid activation.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cache: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        let out = input.map(|v| 1.0 / (1.0 + (-v).exp()));
        if mode == Mode::Train {
            // lint: allow(hot-path-alloc) — backward cache snapshot, an owned Tensor by API contract
            self.cache = Some(out.clone());
        } else {
            self.cache = None;
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let y = take_cache(&mut self.cache, "sigmoid");
        grad_out.zip_map(&y, |g, s| g * s * (1.0 - s), "sigmoid backward")
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut ws = Workspace::new();
        let mut relu = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu.forward_ws(&x, Mode::Eval, &mut ws);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut ws = Workspace::new();
        let mut relu = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        let _ = relu.forward_ws(&x, Mode::Train, &mut ws);
        let dy = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        let dx = relu.backward_ws(&dy, &mut ws);
        assert_eq!(dx.data(), &[0.0, 20.0, 30.0]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        // Random input makes exact zeros measure-zero, so the kink is safe.
        crate::gradcheck::check_layer(Box::new(ReLU::new()), &[4, 7], 1e-3, 1e-2);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut ws = Workspace::new();
        let mut relu = ReLU::new();
        let _ = relu.backward_ws(&Tensor::zeros(&[2]), &mut ws);
    }

    #[test]
    fn leaky_relu_forward_and_backward() {
        let mut ws = Workspace::new();
        let mut l = LeakyReLU::new(0.1);
        let x = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        let y = l.forward_ws(&x, Mode::Train, &mut ws);
        subfed_tensor::assert_slice_close(y.data(), &[-0.2, 0.0, 3.0], 1e-6, 0.0);
        let dy = Tensor::from_slice(&[10.0, 10.0, 10.0]);
        let dx = l.backward_ws(&dy, &mut ws);
        subfed_tensor::assert_slice_close(dx.data(), &[1.0, 1.0, 10.0], 1e-6, 0.0);
    }

    #[test]
    fn leaky_relu_gradcheck() {
        crate::gradcheck::check_layer(Box::new(LeakyReLU::new(0.2)), &[3, 5], 1e-3, 1e-2);
    }

    #[test]
    fn tanh_matches_std_and_gradchecks() {
        let mut ws = Workspace::new();
        let mut t = Tanh::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 0.5]);
        let y = t.forward_ws(&x, Mode::Eval, &mut ws);
        subfed_tensor::assert_slice_close(
            y.data(),
            &[(-1.0f32).tanh(), 0.0, 0.5f32.tanh()],
            1e-6,
            0.0,
        );
        crate::gradcheck::check_layer(Box::new(Tanh::new()), &[4, 3], 1e-3, 1e-2);
    }

    #[test]
    fn sigmoid_range_and_gradcheck() {
        let mut ws = Workspace::new();
        let mut s = Sigmoid::new();
        let x = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        let y = s.forward_ws(&x, Mode::Eval, &mut ws);
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
        crate::gradcheck::check_layer(Box::new(Sigmoid::new()), &[4, 3], 1e-3, 1e-2);
    }

    #[test]
    #[should_panic(expected = "slope must be in")]
    fn leaky_relu_rejects_bad_slope() {
        let _ = LeakyReLU::new(1.0);
    }
}
