use crate::layer::take_cache;
use crate::{Layer, Mode};
use subfed_tensor::init::SeededRng;
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// Inverted dropout: zeroes activations with probability `p` during
/// training and scales survivors by `1/(1-p)` so evaluation needs no
/// rescaling.
///
/// The paper's architectures do not use dropout, but the layer is kept for
/// the extension experiments (regularised local training under severe
/// non-IID) and to exercise the stochastic-layer path of the engine.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: SeededRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own
    /// deterministic RNG stream.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1), got {p}");
        Self { p, rng: SeededRng::new(seed), mask: None }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        match mode {
            Mode::Eval => {
                self.mask = None;
                // lint: allow(hot-path-alloc) — eval/no-op path returns an owned copy by contract
                input.clone()
            }
            Mode::Train => {
                if self.p <= 0.0 {
                    self.mask = Some(Tensor::ones(input.shape()));
                    // lint: allow(hot-path-alloc) — eval/no-op path returns an owned copy by contract
                    return input.clone();
                }
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mask_data: Vec<f32> = (0..input.len())
                    .map(|_| if self.rng.uniform_f32(0.0, 1.0) < keep { scale } else { 0.0 })
                    // lint: allow(hot-path-alloc) — a fresh Bernoulli mask per batch is the dropout algorithm itself
                    .collect();
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                let mask = Tensor::from_parts(input.shape().to_vec(), mask_data);
                let out = input.mul(&mask);
                self.mask = Some(mask);
                out
            }
        }
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let mask = take_cache(&mut self.mask, "dropout");
        grad_out.mul(&mask)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let y = d.forward_ws(&x, Mode::Eval, &mut ws);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn train_zeroes_roughly_p_fraction_and_scales_rest() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward_ws(&x, Mode::Train, &mut ws);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "dropped fraction {frac}");
        let scale = 1.0 / 0.7;
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - scale).abs() < 1e-6));
        // Expectation is preserved.
        assert!((y.mean() - 1.0).abs() < 0.03);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[100]);
        let y = d.forward_ws(&x, Mode::Train, &mut ws);
        let dy = Tensor::ones(&[100]);
        let dx = d.backward_ws(&dy, &mut ws);
        // Gradient is zero exactly where the activation was dropped.
        for (g, v) in dx.data().iter().zip(y.data()) {
            assert_eq!(*g == 0.0, *v == 0.0);
        }
    }

    #[test]
    fn p_zero_is_identity_in_train() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_slice(&[1.0, -2.0]);
        let y = d.forward_ws(&x, Mode::Train, &mut ws);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn p_one_rejected() {
        let _ = Dropout::new(1.0, 5);
    }
}
