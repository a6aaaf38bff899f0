use crate::layer::take_cache;
use crate::{Layer, Mode};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// Flattens NCHW feature maps into `[batch, features]` rows.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        assert!(input.ndim() >= 2, "flatten expects at least 2 dimensions");
        let batch = input.shape()[0];
        let features: usize = input.shape()[1..].iter().product();
        if mode == Mode::Train {
            // lint: allow(hot-path-alloc) — shape metadata, not tensor data
            self.in_shape = Some(input.shape().to_vec());
        } else {
            self.in_shape = None;
        }
        input.reshaped(&[batch, features])
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let shape = take_cache(&mut self.in_shape, "flatten");
        grad_out.reshaped(&shape)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_data() {
        let mut ws = Workspace::new();
        let mut f = Flatten::new();
        let x = Tensor::from_vec(vec![2, 3, 2, 2], (0..24).map(|v| v as f32).collect()).unwrap();
        let y = f.forward_ws(&x, Mode::Train, &mut ws);
        assert_eq!(y.shape(), &[2, 12]);
        assert_eq!(y.data(), x.data());
        let dx = f.backward_ws(&y, &mut ws);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut ws = Workspace::new();
        let mut f = Flatten::new();
        let _ = f.backward_ws(&Tensor::zeros(&[1, 4]), &mut ws);
    }
}
