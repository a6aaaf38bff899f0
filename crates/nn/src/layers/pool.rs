use crate::layer::take_cache;
use crate::{Layer, Mode};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// Max pooling over NCHW tensors with a square window.
///
/// Both architectures in the paper use 2×2 windows with stride 2; the layer
/// supports any window/stride combination that tiles the input exactly.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    /// For every output element, the flat input index that won the max.
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window and stride.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `stride == 0`.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(window > 0 && stride > 0, "window and stride must be positive");
        Self { window, stride, cache: None }
    }

    /// Output spatial size for an input side of `n`.
    fn out_side(&self, n: usize) -> usize {
        assert!(n >= self.window, "input side {n} smaller than window {}", self.window);
        (n - self.window) / self.stride + 1
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        assert_eq!(input.ndim(), 4, "maxpool2d expects NCHW input");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (self.out_side(h), self.out_side(w));
        let planes = n * c;
        // lint: allow(hot-path-alloc) — output buffer returned as an owned Tensor by API contract
        let mut out = vec![0.0f32; planes * oh * ow];
        // Eval never reads the argmax, so only Train pays for tracking it.
        let need_argmax = mode == Mode::Train;
        // lint: allow(hot-path-alloc) — argmax cache sized with the output, owned by contract
        let mut argmax = vec![0usize; if need_argmax { out.len() } else { 0 }];
        if self.window == 2 && self.stride == 2 {
            // The paper's only configuration: row-pair slices instead of
            // per-element window scans. The comparison order matches the
            // generic path ((0,0),(0,1),(1,0),(1,1), strictly-greater
            // wins), so values and argmax ties are identical.
            for p in 0..planes {
                let in_base = p * h * w;
                let out_base = p * oh * ow;
                for oy in 0..oh {
                    let r0 = &input.data()[in_base + 2 * oy * w..][..w];
                    let r1 = &input.data()[in_base + (2 * oy + 1) * w..][..w];
                    let orow = &mut out[out_base + oy * ow..][..ow];
                    if need_argmax {
                        let arow = &mut argmax[out_base + oy * ow..][..ow];
                        for (ox, (o, slot)) in orow.iter_mut().zip(arow.iter_mut()).enumerate() {
                            let base0 = in_base + 2 * oy * w + 2 * ox;
                            let base1 = in_base + (2 * oy + 1) * w + 2 * ox;
                            let mut best = r0[2 * ox];
                            let mut best_idx = base0;
                            for (v, idx) in [
                                (r0[2 * ox + 1], base0 + 1),
                                (r1[2 * ox], base1),
                                (r1[2 * ox + 1], base1 + 1),
                            ] {
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                            *o = best;
                            *slot = best_idx;
                        }
                    } else {
                        for (ox, o) in orow.iter_mut().enumerate() {
                            let mut best = r0[2 * ox];
                            for v in [r0[2 * ox + 1], r1[2 * ox], r1[2 * ox + 1]] {
                                if v > best {
                                    best = v;
                                }
                            }
                            *o = best;
                        }
                    }
                }
            }
        } else {
            for p in 0..planes {
                let in_base = p * h * w;
                let out_base = p * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..self.window {
                            let iy = oy * self.stride + ky;
                            for kx in 0..self.window {
                                let ix = ox * self.stride + kx;
                                let idx = in_base + iy * w + ix;
                                let v = input.data()[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        out[out_base + oy * ow + ox] = best;
                        if need_argmax {
                            argmax[out_base + oy * ow + ox] = best_idx;
                        }
                    }
                }
            }
        }
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        let out_shape = vec![n, c, oh, ow];
        if mode == Mode::Train {
            self.cache = Some(Cache {
                argmax,
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                in_shape: input.shape().to_vec(),
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                out_shape: out_shape.clone(),
            });
        } else {
            self.cache = None;
        }
        Tensor::from_parts(out_shape, out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let cache = take_cache(&mut self.cache, "maxpool2d");
        assert_eq!(grad_out.shape(), &cache.out_shape[..], "maxpool2d backward shape mismatch");
        // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
        let mut dx = vec![0.0f32; cache.in_shape.iter().product()];
        for (o, &src) in cache.argmax.iter().enumerate() {
            dx[src] += grad_out.data()[o];
        }
        Tensor::from_parts(cache.in_shape, dx)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Average pooling over NCHW tensors with a square window (used by the
/// classic-LeNet architecture ablation).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    stride: usize,
    in_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `stride == 0`.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(window > 0 && stride > 0, "window and stride must be positive");
        Self { window, stride, in_shape: None }
    }

    fn out_side(&self, n: usize) -> usize {
        assert!(n >= self.window, "input side {n} smaller than window {}", self.window);
        (n - self.window) / self.stride + 1
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Tensor {
        assert_eq!(input.ndim(), 4, "avgpool2d expects NCHW input");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (self.out_side(h), self.out_side(w));
        let inv = 1.0 / (self.window * self.window) as f32;
        // lint: allow(hot-path-alloc) — output buffer returned as an owned Tensor by API contract
        let mut out = vec![0.0f32; n * c * oh * ow];
        for i in 0..n {
            for ch in 0..c {
                let in_base = (i * c + ch) * h * w;
                let out_base = (i * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..self.window {
                            let iy = oy * self.stride + ky;
                            for kx in 0..self.window {
                                let ix = ox * self.stride + kx;
                                acc += input.data()[in_base + iy * w + ix];
                            }
                        }
                        out[out_base + oy * ow + ox] = acc * inv;
                    }
                }
            }
        }
        if mode == Mode::Train {
            // lint: allow(hot-path-alloc) — shape metadata, not tensor data
            self.in_shape = Some(input.shape().to_vec());
        } else {
            self.in_shape = None;
        }
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        Tensor::from_parts(vec![n, c, oh, ow], out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Tensor {
        let shape = take_cache(&mut self.in_shape, "avgpool2d");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = (self.out_side(h), self.out_side(w));
        assert_eq!(grad_out.shape(), &[n, c, oh, ow], "avgpool2d backward shape mismatch");
        let inv = 1.0 / (self.window * self.window) as f32;
        // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
        let mut dx = vec![0.0f32; n * c * h * w];
        for i in 0..n {
            for ch in 0..c {
                let in_base = (i * c + ch) * h * w;
                let out_base = (i * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.data()[out_base + oy * ow + ox] * inv;
                        for ky in 0..self.window {
                            let iy = oy * self.stride + ky;
                            for kx in 0..self.window {
                                let ix = ox * self.stride + kx;
                                dx[in_base + iy * w + ix] += g;
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_parts(shape, dx)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut ws = Workspace::new();
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = pool.forward_ws(&x, Mode::Eval, &mut ws);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut ws = Workspace::new();
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 4.0, 2.0, 3.0]).unwrap();
        let _ = pool.forward_ws(&x, Mode::Train, &mut ws);
        let dy = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]).unwrap();
        let dx = pool.backward_ws(&dy, &mut ws);
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        crate::gradcheck::check_layer(Box::new(MaxPool2d::new(2, 2)), &[2, 2, 4, 4], 1e-3, 1e-2);
    }

    #[test]
    fn multi_channel_pooling_is_independent() {
        let mut ws = Workspace::new();
        let mut pool = MaxPool2d::new(2, 2);
        let x =
            Tensor::from_vec(vec![1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0])
                .unwrap();
        let y = pool.forward_ws(&x, Mode::Eval, &mut ws);
        assert_eq!(y.data(), &[4.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn input_smaller_than_window_panics() {
        let mut ws = Workspace::new();
        let mut pool = MaxPool2d::new(3, 3);
        let _ = pool.forward_ws(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval, &mut ws);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_window_rejected() {
        let _ = MaxPool2d::new(0, 1);
    }

    #[test]
    fn avgpool_forward_known_values() {
        let mut ws = Workspace::new();
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1, 1, 4, 4], (1..=16).map(|v| v as f32).collect()).unwrap();
        let y = pool.forward_ws(&x, Mode::Eval, &mut ws);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avgpool_backward_spreads_gradient() {
        let mut ws = Workspace::new();
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let _ = pool.forward_ws(&x, Mode::Train, &mut ws);
        let dy = Tensor::from_vec(vec![1, 1, 1, 1], vec![8.0]).unwrap();
        let dx = pool.backward_ws(&dy, &mut ws);
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_gradcheck() {
        crate::gradcheck::check_layer(Box::new(AvgPool2d::new(2, 2)), &[2, 2, 4, 4], 1e-3, 1e-2);
    }

    #[test]
    fn avg_and_max_pool_agree_on_constant_input() {
        let mut ws = Workspace::new();
        let x = Tensor::full(&[1, 1, 4, 4], 2.5);
        let a = AvgPool2d::new(2, 2).forward_ws(&x, Mode::Eval, &mut ws);
        let m = MaxPool2d::new(2, 2).forward_ws(&x, Mode::Eval, &mut ws);
        assert_eq!(a.data(), m.data());
    }
}
