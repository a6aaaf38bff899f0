use crate::layer::take_cache;
use crate::{Layer, Mode, Param, ParamKind};
use subfed_tensor::conv::{
    build_taps_dense, build_taps_sparse, col2im_batch, conv2d_taps_batch, im2col_batch,
    im2col_batch_select, taps_supported, ConvGeom,
};
use subfed_tensor::init::{kaiming_uniform, SeededRng};
use subfed_tensor::linalg::{gemm_nt, gemm_tn_ws, gemm_ws};
use subfed_tensor::sparse::{
    masked_dot_nt, spmm, spmm_t, RectPattern, RowPattern, SPARSE_DENSITY_MAX,
};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// 2-D convolution with square kernels, implemented via batch-fused
/// `im2col` + one matmul per pass.
///
/// Weight layout is `[out_ch, in_ch, kh, kw]`; input/output are NCHW. The
/// whole batch is lowered into a single `[C·KH·KW, N·Hout·Wout]` patch
/// matrix so forward is one `[Cout, C·KH·KW]` multiply (and backward two),
/// drawn from the caller's [`Workspace`] instead of per-sample heap
/// allocations. When a pruning mask is installed via
/// [`Layer::install_sparsity`], all three multiplies route through the
/// compressed-row kernels and skip pruned weights entirely. A mask whose
/// kept entries form a rectangle (structured channel pruning) additionally
/// gets an inference fast path: the kept sub-matrix runs through the
/// blocked *dense* kernel at the pruned network's smaller shape, and
/// `im2col` lowers only the surviving patch rows.
///
/// Unpadded unit-stride geometries get a second inference fast path:
/// evaluation skips the lowering entirely and runs the direct tap-list
/// kernel ([`conv2d_taps_batch`]), whose cost is proportional to the
/// number of *kept* weights — this is what makes an unstructured-pruned
/// forward measurably cheaper than a dense one (see `docs/PERFORMANCE.md`).
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<Cache>,
    sparse: Option<RowPattern>,
    /// Rectangular factorisation of `sparse`, when one exists (eval-only
    /// fast path; training keeps the general compressed-row kernels).
    rect: Option<RectPattern>,
}

#[derive(Debug, Clone)]
struct Cache {
    /// Fused `[col_rows, batch·col_cols]` patch matrix (workspace buffer;
    /// returned to the workspace by either backward entry).
    cols: Vec<f32>,
    geom: ConvGeom,
    batch: usize,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform initialisation
    /// (`fan_in = in_ch * k²`), matching the reference implementation.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut SeededRng,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let weight = Param::new(
            ParamKind::ConvWeight,
            kaiming_uniform(&[out_ch, in_ch, kernel, kernel], fan_in, rng),
        );
        let bias = Param::new(ParamKind::ConvBias, kaiming_uniform(&[out_ch], fan_in, rng));
        Self {
            weight,
            bias,
            in_ch,
            out_ch,
            kernel,
            stride,
            pad,
            cache: None,
            sparse: None,
            rect: None,
        }
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Whether a compressed-row fast path is currently installed.
    pub fn has_sparse_path(&self) -> bool {
        self.sparse.is_some()
    }

    /// Whether the installed mask is rectangular (structured), enabling
    /// the compacted dense inference path.
    pub fn has_rect_path(&self) -> bool {
        self.rect.is_some()
    }

    fn geom_for(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            channels: self.in_ch,
            height: h,
            width: w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// The parameter half of backward, shared by both backward entries:
    /// consumes the forward cache, gathers dOut into the fused
    /// `[Cout, N·cc]` layout and overwrites `weight.grad` and `bias.grad`.
    /// Returns the cache and the gathered dOut (a workspace buffer) for
    /// the input-gradient tail.
    fn param_grads(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> (Cache, Vec<f32>) {
        let cache = take_cache(&mut self.cache, "conv2d");
        let geom = cache.geom;
        let col_rows = geom.col_rows();
        let col_cols = geom.col_cols();
        let n = cache.batch;
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_ch, geom.out_h(), geom.out_w()],
            "conv2d backward: unexpected grad shape"
        );
        let fused_cols = n * col_cols;
        // Gather dOut from NCHW into the fused [Cout, N·cc] layout (the
        // exact inverse of the forward permutation).
        let mut dym = ws.take_scratch(self.out_ch * fused_cols);
        for i in 0..n {
            for oc in 0..self.out_ch {
                let src = &grad_out.data()[(i * self.out_ch + oc) * col_cols..][..col_cols];
                dym[oc * fused_cols + i * col_cols..][..col_cols].copy_from_slice(src);
            }
        }
        // dW = dOut · colsᵀ (only at kept positions under a mask).
        let mut dw = ws.take_scratch(self.out_ch * col_rows);
        match &self.sparse {
            Some(pat) => masked_dot_nt(pat, &dym, &cache.cols, fused_cols, &mut dw),
            None => gemm_nt(self.out_ch, fused_cols, col_rows, &dym, &cache.cols, &mut dw),
        }
        store_grad(&mut self.weight, &[self.out_ch, self.in_ch, self.kernel, self.kernel], &dw);
        ws.put(dw);
        // db = rowwise sum of dOut.
        let mut db = ws.take_scratch(self.out_ch);
        for (oc, d) in db.iter_mut().enumerate() {
            *d = dym[oc * fused_cols..(oc + 1) * fused_cols].iter().sum::<f32>();
        }
        store_grad(&mut self.bias, &[self.out_ch], &db);
        ws.put(db);
        (cache, dym)
    }
}

/// Overwrites `param.grad` with `data` under `shape`, reusing the existing
/// gradient tensor's allocation when the shape already matches (it always
/// does after the first step).
pub(crate) fn store_grad(param: &mut Param, shape: &[usize], data: &[f32]) {
    if param.grad.shape() == shape {
        param.grad.data_mut().copy_from_slice(data);
    } else {
        // lint: allow(hot-path-alloc) — the one required copy: ws-accumulated grad into the owned param tensor
        param.grad = Tensor::from_parts(shape.to_vec(), data.to_vec());
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.ndim(), 4, "conv2d expects NCHW input, got {:?}", input.shape());
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_ch, "conv2d: expected {} input channels, got {c}", self.in_ch);
        let geom = self.geom_for(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let col_rows = geom.col_rows();
        let col_cols = geom.col_cols();
        let fused_cols = n * col_cols;
        if mode == Mode::Eval {
            self.cache = None;
            if taps_supported(&geom) {
                // Direct tap-list inference: no lowering, no permute —
                // work is proportional to the (kept) tap count, so any
                // pruned filter (structured or not) pays off linearly in
                // its sparsity. Checked before the rect path: at the
                // unpadded shapes this kernel supports, skipping im2col
                // beats even the compacted dense GEMM.
                let wvals = self.weight.value.data();
                let (tap_ptr, taps) = match &self.sparse {
                    Some(pat) => build_taps_sparse(pat, wvals, &geom),
                    None => build_taps_dense(wvals, &geom, self.out_ch),
                };
                // lint: allow(hot-path-alloc) — output buffer returned as an owned Tensor by API contract
                let mut out = vec![0.0f32; n * self.out_ch * col_cols];
                conv2d_taps_batch(
                    input.data(),
                    &geom,
                    n,
                    &tap_ptr,
                    &taps,
                    self.bias.value.data(),
                    &mut out,
                );
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                return Tensor::from_parts(vec![n, self.out_ch, oh, ow], out);
            }
            if let Some(rect) = &self.rect {
                // A rectangular (structured) mask is a smaller dense
                // network: lower only the used patch rows, gather the kept
                // weight sub-matrix, and run the blocked dense kernel at
                // the pruned shape.
                let kept = rect.keep_rows().len();
                let used = rect.used_cols().len();
                let mut cols = ws.take_scratch(used * fused_cols);
                im2col_batch_select(input.data(), &geom, n, &mut cols, rect.used_cols());
                let mut wc = ws.take_scratch(kept * used);
                rect.gather_weights(self.weight.value.data(), &mut wc);
                let mut prod = ws.take_scratch(kept * fused_cols);
                gemm_ws(kept, used, fused_cols, &wc, &cols, &mut prod, ws);
                ws.put(wc);
                ws.put(cols);
                // Compact-row position per output channel; pruned channels
                // emit their (mask-zeroed) bias plane, exactly what the
                // dense product over zero weights yields.
                // lint: allow(hot-path-alloc) — per-layer index table of out_ch entries, not tensor-sized
                let mut pos = vec![usize::MAX; self.out_ch];
                for (p, &r) in rect.keep_rows().iter().enumerate() {
                    pos[r as usize] = p;
                }
                let mut out = Vec::with_capacity(n * self.out_ch * col_cols);
                for i in 0..n {
                    for (oc, &p) in pos.iter().enumerate() {
                        let b = self.bias.value.data()[oc];
                        if p == usize::MAX {
                            out.extend(std::iter::repeat_n(b, col_cols));
                        } else {
                            let src = &prod[p * fused_cols + i * col_cols..][..col_cols];
                            out.extend(src.iter().map(|&s| s + b));
                        }
                    }
                }
                ws.put(prod);
                // lint: allow(hot-path-alloc) — shape metadata, not tensor data
                return Tensor::from_parts(vec![n, self.out_ch, oh, ow], out);
            }
        }
        let mut cols = ws.take_scratch(col_rows * fused_cols);
        im2col_batch(input.data(), &geom, n, &mut cols);
        let mut prod = ws.take_scratch(self.out_ch * fused_cols);
        let wvals = self.weight.value.data();
        match &self.sparse {
            Some(pat) => spmm(pat, wvals, &cols, fused_cols, &mut prod),
            None => gemm_ws(self.out_ch, col_rows, fused_cols, wvals, &cols, &mut prod, ws),
        }
        // Permute [Cout, N·cc] -> NCHW and add the bias in the same pass.
        // The destination advances sequentially (i outer, oc inner), so the
        // output is built by extension — each element is touched exactly
        // once instead of zero-filled and then overwritten.
        let mut out = Vec::with_capacity(n * self.out_ch * col_cols);
        for i in 0..n {
            for oc in 0..self.out_ch {
                let src = &prod[oc * fused_cols + i * col_cols..][..col_cols];
                let b = self.bias.value.data()[oc];
                out.extend(src.iter().map(|&s| s + b));
            }
        }
        ws.put(prod);
        if mode == Mode::Train {
            self.cache = Some(Cache { cols, geom, batch: n });
        } else {
            ws.put(cols);
            self.cache = None;
        }
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        Tensor::from_parts(vec![n, self.out_ch, oh, ow], out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (cache, dym) = self.param_grads(grad_out, ws);
        let geom = cache.geom;
        let col_rows = geom.col_rows();
        let n = cache.batch;
        let fused_cols = n * geom.col_cols();
        // dcols = Wᵀ · dOut, scattered back by col2im.
        let mut dcols = ws.take_scratch(col_rows * fused_cols);
        let wvals = self.weight.value.data();
        match &self.sparse {
            Some(pat) => spmm_t(pat, wvals, &dym, fused_cols, &mut dcols),
            None => gemm_tn_ws(self.out_ch, col_rows, fused_cols, wvals, &dym, &mut dcols, ws),
        }
        // lint: allow(hot-path-alloc) — dx is returned as an owned Tensor by API contract
        let mut dx = vec![0.0f32; n * geom.channels * geom.height * geom.width];
        col2im_batch(&dcols, &geom, n, &mut dx);
        ws.put(dym);
        ws.put(dcols);
        ws.put(cache.cols);
        // lint: allow(hot-path-alloc) — shape metadata, not tensor data
        Tensor::from_parts(vec![n, geom.channels, geom.height, geom.width], dx)
    }

    /// The input layer's backward: dW and db only. The input gradient
    /// (`Wᵀ·dOut` plus `col2im`) is never formed, which is exact because
    /// no parameter depends on it.
    fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let (cache, dym) = self.param_grads(grad_out, ws);
        ws.put(dym);
        ws.put(cache.cols);
    }

    // lint: cold — pattern build happens once per round, on mask install
    fn install_sparsity(&mut self, param_masks: &[&Tensor]) {
        self.sparse = None;
        self.rect = None;
        let Some(wm) = param_masks.first() else { return };
        assert_eq!(
            wm.shape(),
            self.weight.value.shape(),
            "conv2d install_sparsity: mask shape mismatch"
        );
        let pat =
            RowPattern::from_mask(self.out_ch, self.in_ch * self.kernel * self.kernel, wm.data());
        if pat.density() <= SPARSE_DENSITY_MAX {
            self.rect = RectPattern::from_pattern(&pat);
            self.sparse = Some(pat);
        }
    }

    fn params(&self) -> Vec<&Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // lint: allow(hot-path-alloc) — short Vec of param refs, cheap next to a batch
        vec![&mut self.weight, &mut self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subfed_tensor::conv::direct_conv2d_single;
    use subfed_tensor::init::uniform;

    #[test]
    fn forward_matches_direct_convolution() {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut rng);
        let y = conv.forward_ws(&x, Mode::Eval, &mut ws);
        assert_eq!(y.shape(), &[2, 3, 6, 6]);
        let geom = conv.geom_for(6, 6);
        for i in 0..2 {
            let img = &x.data()[i * 72..(i + 1) * 72];
            let direct =
                direct_conv2d_single(img, &conv.weight.value, Some(conv.bias.value.data()), &geom);
            subfed_tensor::assert_slice_close(
                &y.data()[i * 108..(i + 1) * 108],
                &direct,
                1e-4,
                1e-4,
            );
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = SeededRng::new(2);
        let conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        crate::gradcheck::check_layer(Box::new(conv), &[2, 1, 5, 5], 1e-2, 2e-2);
    }

    #[test]
    fn unpadded_eval_takes_tap_path_and_matches_im2col() {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(31);
        // LeNet conv1 shape: pad 0, stride 1 → eval runs the tap kernel;
        // train runs im2col+GEMM. The two summation orders must agree to
        // float tolerance, dense and unstructured-sparse alike.
        let mut conv = Conv2d::new(3, 6, 5, 1, 0, &mut rng);
        let x = uniform(&[2, 3, 32, 32], -1.0, 1.0, &mut rng);
        let ye = conv.forward_ws(&x, Mode::Eval, &mut ws);
        let yt = conv.forward_ws(&x, Mode::Train, &mut ws);
        assert_eq!(ye.shape(), &[2, 6, 28, 28]);
        subfed_tensor::assert_slice_close(ye.data(), yt.data(), 1e-4, 1e-4);
        let _ = conv.backward_ws(&uniform(&[2, 6, 28, 28], -1.0, 1.0, &mut rng), &mut ws);

        let mut bits = vec![0.0f32; 6 * 3 * 5 * 5];
        for (t, bit) in bits.iter_mut().enumerate() {
            if t % 2 == 0 || t % 5 == 0 {
                *bit = 1.0;
            }
        }
        for (v, &bit) in conv.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let bits_t = Tensor::from_parts(vec![6, 3, 5, 5], bits);
        let ones = Tensor::full(&[6], 1.0);
        conv.install_sparsity(&[&bits_t, &ones]);
        assert!(conv.has_sparse_path() && !conv.has_rect_path());
        let ys = conv.forward_ws(&x, Mode::Eval, &mut ws);
        let yst = conv.forward_ws(&x, Mode::Train, &mut ws);
        subfed_tensor::assert_slice_close(ys.data(), yst.data(), 1e-4, 1e-4);
        let _ = conv.backward_ws(&uniform(&[2, 6, 28, 28], -1.0, 1.0, &mut rng), &mut ws);
    }

    #[test]
    fn strided_gradients_pass_finite_difference_check() {
        let mut rng = SeededRng::new(3);
        let conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        crate::gradcheck::check_layer(Box::new(conv), &[1, 2, 6, 6], 1e-2, 2e-2);
    }

    #[test]
    fn sparse_path_matches_dense_forward_and_backward() {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(7);
        let mut dense = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        // Prune ~half the weights (and keep weights and mask consistent).
        let mut bits = vec![0.0f32; 4 * 2 * 3 * 3];
        for (t, bit) in bits.iter_mut().enumerate() {
            if t % 2 == 0 {
                *bit = 1.0;
            }
        }
        for (v, &bit) in dense.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let mut sparse = dense.clone();
        let bits_t = Tensor::from_parts(vec![4, 2, 3, 3], bits);
        let ones = Tensor::full(&[4], 1.0);
        sparse.install_sparsity(&[&bits_t, &ones]);
        assert!(sparse.has_sparse_path());

        let x = uniform(&[3, 2, 6, 6], -1.0, 1.0, &mut rng);
        let yd = dense.forward_ws(&x, Mode::Train, &mut ws);
        let ys = sparse.forward_ws(&x, Mode::Train, &mut ws);
        subfed_tensor::assert_slice_close(ys.data(), yd.data(), 1e-5, 1e-5);

        let dy = uniform(&[3, 4, 6, 6], -1.0, 1.0, &mut rng);
        let dxd = dense.backward_ws(&dy, &mut ws);
        let dxs = sparse.backward_ws(&dy, &mut ws);
        subfed_tensor::assert_slice_close(dxs.data(), dxd.data(), 1e-4, 1e-4);
        subfed_tensor::assert_slice_close(
            dense.bias.grad.data(),
            sparse.bias.grad.data(),
            1e-4,
            1e-4,
        );
        // Weight grads agree at kept positions; pruned positions are zero
        // on the sparse path (the masked optimiser zeroes them anyway).
        for ((&gd, &gs), &bit) in
            dense.weight.grad.data().iter().zip(sparse.weight.grad.data()).zip(bits_t.data())
        {
            if bit == 0.0 {
                assert_eq!(gs, 0.0);
            } else {
                assert!((gd - gs).abs() <= 1e-4 + 1e-4 * gd.abs(), "{gd} vs {gs}");
            }
        }
    }

    /// Installs `bits` (one 0/1 entry per weight) as the layer's mask,
    /// zeroing the pruned weights first.
    fn install_mask(conv: &mut Conv2d, bits: Vec<f32>) {
        for (v, &bit) in conv.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let shape = conv.weight.value.shape().to_vec();
        let ones = Tensor::full(&[conv.out_ch], 1.0);
        conv.install_sparsity(&[&Tensor::from_parts(shape, bits), &ones]);
    }

    #[test]
    fn params_only_backward_matches_full_backward_dense() {
        let mut rng = SeededRng::new(41);
        let conv = Conv2d::new(3, 6, 5, 1, 0, &mut rng);
        assert!(!conv.has_sparse_path());
        crate::gradcheck::check_params_only_backward(&conv, &[4, 3, 12, 12]);
        let padded = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        crate::gradcheck::check_params_only_backward(&padded, &[3, 2, 9, 9]);
    }

    #[test]
    fn params_only_backward_matches_full_backward_unstructured() {
        let mut rng = SeededRng::new(42);
        let mut conv = Conv2d::new(3, 6, 5, 1, 0, &mut rng);
        let bits = (0..6 * 3 * 5 * 5).map(|t| f32::from(u8::from(t % 4 == 0 || t % 7 == 0)));
        install_mask(&mut conv, bits.collect());
        assert!(conv.has_sparse_path() && !conv.has_rect_path());
        crate::gradcheck::check_params_only_backward(&conv, &[4, 3, 12, 12]);
    }

    #[test]
    fn params_only_backward_matches_full_backward_structured() {
        let mut rng = SeededRng::new(43);
        let mut conv = Conv2d::new(4, 6, 3, 1, 1, &mut rng);
        // Keep output channels {0, 2, 5} and input channels {1, 3}.
        let mut bits = vec![0.0f32; 6 * 4 * 3 * 3];
        for oc in [0usize, 2, 5] {
            for ic in [1usize, 3] {
                bits[(oc * 4 + ic) * 9..][..9].fill(1.0);
            }
        }
        install_mask(&mut conv, bits);
        assert!(conv.has_rect_path());
        crate::gradcheck::check_params_only_backward(&conv, &[3, 4, 8, 8]);
    }

    #[test]
    fn structured_mask_takes_rect_path_and_matches_dense_eval() {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(21);
        let mut dense = Conv2d::new(4, 6, 3, 1, 1, &mut rng);
        // Structured mask: drop output channels 1 and 4 entirely, and
        // input channel 2 from every kept filter.
        let mut bits = vec![0.0f32; 6 * 4 * 3 * 3];
        for oc in [0usize, 2, 3, 5] {
            for ic in [0usize, 1, 3] {
                let base = (oc * 4 + ic) * 9;
                bits[base..base + 9].fill(1.0);
            }
        }
        for (v, &bit) in dense.weight.value.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        // Pruned output channels also lose their bias, as
        // expand_channel_mask would arrange.
        dense.bias.value.data_mut()[1] = 0.0;
        dense.bias.value.data_mut()[4] = 0.0;
        let mut rect = dense.clone();
        let bits_t = Tensor::from_parts(vec![6, 4, 3, 3], bits);
        let ones = Tensor::full(&[6], 1.0);
        rect.install_sparsity(&[&bits_t, &ones]);
        assert!(rect.has_sparse_path() && rect.has_rect_path());

        let x = uniform(&[3, 4, 6, 6], -1.0, 1.0, &mut rng);
        let yd = dense.forward_ws(&x, Mode::Eval, &mut ws);
        let yr = rect.forward_ws(&x, Mode::Eval, &mut ws);
        subfed_tensor::assert_slice_close(yr.data(), yd.data(), 1e-5, 1e-5);
        // Pruned output channels are exact bias planes (zero here).
        for i in 0..3 {
            for oc in [1usize, 4] {
                let plane = &yr.data()[(i * 6 + oc) * 36..][..36];
                assert!(plane.iter().all(|&v| v == 0.0));
            }
        }
        // Train mode stays on the general sparse path and still agrees.
        let yt = rect.forward_ws(&x, Mode::Train, &mut ws);
        subfed_tensor::assert_slice_close(yt.data(), yd.data(), 1e-5, 1e-5);
        let _ = rect.backward_ws(&uniform(&[3, 6, 6, 6], -1.0, 1.0, &mut rng), &mut ws);
    }

    #[test]
    fn unstructured_mask_has_no_rect_path() {
        let mut rng = SeededRng::new(22);
        let mut conv = Conv2d::new(2, 3, 3, 1, 0, &mut rng);
        let mut bits = vec![0.0f32; 3 * 2 * 3 * 3];
        for (t, bit) in bits.iter_mut().enumerate() {
            if t % 3 == 0 || t % 7 == 0 {
                *bit = 1.0;
            }
        }
        let bits_t = Tensor::from_parts(vec![3, 2, 3, 3], bits);
        let ones = Tensor::full(&[3], 1.0);
        conv.install_sparsity(&[&bits_t, &ones]);
        assert!(conv.has_sparse_path());
        assert!(!conv.has_rect_path());
    }

    #[test]
    fn install_sparsity_with_empty_masks_clears_path() {
        let mut rng = SeededRng::new(8);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let zeros = Tensor::zeros(&[2, 1, 3, 3]);
        let ones = Tensor::full(&[2], 1.0);
        conv.install_sparsity(&[&zeros, &ones]);
        assert!(conv.has_sparse_path());
        conv.install_sparsity(&[]);
        assert!(!conv.has_sparse_path());
    }

    #[test]
    fn dense_mask_stays_on_dense_path() {
        let mut rng = SeededRng::new(9);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let ones_w = Tensor::full(&[2, 1, 3, 3], 1.0);
        let ones_b = Tensor::full(&[2], 1.0);
        conv.install_sparsity(&[&ones_w, &ones_b]);
        assert!(!conv.has_sparse_path());
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(4);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let _ = conv.backward_ws(&Tensor::zeros(&[1, 1, 3, 3]), &mut ws);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn wrong_channel_count_panics() {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(5);
        let mut conv = Conv2d::new(3, 1, 3, 1, 0, &mut rng);
        let _ = conv.forward_ws(&Tensor::zeros(&[1, 2, 5, 5]), Mode::Eval, &mut ws);
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(6);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let _ = conv.forward_ws(&Tensor::zeros(&[1, 1, 5, 5]), Mode::Eval, &mut ws);
        assert!(conv.cache.is_none());
    }
}
