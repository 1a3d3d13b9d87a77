//! Convolution, max-pooling, and flatten layers.
//!
//! These implement the "Raw" baseline of the paper: the DeepMind-style model
//! that consumes raw pixel frames and derives high-level features through
//! convolutional preprocessing layers (Section 2 and Table 2). All layers
//! keep the network-wide `[batch, features]` convention — each batch row is a
//! flattened `[channels, height, width]` volume whose spatial shape is part
//! of the layer configuration.

use crate::init::xavier;
use crate::layer::{Layer, LayerSpec, Param};
use crate::tensor::Tensor;

/// A 2-D convolution with square kernels and no padding.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    in_h: usize,
    in_w: usize,
    /// `[weight, bias]`: the weight is `[out_c, in_c * k * k]` (each output
    /// channel's flattened kernel), the bias `[1, out_c]`.
    params: [Param; 2],
    /// im2col patch matrices from the last training forward, one
    /// `[fan_in, patches]` block per batch row; the backward pass reuses
    /// them for the weight-gradient GEMM.
    cols: Vec<f32>,
    /// Batch size of the last training forward (0 before the first).
    cached_batch: usize,
    output: Tensor,
    grad_in: Tensor,
    /// Per-row input-gradient patch matrix `Wᵀ·dy`, before col2im.
    dcol: Vec<f32>,
}

/// Index of the weight in [`Conv2d`]'s parameters.
const WEIGHT: usize = 0;
/// Index of the bias in [`Conv2d`]'s parameters.
const BIAS: usize = 1;

impl Conv2d {
    /// Creates a convolution over `[in_channels, in_h, in_w]` inputs.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the input or any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d::from_weights(
            in_channels,
            out_channels,
            kernel,
            stride,
            in_h,
            in_w,
            xavier(fan_in, out_channels, &[out_channels, fan_in]),
            Tensor::zeros(&[1, out_channels]),
        )
    }

    /// Reconstructs a convolution from saved weights.
    #[allow(clippy::too_many_arguments)]
    pub fn from_weights(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
        weight: Tensor,
        bias: Tensor,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channels must be positive"
        );
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            kernel <= in_h && kernel <= in_w,
            "kernel {kernel} exceeds input {in_h}x{in_w}"
        );
        let fan_in = in_channels * kernel * kernel;
        assert_eq!(weight.shape(), &[out_channels, fan_in], "weight shape");
        assert_eq!(bias.shape(), &[1, out_channels], "bias shape");
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            in_h,
            in_w,
            params: [Param::new(weight), Param::new(bias)],
            cols: Vec::new(),
            cached_batch: 0,
            output: Tensor::default(),
            grad_in: Tensor::default(),
            dcol: Vec::new(),
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w - self.kernel) / self.stride + 1
    }

    fn in_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    fn out_len(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    #[inline]
    fn input_index(&self, c: usize, y: usize, x: usize) -> usize {
        (c * self.in_h + y) * self.in_w + x
    }

    fn fan_in(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Lowers one input row into its `[fan_in, patches]` im2col matrix:
    /// `col[f][p]` is the input pixel that kernel element `f = (ic, ky, kx)`
    /// sees at output position `p = (oy, ox)`. Row `f` of `col` is a
    /// contiguous copy sweep per output row (unit-stride when `stride == 1`).
    fn im2col_row(&self, row: &[f32], col: &mut [f32]) {
        let _t = t_time!("au_nn.im2col");
        let (oh, ow) = (self.out_h(), self.out_w());
        let patches = oh * ow;
        let k = self.kernel;
        let mut f = 0;
        for ic in 0..self.in_channels {
            for ky in 0..k {
                for kx in 0..k {
                    let dst = &mut col[f * patches..(f + 1) * patches];
                    for oy in 0..oh {
                        let iy = oy * self.stride + ky;
                        let src = self.input_index(ic, iy, kx);
                        let drow = &mut dst[oy * ow..(oy + 1) * ow];
                        if self.stride == 1 {
                            drow.copy_from_slice(&row[src..src + ow]);
                        } else {
                            for (ox, d) in drow.iter_mut().enumerate() {
                                *d = row[src + ox * self.stride];
                            }
                        }
                    }
                    f += 1;
                }
            }
        }
    }

    fn assert_input(&self, input: &Tensor) {
        assert_eq!(
            input.row_len(),
            self.in_len(),
            "conv2d expected {} features, got {}",
            self.in_len(),
            input.row_len()
        );
    }
}

/// Forward pass for one batch row of a convolution with `params = [W, b]`:
/// pre-fills `out_row` with the per-channel bias, then accumulates `W
/// [out_c, fan_in] × col [fan_in, patches]` on top. Per output element that
/// is `bias + Σ_f` in ascending-`f` order — bit-identical to the scalar
/// loop nest this replaced.
fn forward_row(params: &[Param; 2], col: &[f32], out_row: &mut [f32]) {
    let _t = t_time!("au_nn.gemm");
    let weight = &params[WEIGHT].value;
    let (out_channels, fan_in) = (weight.shape()[0], weight.shape()[1]);
    let patches = out_row.len() / out_channels;
    for (chunk, &b) in out_row
        .chunks_exact_mut(patches)
        .zip(params[BIAS].value.data())
    {
        chunk.fill(b);
    }
    crate::kernels::gemm_acc(out_row, weight.data(), col, out_channels, fan_in, patches);
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> &Tensor {
        self.assert_input(input);
        let batch = input.batch();
        let col_len = self.fan_in() * self.out_h() * self.out_w();
        let out_len = self.out_len();
        // `mem::take` swaps in an empty Vec (no allocation), so
        // `im2col_row` can borrow the layer while it fills the buffer.
        let mut cols = std::mem::take(&mut self.cols);
        cols.resize(batch * col_len, 0.0);
        for (b, col) in cols.chunks_exact_mut(col_len).enumerate() {
            self.im2col_row(input.row_slice(b), col);
        }
        self.cols = cols;
        self.output.resize_zeroed(&[batch, out_len]);
        for (col, out_row) in self
            .cols
            .chunks_exact(col_len)
            .zip(self.output.data_mut().chunks_exact_mut(out_len))
        {
            forward_row(&self.params, col, out_row);
        }
        // The backward pass consumes the patch matrices, not the raw
        // input: dW is a GEMM against them.
        self.cached_batch = if train { batch } else { 0 };
        &self.output
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor) {
        self.assert_input(input);
        let batch = input.batch();
        let col_len = self.fan_in() * self.out_h() * self.out_w();
        let out_len = self.out_len();
        out.resize_zeroed(&[batch, out_len]);
        // Batch rows are independent; fan them out across au-par workers
        // with one reusable im2col buffer per worker. Row partitioning
        // keeps per-element accumulation order fixed, so the output is
        // bit-identical for every thread count.
        au_par::par_row_chunks_mut(out.data_mut(), out_len, 1, |first_row, chunk| {
            let mut col = vec![0.0f32; col_len];
            for (i, out_row) in chunk.chunks_exact_mut(out_len).enumerate() {
                self.im2col_row(input.row_slice(first_row + i), &mut col);
                forward_row(&self.params, &col, out_row);
            }
        });
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        let (oh, ow) = (self.out_h(), self.out_w());
        let patches = oh * ow;
        let fan_in = self.fan_in();
        let col_len = fan_in * patches;
        let batch = self.cached_batch;
        assert!(
            batch > 0 && grad_out.shape() == [batch, self.out_len()],
            "backward called before forward"
        );
        let in_len = self.in_len();
        let (out_channels, in_channels) = (self.out_channels, self.in_channels);
        let (k, stride, in_h, in_w) = (self.kernel, self.stride, self.in_h, self.in_w);
        let [weight, bias] = &mut self.params;
        self.grad_in.resize_zeroed(&[batch, in_len]);
        self.dcol.resize(col_len, 0.0);
        for ((go_row, col), gi_row) in grad_out
            .data()
            .chunks_exact(out_channels * patches)
            .zip(self.cols.chunks_exact(col_len))
            .zip(self.grad_in.data_mut().chunks_exact_mut(in_len))
        {
            // db[oc] += Σ_patches dy — ascending patch order per channel.
            for (chunk, acc) in go_row.chunks_exact(patches).zip(bias.grad.data_mut()) {
                for &g in chunk {
                    *acc += g;
                }
            }
            // dW [out_c, fan_in] += dy [out_c, patches] · colᵀ, read
            // straight from the `[fan_in, patches]` patch matrix:
            // ascending-patch accumulation, matching the loop nest this
            // replaced.
            crate::kernels::gemm_nt_acc(
                weight.grad.data_mut(),
                go_row,
                col,
                out_channels,
                patches,
                fan_in,
            );
            // dx via dcol = Wᵀ [fan_in, out_c] · dy [out_c, patches], read
            // straight from W, scattered back through the im2col mapping
            // (col2im). The scatter visits kernel elements in ascending-f
            // order, which regroups the additions relative to the old
            // oc-major nest — equal within f32 rounding, covered by the
            // 1e-6 oracle tests.
            self.dcol.fill(0.0);
            crate::kernels::gemm_tn_acc(
                &mut self.dcol,
                weight.value.data(),
                go_row,
                out_channels,
                fan_in,
                patches,
            );
            let mut f = 0;
            for ic in 0..in_channels {
                for ky in 0..k {
                    for kx in 0..k {
                        let src = &self.dcol[f * patches..(f + 1) * patches];
                        for oy in 0..oh {
                            let iy = oy * stride + ky;
                            let base = (ic * in_h + iy) * in_w + kx;
                            for ox in 0..ow {
                                gi_row[base + ox * stride] += src[oy * ow + ox];
                            }
                        }
                        f += 1;
                    }
                }
            }
        }
        &self.grad_in
    }

    fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.out_len())
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv2d {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            in_h: self.in_h,
            in_w: self.in_w,
            weight: self.params[WEIGHT].value.clone(),
            bias: self.params[BIAS].value.clone(),
        }
    }
}

#[cfg(test)]
impl Conv2d {
    /// Reference forward: the 7-deep scalar loop nest the im2col path
    /// replaced. Kept only as a test oracle.
    pub(crate) fn infer_naive(&self, input: &Tensor) -> Tensor {
        let (oh, ow) = (self.out_h(), self.out_w());
        let k = self.kernel;
        let mut out = Tensor::zeros(&[input.batch(), self.out_len()]);
        for b in 0..input.batch() {
            let row = input.row_slice(b);
            for oc in 0..self.out_channels {
                let wrow = &self.params[WEIGHT].value.data()[oc * self.fan_in()..][..self.fan_in()];
                let bias = self.params[BIAS].value.data()[oc];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias;
                        let mut widx = 0;
                        for ic in 0..self.in_channels {
                            for ky in 0..k {
                                let iy = oy * self.stride + ky;
                                let base = self.input_index(ic, iy, ox * self.stride);
                                for kx in 0..k {
                                    acc += wrow[widx] * row[base + kx];
                                    widx += 1;
                                }
                            }
                        }
                        let oidx = (oc * oh + oy) * ow + ox;
                        out.data_mut()[b * self.out_len() + oidx] = acc;
                    }
                }
            }
        }
        out
    }

    /// Reference backward: returns `(grad_in, dW, db)` for the given input
    /// and output gradient without touching layer state. Kept only as a
    /// test oracle.
    pub(crate) fn backward_naive(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (oh, ow) = (self.out_h(), self.out_w());
        let k = self.kernel;
        let mut grad_in = Tensor::zeros(&[input.batch(), self.in_len()]);
        let mut dw = Tensor::zeros(self.params[WEIGHT].value.shape());
        let mut db = Tensor::zeros(self.params[BIAS].value.shape());
        for b in 0..input.batch() {
            let in_row = input.row_slice(b);
            let go_row = grad_out.row_slice(b);
            for oc in 0..self.out_channels {
                let wbase = oc * self.fan_in();
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go_row[(oc * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        db.data_mut()[oc] += g;
                        let mut widx = 0;
                        for ic in 0..self.in_channels {
                            for ky in 0..k {
                                let iy = oy * self.stride + ky;
                                let base = self.input_index(ic, iy, ox * self.stride);
                                for kx in 0..k {
                                    dw.data_mut()[wbase + widx] += g * in_row[base + kx];
                                    grad_in.data_mut()[b * self.in_len() + base + kx] +=
                                        g * self.params[WEIGHT].value.data()[wbase + widx];
                                    widx += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        (grad_in, dw, db)
    }
}

/// Non-overlapping 2-D max pooling (window == stride).
#[derive(Debug)]
pub struct MaxPool2d {
    shape: PoolShape,
    /// Flat input index of the maximum chosen for each output element.
    argmax: Vec<usize>,
    /// Batch size of the last forward (0 before the first).
    cached_batch: usize,
    output: Tensor,
    grad_in: Tensor,
}

/// The geometry of a [`MaxPool2d`], split out so the pooling sweep can
/// borrow it while writing the layer's own buffers.
#[derive(Debug, Clone, Copy)]
struct PoolShape {
    channels: usize,
    window: usize,
    in_h: usize,
    in_w: usize,
}

impl PoolShape {
    fn out_h(&self) -> usize {
        self.in_h / self.window
    }

    fn out_w(&self) -> usize {
        self.in_w / self.window
    }

    fn in_len(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    fn out_len(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    /// Pools `input` into `out`, recording each maximum's flat input index
    /// in `argmax` when given.
    fn pool(&self, input: &Tensor, out: &mut Tensor, mut argmax: Option<&mut Vec<usize>>) {
        assert_eq!(
            input.row_len(),
            self.in_len(),
            "maxpool input size mismatch"
        );
        let (oh, ow, out_len) = (self.out_h(), self.out_w(), self.out_len());
        let w = self.window;
        out.resize_zeroed(&[input.batch(), out_len]);
        if let Some(argmax) = argmax.as_deref_mut() {
            argmax.clear();
            argmax.resize(input.batch() * out_len, 0);
        }
        for b in 0..input.batch() {
            let row = input.row_slice(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..w {
                            for kx in 0..w {
                                let iy = oy * w + ky;
                                let ix = ox * w + kx;
                                let idx = (c * self.in_h + iy) * self.in_w + ix;
                                if row[idx] > best {
                                    best = row[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = b * out_len + (c * oh + oy) * ow + ox;
                        out.data_mut()[oidx] = best;
                        if let Some(argmax) = argmax.as_deref_mut() {
                            argmax[oidx] = best_idx;
                        }
                    }
                }
            }
        }
    }
}

impl MaxPool2d {
    /// Creates a pooling layer over `[channels, in_h, in_w]` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or exceeds the spatial dimensions.
    pub fn new(channels: usize, window: usize, in_h: usize, in_w: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            window <= in_h && window <= in_w,
            "window {window} exceeds input {in_h}x{in_w}"
        );
        MaxPool2d {
            shape: PoolShape {
                channels,
                window,
                in_h,
                in_w,
            },
            argmax: Vec::new(),
            cached_batch: 0,
            output: Tensor::default(),
            grad_in: Tensor::default(),
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        self.shape.out_h()
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        self.shape.out_w()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> &Tensor {
        self.shape
            .pool(input, &mut self.output, Some(&mut self.argmax));
        self.cached_batch = input.batch();
        &self.output
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor) {
        self.shape.pool(input, out, None);
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        let (batch, in_len, out_len) =
            (self.cached_batch, self.shape.in_len(), self.shape.out_len());
        assert!(
            batch > 0 && grad_out.shape() == [batch, out_len],
            "backward called before forward"
        );
        self.grad_in.resize_zeroed(&[batch, in_len]);
        for ((go, argmax), gi) in grad_out
            .data()
            .chunks_exact(out_len)
            .zip(self.argmax.chunks_exact(out_len))
            .zip(self.grad_in.data_mut().chunks_exact_mut(in_len))
        {
            for (&g, &idx) in go.iter().zip(argmax) {
                gi[idx] += g;
            }
        }
        &self.grad_in
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.shape.out_len())
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::MaxPool2d {
            channels: self.shape.channels,
            window: self.shape.window,
            in_h: self.shape.in_h,
            in_w: self.shape.in_w,
        }
    }
}

/// Identity layer marking the transition from spatial to flat features.
///
/// Since the whole network already uses `[batch, features]`, flatten is a
/// no-op at runtime but documents the architecture and fixes the feature
/// count for shape inference.
#[derive(Debug)]
pub struct Flatten {
    features: usize,
    output: Tensor,
    grad_in: Tensor,
}

impl Flatten {
    /// Creates a flatten marker for `features` flat features.
    pub fn new(features: usize) -> Self {
        Flatten {
            features,
            output: Tensor::default(),
            grad_in: Tensor::default(),
        }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> &Tensor {
        assert_eq!(input.row_len(), self.features, "flatten size mismatch");
        self.output.copy_from(input);
        &self.output
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor) {
        assert_eq!(input.row_len(), self.features, "flatten size mismatch");
        out.copy_from(input);
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        self.grad_in.copy_from(grad_out);
        &self.grad_in
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.features)
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Flatten {
            features: self.features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_identity_kernel_copies_input() {
        // 1x1 kernel with weight 1 reproduces the input.
        let mut conv = Conv2d::from_weights(
            1,
            1,
            1,
            1,
            2,
            2,
            Tensor::from_vec(&[1, 1], vec![1.0]),
            Tensor::zeros(&[1, 1]),
        );
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_sums_window() {
        // 2x2 all-ones kernel over a 2x2 input = sum of all pixels.
        let mut conv = Conv2d::from_weights(
            1,
            1,
            2,
            1,
            2,
            2,
            Tensor::from_vec(&[1, 4], vec![1.0; 4]),
            Tensor::zeros(&[1, 1]),
        );
        let y = conv.forward(&Tensor::row(&[1.0, 2.0, 3.0, 4.0]), false);
        assert_eq!(y.data(), &[10.0]);
    }

    #[test]
    fn conv_output_dims() {
        let conv = Conv2d::new(1, 4, 3, 2, 9, 9);
        assert_eq!(conv.out_h(), 4);
        assert_eq!(conv.out_w(), 4);
        assert_eq!(conv.out_features(), Some(4 * 4 * 4));
    }

    #[test]
    fn conv_backward_distributes_gradient() {
        let mut conv = Conv2d::from_weights(
            1,
            1,
            2,
            1,
            2,
            2,
            Tensor::from_vec(&[1, 4], vec![1.0; 4]),
            Tensor::zeros(&[1, 1]),
        );
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0]);
        let _ = conv.forward(&x, true);
        let dx = conv.backward(&Tensor::row(&[1.0]));
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
        let params = conv.params_mut();
        assert_eq!(params[0].grad.data(), x.data());
        assert_eq!(params[1].grad.data(), &[1.0]);
    }

    #[test]
    fn maxpool_selects_maximum() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let y = pool.forward(&Tensor::row(&[1.0, 5.0, 3.0, 2.0]), false);
        assert_eq!(y.data(), &[5.0]);
        let dx = pool.backward(&Tensor::row(&[1.0]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_per_channel() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0]);
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[4.0, 8.0]);
    }

    #[test]
    fn flatten_is_identity() {
        let mut f = Flatten::new(4);
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.forward(&x, false), &x);
        assert_eq!(f.backward(&x), &x);
    }

    #[test]
    #[should_panic(expected = "exceeds input")]
    fn conv_rejects_oversized_kernel() {
        let _ = Conv2d::new(1, 1, 5, 1, 3, 3);
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                ((h % 200) as f32) / 100.0 - 1.0
            })
            .collect()
    }

    /// im2col forward is bit-identical to the scalar loop nest: same
    /// bias-then-ascending-kernel-element accumulation per output.
    #[test]
    fn im2col_forward_is_bit_identical_to_naive() {
        for (in_c, out_c, k, stride, h, w, batch) in [
            (1, 1, 1, 1, 3, 3, 1),
            (2, 3, 3, 1, 8, 8, 2),
            (3, 4, 4, 2, 9, 11, 1),
            (2, 2, 3, 3, 10, 10, 3),
        ] {
            let conv = Conv2d::from_weights(
                in_c,
                out_c,
                k,
                stride,
                h,
                w,
                Tensor::from_vec(&[out_c, in_c * k * k], pseudo(out_c * in_c * k * k, 11)),
                Tensor::from_vec(&[1, out_c], pseudo(out_c, 13)),
            );
            let x = Tensor::from_vec(&[batch, in_c * h * w], pseudo(batch * in_c * h * w, 17));
            let fast = conv.infer(&x);
            let naive = conv.infer_naive(&x);
            let fast_bits: Vec<u32> = fast.data().iter().map(|v| v.to_bits()).collect();
            let naive_bits: Vec<u32> = naive.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                fast_bits, naive_bits,
                "shape ({in_c},{out_c},{k},{stride},{h},{w})"
            );
        }
    }

    /// The GEMM-based backward matches the scalar loop nest within 1e-6 on
    /// every gradient (the col2im scatter regroups additions, so exact bit
    /// equality is not promised for grad_in).
    #[test]
    fn im2col_backward_matches_naive_within_tolerance() {
        for (in_c, out_c, k, stride, h, w, batch) in [
            (1, 2, 2, 1, 4, 4, 1),
            (2, 3, 3, 1, 7, 9, 2),
            (3, 2, 3, 2, 9, 9, 1),
        ] {
            let mut conv = Conv2d::from_weights(
                in_c,
                out_c,
                k,
                stride,
                h,
                w,
                Tensor::from_vec(&[out_c, in_c * k * k], pseudo(out_c * in_c * k * k, 23)),
                Tensor::from_vec(&[1, out_c], pseudo(out_c, 29)),
            );
            let x = Tensor::from_vec(&[batch, in_c * h * w], pseudo(batch * in_c * h * w, 31));
            let dy_len = batch * conv.out_len();
            let dy = Tensor::from_vec(&[batch, conv.out_len()], pseudo(dy_len, 37));
            let _ = conv.forward(&x, true);
            let grad_in = conv.backward(&dy).clone();
            let (want_gi, want_dw, want_db) = conv.backward_naive(&x, &dy);
            let close = |got: &[f32], want: &[f32], what: &str| {
                for (g, w) in got.iter().zip(want) {
                    assert!(
                        (g - w).abs() < 1e-6 * w.abs().max(1.0),
                        "{what} drifted: {g} vs {w}"
                    );
                }
            };
            close(grad_in.data(), want_gi.data(), "grad_in");
            let params = conv.params_mut();
            close(params[0].grad.data(), want_dw.data(), "dW");
            close(params[1].grad.data(), want_db.data(), "db");
        }
    }

    /// Backward reads the live weights: after a direct weight mutation the
    /// next pass reflects it with no cache to invalidate.
    #[test]
    fn backward_reads_live_weights_after_mutation() {
        let mut conv = Conv2d::from_weights(
            1,
            1,
            2,
            1,
            3,
            3,
            Tensor::from_vec(&[1, 4], vec![1.0; 4]),
            Tensor::zeros(&[1, 1]),
        );
        let x = Tensor::row(&pseudo(9, 41));
        let dy = Tensor::row(&pseudo(4, 43));
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&dy);
        for p in conv.params_mut() {
            for v in p.value.data_mut() {
                *v *= 2.0;
            }
            p.zero_grad();
        }
        let _ = conv.forward(&x, true);
        let got = conv.backward(&dy).clone();
        let (want, _, _) = conv.backward_naive(&x, &dy);
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-6, "backward used stale weights");
        }
    }
}
