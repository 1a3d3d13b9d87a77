//! Fully connected (dense) layer.

use crate::init::xavier;
use crate::layer::{Layer, LayerSpec, Param};
use crate::tensor::Tensor;

/// Index of the weight `[in, out]` in [`Dense`]'s parameters.
const WEIGHT: usize = 0;
/// Index of the bias `[1, out]` in [`Dense`]'s parameters.
const BIAS: usize = 1;

/// A fully connected layer computing `y = x·W + b`.
///
/// Input `[batch, in]`, output `[batch, out]`.
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    /// `[weight, bias]`.
    params: [Param; 2],
    /// Copy of the last training input (`dW = xᵀ·dy` needs it).
    input: Tensor,
    output: Tensor,
    grad_in: Tensor,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        assert!(in_features > 0, "in_features must be positive");
        assert!(out_features > 0, "out_features must be positive");
        Dense::from_weights(
            xavier(in_features, out_features, &[in_features, out_features]),
            Tensor::zeros(&[1, out_features]),
        )
    }

    /// Reconstructs a dense layer from saved weights.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes disagree with the feature counts.
    pub fn from_weights(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().len(), 2, "weight must be 2-D");
        let (in_features, out_features) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(bias.shape(), &[1, out_features], "bias shape mismatch");
        Dense {
            in_features,
            out_features,
            params: [Param::new(weight), Param::new(bias)],
            input: Tensor::default(),
            output: Tensor::default(),
            grad_in: Tensor::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

/// `out = input·W + b` for `params = [W, b]`. Zero-init + GEMM + separate
/// bias row-add: the same operation sequence as `matmul` followed by the
/// bias loop (a fused bias pre-fill would change the per-element
/// accumulation order).
fn affine(params: &[Param; 2], input: &Tensor, out: &mut Tensor) {
    let weight = &params[WEIGHT].value;
    let (in_features, n) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(
        input.row_len(),
        in_features,
        "dense layer expected {} features, got {}",
        in_features,
        input.row_len()
    );
    let batch = input.batch();
    out.resize_zeroed(&[batch, n]);
    crate::kernels::gemm_acc_par(
        out.data_mut(),
        input.data(),
        weight.data(),
        batch,
        in_features,
        n,
    );
    let bias = params[BIAS].value.data();
    for row in out.data_mut().chunks_exact_mut(n) {
        for (o, b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> &Tensor {
        affine(&self.params, input, &mut self.output);
        // The backward pass only needs the input during training.
        if train {
            self.input.copy_from(input);
        }
        &self.output
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor) {
        affine(&self.params, input, out);
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        let (batch, n) = (grad_out.batch(), self.out_features);
        assert_eq!(
            self.input.shape(),
            &[batch, self.in_features],
            "backward called before forward"
        );
        let [weight, bias] = &mut self.params;
        // dW = xᵀ · dy, accumulated straight into the gradient buffer
        // without materializing xᵀ (ascending-sample order).
        crate::kernels::gemm_tn_acc_sparse(
            weight.grad.data_mut(),
            self.input.data(),
            grad_out.data(),
            batch,
            self.in_features,
            n,
        );
        // db = Σ_batch dy
        for row in grad_out.data().chunks_exact(n) {
            for (g, d) in bias.grad.data_mut().iter_mut().zip(row) {
                *g += d;
            }
        }
        // dx = dy · Wᵀ read straight from W's `[in, out]` rows.
        self.grad_in.resize_zeroed(&[batch, self.in_features]);
        crate::kernels::gemm_nt_acc_par(
            self.grad_in.data_mut(),
            grad_out.data(),
            weight.value.data(),
            batch,
            n,
            self.in_features,
        );
        &self.grad_in
    }

    fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.out_features)
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            in_features: self.in_features,
            out_features: self.out_features,
            weight: self.params[WEIGHT].value.clone(),
            bias: self.params[BIAS].value.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_applies_weights_and_bias() {
        let w = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let b = Tensor::row(&[10.0, 20.0]);
        let mut layer = Dense::from_weights(w, b);
        let out = layer.forward(&Tensor::row(&[3.0, 4.0]), false);
        assert_eq!(out.data(), &[13.0, 28.0]);
        assert_eq!(layer.infer(&Tensor::row(&[3.0, 4.0])).data(), &[13.0, 28.0]);
    }

    #[test]
    fn backward_produces_input_grad_and_param_grads() {
        let w = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::row(&[0.0, 0.0]);
        let mut layer = Dense::from_weights(w, b);
        let x = Tensor::row(&[1.0, 1.0]);
        let _ = layer.forward(&x, true);
        let dx = layer.backward(&Tensor::row(&[1.0, 1.0]));
        // dx = dy · Wᵀ = [1+2, 3+4]
        assert_eq!(dx.data(), &[3.0, 7.0]);
        let params = layer.params_mut();
        // dW = xᵀ·dy = all ones; db = dy
        assert_eq!(params[0].grad.data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(params[1].grad.data(), &[1.0, 1.0]);
    }

    #[test]
    fn batched_forward_matches_per_sample() {
        let mut layer = Dense::new(3, 2);
        let a = Tensor::row(&[1.0, 2.0, 3.0]);
        let b = Tensor::row(&[-1.0, 0.5, 2.0]);
        let ya = layer.forward(&a, false).clone();
        let yb = layer.forward(&b, false).clone();
        let batch = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 2.0]]);
        let y = layer.forward(&batch, false);
        assert_eq!(y.row_slice(0), ya.data());
        assert_eq!(y.row_slice(1), yb.data());
    }

    #[test]
    #[should_panic(expected = "expected 3 features")]
    fn forward_rejects_wrong_width() {
        let mut layer = Dense::new(3, 2);
        let _ = layer.forward(&Tensor::row(&[1.0, 2.0]), false);
    }

    #[test]
    fn spec_round_trips_weights() {
        let layer = Dense::new(2, 2);
        match layer.spec() {
            LayerSpec::Dense {
                in_features,
                out_features,
                weight,
                ..
            } => {
                assert_eq!(in_features, 2);
                assert_eq!(out_features, 2);
                assert_eq!(weight, layer.params[WEIGHT].value);
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }
}
