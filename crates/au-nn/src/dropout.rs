//! Dropout regularization layer.

use crate::layer::{Layer, LayerSpec};
use crate::tensor::Tensor;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`; during
/// deployment (TS mode) the layer is the identity.
///
/// This is the one layer whose behaviour differs between the paper's TR and
/// TS modes, exercising the `train` flag of [`Layer::forward`].
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    /// Deterministic mask source (xorshift), so training runs are
    /// reproducible under a fixed seed.
    state: u64,
    /// Per-element scale of the last training forward; empty when that
    /// forward was the identity (TS mode or `p == 0`).
    mask: Vec<f32>,
    output: Tensor,
    grad_in: Tensor,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            state: 0x9e37_79b9_7f4a_7c15,
            mask: Vec::new(),
            output: Tensor::default(),
            grad_in: Tensor::default(),
        }
    }

    /// Overrides the mask-generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.state = seed | 1;
        self
    }

    fn next_f32(&mut self) -> f32 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        ((x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f32) / (1u32 << 24) as f32
    }
}

/// `out = src ⊙ mask` (or a plain copy for an empty mask).
fn apply_mask(mask: &[f32], src: &Tensor, out: &mut Tensor) {
    out.copy_from(src);
    if !mask.is_empty() {
        for (v, &m) in out.data_mut().iter_mut().zip(mask) {
            *v *= m;
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> &Tensor {
        self.mask.clear();
        if train && self.p > 0.0 {
            let keep = 1.0 - self.p;
            for _ in 0..input.len() {
                let m = if self.next_f32() < self.p {
                    0.0
                } else {
                    1.0 / keep
                };
                self.mask.push(m);
            }
        }
        apply_mask(&self.mask, input, &mut self.output);
        &self.output
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor) {
        // Inverted dropout is the identity in deployment mode.
        out.copy_from(input);
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        apply_mask(&self.mask, grad_out, &mut self.grad_in);
        &self.grad_in
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dropout { p: self.p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_in_test_mode() {
        let mut layer = Dropout::new(0.5);
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(layer.forward(&x, false), &x);
    }

    #[test]
    fn drops_and_rescales_in_train_mode() {
        let mut layer = Dropout::new(0.5).with_seed(3);
        let x = Tensor::row(&[1.0; 1000]);
        let y = layer.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 300 && zeros < 700, "zeros {zeros} far from p=0.5");
        for &v in y.data() {
            assert!(
                v == 0.0 || (v - 2.0).abs() < 1e-6,
                "survivors scaled by 1/(1-p)"
            );
        }
        // Expected value preserved approximately.
        let mean = y.sum() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut layer = Dropout::new(0.5).with_seed(9);
        let x = Tensor::row(&[1.0; 64]);
        let y = layer.forward(&x, true).clone();
        let g = layer.backward(&Tensor::row(&[1.0; 64]));
        for (a, b) in y.data().iter().zip(g.data()) {
            assert_eq!(*a == 0.0, *b == 0.0, "gradient mask matches forward mask");
        }
    }

    #[test]
    fn zero_probability_is_identity_even_training() {
        let mut layer = Dropout::new(0.0);
        let x = Tensor::row(&[5.0, -5.0]);
        assert_eq!(layer.forward(&x, true), &x);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_probability() {
        let _ = Dropout::new(1.0);
    }
}
