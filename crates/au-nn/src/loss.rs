//! Loss functions.

use crate::tensor::Tensor;

/// A training objective.
///
/// Each variant provides the loss value and the gradient with respect to the
/// network output, averaged over the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loss {
    /// Mean squared error — used by the paper's supervised-learning tasks
    /// (parameter regression).
    Mse,
    /// Huber loss (δ = 1) — the standard choice for DQN temporal-difference
    /// targets; quadratic near zero, linear in the tails.
    Huber,
    /// Softmax cross-entropy over each output row against a one-hot target —
    /// used for discrete action classification.
    SoftmaxCrossEntropy,
}

impl Loss {
    /// Computes the scalar loss for `output` against `target`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn value(self, output: &Tensor, target: &Tensor) -> f32 {
        assert_eq!(output.shape(), target.shape(), "loss shape mismatch");
        let n = output.batch().max(1) as f32;
        match self {
            Loss::Mse => {
                let sum: f32 = output
                    .data()
                    .iter()
                    .zip(target.data())
                    .map(|(o, t)| (o - t) * (o - t))
                    .sum();
                sum / (n * output.row_len().max(1) as f32)
            }
            Loss::Huber => {
                let sum: f32 = output
                    .data()
                    .iter()
                    .zip(target.data())
                    .map(|(o, t)| {
                        let d = (o - t).abs();
                        if d <= 1.0 {
                            0.5 * d * d
                        } else {
                            d - 0.5
                        }
                    })
                    .sum();
                sum / (n * output.row_len().max(1) as f32)
            }
            Loss::SoftmaxCrossEntropy => {
                let mut total = 0.0;
                for b in 0..output.batch() {
                    let probs = softmax(output.row_slice(b));
                    for (p, &t) in probs.iter().zip(target.row_slice(b)) {
                        if t > 0.0 {
                            total -= t * p.max(1e-12).ln();
                        }
                    }
                }
                total / n
            }
        }
    }

    /// Gradient of the loss with respect to `output`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn gradient(self, output: &Tensor, target: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.gradient_into(output, target, &mut out);
        out
    }

    /// [`Loss::gradient`] written into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn gradient_into(self, output: &Tensor, target: &Tensor, out: &mut Tensor) {
        assert_eq!(output.shape(), target.shape(), "loss shape mismatch");
        let n = output.batch().max(1) as f32;
        let k = output.row_len().max(1) as f32;
        out.resize_zeroed(output.shape());
        let pairs = output.data().iter().zip(target.data());
        match self {
            Loss::Mse => {
                for (g, (o, t)) in out.data_mut().iter_mut().zip(pairs) {
                    *g = 2.0 * (o - t) / (n * k);
                }
            }
            Loss::Huber => {
                for (g, (o, t)) in out.data_mut().iter_mut().zip(pairs) {
                    *g = (o - t).clamp(-1.0, 1.0) / (n * k);
                }
            }
            Loss::SoftmaxCrossEntropy => {
                let row_len = output.row_len();
                for ((grow, orow), trow) in out
                    .data_mut()
                    .chunks_exact_mut(row_len.max(1))
                    .zip(output.data().chunks_exact(row_len.max(1)))
                    .zip(target.data().chunks_exact(row_len.max(1)))
                {
                    softmax_into(orow, grow);
                    for (g, &t) in grow.iter_mut().zip(trow) {
                        *g = (*g - t) / n;
                    }
                }
            }
        }
    }
}

/// Numerically stable softmax over a slice.
pub(crate) fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; xs.len()];
    softmax_into(xs, &mut out);
    out
}

/// [`softmax`] written into `out` (same length as `xs`).
fn softmax_into(xs: &[f32], out: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for (e, x) in out.iter_mut().zip(xs) {
        *e = (x - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum.max(1e-12);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_target() {
        let o = Tensor::row(&[1.0, 2.0]);
        assert_eq!(Loss::Mse.value(&o, &o), 0.0);
    }

    #[test]
    fn mse_gradient_direction() {
        let o = Tensor::row(&[2.0]);
        let t = Tensor::row(&[1.0]);
        let g = Loss::Mse.gradient(&o, &t);
        assert!(g.data()[0] > 0.0);
        assert!((g.data()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn huber_is_clamped_in_tails() {
        let o = Tensor::row(&[10.0]);
        let t = Tensor::row(&[0.0]);
        let g = Loss::Huber.gradient(&o, &t);
        assert_eq!(g.data()[0], 1.0);
        // value grows linearly, not quadratically
        assert!((Loss::Huber.value(&o, &t) - 9.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn cross_entropy_gradient_points_toward_target() {
        let o = Tensor::row(&[0.0, 0.0]);
        let t = Tensor::row(&[1.0, 0.0]);
        let g = Loss::SoftmaxCrossEntropy.gradient(&o, &t);
        assert!(g.data()[0] < 0.0, "target class gradient pushes logit up");
        assert!(g.data()[1] > 0.0);
    }

    #[test]
    fn cross_entropy_value_decreases_with_confidence() {
        let t = Tensor::row(&[1.0, 0.0]);
        let low = Loss::SoftmaxCrossEntropy.value(&Tensor::row(&[0.0, 0.0]), &t);
        let high = Loss::SoftmaxCrossEntropy.value(&Tensor::row(&[5.0, 0.0]), &t);
        assert!(high < low);
    }

    #[test]
    fn batch_averaging() {
        let o = Tensor::from_rows(&[&[1.0], &[1.0]]);
        let t = Tensor::from_rows(&[&[0.0], &[0.0]]);
        let single = Loss::Mse.value(&Tensor::row(&[1.0]), &Tensor::row(&[0.0]));
        assert!((Loss::Mse.value(&o, &t) - single).abs() < 1e-6);
    }
}
