//! Model configuration and backends (the model store θ).

use crate::error::AuError;
use au_nn::rl::{DqnAgent, DqnConfig, Transition};
use au_nn::{Activation, Adam, InferScratch, Loss, Network, Tensor};
use std::cell::RefCell;
use std::sync::Arc;

/// Model architecture family (`ModelType δ` in Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Fully connected network over flat features.
    Dnn,
    /// Convolutional network over raw pixel frames — the paper's `Raw`
    /// baseline architecture (conv → pool layers before the dense head).
    Cnn,
}

/// Learning algorithm (`Algorithm α` in Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Q-learning (reinforcement learning).
    QLearn,
    /// Adam-optimized supervised regression.
    AdamOpt,
}

/// Declarative model configuration passed to `au_config`.
///
/// Mirrors `@au_config(modelName, modelType, algo, layers, n1, …)`: the
/// hidden-layer widths are explicit while the input and output layer sizes
/// are computed automatically from the first data that reaches the model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Architecture family.
    pub kind: ModelKind,
    /// Learning algorithm.
    pub algorithm: Algorithm,
    /// Hidden dense-layer widths (the paper's `n1, n2, …`).
    pub hidden: Vec<usize>,
    /// Learning rate.
    pub learning_rate: f32,
    /// For [`ModelKind::Cnn`]: input frame shape `(channels, h, w)`.
    pub frame: Option<(usize, usize, usize)>,
    /// For [`Algorithm::QLearn`]: DQN hyperparameters (replay, ε, γ, …).
    pub dqn: DqnConfig,
}

impl ModelConfig {
    /// A supervised DNN (`au_config(name, DNN, AdamOpt, …)`), as used by all
    /// four SL benchmarks.
    pub fn dnn(hidden: &[usize]) -> Self {
        ModelConfig {
            kind: ModelKind::Dnn,
            algorithm: Algorithm::AdamOpt,
            hidden: hidden.to_vec(),
            learning_rate: 1e-3,
            frame: None,
            dqn: DqnConfig::default(),
        }
    }

    /// A Q-learning DNN over internal program state
    /// (`au_config(name, DNN, QLearn, …)`) — the paper's `All` RL setting.
    pub fn q_dnn(hidden: &[usize]) -> Self {
        let dqn = DqnConfig {
            hidden: hidden.to_vec(),
            ..DqnConfig::default()
        };
        ModelConfig {
            kind: ModelKind::Dnn,
            algorithm: Algorithm::QLearn,
            hidden: hidden.to_vec(),
            learning_rate: 1e-3,
            frame: None,
            dqn,
        }
    }

    /// A Q-learning CNN over raw frames — the paper's DeepMind-style `Raw`
    /// RL setting (`au_config(name, CNN, QLearn, …)`).
    pub fn q_cnn(channels: usize, h: usize, w: usize, hidden: &[usize]) -> Self {
        let mut cfg = ModelConfig::q_dnn(hidden);
        cfg.kind = ModelKind::Cnn;
        cfg.frame = Some((channels, h, w));
        cfg
    }

    /// A supervised CNN over raw frames — the SL `Raw` setting.
    pub fn cnn(channels: usize, h: usize, w: usize, hidden: &[usize]) -> Self {
        let mut cfg = ModelConfig::dnn(hidden);
        cfg.kind = ModelKind::Cnn;
        cfg.frame = Some((channels, h, w));
        cfg
    }

    /// Overrides the learning rate.
    pub fn with_learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Overrides the DQN hyperparameters (QLearn models only).
    pub fn with_dqn(mut self, dqn: DqnConfig) -> Self {
        self.dqn = dqn;
        self
    }

    /// Builds the network for a given input/output width.
    pub(crate) fn build_network(&self, inputs: usize, outputs: usize) -> Network {
        match (self.kind, self.frame) {
            (ModelKind::Cnn, Some((c, h, w))) => {
                assert_eq!(c * h * w, inputs, "frame shape must match input width");
                // DeepMind-style preprocessing: conv+pool, conv, then the
                // configured dense head (Section 2: "three convolution
                // layers, each followed by a max pooling layer, and finally
                // two hidden layers"). We scale this down to two conv stages
                // since our frames are already small.
                let mut b = Network::builder(inputs)
                    .conv2d(c, h, w, 4, 3, 1)
                    .activation(Activation::Relu);
                let (h2, w2) = (h - 2, w - 2);
                b = b.max_pool2d(4, h2, w2, 2);
                let (h3, w3) = (h2 / 2, w2 / 2);
                b = b
                    .conv2d(4, h3, w3, 8, 3, 1)
                    .activation(Activation::Relu)
                    .flatten();
                for &n in &self.hidden {
                    b = b.dense(n).activation(Activation::Relu);
                }
                b.dense(outputs).build()
            }
            _ => {
                let mut b = Network::builder(inputs);
                for &n in &self.hidden {
                    b = b.dense(n).activation(Activation::Relu);
                }
                b.dense(outputs).build()
            }
        }
    }
}

/// Size and training statistics for a model — the raw material of the
/// paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Scalar parameter count.
    pub param_count: usize,
    /// Parameter bytes (`param_count × 4`).
    pub model_bytes: usize,
    /// Gradient/learning steps taken so far.
    pub train_steps: u64,
}

/// A live model instance: either a supervised regressor or a DQN agent.
///
/// The supervised network sits behind an `Arc` so the serving paths
/// (`predict_batch`'s pool jobs, snapshot readers) can clone a handle out
/// of the registry lock in O(1); training goes through [`net_mut`], which
/// rebuilds the network copy-on-write only when a snapshot is still alive.
#[derive(Debug)]
pub(crate) enum Backend {
    Supervised {
        net: Arc<Network>,
        opt: Adam,
        train_steps: u64,
    },
    Reinforcement {
        agent: Box<DqnAgent>,
        /// Pending (state, action) awaiting the next reward to complete a
        /// transition.
        pending: Option<(Vec<f32>, usize)>,
        train_steps: u64,
    },
}

/// A configured model: configuration plus a lazily built backend
/// (input/output widths become known at the first `au_NN` call).
#[derive(Debug)]
pub(crate) struct ModelInstance {
    pub config: ModelConfig,
    pub backend: Option<Backend>,
}

impl ModelInstance {
    pub fn new(config: ModelConfig) -> Self {
        ModelInstance {
            config,
            backend: None,
        }
    }

    /// Ensures a supervised backend of the given shape exists.
    pub fn ensure_supervised(
        &mut self,
        name: &str,
        inputs: usize,
        outputs: usize,
    ) -> Result<&mut Backend, AuError> {
        if self.config.algorithm != Algorithm::AdamOpt {
            return Err(AuError::WrongAlgorithm {
                model: name.to_owned(),
                expected: "supervised",
            });
        }
        if self.backend.is_none() {
            let net = Arc::new(self.config.build_network(inputs, outputs));
            let opt = Adam::new(self.config.learning_rate);
            self.backend = Some(Backend::Supervised {
                net,
                opt,
                train_steps: 0,
            });
        }
        match self.backend.as_mut().expect("just ensured") {
            Backend::Supervised { net, .. } => {
                if net.in_features() != inputs {
                    return Err(AuError::InputSizeChanged {
                        model: name.to_owned(),
                        built: net.in_features(),
                        got: inputs,
                    });
                }
            }
            Backend::Reinforcement { .. } => {
                return Err(AuError::WrongAlgorithm {
                    model: name.to_owned(),
                    expected: "supervised",
                })
            }
        }
        Ok(self.backend.as_mut().expect("just ensured"))
    }

    /// Ensures a reinforcement backend of the given shape exists.
    pub fn ensure_reinforcement(
        &mut self,
        name: &str,
        inputs: usize,
        n_actions: usize,
    ) -> Result<&mut Backend, AuError> {
        if self.config.algorithm != Algorithm::QLearn {
            return Err(AuError::WrongAlgorithm {
                model: name.to_owned(),
                expected: "reinforcement",
            });
        }
        if self.backend.is_none() {
            let mut dqn = self.config.dqn.clone();
            dqn.hidden = self.config.hidden.clone();
            let agent = match self.config.kind {
                ModelKind::Dnn => DqnAgent::new(inputs, n_actions, dqn),
                ModelKind::Cnn => {
                    let net = self.config.build_network(inputs, n_actions);
                    DqnAgent::with_network(inputs, n_actions, dqn, net)
                }
            };
            self.backend = Some(Backend::Reinforcement {
                agent: Box::new(agent),
                pending: None,
                train_steps: 0,
            });
        }
        match self.backend.as_mut().expect("just ensured") {
            Backend::Reinforcement { agent, .. } => {
                if agent.state_dim() != inputs {
                    return Err(AuError::InputSizeChanged {
                        model: name.to_owned(),
                        built: agent.state_dim(),
                        got: inputs,
                    });
                }
                if agent.n_actions() != n_actions {
                    return Err(AuError::ActionCountChanged {
                        model: name.to_owned(),
                        built: agent.n_actions(),
                        got: n_actions,
                    });
                }
            }
            Backend::Supervised { .. } => {
                return Err(AuError::WrongAlgorithm {
                    model: name.to_owned(),
                    expected: "reinforcement",
                })
            }
        }
        Ok(self.backend.as_mut().expect("just ensured"))
    }

    /// Current statistics, if the backend has been built.
    pub fn stats(&mut self) -> Option<ModelStats> {
        match self.backend.as_mut()? {
            Backend::Supervised {
                net, train_steps, ..
            } => {
                let n = net_mut(net).param_count();
                Some(ModelStats {
                    param_count: n,
                    model_bytes: n * 4,
                    train_steps: *train_steps,
                })
            }
            Backend::Reinforcement {
                agent, train_steps, ..
            } => {
                let n = agent.network_mut().param_count();
                Some(ModelStats {
                    param_count: n,
                    model_bytes: n * 4,
                    train_steps: *train_steps,
                })
            }
        }
    }
}

/// Unique access to a shared supervised network, copy-on-write.
///
/// Training mutates the network in place when no inference snapshot holds
/// a second `Arc`; if serving overlaps training, the network is rebuilt
/// once (via `deep_clone`) and the snapshot keeps the old weights — the
/// same isolation the paper gets from its separate TR/TS processes.
pub(crate) fn net_mut(net: &mut Arc<Network>) -> &mut Network {
    if Arc::get_mut(net).is_none() {
        *net = Arc::new(net.deep_clone());
    }
    Arc::get_mut(net).expect("unique after copy-on-write rebuild")
}

/// Runs one supervised gradient step: trains `net` to map `input` to
/// `label` (Fig. 8 rule TRAIN's `gradient` statement).
pub(crate) fn supervised_step(
    net: &mut Network,
    opt: &mut Adam,
    input: &[f64],
    label: &[f64],
) -> f32 {
    let x = Tensor::row(&to_f32(input));
    let y = Tensor::row(&to_f32(label));
    net.train_batch(&x, &y, Loss::Mse, opt)
}

thread_local! {
    /// Per-thread single-row inference scratch: the input row tensor, the
    /// layer-output ping-pong buffers, and the f64→f32 conversion buffer.
    /// Reusing them makes the steady-state serve path allocation-free.
    static ROW_SCRATCH: RefCell<(Tensor, InferScratch, Vec<f32>)> =
        RefCell::new((Tensor::default(), InferScratch::default(), Vec::new()));
}

/// The native-`f32` serving core: runs the model on one feature row,
/// appending the outputs to `out`. All buffers come from thread-local
/// scratch, so the steady state performs zero heap allocations.
pub(crate) fn run_model_f32_into(net: &Network, input: &[f32], out: &mut Vec<f32>) {
    ROW_SCRATCH.with(|cell| {
        let (row, scratch, _) = &mut *cell.borrow_mut();
        row.set_row(input);
        let y = net.infer_reusing(row, scratch);
        out.extend_from_slice(y.data());
    });
}

/// Runs the model on `input` (Fig. 8's `runModel` statement). Uses the
/// pure `&self` inference path so deployment-mode callers can share the
/// network behind a read lock.
///
/// Runs the same scratch-buffer `f32` core as [`run_model_f32_into`] with
/// exactly one narrowing conversion on the way in and one (exact) widening
/// on the way out — the same two conversions the old all-allocating path
/// performed, so results are bit-identical to it.
pub(crate) fn run_model_ref(net: &Network, input: &[f64]) -> Vec<f64> {
    ROW_SCRATCH.with(|cell| {
        let (row, scratch, conv) = &mut *cell.borrow_mut();
        conv.clear();
        conv.extend(input.iter().map(|&v| v as f32));
        row.set_row(conv);
        let y = net.infer_reusing(row, scratch);
        y.data().iter().map(|&v| f64::from(v)).collect()
    })
}

/// Feeds one RL step to the agent: completes the pending transition with
/// `reward`/`terminal`, then selects the next action for `state`.
pub(crate) fn rl_step(
    agent: &mut DqnAgent,
    pending: &mut Option<(Vec<f32>, usize)>,
    state: &[f64],
    reward: f64,
    terminal: bool,
    train: bool,
) -> usize {
    let state32 = to_f32(state);
    if train {
        if let Some((prev_state, prev_action)) = pending.take() {
            agent.observe(Transition {
                state: prev_state,
                action: prev_action,
                reward: reward as f32,
                next_state: state32.clone(),
                terminal,
            });
        }
    }
    let action = if train {
        agent.select_action(&state32)
    } else {
        agent.greedy_action(&state32)
    };
    // Only training mode accumulates transitions; a TS-mode step must not
    // leave a stale pending pair that would pollute later training.
    if terminal || !train {
        *pending = None;
    } else {
        *pending = Some((state32, action));
    }
    action
}

pub(crate) fn to_f32(xs: &[f64]) -> Vec<f32> {
    xs.iter().map(|&x| x as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dnn_config_builds_expected_shape() {
        let cfg = ModelConfig::dnn(&[256, 64]);
        let mut net = cfg.build_network(10, 3);
        assert_eq!(net.in_features(), 10);
        assert_eq!(net.out_features(), 3);
        assert!(net.param_count() > 10 * 256);
    }

    #[test]
    fn cnn_config_builds_conv_stack() {
        let cfg = ModelConfig::q_cnn(1, 16, 16, &[32]);
        let net = cfg.build_network(256, 4);
        assert_eq!(net.in_features(), 256);
        assert_eq!(net.out_features(), 4);
        // A conv stack has strictly more layers than the dense equivalent.
        assert!(net.depth() > 4);
    }

    #[test]
    #[should_panic(expected = "frame shape")]
    fn cnn_rejects_mismatched_frame() {
        let cfg = ModelConfig::q_cnn(1, 16, 16, &[32]);
        let _ = cfg.build_network(100, 4);
    }

    #[test]
    fn instance_rejects_algorithm_mismatch() {
        let mut inst = ModelInstance::new(ModelConfig::dnn(&[8]));
        assert!(matches!(
            inst.ensure_reinforcement("m", 4, 2),
            Err(AuError::WrongAlgorithm { .. })
        ));
        let mut inst = ModelInstance::new(ModelConfig::q_dnn(&[8]));
        assert!(matches!(
            inst.ensure_supervised("m", 4, 2),
            Err(AuError::WrongAlgorithm { .. })
        ));
    }

    #[test]
    fn instance_detects_input_size_change() {
        let mut inst = ModelInstance::new(ModelConfig::dnn(&[4]));
        inst.ensure_supervised("m", 3, 1).unwrap();
        assert!(matches!(
            inst.ensure_supervised("m", 5, 1),
            Err(AuError::InputSizeChanged {
                built: 3,
                got: 5,
                ..
            })
        ));
    }

    #[test]
    fn stats_reflect_backend() {
        let mut inst = ModelInstance::new(ModelConfig::dnn(&[4]));
        assert!(inst.stats().is_none());
        inst.ensure_supervised("m", 2, 1).unwrap();
        let stats = inst.stats().unwrap();
        assert_eq!(stats.param_count, 2 * 4 + 4 + 4 + 1);
        assert_eq!(stats.model_bytes, stats.param_count * 4);
    }

    #[test]
    fn rl_step_completes_transitions() {
        let dqn = DqnConfig {
            hidden: vec![8],
            batch_size: 2,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(1, 2, dqn);
        let mut pending = None;
        let a1 = rl_step(&mut agent, &mut pending, &[0.0], 0.0, false, true);
        assert!(a1 < 2);
        assert!(pending.is_some());
        let _ = rl_step(&mut agent, &mut pending, &[1.0], 1.0, true, true);
        assert!(pending.is_none(), "terminal clears the pending transition");
    }
}
