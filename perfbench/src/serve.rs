//! The `serve` workload: a deployed model answering prediction requests.
//!
//! The model is the repository's serving reference, a 64→256→256→4 dense
//! network put in `Mode::Test`. Requests come from a pool drawn from the
//! seed: exactly 70% one-row, 25% eight-row and 5% 64-row requests in a
//! seeded order, each on the f64 or the f32 API with equal odds. The class
//! mix puts p50, p90 and p99 each well inside one class. Every response is
//! compared bit for bit with a scalar `predict_f32` reference, computed once
//! before the timed setup (which only deploys the model).

use crate::probe::{self, elapsed_ns, Probe};
use crate::{Op, Samples, SplitMix64, Workload};
use au_core::{Engine, EngineHandle, Mode, ModelConfig};
use au_nn::{Network, Tensor};
use std::time::Instant;

/// Names of the request classes, by rows per request.
pub const CLASSES: [&str; 3] = ["b1", "b8", "b64"];
const ROWS: [usize; 3] = [1, 8, 64];
/// Requests of each class in the pool: 70%, 25% and 5% of 2000.
const POOL: [usize; 3] = [1400, 500, 100];
const FEATURES: usize = 64;
const OUTPUTS: usize = 4;
const MODEL: &str = "M";

/// Floating-point operations of one forward pass per row: two per
/// multiply-add of each dense layer's GEMM.
const FLOPS_PER_ROW: f64 = 2.0 * (64.0 * 256.0 + 256.0 * 256.0 + 256.0 * 4.0);

struct Request {
    class: usize,
    f32_api: bool,
    /// Row-major `[rows × FEATURES]`.
    x32: Vec<f32>,
    /// Scalar `predict_f32` outputs, row-major `[rows × OUTPUTS]`.
    expected: Vec<f32>,
}

enum Response {
    F32(Vec<f32>),
    F64(Vec<f64>),
    Rows(Vec<Vec<f64>>),
}

impl Response {
    /// Bit-for-bit equality with the f32 reference (f64 answers must be
    /// its exact widening).
    fn matches(&self, expected: &[f32]) -> bool {
        let widened = |v: &f32| f64::from(*v).to_bits();
        match self {
            Response::F32(y) => {
                y.len() == expected.len()
                    && y.iter()
                        .zip(expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            Response::F64(y) => {
                y.len() == expected.len()
                    && y.iter()
                        .zip(expected)
                        .all(|(a, b)| a.to_bits() == widened(b))
            }
            Response::Rows(rows) => {
                rows.iter().map(Vec::len).sum::<usize>() == expected.len()
                    && rows
                        .iter()
                        .flatten()
                        .zip(expected)
                        .all(|(a, b)| a.to_bits() == widened(b))
            }
        }
    }
}

/// Builds the deployed reference model: one cheap training epoch fixes
/// the 64→256→256→4 shape, then the engine switches to `Mode::Test`.
fn deployed_model() -> Engine {
    au_nn::set_init_seed(11);
    let mut engine = Engine::new(Mode::Train);
    engine
        .au_config(MODEL, ModelConfig::dnn(&[256, 256]))
        .expect("the reference model configures");
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..FEATURES)
                .map(|j| ((i + j) % 16) as f64 / 16.0)
                .collect()
        })
        .collect();
    let ys: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i) / 8.0; OUTPUTS]).collect();
    engine
        .train_supervised(MODEL, &xs, &ys, 1)
        .expect("the reference model trains");
    engine.set_mode(Mode::Test);
    engine
}

/// The `serve` workload.
pub struct Serve {
    handle: EngineHandle,
    requests: Vec<Request>,
    next: usize,
    /// Index of the request the last op served.
    last: usize,
    /// The served network, loaded from the engine's saved model for the
    /// direct `Network::infer` timing of the traced run.
    net: Option<Network>,
}

impl Serve {
    /// Draws the request pool from `seed` and computes every row's scalar
    /// reference on a model deployed for the purpose; the timed
    /// [`Workload::setup`] deploys the one that serves.
    pub fn new(seed: u64) -> Serve {
        let handle = deployed_model().into_handle();
        let mut rng = SplitMix64::new(seed);
        let mut classes: Vec<usize> = POOL
            .iter()
            .enumerate()
            .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
            .collect();
        rng.shuffle(&mut classes);
        let requests = classes
            .into_iter()
            .map(|class| {
                let f32_api = rng.next_u64() & 1 == 1;
                let x32: Vec<f32> = (0..ROWS[class] * FEATURES)
                    .map(|_| rng.unit_f32())
                    .collect();
                let expected = x32
                    .chunks(FEATURES)
                    .flat_map(|row| {
                        handle
                            .predict_f32(MODEL, row)
                            .expect("the reference model serves")
                    })
                    .collect();
                Request {
                    class,
                    f32_api,
                    x32,
                    expected,
                }
            })
            .collect();
        Serve {
            handle,
            requests,
            next: 0,
            last: 0,
            net: None,
        }
    }

    /// Serves `req`; `x64` holds its rows widened when it uses the f64 API.
    fn serve(&self, req: &Request, x64: &[Vec<f64>]) -> Result<Response, au_core::AuError> {
        let _s = probe::span("core.predict");
        match (ROWS[req.class] == 1, req.f32_api) {
            (true, true) => self.handle.predict_f32(MODEL, &req.x32).map(Response::F32),
            (true, false) => self.handle.predict(MODEL, &x64[0]).map(Response::F64),
            (false, true) => self
                .handle
                .predict_batch_f32(MODEL, &req.x32)
                .map(Response::F32),
            (false, false) => self.handle.predict_batch(MODEL, x64).map(Response::Rows),
        }
    }

    /// Saves the served model inside the working directory and loads it
    /// back as a bare network, removing the files again.
    fn load_served_network(&self) -> Network {
        let dir = std::env::current_dir()
            .expect("a working directory")
            .join(format!("perfbench.tmp.{}", std::process::id()));
        self.handle.set_model_dir(&dir);
        self.handle
            .save_model(MODEL)
            .expect("the served model saves");
        let net = Network::load(dir.join(format!("{MODEL}.json"))).expect("the saved model loads");
        let _ = std::fs::remove_dir_all(&dir);
        net
    }
}

impl Workload for Serve {
    /// Deploys the model that serves the requests.
    fn setup(&mut self) {
        self.handle = deployed_model().into_handle();
    }

    fn op(&mut self) -> Op {
        let i = self.next;
        self.next = (i + 1) % self.requests.len();
        self.last = i;
        let req = &self.requests[i];
        // The f64 API's rows are widened before the timed part.
        let x64: Vec<Vec<f64>> = if req.f32_api {
            Vec::new()
        } else {
            req.x32
                .chunks(FEATURES)
                .map(|row| row.iter().map(|&v| f64::from(v)).collect())
                .collect()
        };
        let (response, ns) = probe::timed_root("request", || self.serve(req, &x64));
        Op {
            ns,
            work: ROWS[req.class] as u64,
            class: req.class,
            ok: response.is_ok_and(|r| r.matches(&req.expected)),
        }
    }

    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn gemm_flops(&self, op: &Op) -> f64 {
        op.work as f64 * FLOPS_PER_ROW
    }

    /// Times `Network::infer` on the same rows as the request just served;
    /// the request's latency minus that is the au-core serving overhead.
    fn record(&mut self, op: &Op, _probe: &Probe, samples: &mut Samples) {
        if self.net.is_none() {
            self.net = Some(self.load_served_network());
        }
        let net = self.net.as_ref().expect("loaded above");
        let req = &self.requests[self.last];
        let batch = Tensor::from_vec(&[ROWS[req.class], FEATURES], req.x32.clone());
        let start = Instant::now();
        let _output = net.infer(&batch);
        let infer_ns = elapsed_ns(start);
        let class = CLASSES[req.class];
        samples.push(&format!("nn.infer_us.{class}"), infer_ns as f64 / 1e3);
        samples.push(
            &format!("core.predict_overhead_us.{class}"),
            (op.ns as f64 - infer_ns as f64) / 1e3,
        );
    }

    fn corrupt_oracle(&mut self) {
        let first = &mut self.requests[0].expected[0];
        *first = f32::from_bits(first.to_bits() ^ 1);
    }
}
