//! The single-owner facade over the layered Autonomizer runtime.
//!
//! [`Engine`] keeps the original exclusive-ownership API (`&mut self`
//! primitives) that host programs, AuLang, and the benchmark harnesses were
//! written against, while delegating every operation to a
//! [`crate::EngineHandle`] — the cloneable, `&self` entry point for
//! concurrent serving. Call [`Engine::handle`] to fan the same runtime out
//! across threads.

use crate::error::AuError;
use crate::handle::{Checkpoint, DbRef, EngineHandle, Mode};
use crate::model::{ModelConfig, ModelStats};
use au_nn::Network;
use std::path::PathBuf;

/// The Autonomizer runtime: database store π, model store θ, and the
/// primitive operations of the paper's execution model.
///
/// One engine serves one program; it supports multiple named model instances
/// (the paper: "Autonomizer supports multiple model instances in one
/// execution"). Internally this is a thin facade over [`EngineHandle`];
/// [`Engine::handle`] exposes the shared runtime for multi-threaded serving.
#[derive(Debug)]
pub struct Engine {
    handle: EngineHandle,
}

impl Engine {
    /// Creates an engine in the given mode.
    pub fn new(mode: Mode) -> Self {
        Engine {
            handle: EngineHandle::new(mode),
        }
    }

    /// A cloneable handle to this engine's shared runtime. Clones serve
    /// predictions concurrently from `&self`; they observe (and make)
    /// exactly the same state changes as calls through this facade.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Consumes the facade, returning the underlying handle.
    pub fn into_handle(self) -> EngineHandle {
        self.handle
    }

    /// Current execution mode.
    pub fn mode(&self) -> Mode {
        self.handle.mode()
    }

    /// Switches mode (e.g. finish training, then deploy in the same
    /// process — the in-process equivalent of the paper's two executables).
    pub fn set_mode(&mut self, mode: Mode) {
        self.handle.set_mode(mode);
    }

    /// Directory used to persist and load trained models.
    pub fn set_model_dir(&mut self, dir: impl Into<PathBuf>) {
        self.handle.set_model_dir(dir);
    }

    /// Read access to the database store π. Returns a lock guard — drop it
    /// before the next primitive call.
    pub fn db(&self) -> DbRef<'_> {
        self.handle.db()
    }

    // ------------------------------------------------------------------
    // Primitives (see EngineHandle for the full rule-by-rule docs)
    // ------------------------------------------------------------------

    /// `@au_config(modelName, modelType, algo, layers, n1, …)` — rules
    /// CONFIG-TRAIN and CONFIG-TEST.
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is taken by a *different*
    /// configuration; [`AuError::ModelNotTrained`] in TS mode when no saved
    /// model exists; [`AuError::Backend`] if a saved model fails to parse.
    pub fn au_config(&mut self, name: &str, config: ModelConfig) -> Result<(), AuError> {
        self.handle.au_config(name, config)
    }

    /// `au_config` with a caller-built network — the paper's escape hatch
    /// for arbitrary architectures.
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is already configured.
    pub fn au_config_custom(
        &mut self,
        name: &str,
        algorithm: crate::model::Algorithm,
        network: Network,
    ) -> Result<(), AuError> {
        self.handle.au_config_custom(name, algorithm, network)
    }

    /// Persists the database store π to a JSON file.
    ///
    /// # Errors
    ///
    /// [`AuError::Backend`] on I/O failure.
    pub fn save_db(&self, path: impl AsRef<std::path::Path>) -> Result<(), AuError> {
        self.handle.save_db(path)
    }

    /// Loads a database store saved by [`Engine::save_db`], replacing π.
    ///
    /// # Errors
    ///
    /// [`AuError::Backend`] on I/O failure or malformed content.
    pub fn load_db(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), AuError> {
        self.handle.load_db(path)
    }

    /// `@au_extract(extName, size, data)` — rule EXTRACT.
    pub fn au_extract(&mut self, name: &str, values: &[f64]) {
        self.handle.au_extract(name, values);
    }

    /// `@au_extract` for native-`f32` feature vectors — see
    /// [`EngineHandle::au_extract_f32`].
    pub fn au_extract_f32(&mut self, name: &str, values: &[f32]) {
        self.handle.au_extract_f32(name, values);
    }

    /// Extracts a staged [`crate::FeatureBuffer`] under `name` and clears
    /// the buffer, keeping its allocation for the next frame.
    pub fn au_extract_buffer(&mut self, name: &str, buf: &mut crate::FeatureBuffer) {
        self.handle.au_extract_buffer(name, buf);
    }

    /// Lifetime count of scalars extracted through [`Engine::au_extract`]
    /// (the paper's Table 2 trace-size metric; survives restores).
    pub fn total_extracted(&self) -> u64 {
        self.handle.total_extracted()
    }

    /// `@au_serialize(t1, t2, …)` — rule SERIALIZE. Component lists are
    /// consumed; returns the combined name.
    pub fn au_serialize(&mut self, names: &[&str]) -> String {
        self.handle.au_serialize(names)
    }

    /// `@au_NN(modelName, extName, wbName1, …)` for supervised models —
    /// rules TRAIN and TEST.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::MissingData`], or
    /// [`AuError::WrongAlgorithm`] — see [`EngineHandle::au_nn`].
    pub fn au_nn(&mut self, model: &str, ext: &str, wbs: &[&str]) -> Result<Vec<f64>, AuError> {
        self.handle.au_nn(model, ext, wbs)
    }

    /// `@au_NN(modelName, extName, reward, term, wbName)` for Q-learning
    /// models — the RL form used by the paper's game loop (Fig. 2).
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::MissingData`], or
    /// [`AuError::WrongAlgorithm`] — see [`EngineHandle::au_nn_rl`].
    pub fn au_nn_rl(
        &mut self,
        model: &str,
        ext: &str,
        reward: f64,
        terminal: bool,
        wb: &str,
        n_actions: usize,
    ) -> Result<usize, AuError> {
        self.handle
            .au_nn_rl(model, ext, reward, terminal, wb, n_actions)
    }

    /// `@au_write_back(wbName, size, x)` — rule WRITE-BACK.
    ///
    /// # Errors
    ///
    /// [`AuError::MissingData`] if π(`name`) holds fewer values than
    /// requested.
    pub fn au_write_back(&mut self, name: &str, dst: &mut [f64]) -> Result<(), AuError> {
        self.handle.au_write_back(name, dst)
    }

    /// Scalar convenience form of [`Engine::au_write_back`].
    ///
    /// # Errors
    ///
    /// [`AuError::MissingData`] if π(`name`) is empty.
    pub fn au_write_back_scalar(&mut self, name: &str) -> Result<f64, AuError> {
        self.handle.au_write_back_scalar(name)
    }

    /// `@au_checkpoint()` over π only — rule CHECKPOINT.
    pub fn au_checkpoint(&mut self) {
        self.handle.au_checkpoint();
    }

    /// `@au_restore()` over π only — rule RESTORE. θ is untouched.
    ///
    /// # Errors
    ///
    /// [`AuError::NoCheckpoint`] if no checkpoint exists (e.g. after
    /// `pop_checkpoint` emptied the stack).
    pub fn au_restore(&mut self) -> Result<(), AuError> {
        self.handle.au_restore()
    }

    /// Discards the most recent checkpoint (a no-op on an empty stack).
    pub fn pop_checkpoint(&mut self) {
        self.handle.pop_checkpoint();
    }

    /// Combined ⟨σ, π⟩ checkpoint: clones the host program state `S`
    /// together with π.
    pub fn checkpoint_with<S: Clone>(&self, program: &S) -> Checkpoint<S> {
        self.handle.checkpoint_with(program)
    }

    /// Restores a combined checkpoint, returning the program state to
    /// reinstall. θ is untouched.
    pub fn restore_with<S: Clone>(&mut self, ckpt: &Checkpoint<S>) -> S {
        self.handle.restore_with(ckpt)
    }

    // ------------------------------------------------------------------
    // Model persistence and experiment support
    // ------------------------------------------------------------------

    /// Persists a trained model (plus its output-split sidecar) to the
    /// model directory so a TS-mode run can `au_config`-load it.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::ModelNotTrained`], or
    /// [`AuError::Backend`] on I/O failure.
    pub fn save_model(&mut self, name: &str) -> Result<(), AuError> {
        self.handle.save_model(name)
    }

    /// Offline supervised training over a dataset. Returns the mean loss of
    /// the final epoch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::au_nn`].
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` lengths differ or the dataset is empty.
    pub fn train_supervised(
        &mut self,
        model: &str,
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
        epochs: usize,
    ) -> Result<f64, AuError> {
        self.handle.train_supervised(model, xs, ys, epochs)
    }

    /// Direct prediction bypassing π — used by experiment harnesses to
    /// score models on held-out inputs.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`] or [`AuError::ModelNotTrained`].
    pub fn predict(&mut self, model: &str, x: &[f64]) -> Result<Vec<f64>, AuError> {
        self.handle.predict(model, x)
    }

    /// Batched [`Engine::predict`]: one lock and one `[batch, features]`
    /// forward pass for the whole slice.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::ModelNotTrained`], or
    /// [`AuError::InputSizeChanged`] on a row-width mismatch.
    pub fn predict_batch(
        &mut self,
        model: &str,
        xs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, AuError> {
        self.handle.predict_batch(model, xs)
    }

    /// Native-`f32` [`Engine::predict`] — no `f64` boundary conversions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EngineHandle::predict_f32_into`].
    pub fn predict_f32(&mut self, model: &str, x: &[f32]) -> Result<Vec<f32>, AuError> {
        self.handle.predict_f32(model, x)
    }

    /// Allocation-free native-`f32` prediction — see
    /// [`EngineHandle::predict_f32_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`EngineHandle::predict_f32_into`].
    pub fn predict_f32_into(
        &mut self,
        model: &str,
        x: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), AuError> {
        self.handle.predict_f32_into(model, x, out)
    }

    /// Native-`f32` [`Engine::predict_batch`] over a flat row-major matrix
    /// — see [`EngineHandle::predict_batch_f32`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`EngineHandle::predict_batch_f32`].
    pub fn predict_batch_f32(&mut self, model: &str, xs: &[f32]) -> Result<Vec<f32>, AuError> {
        self.handle.predict_batch_f32(model, xs)
    }

    /// Size/training statistics for a built model (Table 2's model size).
    pub fn model_stats(&mut self, name: &str) -> Option<ModelStats> {
        self.handle.model_stats(name)
    }

    /// Names of configured models, sorted.
    pub fn model_names(&self) -> Vec<String> {
        self.handle.model_names()
    }

    /// Human-readable report of the global telemetry recorder.
    #[cfg(feature = "telemetry")]
    pub fn telemetry_report(&self) -> String {
        self.handle.telemetry_report()
    }

    // ------------------------------------------------------------------
    // Monitoring (the `monitor` feature)
    // ------------------------------------------------------------------

    /// Switches prediction-quality monitoring on for this engine. See
    /// [`EngineHandle::set_monitor_config`].
    #[cfg(feature = "monitor")]
    pub fn set_monitor_config(&mut self, config: au_monitor::MonitorConfig) {
        self.handle.set_monitor_config(config);
    }

    /// Whether monitoring is active on this engine.
    #[cfg(feature = "monitor")]
    pub fn monitoring_enabled(&self) -> bool {
        self.handle.monitoring_enabled()
    }

    /// The live monitor for a model, once it has served in TS mode. Returns
    /// a lock guard — drop it before the next serving call.
    #[cfg(feature = "monitor")]
    pub fn monitor(&self, model: &str) -> Option<crate::handle::MonitorRef<'_>> {
        self.handle.monitor(model)
    }

    /// Re-arms a model degraded by the fallback policy.
    #[cfg(feature = "monitor")]
    pub fn clear_degraded(&mut self, model: &str) {
        self.handle.clear_degraded(model);
    }

    /// Human-readable monitoring report across every observed model.
    #[cfg(feature = "monitor")]
    pub fn monitor_report(&self) -> String {
        self.handle.monitor_report()
    }

    /// Dumps a model's flight recorder to `<model>.flight.jsonl` in the
    /// model directory, returning the path.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`] if the model has no monitor yet;
    /// [`AuError::Backend`] on I/O failure.
    #[cfg(feature = "monitor")]
    pub fn dump_flight_recorder(&self, model: &str) -> Result<PathBuf, AuError> {
        self.handle.dump_flight_recorder(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    #[test]
    fn extract_then_write_back_round_trip() {
        let mut e = Engine::new(Mode::Train);
        e.au_extract("A", &[1.0, 2.0, 3.0]);
        let mut out = [0.0; 2];
        e.au_write_back("A", &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0]);
    }

    #[test]
    fn write_back_checks_availability() {
        let mut e = Engine::new(Mode::Train);
        e.au_extract("A", &[1.0]);
        let mut out = [0.0; 3];
        assert!(matches!(
            e.au_write_back("A", &mut out),
            Err(AuError::MissingData {
                wanted: 3,
                available: 1,
                ..
            })
        ));
    }

    #[test]
    fn au_nn_requires_config() {
        let mut e = Engine::new(Mode::Train);
        e.au_extract("F", &[1.0]);
        assert!(matches!(
            e.au_nn("nope", "F", &["P"]),
            Err(AuError::UnknownModel(_))
        ));
    }

    #[test]
    fn au_nn_requires_input() {
        let mut e = Engine::new(Mode::Train);
        e.au_config("M", ModelConfig::dnn(&[4])).unwrap();
        assert!(matches!(
            e.au_nn("M", "F", &["P"]),
            Err(AuError::MissingData { .. })
        ));
    }

    #[test]
    fn au_nn_trains_toward_labels_and_clears_input() {
        au_nn::set_init_seed(21);
        let mut e = Engine::new(Mode::Train);
        e.au_config("M", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
            .unwrap();
        // learn y = 2x on [0,1]
        for step in 0..300 {
            let x = (step % 20) as f64 / 20.0;
            e.au_extract("F", &[x]);
            e.au_extract("P", &[2.0 * x]);
            e.au_nn("M", "F", &["P"]).unwrap();
            assert_eq!(e.db().get("F"), &[] as &[f64], "ext reset to ⊥");
        }
        e.au_extract("F", &[0.5]);
        // Deployment-style call: π("P") holds the last prediction, which is
        // stale (not freshly extracted), so no label flows.
        e.set_mode(Mode::Test);
        e.au_nn("M", "F", &["P"]).unwrap();
        let p = e.au_write_back_scalar("P").unwrap();
        assert!((p - 1.0).abs() < 0.25, "predicted {p}, want ≈1.0");
    }

    #[test]
    fn au_nn_splits_outputs_across_wb_names() {
        let mut e = Engine::new(Mode::Train);
        e.au_config("M", ModelConfig::dnn(&[8])).unwrap();
        e.au_extract("HIST", &[0.1, 0.2]);
        e.au_extract("LO", &[0.3]);
        e.au_extract("HI", &[0.9]);
        let out = e.au_nn("M", "HIST", &["LO", "HI"]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(e.db().get("LO").len(), 1);
        assert_eq!(e.db().get("HI").len(), 1);
    }

    #[test]
    fn au_nn_rl_returns_action_and_one_hot() {
        let mut e = Engine::new(Mode::Train);
        e.au_config("Mario", ModelConfig::q_dnn(&[8])).unwrap();
        e.au_extract("PX", &[0.5]);
        e.au_extract("PY", &[0.25]);
        let ser = e.au_serialize(&["PX", "PY"]);
        let action = e.au_nn_rl("Mario", &ser, 0.0, false, "output", 5).unwrap();
        assert!(action < 5);
        let out = e.db().get("output").to_vec();
        assert_eq!(out.len(), 5);
        assert_eq!(out.iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(out[action], 1.0);
        let mut keys = vec![0.0; 5];
        e.au_write_back("output", &mut keys).unwrap();
        assert_eq!(keys[action], 1.0);
    }

    #[test]
    fn au_nn_rl_rejects_a_changed_action_count() {
        let mut e = Engine::new(Mode::Train);
        e.au_config("RL", ModelConfig::q_dnn(&[4])).unwrap();
        e.au_extract("S", &[0.5, 0.25]);
        e.au_nn_rl("RL", "S", 0.0, false, "out", 2).unwrap();
        e.au_extract("S", &[0.5, 0.25]);
        let err = e.au_nn_rl("RL", "S", 0.0, false, "out", 3).unwrap_err();
        assert!(
            matches!(
                err,
                AuError::ActionCountChanged {
                    built: 2,
                    got: 3,
                    ..
                }
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("2 actions") && msg.contains('3'), "{msg}");
        assert!(!msg.contains("inputs"), "{msg}");
    }

    #[test]
    fn algorithm_mismatch_is_rejected() {
        let mut e = Engine::new(Mode::Train);
        e.au_config("SL", ModelConfig::dnn(&[4])).unwrap();
        e.au_config("RL", ModelConfig::q_dnn(&[4])).unwrap();
        e.au_extract("F", &[1.0]);
        assert!(matches!(
            e.au_nn_rl("SL", "F", 0.0, false, "o", 2),
            Err(AuError::WrongAlgorithm { .. })
        ));
        e.au_extract("F", &[1.0]);
        e.au_extract("L", &[1.0]);
        assert!(matches!(
            e.au_nn("RL", "F", &["L"]),
            Err(AuError::WrongAlgorithm { .. })
        ));
    }

    #[test]
    fn reconfiguring_same_model_is_idempotent() {
        let mut e = Engine::new(Mode::Train);
        e.au_config("M", ModelConfig::dnn(&[4])).unwrap();
        assert!(e.au_config("M", ModelConfig::dnn(&[4])).is_ok());
        assert!(matches!(
            e.au_config("M", ModelConfig::dnn(&[8])),
            Err(AuError::ModelExists(_))
        ));
    }

    #[test]
    fn checkpoint_restores_db_but_not_model() {
        au_nn::set_init_seed(22);
        let mut e = Engine::new(Mode::Train);
        e.au_config("M", ModelConfig::dnn(&[4])).unwrap();
        e.au_extract("STATE", &[42.0]);
        e.au_checkpoint();
        e.au_extract("STATE", &[99.0]);
        // Train a little so θ changes after the checkpoint.
        e.au_extract("F", &[1.0]);
        e.au_extract("L", &[0.5]);
        e.au_nn("M", "F", &["L"]).unwrap();
        let steps_before = e.model_stats("M").unwrap().train_steps;
        e.au_restore().unwrap();
        assert_eq!(e.db().get("STATE"), &[42.0], "π rolled back");
        assert_eq!(
            e.model_stats("M").unwrap().train_steps,
            steps_before,
            "θ untouched by restore"
        );
        // Restore is repeatable (the paper restores every episode).
        e.au_extract("STATE", &[7.0]);
        e.au_restore().unwrap();
        assert_eq!(e.db().get("STATE"), &[42.0]);
    }

    #[test]
    fn restore_without_checkpoint_errors() {
        let mut e = Engine::new(Mode::Train);
        assert!(matches!(e.au_restore(), Err(AuError::NoCheckpoint)));
    }

    #[test]
    fn restore_keeps_theta_serving_and_learning() {
        // Restore rolls π back and leaves θ alone: predictions are
        // unchanged across restore and training keeps working afterwards.
        au_nn::set_init_seed(31);
        let mut e = Engine::new(Mode::Train);
        e.au_config("M", ModelConfig::dnn(&[8]).with_learning_rate(0.05))
            .unwrap();
        e.au_checkpoint();
        for step in 0..50 {
            let x = (step % 10) as f64 / 10.0;
            e.au_extract("F", &[x]);
            e.au_extract("L", &[2.0 * x]);
            e.au_nn("M", "F", &["L"]).unwrap();
        }
        let before = e.predict("M", &[0.5]).unwrap();
        e.au_restore().unwrap();
        let after = e.predict("M", &[0.5]).unwrap();
        assert_eq!(before, after, "θ and its served values survive restore");
        // Training after the restore keeps converging.
        for step in 0..200 {
            let x = (step % 10) as f64 / 10.0;
            e.au_extract("F", &[x]);
            e.au_extract("L", &[2.0 * x]);
            e.au_nn("M", "F", &["L"]).unwrap();
        }
        let p = e.predict("M", &[0.5]).unwrap()[0];
        assert!((p - 1.0).abs() < 0.3, "still converging after restore: {p}");
    }

    #[test]
    fn restore_after_pop_on_empty_stack_is_typed_error() {
        let mut e = Engine::new(Mode::Train);
        // Popping an empty stack is a no-op, and restoring afterwards must
        // surface the typed error, not panic.
        e.pop_checkpoint();
        assert!(matches!(e.au_restore(), Err(AuError::NoCheckpoint)));
        e.au_extract("S", &[1.0]);
        e.au_checkpoint();
        e.pop_checkpoint();
        assert!(matches!(e.au_restore(), Err(AuError::NoCheckpoint)));
        // π is untouched by the failed restores.
        assert_eq!(e.db().get("S"), &[1.0]);
    }

    #[test]
    fn combined_checkpoint_round_trip() {
        let mut e = Engine::new(Mode::Train);
        e.au_extract("D", &[1.0]);
        let game_state = (3usize, vec![1.0f64, 2.0]);
        let ckpt = e.checkpoint_with(&game_state);
        e.au_extract("D", &[2.0]);
        let restored = e.restore_with(&ckpt);
        assert_eq!(restored, game_state);
        assert_eq!(e.db().get("D"), &[1.0]);
    }

    #[test]
    fn save_and_load_model_across_modes() {
        au_nn::set_init_seed(23);
        let dir = std::env::temp_dir().join("au_core_engine_test");
        let _ = std::fs::remove_dir_all(&dir);

        // TR run: train y = x + 1 and save.
        let mut tr = Engine::new(Mode::Train);
        tr.set_model_dir(&dir);
        tr.au_config("M", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] + 1.0]).collect();
        tr.train_supervised("M", &xs, &ys, 150).unwrap();
        tr.save_model("M").unwrap();

        // TS run in a fresh engine: au_config loads the trained model.
        let mut ts = Engine::new(Mode::Test);
        ts.set_model_dir(&dir);
        ts.au_config("M", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
            .unwrap();
        ts.au_extract("F", &[0.5]);
        ts.au_nn("M", "F", &["P"]).unwrap();
        let p = ts.au_write_back_scalar("P").unwrap();
        assert!(
            (p - 1.5).abs() < 0.3,
            "loaded model predicts {p}, want ≈1.5"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn test_mode_config_without_saved_model_errors() {
        let dir = std::env::temp_dir().join("au_core_missing_model");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ts = Engine::new(Mode::Test);
        ts.set_model_dir(&dir);
        assert!(matches!(
            ts.au_config("Ghost", ModelConfig::dnn(&[4])),
            Err(AuError::ModelNotTrained(_))
        ));
    }

    #[test]
    fn rl_model_save_load_round_trip() {
        au_nn::set_init_seed(24);
        let dir = std::env::temp_dir().join("au_core_rl_model");
        let _ = std::fs::remove_dir_all(&dir);
        let mut tr = Engine::new(Mode::Train);
        tr.set_model_dir(&dir);
        tr.au_config("Q", ModelConfig::q_dnn(&[8])).unwrap();
        for _ in 0..5 {
            tr.au_extract("S", &[0.5]);
            tr.au_nn_rl("Q", "S", 1.0, false, "out", 3).unwrap();
        }
        tr.save_model("Q").unwrap();

        let mut ts = Engine::new(Mode::Test);
        ts.set_model_dir(&dir);
        ts.au_config("Q", ModelConfig::q_dnn(&[8])).unwrap();
        ts.au_extract("S", &[0.5]);
        let a = ts.au_nn_rl("Q", "S", 0.0, false, "out", 3).unwrap();
        assert!(a < 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_network_config_works_for_both_algorithms() {
        use au_nn::Activation;
        au_nn::set_init_seed(55);
        let mut e = Engine::new(Mode::Train);
        let sl_net = Network::builder(3)
            .dense(6)
            .activation(Activation::Tanh)
            .dense(1)
            .build();
        e.au_config_custom("CustomSL", crate::model::Algorithm::AdamOpt, sl_net)
            .unwrap();
        e.au_extract("F", &[0.1, 0.2, 0.3]);
        e.au_extract("Y", &[1.0]);
        e.au_nn("CustomSL", "F", &["Y"]).unwrap();
        assert_eq!(e.model_stats("CustomSL").unwrap().train_steps, 1);

        let rl_net = Network::builder(2).dense(8).dense(3).build();
        e.au_config_custom("CustomRL", crate::model::Algorithm::QLearn, rl_net)
            .unwrap();
        e.au_extract("S", &[0.5, -0.5]);
        let a = e.au_nn_rl("CustomRL", "S", 0.0, false, "out", 3).unwrap();
        assert!(a < 3);
        // Duplicate registration is rejected.
        let dup = Network::builder(2).dense(3).build();
        assert!(matches!(
            e.au_config_custom("CustomRL", crate::model::Algorithm::QLearn, dup),
            Err(AuError::ModelExists(_))
        ));
    }

    #[test]
    fn db_save_load_round_trip() {
        let dir = std::env::temp_dir().join("au_core_db_roundtrip.json");
        let mut e = Engine::new(Mode::Train);
        e.au_extract("A", &[1.0, 2.0]);
        e.au_extract("B", &[3.0]);
        e.save_db(&dir).unwrap();

        let mut fresh = Engine::new(Mode::Train);
        fresh.load_db(&dir).unwrap();
        assert_eq!(fresh.db().get("A"), &[1.0, 2.0]);
        assert_eq!(fresh.db().get("B"), &[3.0]);
        assert_eq!(fresh.total_extracted(), 3);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn supervised_cnn_model_works_through_primitives() {
        au_nn::set_init_seed(56);
        let mut e = Engine::new(Mode::Train);
        // The SL Raw setting with a convolutional front end: an 8x8 frame
        // in, one parameter out.
        e.au_config(
            "RawSL",
            ModelConfig::cnn(1, 8, 8, &[16]).with_learning_rate(5e-3),
        )
        .unwrap();
        for step in 0..30 {
            let brightness = (step % 10) as f64 / 10.0;
            let frame = vec![brightness; 64];
            e.au_extract("IMG", &frame);
            e.au_extract("P", &[brightness * 2.0]);
            e.au_nn("RawSL", "IMG", &["P"]).unwrap();
        }
        let stats = e.model_stats("RawSL").unwrap();
        assert_eq!(stats.train_steps, 30);
        // Conv stack parameters present (not just the dense head).
        assert!(stats.param_count > 16);
        e.set_mode(Mode::Test);
        e.au_extract("IMG", &vec![0.5; 64]);
        e.au_nn("RawSL", "IMG", &["P"]).unwrap();
        let p = e.au_write_back_scalar("P").unwrap();
        assert!(p.is_finite());
    }

    /// Trains y = 2x on a monitored engine and returns it switched to TS
    /// mode, ready to serve.
    #[cfg(feature = "monitor")]
    fn monitored_engine(config: au_monitor::MonitorConfig) -> Engine {
        au_nn::set_init_seed(31);
        let mut e = Engine::new(Mode::Train);
        e.set_monitor_config(config);
        e.au_config("M", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
        e.train_supervised("M", &xs, &ys, 120).unwrap();
        e.set_mode(Mode::Test);
        e
    }

    #[cfg(feature = "monitor")]
    #[test]
    fn monitored_clean_stream_raises_no_alerts() {
        let mut e = monitored_engine(au_monitor::MonitorConfig::default());
        for i in 0..40 {
            let x = ((i * 13) % 40) as f64 / 40.0;
            e.au_extract("F", &[x]);
            e.au_nn("M", "F", &["P"]).unwrap();
        }
        let m = e.monitor("M").expect("monitor exists after TS serving");
        assert!(m.alerts().is_empty(), "clean run alerted: {:?}", m.alerts());
        assert!(!m.is_degraded());
        drop(m); // release the monitor lock before the report re-takes it
        let report = e.monitor_report();
        assert!(report.contains("M:"), "{report}");
        assert!(report.contains("observations=40"), "{report}");
    }

    #[cfg(feature = "monitor")]
    #[test]
    fn monitored_corrupted_stream_alerts_and_degrades() {
        let dir = std::env::temp_dir().join("au_core_monitor_degrade");
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = monitored_engine(au_monitor::MonitorConfig::default().with_fallback(true));
        e.set_model_dir(&dir);
        // Sensor corruption: inputs far outside the trained [0, 1) range.
        let mut served_err = false;
        for _ in 0..40 {
            e.au_extract("F", &[250.0]);
            match e.au_nn("M", "F", &["P"]) {
                Ok(_) => {}
                Err(AuError::ModelDegraded(name)) => {
                    assert_eq!(name, "M");
                    served_err = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(served_err, "fallback must kick in on a corrupted stream");
        let m = e.monitor("M").unwrap();
        assert!(m.is_degraded());
        assert!(!m.alerts().is_empty());
        drop(m);
        // The critical alert auto-dumped the black box.
        let flight = dir.join("M.flight.jsonl");
        assert!(flight.exists(), "flight recorder dumped on critical alert");
        let text = std::fs::read_to_string(&flight).unwrap();
        assert!(text.lines().count() >= 1);
        assert!(text.contains("\"features\":[250"), "{text}");
        // Degraded models keep refusing until re-armed; π(ext) is consumed.
        e.au_extract("F", &[0.5]);
        assert!(matches!(
            e.au_nn("M", "F", &["P"]),
            Err(AuError::ModelDegraded(_))
        ));
        assert!(e.db().get("F").is_empty(), "input consumed on refusal");
        e.clear_degraded("M");
        e.au_extract("F", &[0.5]);
        e.au_nn("M", "F", &["P"]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "monitor")]
    #[test]
    fn baseline_persists_through_model_sidecar() {
        au_nn::set_init_seed(32);
        let dir = std::env::temp_dir().join("au_core_monitor_sidecar");
        let _ = std::fs::remove_dir_all(&dir);
        let mut tr = Engine::new(Mode::Train);
        tr.set_monitor_config(au_monitor::MonitorConfig::default());
        tr.set_model_dir(&dir);
        tr.au_config("M", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0, 5.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] + 1.0]).collect();
        tr.train_supervised("M", &xs, &ys, 100).unwrap();
        tr.save_model("M").unwrap();
        // The sidecar carries the training distribution and baseline MAE.
        let raw = std::fs::read_to_string(dir.join("M.meta.json")).unwrap();
        assert!(raw.contains("feature_baseline"), "{raw}");
        assert!(raw.contains("baseline_mae"), "{raw}");

        // A fresh TS engine picks the baseline up and detects drift with it.
        let mut ts = Engine::new(Mode::Test);
        ts.set_monitor_config(au_monitor::MonitorConfig::default());
        ts.set_model_dir(&dir);
        ts.au_config("M", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
            .unwrap();
        let m = ts.monitor("M").expect("monitor installed at load");
        assert!(m.report().has_baseline, "loaded baseline attached");
        assert!((m.baseline_mae().unwrap()) < 0.5, "plausible training MAE");
        drop(m);
        ts.au_extract("F", &[99.0, 99.0]);
        ts.au_nn("M", "F", &["P"]).unwrap();
        let m = ts.monitor("M").unwrap();
        assert_eq!(
            m.last_drift().unwrap().out_of_range,
            2,
            "out-of-range flagged against the persisted baseline"
        );
        drop(m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "monitor")]
    #[test]
    fn sidecar_without_monitoring_still_loads() {
        // A meta written by a non-monitored run has null baselines; a
        // monitored TS engine must load it and run with drift inert.
        au_nn::set_init_seed(33);
        let dir = std::env::temp_dir().join("au_core_monitor_nullmeta");
        let _ = std::fs::remove_dir_all(&dir);
        let mut tr = Engine::new(Mode::Train);
        tr.set_model_dir(&dir);
        tr.au_config("M", ModelConfig::dnn(&[8])).unwrap();
        let xs = vec![vec![0.1], vec![0.9]];
        let ys = vec![vec![0.2], vec![1.8]];
        tr.train_supervised("M", &xs, &ys, 10).unwrap();
        tr.save_model("M").unwrap();

        let mut ts = Engine::new(Mode::Test);
        ts.set_monitor_config(au_monitor::MonitorConfig::default());
        ts.set_model_dir(&dir);
        ts.au_config("M", ModelConfig::dnn(&[8])).unwrap();
        ts.au_extract("F", &[0.5]);
        ts.au_nn("M", "F", &["P"]).unwrap();
        let m = ts.monitor("M").unwrap();
        assert!(!m.report().has_baseline);
        assert!(m.alerts().is_empty());
        drop(m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "monitor")]
    #[test]
    fn rl_monitoring_flags_out_of_range_states() {
        au_nn::set_init_seed(34);
        let mut e = Engine::new(Mode::Train);
        e.set_monitor_config(au_monitor::MonitorConfig::default());
        e.au_config("Q", ModelConfig::q_dnn(&[8])).unwrap();
        for i in 0..30 {
            e.au_extract("S", &[(i % 10) as f64 / 10.0, 0.5]);
            e.au_nn_rl("Q", "S", 0.1, false, "out", 3).unwrap();
        }
        e.set_mode(Mode::Test);
        e.au_extract("S", &[42.0, -3.0]);
        e.au_nn_rl("Q", "S", 0.0, false, "out", 3).unwrap();
        let m = e.monitor("Q").expect("RL model monitored");
        assert_eq!(m.last_drift().unwrap().out_of_range, 2);
        assert!(m
            .alerts()
            .iter()
            .any(|a| a.kind == au_monitor::AlertKind::OutOfRange));
    }

    #[test]
    fn serialize_matches_fig2_usage() {
        let mut e = Engine::new(Mode::Train);
        e.au_extract("PX", &[1.0]);
        e.au_extract("PY", &[2.0]);
        e.au_extract("MnX", &[3.0]);
        e.au_extract("MnY", &[4.0]);
        e.au_extract("Obj", &[5.0]);
        let name = e.au_serialize(&["PX", "PY", "MnX", "MnY", "Obj"]);
        assert_eq!(e.db().get(&name), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn facade_and_handle_share_one_runtime() {
        let mut e = Engine::new(Mode::Train);
        let h = e.handle();
        e.au_extract("A", &[1.0]);
        h.au_extract("A", &[2.0]);
        assert_eq!(e.db().get("A"), &[1.0, 2.0]);
        assert_eq!(e.total_extracted(), 2);
    }
}
