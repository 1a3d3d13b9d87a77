//! The model-registry layer: the model store θ behind per-model locks.
//!
//! The registry maps model names to [`ModelEntry`] values, each behind its
//! own `RwLock` so two threads serving *different* models never contend, and
//! threads serving the *same* model in deployment mode share a read lock.
//! The name→entry maps themselves are sharded to keep registration and
//! lookup from serializing on one lock.
//!
//! Lock discipline: the registry hands out `Arc`s to entries; callers lock
//! an entry only after releasing the shard lock, and the engine layer never
//! holds an entry lock and the π lock at the same time.

use crate::error::AuError;
use crate::lockwait::{shard_read, shard_write};
use crate::model::{ModelConfig, ModelInstance};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independent name→entry maps. Eight is plenty: contention on a
/// shard only happens during registration, not serving.
const SHARDS: usize = 8;

/// Locks a mutex, recovering the data if a previous holder panicked — the
/// stores hold plain data that stays structurally valid across unwinds, so
/// poisoning must not cascade into every other serving thread.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Read-locks an `RwLock`, recovering from poisoning (see [`lock`]).
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks an `RwLock`, recovering from poisoning (see [`lock`]).
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Everything the runtime knows about one named model: the instance (config
/// plus lazily built backend) and the per-model bookkeeping that used to
/// live in separate `Engine` maps, now co-located under the entry's lock.
#[derive(Debug)]
pub(crate) struct ModelEntry {
    pub instance: ModelInstance,
    /// Split of the flat model output across the `wb` names of `au_nn`,
    /// fixed the first time labels are seen (persisted alongside the model).
    pub output_split: Option<Vec<usize>>,
    /// RL action count (persisted alongside the model).
    pub n_actions: usize,
}

impl ModelEntry {
    pub fn new(instance: ModelInstance) -> Self {
        ModelEntry {
            instance,
            output_split: None,
            n_actions: 0,
        }
    }
}

/// A shared, lockable handle to one model's entry.
pub(crate) type SharedEntry = Arc<RwLock<ModelEntry>>;

/// The model store θ: sharded name→entry maps with per-entry locks.
#[derive(Debug, Default)]
pub(crate) struct ModelRegistry {
    shards: [RwLock<BTreeMap<String, SharedEntry>>; SHARDS],
}

impl ModelRegistry {
    /// FNV-1a over the name selects the shard.
    fn shard_of(name: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % SHARDS as u64) as usize
    }

    /// Looks a model up, returning a clone of its shared entry. The shard
    /// lock is released before the caller locks the entry.
    pub fn get(&self, name: &str) -> Option<SharedEntry> {
        shard_read(&self.shards[Self::shard_of(name)])
            .get(name)
            .cloned()
    }

    /// Registers a model, treating re-registration with an *identical*
    /// configuration as a no-op (rule CONFIG-TRAIN's θ(mdName) ≢ ⊥ case).
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is taken by a different
    /// configuration.
    pub fn insert(&self, name: &str, entry: ModelEntry) -> Result<(), AuError> {
        let mut shard = shard_write(&self.shards[Self::shard_of(name)]);
        match shard.get(name) {
            Some(existing) => {
                if read(existing).instance.config == entry.instance.config {
                    Ok(())
                } else {
                    Err(AuError::ModelExists(name.to_owned()))
                }
            }
            None => {
                shard.insert(name.to_owned(), Arc::new(RwLock::new(entry)));
                Ok(())
            }
        }
    }

    /// Registers a model that must not exist yet (custom networks carry no
    /// comparable configuration, so idempotent re-registration is unsound).
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is taken.
    pub fn insert_new(&self, name: &str, entry: ModelEntry) -> Result<(), AuError> {
        let mut shard = shard_write(&self.shards[Self::shard_of(name)]);
        if shard.contains_key(name) {
            return Err(AuError::ModelExists(name.to_owned()));
        }
        shard.insert(name.to_owned(), Arc::new(RwLock::new(entry)));
        Ok(())
    }

    /// Registered-model count per shard, in shard order — the occupancy
    /// stats surfaced by the observability plane's `/health` endpoint.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| shard_read(s).len()).collect()
    }

    /// Whether a model is registered.
    pub fn contains(&self, name: &str) -> bool {
        shard_read(&self.shards[Self::shard_of(name)]).contains_key(name)
    }

    /// All registered names in sorted order (the order the old single
    /// `BTreeMap` iterated in).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| shard_read(s).keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Validates a configuration against an existing entry, mirroring
    /// [`ModelRegistry::insert`]'s comparison without inserting.
    pub fn check_config(&self, name: &str, config: &ModelConfig) -> Option<Result<(), AuError>> {
        let entry = self.get(name)?;
        let same = read(&entry).instance.config == *config;
        Some(if same {
            Ok(())
        } else {
            Err(AuError::ModelExists(name.to_owned()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    #[test]
    fn insert_then_get_round_trips() {
        let reg = ModelRegistry::default();
        reg.insert(
            "M",
            ModelEntry::new(ModelInstance::new(ModelConfig::dnn(&[4]))),
        )
        .unwrap();
        assert!(reg.contains("M"));
        let entry = reg.get("M").unwrap();
        assert_eq!(read(&entry).n_actions, 0);
        assert!(reg.get("other").is_none());
    }

    #[test]
    fn reinsert_same_config_is_idempotent() {
        let reg = ModelRegistry::default();
        reg.insert(
            "M",
            ModelEntry::new(ModelInstance::new(ModelConfig::dnn(&[4]))),
        )
        .unwrap();
        assert!(reg
            .insert(
                "M",
                ModelEntry::new(ModelInstance::new(ModelConfig::dnn(&[4])))
            )
            .is_ok());
        assert!(matches!(
            reg.insert(
                "M",
                ModelEntry::new(ModelInstance::new(ModelConfig::dnn(&[8])))
            ),
            Err(AuError::ModelExists(_))
        ));
        assert!(matches!(
            reg.insert_new(
                "M",
                ModelEntry::new(ModelInstance::new(ModelConfig::dnn(&[4])))
            ),
            Err(AuError::ModelExists(_))
        ));
    }

    #[test]
    fn names_are_sorted_across_shards() {
        let reg = ModelRegistry::default();
        for name in ["zeta", "alpha", "mid", "beta", "omega", "kappa"] {
            reg.insert(
                name,
                ModelEntry::new(ModelInstance::new(ModelConfig::dnn(&[2]))),
            )
            .unwrap();
        }
        assert_eq!(
            reg.names(),
            vec!["alpha", "beta", "kappa", "mid", "omega", "zeta"]
        );
    }
}
