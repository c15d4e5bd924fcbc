//! The model registry: versioned `.qps` snapshots on disk, lazily
//! loaded into memory under an LRU byte budget.
//!
//! # Layout
//!
//! One subdirectory per model id under the registry root, each a
//! [`SnapshotStore`] directory:
//!
//! ```text
//! models/
//!   wave-a/ snap-0000000001.qps  snap-0000000002.qps
//!   wave-b/ snap-0000000001.qps
//! ```
//!
//! A model *version* is the epoch number in the snapshot file name;
//! versions are assigned by [`ModelRegistry::publish`] as
//! `max(existing) + 1`, under a registry-wide publish lock that also
//! covers the store's temp-file sweep. Reusing the snapshot container
//! buys the registry everything the checkpoint path already proved:
//! CRC-verified loads, atomic tmp+fsync+rename publishes, and the
//! `qpinn-testkit` failpoints threaded through [`SnapshotStore::save`] —
//! so the chaos suite's `fs.enospc`/torn-rename scenarios cover model
//! publishing with no extra wiring.
//!
//! # Resolution and caching
//!
//! [`ModelRegistry::resolve`] takes `"id"`, `"id@latest"`, or
//! `"id@<version>"`. Loads decode the snapshot, recover the
//! [`ModelSpec`] from the TASK section, and rebuild the [`FieldNet`]
//! (see [`crate::spec`]); loaded models are cached keyed by
//! `(id, version)` and evicted least-recently-used once the resident
//! byte total would exceed the configured budget.
//!
//! `"id"`/`"id@latest"` lists the snapshot file names on every call, so
//! a version published by another registry or process shows up at the
//! next resolve, and walks them newest first. A resident version is
//! returned at once: its bytes were CRC-verified when it loaded and live
//! in memory, so it keeps serving even if its file later rots. A
//! non-resident version counts only once it loads and verifies; a torn
//! or corrupt one is skipped. Resolution never sweeps or writes the
//! models directory, and a warm `latest` reads no snapshot at all.
//! [`ModelRegistry::list`] still reads and CRC-checks every file, so it
//! reports damage that resolution no longer looks at.

use crate::spec::ModelSpec;
use qpinn_core::model::FieldNet;
use qpinn_nn::ParamSet;
use qpinn_persist::{
    PersistError, RetentionPolicy, RunMeta, Snapshot, SnapshotEntry, SnapshotStore,
    TrainLogRecord,
};
use qpinn_telemetry::names;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Registry settings.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Root directory holding one snapshot-store subdirectory per model.
    pub dir: PathBuf,
    /// Byte budget for resident (loaded) models; least-recently-used
    /// models are evicted past it. The most recently used model always
    /// stays resident even if it alone exceeds the budget.
    pub max_bytes: u64,
}

impl RegistryConfig {
    /// Registry at `dir` with a 256 MiB resident budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RegistryConfig {
            dir: dir.into(),
            max_bytes: 256 << 20,
        }
    }
}

/// A model resident in memory, ready to evaluate.
pub struct LoadedModel {
    /// Model id (registry subdirectory name).
    pub id: String,
    /// Version (snapshot epoch number).
    pub version: u64,
    /// Architecture + construction-seed descriptor.
    pub spec: ModelSpec,
    /// The rebuilt network.
    pub net: FieldNet,
    /// The trained parameters.
    pub params: ParamSet,
    /// On-disk snapshot size (the unit of the LRU budget).
    pub bytes: u64,
    /// Eval error recorded at publish time.
    pub eval_error: f64,
}

impl LoadedModel {
    /// `id@version`, the form access-log records and trace spans use to
    /// name a model.
    pub fn qualified_name(&self) -> String {
        format!("{}@{}", self.id, self.version)
    }
}

/// One row of [`ModelRegistry::list`].
#[derive(Clone, Debug)]
pub struct ModelInfo {
    /// Model id.
    pub id: String,
    /// Version.
    pub version: u64,
    /// Snapshot size in bytes.
    pub bytes: u64,
    /// CRC/metadata status of the snapshot file.
    pub intact: bool,
    /// Eval error at publish time (`None` when the file is corrupt).
    pub eval_error: Option<f64>,
    /// True when this version is currently resident in memory.
    pub loaded: bool,
    /// Problem-registry key from the spec (`None` until the version is
    /// resident — listing never pays a snapshot decode — or when the
    /// spec predates the tag).
    pub problem: Option<String>,
}

/// Registry errors, mapped to HTTP statuses by the server.
#[derive(Debug)]
pub enum RegistryError {
    /// No such model id, or no such version of it.
    NotFound(String),
    /// A malformed `id@version` reference.
    BadReference(String),
    /// The snapshot exists but cannot be served (corrupt, wrong spec).
    Unserveable(String),
    /// Underlying storage failure.
    Storage(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotFound(m) => write!(f, "not found: {m}"),
            RegistryError::BadReference(m) => write!(f, "bad model reference: {m}"),
            RegistryError::Unserveable(m) => write!(f, "unserveable model: {m}"),
            RegistryError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Validate a model id so ids stay safe to use as directory names.
fn check_id(id: &str) -> Result<(), RegistryError> {
    let ok = !id.is_empty()
        && id.len() <= 64
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
        && !id.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(RegistryError::BadReference(format!(
            "model id `{id}` must be 1-64 chars of [A-Za-z0-9._-], not starting with `.`"
        )))
    }
}

/// Parse `"id"`, `"id@latest"`, or `"id@N"`.
fn parse_ref(model_ref: &str) -> Result<(String, Option<u64>), RegistryError> {
    let (id, version) = match model_ref.split_once('@') {
        None => (model_ref, None),
        Some((id, "latest")) => (id, None),
        Some((id, v)) => (
            id,
            Some(v.parse::<u64>().map_err(|_| {
                RegistryError::BadReference(format!("version `{v}` is not a number or `latest`"))
            })?),
        ),
    };
    check_id(id)?;
    Ok((id.to_string(), version))
}

struct RegState {
    /// Resident models by (id, version).
    loaded: HashMap<(String, u64), Arc<LoadedModel>>,
    /// LRU order, least recently used first.
    lru: Vec<(String, u64)>,
    /// Sum of resident snapshot bytes.
    resident_bytes: u64,
}

/// The registry; cheap to share (`Arc` internally via the server).
pub struct ModelRegistry {
    cfg: RegistryConfig,
    state: Mutex<RegState>,
    /// Held for a whole publish: the temp-file sweep of
    /// [`SnapshotStore::open`] would delete a concurrent publish's temp
    /// file, and two publishes would otherwise both pick `max + 1`.
    publish_lock: Mutex<()>,
}

impl ModelRegistry {
    /// Open (creating if needed) the registry root.
    pub fn open(cfg: RegistryConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        Ok(ModelRegistry {
            cfg,
            state: Mutex::new(RegState {
                loaded: HashMap::new(),
                lru: Vec::new(),
                resident_bytes: 0,
            }),
            publish_lock: Mutex::new(()),
        })
    }

    /// The registry root directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.cfg.dir
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, RegState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Read-only handle on `id`'s snapshot directory (never sweeps).
    fn view(&self, id: &str) -> SnapshotStore {
        SnapshotStore::view(self.cfg.dir.join(id))
    }

    /// Resolve `"id"`, `"id@latest"`, or `"id@N"` to a resident model,
    /// loading (and LRU-evicting) as needed.
    pub fn resolve(&self, model_ref: &str) -> Result<Arc<LoadedModel>, RegistryError> {
        let (id, version) = parse_ref(model_ref)?;
        match version {
            Some(v) => match self.resident(&id, v) {
                Some(model) => Ok(model),
                None => {
                    let snap = self.view(&id).load_epoch(v).map_err(|e| match e {
                        PersistError::Io(ref io) if io.kind() == std::io::ErrorKind::NotFound => {
                            RegistryError::NotFound(format!("model `{id}` version {v}"))
                        }
                        other => RegistryError::Unserveable(format!(
                            "model `{id}` version {v}: {other}"
                        )),
                    })?;
                    self.admit(&id, v, snap)
                }
            },
            None => self.newest(&id, |store, v| match self.resident(&id, v) {
                Some(model) => Some(Ok(model)),
                // Not resident: it counts once its snapshot verifies.
                None => store.load_epoch(v).ok().map(|snap| self.admit(&id, v, snap)),
            })?,
        }
    }

    /// Walk `id`'s versions newest first, by file name only, and return
    /// the first that `pick` accepts.
    fn newest<T>(
        &self,
        id: &str,
        mut pick: impl FnMut(&SnapshotStore, u64) -> Option<T>,
    ) -> Result<T, RegistryError> {
        let store = self.view(id);
        if let Some(found) = store.list().into_iter().rev().find_map(|(v, _)| pick(&store, v)) {
            return Ok(found);
        }
        if store.dir().is_dir() {
            Err(RegistryError::Unserveable(format!("model `{id}` has no intact version")))
        } else {
            Err(RegistryError::NotFound(format!("model `{id}`")))
        }
    }

    /// The resident copy of `(id, version)`, marked most recently used.
    fn resident(&self, id: &str, version: u64) -> Option<Arc<LoadedModel>> {
        let key = (id.to_string(), version);
        let mut st = self.lock_state();
        let model = st.loaded.get(&key).cloned()?;
        st.lru.retain(|k| k != &key);
        st.lru.push(key);
        qpinn_telemetry::counter(names::SERVE_REGISTRY_HITS).inc();
        Some(model)
    }

    /// Rebuild a verified snapshot into a served model and make it
    /// resident, evicting least-recently-used models past the budget.
    fn admit(
        &self,
        id: &str,
        version: u64,
        (snap, path): (Snapshot, PathBuf),
    ) -> Result<Arc<LoadedModel>, RegistryError> {
        let unserveable =
            |e: String| RegistryError::Unserveable(format!("model `{id}` version {version}: {e}"));
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let spec = ModelSpec::decode(&snap.task_state).map_err(|e| unserveable(e.to_string()))?;
        let net = spec.rebuild(&snap.params).map_err(|e| unserveable(e.to_string()))?;
        let model = Arc::new(LoadedModel {
            id: id.to_string(),
            version,
            spec,
            net,
            params: snap.params,
            bytes,
            eval_error: snap.meta.eval_error,
        });
        let key = (id.to_string(), version);
        let mut st = self.lock_state();
        // A racing loader may have beaten us; keep the first and drop ours.
        if let Some(existing) = st.loaded.get(&key).cloned() {
            st.lru.retain(|k| k != &key);
            st.lru.push(key);
            return Ok(existing);
        }
        st.resident_bytes += model.bytes;
        st.loaded.insert(key.clone(), model.clone());
        st.lru.push(key);
        qpinn_telemetry::counter(names::SERVE_REGISTRY_LOADS).inc();
        // Evict past the budget, never the entry just inserted.
        while st.resident_bytes > self.cfg.max_bytes && st.lru.len() > 1 {
            let victim = st.lru.remove(0);
            if let Some(evicted) = st.loaded.remove(&victim) {
                st.resident_bytes -= evicted.bytes;
                qpinn_telemetry::counter(names::SERVE_REGISTRY_EVICTIONS).inc();
            }
        }
        qpinn_telemetry::gauge(names::SERVE_REGISTRY_BYTES).set(st.resident_bytes as f64);
        Ok(model)
    }

    /// Publish trained parameters as the next version of `id`. Returns
    /// the assigned version. The write goes through
    /// [`SnapshotStore::save`] — atomic, CRC-sealed, failpoint-covered —
    /// so a failed publish never damages existing versions.
    pub fn publish(
        &self,
        id: &str,
        spec: &ModelSpec,
        params: &ParamSet,
        log: TrainLogRecord,
        planned_epochs: u64,
        eval_error: f64,
    ) -> Result<u64, RegistryError> {
        check_id(id)?;
        let _publishing = self.publish_lock.lock().unwrap_or_else(|e| e.into_inner());
        let store = SnapshotStore::open(self.cfg.dir.join(id))
            .map_err(|e| RegistryError::Storage(e.to_string()))?;
        let version = store.list().last().map(|(e, _)| e + 1).unwrap_or(1);
        let snap = Snapshot {
            meta: RunMeta {
                run_id: id.to_string(),
                next_epoch: version,
                planned_epochs,
                eval_error,
            },
            params: params.clone(),
            // Model artifacts are for inference; a fresh optimizer state
            // keeps the container well-formed without claiming the run
            // is resumable from it.
            optim: qpinn_optim::Adam::new(0.0).export_state(),
            log,
            task_state: spec.encode(),
        };
        // Model versions are immutable history; never retain-prune them.
        store
            .save(&snap, &RetentionPolicy::keep_all())
            .map_err(|e| RegistryError::Storage(e.to_string()))?;
        Ok(version)
    }

    /// Every version of every model on disk, with residency flags.
    pub fn list(&self) -> Vec<ModelInfo> {
        let mut ids: Vec<String> = std::fs::read_dir(&self.cfg.dir)
            .map(|rd| {
                rd.flatten()
                    .filter(|e| e.path().is_dir())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        ids.sort();
        // Read and verify every file before taking the state lock, so a
        // listing never holds up resolution.
        let listed: Vec<(String, Vec<SnapshotEntry>)> = ids
            .into_iter()
            .map(|id| {
                let entries = self.view(&id).entries();
                (id, entries)
            })
            .collect();
        let st = self.lock_state();
        let mut out = Vec::new();
        for (id, entries) in listed {
            for e in entries {
                let resident = st.loaded.get(&(id.clone(), e.epoch));
                out.push(ModelInfo {
                    loaded: resident.is_some(),
                    problem: resident
                        .map(|m| m.spec.problem.clone())
                        .filter(|p| !p.is_empty()),
                    id: id.clone(),
                    version: e.epoch,
                    bytes: e.bytes,
                    intact: e.intact(),
                    eval_error: e.meta.as_ref().map(|m| m.eval_error),
                });
            }
        }
        out
    }

    /// Drop a resident model from memory (the on-disk snapshot stays).
    /// Returns true when it was resident. `"id"` names the version
    /// `latest` resolves to, by the same rule, without making it resident.
    pub fn evict(&self, model_ref: &str) -> Result<bool, RegistryError> {
        let (id, version) = parse_ref(model_ref)?;
        let version = match version {
            Some(v) => v,
            None => self.newest(&id, |store, v| {
                let resident = self.lock_state().loaded.contains_key(&(id.clone(), v));
                (resident || store.load_epoch(v).is_ok()).then_some(v)
            })?,
        };
        let key = (id, version);
        let mut st = self.lock_state();
        st.lru.retain(|k| k != &key);
        match st.loaded.remove(&key) {
            Some(m) => {
                st.resident_bytes -= m.bytes;
                qpinn_telemetry::gauge(names::SERVE_REGISTRY_BYTES).set(st.resident_bytes as f64);
                qpinn_telemetry::counter(names::SERVE_REGISTRY_EVICTIONS).inc();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Number of models currently resident in memory.
    pub fn resident_count(&self) -> usize {
        self.lock_state().loaded.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_core::model::FieldNetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qpinn-serve-reg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn trained_model(seed: u64) -> (ModelSpec, ParamSet) {
        let spec = ModelSpec {
            name: "tdse".into(),
            seed,
            problem: "tdse-harmonic".into(),
            net: FieldNetConfig::standard_wave(12.0, 1.0, 8, 1),
        };
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let _net = qpinn_core::model::FieldNet::new(&mut params, &mut rng, &spec.net, &spec.name);
        (spec, params)
    }

    fn publish(reg: &ModelRegistry, id: &str, seed: u64) -> u64 {
        let (spec, params) = trained_model(seed);
        reg.publish(id, &spec, &params, TrainLogRecord::default(), 10, 0.5)
            .unwrap()
    }

    #[test]
    fn publish_resolve_roundtrip_and_latest() {
        let dir = tmp_dir("roundtrip");
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        assert_eq!(publish(&reg, "wave", 1), 1);
        assert_eq!(publish(&reg, "wave", 2), 2);

        let m = reg.resolve("wave@1").unwrap();
        assert_eq!((m.id.as_str(), m.version), ("wave", 1));
        let latest = reg.resolve("wave").unwrap();
        assert_eq!(latest.version, 2);
        let explicit = reg.resolve("wave@latest").unwrap();
        assert_eq!(explicit.version, 2);
        // Resolving again hits the cache (same Arc).
        assert!(Arc::ptr_eq(&latest, &reg.resolve("wave@2").unwrap()));
        // Predictions work end to end through the rebuilt net.
        let out = latest.net.predict(&latest.params, &[vec![0.5, 0.2]]);
        assert!(out.all_finite());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_and_malformed_refs_error() {
        let dir = tmp_dir("missing");
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        assert!(matches!(reg.resolve("nope"), Err(RegistryError::NotFound(_))));
        assert!(matches!(
            reg.resolve("wave@banana"),
            Err(RegistryError::BadReference(_))
        ));
        assert!(matches!(
            reg.resolve("../escape"),
            Err(RegistryError::BadReference(_))
        ));
        assert!(matches!(reg.resolve(""), Err(RegistryError::BadReference(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_evicts_by_byte_budget() {
        let dir = tmp_dir("lru");
        let mut cfg = RegistryConfig::new(&dir);
        let reg = ModelRegistry::open(cfg.clone()).unwrap();
        publish(&reg, "a", 1);
        publish(&reg, "b", 2);
        publish(&reg, "c", 3);
        // Budget fits roughly two of the three models.
        let one = std::fs::metadata(
            SnapshotStore::open(dir.join("a")).unwrap().list()[0].1.clone(),
        )
        .unwrap()
        .len();
        cfg.max_bytes = 2 * one + one / 2;
        let reg = ModelRegistry::open(cfg).unwrap();
        reg.resolve("a").unwrap();
        reg.resolve("b").unwrap();
        assert_eq!(reg.resident_count(), 2);
        reg.resolve("c").unwrap(); // must evict `a`, the LRU entry
        assert_eq!(reg.resident_count(), 2);
        let resident: Vec<String> = reg
            .list()
            .into_iter()
            .filter(|m| m.loaded)
            .map(|m| m.id)
            .collect();
        assert_eq!(resident, vec!["b".to_string(), "c".to_string()]);
        // `a` still resolves — it just reloads from disk.
        assert_eq!(reg.resolve("a").unwrap().version, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_skips_corrupt_newest_version() {
        let dir = tmp_dir("corrupt-latest");
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        publish(&reg, "wave", 1);
        publish(&reg, "wave", 2);
        // Corrupt version 2 on disk.
        let p = dir.join("wave").join(SnapshotStore::file_name(2));
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        // Fresh registry (no cache): latest must fall back to 1; the
        // explicit damaged version must error, not fall back.
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        assert_eq!(reg.resolve("wave").unwrap().version, 1);
        assert!(matches!(
            reg.resolve("wave@2"),
            Err(RegistryError::Unserveable(_))
        ));
        let infos = reg.list();
        assert_eq!(infos.len(), 2);
        assert!(infos.iter().any(|m| m.version == 2 && !m.intact));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_follows_a_second_registry_on_the_same_directory() {
        let dir = tmp_dir("second-writer");
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        publish(&reg, "wave", 1);
        assert_eq!(reg.resolve("wave").unwrap().version, 1);
        let other = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        assert_eq!(publish(&other, "wave", 2), 2);
        let latest = reg.resolve("wave").unwrap();
        assert_eq!((latest.version, latest.spec.seed), (2, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resident_latest_keeps_serving_after_its_file_rots() {
        let dir = tmp_dir("rot-resident");
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        publish(&reg, "wave", 1);
        publish(&reg, "wave", 2);
        let served = reg.resolve("wave").unwrap();
        assert_eq!(served.version, 2);
        let p = dir.join("wave").join(SnapshotStore::file_name(2));
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        // Version 2 was verified when it loaded and lives in memory.
        assert!(Arc::ptr_eq(&served, &reg.resolve("wave").unwrap()));
        // The listing re-reads every file and reports the damage.
        let infos = reg.list();
        assert!(infos.iter().any(|m| m.version == 2 && !m.intact && m.loaded));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn requests_leave_an_in_flight_publish_alone() {
        let dir = tmp_dir("in-flight");
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        publish(&reg, "wave", 1);
        let in_flight = dir.join("wave").join("snap-0000000002.tmp");
        std::fs::write(&in_flight, b"a publish still writing").unwrap();
        assert_eq!(reg.resolve("wave").unwrap().version, 1);
        assert_eq!(reg.resolve("wave@1").unwrap().version, 1);
        assert_eq!(reg.list().len(), 1);
        assert!(reg.evict("wave").unwrap());
        assert!(in_flight.exists(), "a request deleted a publish's temp file");
        // Publishing is the one place the sweep runs.
        assert_eq!(publish(&reg, "wave", 2), 2);
        assert!(!in_flight.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evict_unloads_but_keeps_disk() {
        let dir = tmp_dir("evict");
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        publish(&reg, "wave", 1);
        reg.resolve("wave").unwrap();
        assert_eq!(reg.resident_count(), 1);
        assert!(reg.evict("wave@1").unwrap());
        assert_eq!(reg.resident_count(), 0);
        assert!(!reg.evict("wave@1").unwrap(), "second evict is a no-op");
        assert_eq!(reg.resolve("wave").unwrap().version, 1, "disk copy intact");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
