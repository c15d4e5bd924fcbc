//! Directory-backed snapshot store: crash-safe writes, newest-intact
//! loading with corruption fallback, and retention enforcement.

use crate::format::{PersistError, Result};
use crate::retention::RetentionPolicy;
use crate::snapshot::{RunMeta, Snapshot};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File extension of finished snapshots.
pub const SNAPSHOT_EXT: &str = "qps";

/// One snapshot file as seen by [`SnapshotStore::entries`]: identity and
/// integrity without the cost of decoding parameter tensors.
#[derive(Clone, Debug)]
pub struct SnapshotEntry {
    /// Epoch (or model version) encoded in the file name.
    pub epoch: u64,
    /// Path of the snapshot file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Decoded run metadata when the container's file CRC and meta
    /// section verify; `None` for corrupt or truncated files.
    pub meta: Option<RunMeta>,
    /// Why metadata could not be read, when `meta` is `None`.
    pub error: Option<String>,
}

impl SnapshotEntry {
    /// True when the file-level CRC and meta section verified cleanly.
    pub fn intact(&self) -> bool {
        self.meta.is_some()
    }
}

/// A directory of snapshots for one training run.
///
/// # Crash safety
///
/// [`SnapshotStore::save`] writes the full container to a `*.tmp` sibling,
/// `fsync`s it, then atomically renames it over the final name and (best
/// effort) `fsync`s the directory. A crash at any point leaves either the
/// previous set of intact snapshots or the previous set plus one new intact
/// snapshot — never a half-written file under a final name. Stale `*.tmp`
/// files from a crashed writer are swept on [`SnapshotStore::open`].
///
/// The sweep cannot tell a crashed writer's debris from a save still in
/// flight on another thread, so only the directory's one writer may call
/// `open`; readers that run beside it use [`SnapshotStore::view`].
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if needed) the store at `dir` and sweep leftover
    /// temporary files from crashed writers.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = SnapshotStore { dir };
        for tmp in store.scan_ext("tmp") {
            let _ = fs::remove_file(tmp);
        }
        Ok(store)
    }

    /// The store at `dir` as it stands: neither creates the directory nor
    /// sweeps temporary files, so reading through it never disturbs a
    /// concurrent [`SnapshotStore::save`]. A missing directory lists as
    /// empty.
    pub fn view(dir: impl Into<PathBuf>) -> Self {
        SnapshotStore { dir: dir.into() }
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File name a snapshot at `next_epoch` is stored under. Zero-padded so
    /// lexicographic order equals epoch order.
    pub fn file_name(next_epoch: u64) -> String {
        format!("snap-{next_epoch:010}.{SNAPSHOT_EXT}")
    }

    /// Epoch encoded in a snapshot file name, if it is one of ours.
    fn parse_epoch(path: &Path) -> Option<u64> {
        let stem = path.file_name()?.to_str()?;
        let rest = stem.strip_prefix("snap-")?;
        let digits = rest.strip_suffix(SNAPSHOT_EXT)?.strip_suffix('.')?;
        digits.parse().ok()
    }

    fn scan_ext(&self, ext: &str) -> Vec<PathBuf> {
        let mut out = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) == Some(ext) {
                    out.push(path);
                }
            }
        }
        out
    }

    /// All finished snapshot files, sorted by ascending epoch.
    pub fn list(&self) -> Vec<(u64, PathBuf)> {
        let mut out: Vec<(u64, PathBuf)> = self
            .scan_ext(SNAPSHOT_EXT)
            .into_iter()
            .filter_map(|p| Self::parse_epoch(&p).map(|e| (e, p)))
            .collect();
        out.sort_by_key(|(e, _)| *e);
        out
    }

    /// All finished snapshot files with metadata and integrity status,
    /// sorted by ascending epoch. Each entry reads the file once and
    /// verifies the whole-file CRC plus the meta-section CRC (via
    /// [`Snapshot::decode_meta_only`]) but never decodes parameter or
    /// optimizer tensors, so enumerating a directory of large
    /// checkpoints stays cheap. Corrupt files come back with
    /// `meta: None` and the decode error instead of being skipped — the
    /// inspection view must show damage, not hide it.
    pub fn entries(&self) -> Vec<SnapshotEntry> {
        self.list()
            .into_iter()
            .map(|(epoch, path)| {
                let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let (meta, error) = match fs::read(&path) {
                    Ok(raw) => match Snapshot::decode_meta_only(&raw) {
                        Ok(m) => (Some(m), None),
                        Err(e) => (None, Some(e.to_string())),
                    },
                    Err(e) => (None, Some(e.to_string())),
                };
                SnapshotEntry {
                    epoch,
                    path,
                    bytes,
                    meta,
                    error,
                }
            })
            .collect()
    }

    /// Crash-safely persist `snap`, then enforce `policy`.
    ///
    /// Returns the path of the finished snapshot file.
    pub fn save(&self, snap: &Snapshot, policy: &RetentionPolicy) -> Result<PathBuf> {
        let _span = qpinn_telemetry::span("checkpoint_write");
        let bytes = snap.encode();
        let final_path = self.dir.join(Self::file_name(snap.meta.next_epoch));
        let tmp_path = final_path.with_extension("tmp");
        // Failpoint: the disk fills up before anything lands.
        qpinn_testkit::fail_io("fs.enospc")?;
        {
            let mut f = File::create(&tmp_path)?;
            // Failpoint: crash mid-write — half the payload reaches the tmp
            // file, which stays behind under its temporary name (exactly the
            // debris `open` must sweep and `load_latest` must never see).
            if qpinn_testkit::should_fail("persist.write_short") {
                f.write_all(&bytes[..bytes.len() / 2])?;
                let _ = f.sync_all();
                return Err(qpinn_testkit::injected_io_error("persist.write_short").into());
            }
            f.write_all(&bytes)?;
            // Data must be durable before the rename publishes the name.
            f.sync_all()?;
        }
        // Failpoint: torn publish — a truncated payload appears under the
        // *final* name, as if the rename landed but the data blocks did not.
        // `load_latest` must skip it via CRC fallback.
        if qpinn_testkit::should_fail("persist.rename_torn") {
            fs::write(&final_path, &bytes[..bytes.len() / 3])?;
            let _ = fs::remove_file(&tmp_path);
            return Err(qpinn_testkit::injected_io_error("persist.rename_torn").into());
        }
        fs::rename(&tmp_path, &final_path)?;
        // Make the rename itself durable. Directory fsync is
        // platform-dependent; failure here cannot un-publish the file, so
        // it is best-effort.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // Failpoint: silent storage rot — one byte of the published snapshot
        // flips *after* a fully successful save. The caller sees `Ok`; only
        // the CRC check at load time can catch this.
        if qpinn_testkit::should_fail("persist.bitflip") {
            if let Ok(mut rotted) = fs::read(&final_path) {
                let mid = rotted.len() / 2;
                rotted[mid] ^= 0x01;
                let _ = fs::write(&final_path, &rotted);
            }
        }
        self.apply_retention(policy)?;
        qpinn_telemetry::counter("persist.checkpoint.writes").inc();
        qpinn_telemetry::counter("persist.checkpoint.bytes").add(bytes.len() as u64);
        qpinn_telemetry::mark("checkpoint_saved", |e| {
            e.field("next_epoch", snap.meta.next_epoch)
                .field("bytes", bytes.len())
                .field("eval_error", snap.meta.eval_error)
                .field("path", final_path.display().to_string())
        });
        Ok(final_path)
    }

    /// Load the newest snapshot that decodes and verifies cleanly.
    ///
    /// Corrupt or truncated files (CRC mismatch, bad magic, short reads) are
    /// skipped — the store falls back to the next-newest intact snapshot.
    /// Returns the snapshot together with the path it came from, or an error
    /// naming the directory when no intact snapshot exists.
    pub fn load_latest(&self) -> Result<(Snapshot, PathBuf)> {
        let mut corrupt_skipped = 0usize;
        for (_, path) in self.list().into_iter().rev() {
            let err = match fs::read(&path) {
                Ok(bytes) => match Snapshot::decode(&bytes) {
                    Ok(snap) => {
                        if corrupt_skipped > 0 {
                            qpinn_telemetry::mark("checkpoint_fallback_used", |e| {
                                e.field("corrupt_skipped", corrupt_skipped)
                                    .field("path", path.display().to_string())
                            });
                        }
                        return Ok((snap, path));
                    }
                    Err(e) => e.to_string(),
                },
                Err(e) => e.to_string(),
            };
            corrupt_skipped += 1;
            qpinn_telemetry::warn(
                "checkpoint_corrupt_skipped",
                format!("{}: {err}", path.display()),
            );
        }
        Err(PersistError::NoIntactSnapshot {
            dir: self.dir.display().to_string(),
            corrupt_skipped,
        })
    }

    /// Load and fully verify the snapshot saved at exactly `epoch`.
    /// Unlike [`SnapshotStore::load_latest`] there is no fallback: the
    /// caller asked for a specific version, so a missing or corrupt file
    /// is an error. Used by the `qpinn-serve` model registry to resolve
    /// `id@version` references.
    pub fn load_epoch(&self, epoch: u64) -> Result<(Snapshot, PathBuf)> {
        let path = self.dir.join(Self::file_name(epoch));
        let bytes = fs::read(&path)?;
        let snap = Snapshot::decode(&bytes)?;
        Ok((snap, path))
    }

    /// True when the directory holds at least one finished snapshot file
    /// (intact or not).
    pub fn has_snapshots(&self) -> bool {
        !self.list().is_empty()
    }

    /// Delete snapshots not covered by `policy` (see
    /// [`RetentionPolicy::survivors`]).
    pub fn apply_retention(&self, policy: &RetentionPolicy) -> Result<Vec<PathBuf>> {
        let listed = self.list();
        // Rank candidates by (epoch, eval_error); unreadable metadata makes
        // a file ineligible for "best" but it still counts for "last K" so
        // a corrupt newest file cannot silently evict good history.
        let ranked: Vec<(u64, PathBuf, Option<f64>)> = listed
            .into_iter()
            .map(|(epoch, path)| {
                let err = fs::read(&path)
                    .ok()
                    .and_then(|b| Snapshot::decode_meta_only(&b).ok())
                    .map(|m| m.eval_error);
                (epoch, path, err)
            })
            .collect();
        let survivors = policy.survivors(&ranked);
        let mut removed = Vec::new();
        for (i, (_, path, _)) in ranked.iter().enumerate() {
            if !survivors.contains(&i) {
                fs::remove_file(path)?;
                removed.push(path.clone());
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::RetentionPolicy;
    use crate::snapshot::tests::sample_snapshot;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qpinn-persist-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snap_at(epoch: u64, eval_error: f64) -> Snapshot {
        let mut s = sample_snapshot();
        s.meta.next_epoch = epoch;
        s.meta.eval_error = eval_error;
        s
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        let keep_all = RetentionPolicy::keep_all();
        store.save(&snap_at(100, 0.5), &keep_all).unwrap();
        store.save(&snap_at(200, 0.25), &keep_all).unwrap();
        let (snap, path) = store.load_latest().unwrap();
        assert_eq!(snap.meta.next_epoch, 200);
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "snap-0000000200.qps");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let dir = tmp_dir("atomic");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&snap_at(1, 0.1), &RetentionPolicy::keep_all()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp file leaked: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = tmp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("snap-0000000007.tmp");
        fs::write(&stale, b"half-written garbage from a crashed writer").unwrap();
        let _store = SnapshotStore::open(&dir).unwrap();
        assert!(!stale.exists(), "stale tmp must be swept on open");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn view_neither_creates_nor_sweeps() {
        let dir = tmp_dir("view");
        assert!(SnapshotStore::view(&dir).list().is_empty());
        assert!(!dir.exists(), "view must not create the directory");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&snap_at(3, 0.5), &RetentionPolicy::keep_all()).unwrap();
        let in_flight = dir.join("snap-0000000004.tmp");
        fs::write(&in_flight, b"a save still writing").unwrap();
        let view = SnapshotStore::view(&dir);
        assert_eq!(view.list().len(), 1);
        assert!(view.entries()[0].intact());
        assert_eq!(view.load_epoch(3).unwrap().0.meta.next_epoch, 3);
        assert!(in_flight.exists(), "view must leave temp files alone");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_intact() {
        let dir = tmp_dir("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        let keep_all = RetentionPolicy::keep_all();
        store.save(&snap_at(100, 0.5), &keep_all).unwrap();
        let newest = store.save(&snap_at(200, 0.4), &keep_all).unwrap();
        // Flip one byte in the newest snapshot.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (snap, path) = store.load_latest().unwrap();
        assert_eq!(snap.meta.next_epoch, 100, "must fall back past the corrupt file");
        assert!(path.to_str().unwrap().contains("0000000100"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_newest_falls_back_to_previous_intact() {
        let dir = tmp_dir("truncated");
        let store = SnapshotStore::open(&dir).unwrap();
        let keep_all = RetentionPolicy::keep_all();
        store.save(&snap_at(100, 0.5), &keep_all).unwrap();
        let newest = store.save(&snap_at(200, 0.4), &keep_all).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
        let (snap, _) = store.load_latest().unwrap();
        assert_eq!(snap.meta.next_epoch, 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_corrupt_reports_directory_and_count() {
        let dir = tmp_dir("allbad");
        let store = SnapshotStore::open(&dir).unwrap();
        let keep_all = RetentionPolicy::keep_all();
        for e in [10, 20] {
            let p = store.save(&snap_at(e, 0.5), &keep_all).unwrap();
            fs::write(&p, b"QPNSNAP\0 but then nonsense").unwrap();
        }
        match store.load_latest() {
            Err(PersistError::NoIntactSnapshot {
                dir: d,
                corrupt_skipped,
            }) => {
                assert_eq!(corrupt_skipped, 2);
                assert!(d.contains("allbad"));
            }
            other => panic!("expected NoIntactSnapshot, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_last_k_and_best() {
        let dir = tmp_dir("retention");
        let store = SnapshotStore::open(&dir).unwrap();
        let policy = RetentionPolicy {
            keep_last: 2,
            keep_best: true,
        };
        // Epoch 200 has the best (smallest) eval error; later snapshots are
        // worse, so retention must preserve 200 alongside the last two.
        for (e, err) in [(100, 0.9), (200, 0.01), (300, 0.5), (400, 0.3), (500, 0.2)] {
            store.save(&snap_at(e, err), &policy).unwrap();
        }
        let left: Vec<u64> = store.list().into_iter().map(|(e, _)| e).collect();
        assert_eq!(left, vec![200, 400, 500], "best + last two");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_report_metadata_without_decoding_tensors() {
        let dir = tmp_dir("entries");
        let store = SnapshotStore::open(&dir).unwrap();
        let keep_all = RetentionPolicy::keep_all();
        store.save(&snap_at(100, 0.5), &keep_all).unwrap();
        let corrupt = store.save(&snap_at(200, 0.25), &keep_all).unwrap();
        let mut bytes = fs::read(&corrupt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&corrupt, &bytes).unwrap();

        let entries = store.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].epoch, 100);
        assert!(entries[0].intact());
        let meta = entries[0].meta.as_ref().unwrap();
        assert_eq!(meta.run_id, "nls-flagship");
        assert_eq!(meta.eval_error, 0.5);
        assert!(entries[0].bytes > 0);
        // The bit-flipped file must surface as damaged, not vanish.
        assert_eq!(entries[1].epoch, 200);
        assert!(!entries[1].intact());
        assert!(entries[1].error.as_ref().unwrap().contains("checksum"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_epoch_is_exact_with_no_fallback() {
        let dir = tmp_dir("byepoch");
        let store = SnapshotStore::open(&dir).unwrap();
        let keep_all = RetentionPolicy::keep_all();
        store.save(&snap_at(7, 0.5), &keep_all).unwrap();
        store.save(&snap_at(9, 0.4), &keep_all).unwrap();
        let (snap, _) = store.load_epoch(7).unwrap();
        assert_eq!(snap.meta.next_epoch, 7);
        assert!(store.load_epoch(8).is_err(), "missing version must error");
        // Corrupt version 9: no silent fallback to 7.
        let p9 = dir.join(SnapshotStore::file_name(9));
        let mut bytes = fs::read(&p9).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&p9, &bytes).unwrap();
        assert!(store.load_epoch(9).is_err(), "corrupt version must error");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_ignored_and_untouched() {
        let dir = tmp_dir("foreign");
        let store = SnapshotStore::open(&dir).unwrap();
        let notes = dir.join("notes.txt");
        fs::write(&notes, "do not delete").unwrap();
        store
            .save(&snap_at(1, 0.5), &RetentionPolicy { keep_last: 1, keep_best: false })
            .unwrap();
        store
            .save(&snap_at(2, 0.4), &RetentionPolicy { keep_last: 1, keep_best: false })
            .unwrap();
        assert!(notes.exists(), "retention must only touch snapshot files");
        assert_eq!(store.list().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
