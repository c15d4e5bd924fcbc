//! Checkpoint-directory inspection: the report behind `qpinn-obs
//! snapshots DIR`.
//!
//! Renders one row per `.qps` file — version (the epoch/model-version
//! number in the file name), run id, next epoch, byte size, eval error,
//! and CRC status — using [`qpinn_persist::SnapshotStore::entries`],
//! which verifies checksums but never decodes parameter tensors, so the
//! listing is cheap even over gigabyte checkpoints. A model registry
//! directory tree (`<root>/<id>/*.qps`, as written by `qpinn-serve`) is
//! also accepted: pass `--recursive` to walk one level of
//! subdirectories. Stores are read through [`SnapshotStore::view`], so a
//! listing never creates a directory or sweeps the temp file of a
//! publish in flight.

use qpinn_core::report::TextTable;
use qpinn_persist::SnapshotStore;

/// Human-readable byte size (binary prefixes).
fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{b:.0} B")
    }
}

/// Render the snapshot listing for one store directory. Returns the
/// table text and the number of corrupt files found (so callers can
/// choose an exit code), or an error when `dir` is not a directory.
pub fn report(dir: &std::path::Path) -> Result<(String, usize), String> {
    if !dir.is_dir() {
        return Err(format!("{}: no such directory", dir.display()));
    }
    let entries = SnapshotStore::view(dir).entries();
    let mut table = TextTable::new(&["version", "run id", "next epoch", "bytes", "eval error", "crc"]);
    let mut corrupt = 0usize;
    for e in &entries {
        match &e.meta {
            Some(m) => table.row(&[
                e.epoch.to_string(),
                m.run_id.clone(),
                m.next_epoch.to_string(),
                fmt_bytes(e.bytes),
                format!("{:.3e}", m.eval_error),
                "ok".into(),
            ]),
            None => {
                corrupt += 1;
                table.row(&[
                    e.epoch.to_string(),
                    "?".into(),
                    "?".into(),
                    fmt_bytes(e.bytes),
                    "?".into(),
                    format!(
                        "CORRUPT: {}",
                        e.error.as_deref().unwrap_or("unreadable")
                    ),
                ]);
            }
        }
    }
    let mut out = format!("{}: {} snapshot(s)\n", dir.display(), entries.len());
    if !entries.is_empty() {
        out.push_str(&table.render());
    }
    Ok((out, corrupt))
}

/// Render reports for `dir` and (with `recursive`) each immediate
/// subdirectory that holds snapshots — the layout of a `qpinn-serve`
/// models directory. Returns the combined text and total corrupt count.
pub fn report_tree(dir: &std::path::Path, recursive: bool) -> Result<(String, usize), String> {
    let (mut out, mut corrupt) = report(dir)?;
    if recursive {
        let mut subdirs: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("reading {}: {e}", dir.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        for sub in subdirs {
            let (text, c) = report(&sub)?;
            out.push('\n');
            out.push_str(&text);
            corrupt += c;
        }
    }
    Ok((out, corrupt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_persist::{RetentionPolicy, RunMeta, Snapshot, SnapshotStore, TrainLogRecord};

    fn sample(run_id: &str, epoch: u64, err: f64) -> Snapshot {
        let mut params = qpinn_nn::ParamSet::new();
        params.add("w", qpinn_tensor::Tensor::from_slice(&[1.0, 2.0]));
        Snapshot {
            meta: RunMeta {
                run_id: run_id.into(),
                next_epoch: epoch,
                planned_epochs: 100,
                eval_error: err,
            },
            params,
            optim: qpinn_optim::Adam::new(1e-3).export_state(),
            log: TrainLogRecord::default(),
            task_state: Vec::new(),
        }
    }

    #[test]
    fn report_lists_intact_and_corrupt_rows() {
        let dir = std::env::temp_dir().join(format!("qpinn-obs-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&sample("demo", 10, 0.5), &RetentionPolicy::keep_all()).unwrap();
        let p = store.save(&sample("demo", 20, 0.25), &RetentionPolicy::keep_all()).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();

        let (text, corrupt) = report(&dir).unwrap();
        assert_eq!(corrupt, 1);
        assert!(text.contains("2 snapshot(s)"), "{text}");
        assert!(text.contains("demo"), "{text}");
        assert!(text.contains("CORRUPT"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_tree_walks_model_subdirectories() {
        let root = std::env::temp_dir().join(format!("qpinn-obs-snaptree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let sub = root.join("wave-model");
        let store = SnapshotStore::open(&sub).unwrap();
        store.save(&sample("wave-model", 1, 0.1), &RetentionPolicy::keep_all()).unwrap();
        let (text, corrupt) = report_tree(&root, true).unwrap();
        assert_eq!(corrupt, 0);
        assert!(text.contains("wave-model"), "{text}");
        assert!(text.contains("1 snapshot(s)"), "{text}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
