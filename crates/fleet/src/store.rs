//! The persistent artifact store: a directory of plan artifacts whose
//! file names are the index.
//!
//! Each artifact is the file `<fingerprint>-<numbering>.json`: the request
//! fingerprint (32 lowercase hex digits) and the [`numbering_signature`]
//! of the graph the plan was computed for (16 lowercase hex digits). Plans
//! carry raw operator ids, so the pair is the key, as in the shard cache.
//! The file holds byte-for-byte the canonical artifact the fleet serves
//! (`graphpipe-plan` codec, search stats zeroed — see
//! [`gp_serve::artifact::canonical_artifact`]).
//!
//! Opening lists the directory in sorted name order and keeps the names
//! that parse; no file is read until a request asks for it. A put writes a
//! temp file and renames it into place, then removes the fingerprint's
//! file under any other numbering, so a fingerprint keeps one artifact. If
//! a crash between the rename and the removal leaves two, the sorted
//! listing makes every open keep the same one.
//!
//! [`numbering_signature`]: gp_ir::SpModel::numbering_signature
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::lock;
use gp_serve::Fingerprint;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

/// A directory-backed store of plan artifacts, one file per fingerprint.
pub struct ArtifactStore {
    dir: PathBuf,
    /// The numbering of each fingerprint's artifact file.
    files: Mutex<BTreeMap<Fingerprint, u64>>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store at `dir` and indexes the
    /// artifact files it already holds.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (directory creation or listing).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut names: Vec<String> = std::fs::read_dir(&dir)?
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .collect();
        names.sort();
        let files = names.iter().filter_map(|name| parse_name(name)).collect();
        Ok(ArtifactStore {
            dir,
            files: Mutex::new(files),
        })
    }

    /// Artifacts currently indexed.
    pub fn len(&self) -> usize {
        lock(&self.files).len()
    }

    /// True when the store indexes no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The artifact bytes for a fingerprint and the numbering signature
    /// they were planned for, or `None` when the store has no such
    /// artifact (or its file vanished, in which case the entry is
    /// dropped).
    pub fn get(&self, fingerprint: &Fingerprint) -> Option<(String, u64)> {
        let numbering = *lock(&self.files).get(fingerprint)?;
        match std::fs::read_to_string(self.path(*fingerprint, numbering)) {
            Ok(text) => Some((text, numbering)),
            Err(_) => {
                // A put under a new numbering removes the old file after
                // recording its own; that entry must survive.
                let mut files = lock(&self.files);
                if files.get(fingerprint) == Some(&numbering) {
                    files.remove(fingerprint);
                }
                None
            }
        }
    }

    /// Persists artifact bytes under a fingerprint and the graph numbering
    /// they were planned for, atomically (temp file + rename), replacing
    /// the fingerprint's artifact under any other numbering.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; on error the store is left
    /// unchanged and no temp file remains.
    pub fn put(&self, fingerprint: Fingerprint, text: &str, numbering: u64) -> io::Result<()> {
        let path = self.path(fingerprint, numbering);
        let tmp = path.with_extension("json.tmp");
        let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written?;
        let old = lock(&self.files).insert(fingerprint, numbering);
        if let Some(old) = old.filter(|&old| old != numbering) {
            // A leftover only costs a store reject and a re-plan, which
            // rewrites it.
            let _ = std::fs::remove_file(self.path(fingerprint, old));
        }
        Ok(())
    }

    fn path(&self, fingerprint: Fingerprint, numbering: u64) -> PathBuf {
        self.dir.join(file_name(fingerprint, numbering))
    }
}

fn file_name(fingerprint: Fingerprint, numbering: u64) -> String {
    format!("{fingerprint}-{numbering:016x}.json")
}

/// The key an artifact file name encodes; `None` for any other name,
/// including non-canonical spellings of a key.
fn parse_name(name: &str) -> Option<(Fingerprint, u64)> {
    let (fingerprint, numbering) = name.strip_suffix(".json")?.split_once('-')?;
    let key = (
        Fingerprint::parse(fingerprint)?,
        u64::from_str_radix(numbering, 16).ok()?,
    );
    (file_name(key.0, key.1) == name).then_some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::Cluster;
    use gp_ir::zoo::{self, CandleUnoConfig};
    use gp_partition::{GraphPipePlanner, Planner};
    use gp_serve::{artifact, PlanRequest};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gp-fleet-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn artifact_text() -> (Fingerprint, String, u64) {
        let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny()));
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let fp = PlanRequest::new(Arc::clone(&model), cluster, 32).fingerprint();
        let numbering = model.numbering_signature();
        (fp, artifact::encode_plan(&plan, Some(fp)), numbering)
    }

    /// The store directory's file names, sorted.
    fn listing(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn put_get_round_trips_bytes_and_numbering() {
        let dir = temp_dir("roundtrip");
        let (fp, text, numbering) = artifact_text();
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.put(fp, &text, numbering).unwrap();
        let (read, n) = store.get(&fp).unwrap();
        assert_eq!(read, text);
        assert_eq!(n, numbering);
        assert_eq!(listing(&dir), vec![file_name(fp, numbering)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_indexes_the_artifact_files() {
        let dir = temp_dir("reopen");
        let (fp, text, numbering) = artifact_text();
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(fp, &text, numbering).unwrap();
        }
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        let (read, n) = store.get(&fp).unwrap();
        assert_eq!(read, text);
        assert_eq!(n, numbering);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_ignores_other_files() {
        let dir = temp_dir("ignore");
        std::fs::create_dir_all(&dir).unwrap();
        let fp = Fingerprint(0xabc);
        for name in [
            "notes.json".to_string(),
            "junk.txt".to_string(),
            "index.json".to_string(),
            format!("{fp}.json"),
            format!("{fp}-abc.json"),
            format!("{}.tmp", file_name(fp, 7)),
            format!("{fp}-{:016X}.json", 0xabc_u64),
        ] {
            std::fs::write(dir.join(&name), "{}").unwrap();
            assert_eq!(parse_name(&name), None, "{name}");
        }
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.get(&fp), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_new_numbering_replaces_the_old_file() {
        let dir = temp_dir("renumber");
        let (fp, text, numbering) = artifact_text();
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(fp, &text, numbering).unwrap();
        store.put(fp, &text, numbering ^ 1).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&fp).unwrap().1, numbering ^ 1);
        assert_eq!(listing(&dir), vec![file_name(fp, numbering ^ 1)]);
        // A crash between rename and removal leaves two files: every
        // open keeps the one that sorts last.
        std::fs::write(dir.join(file_name(fp, numbering)), &text).unwrap();
        let last = numbering.max(numbering ^ 1);
        for _ in 0..2 {
            let reopened = ArtifactStore::open(&dir).unwrap();
            assert_eq!(reopened.get(&fp).unwrap().1, last);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
