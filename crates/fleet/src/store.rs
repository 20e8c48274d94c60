//! The persistent artifact store: a directory of plan artifacts plus a
//! versioned index.
//!
//! Layout (all inside one store directory):
//!
//! * `<fingerprint>.json` — one plan artifact per request fingerprint
//!   (32 lowercase hex digits), byte-for-byte the canonical artifact the
//!   fleet serves (`graphpipe-plan` codec, search stats zeroed — see
//!   [`crate::canonical_artifact`]);
//! * `index.json` — the versioned index:
//!
//! ```json
//! {
//!   "format": "graphpipe-store-index",
//!   "version": 1,
//!   "artifacts": [
//!     {"fingerprint": "<32 hex>", "numbering": "<16 hex>"}
//!   ]
//! }
//! ```
//!
//! `numbering` is the [`numbering_signature`] of the graph the artifact
//! was planned for (plans carry raw operator ids; an artifact is only
//! reused when the requester's numbering matches). It may be `null` for
//! entries recovered by a rebuild — decoding still re-validates the
//! artifact against the requester's graph, so a `null` entry degrades to
//! "decode and verify before trusting", never to silent reuse.
//!
//! On open, a missing or corrupt index is **rebuilt** by scanning the
//! directory for artifact files and reading each file's `format` marker
//! and `fingerprint` header — a warm restart never replans just because
//! the index was lost. Writes are atomic (temp file + rename) and the
//! index is rewritten after every artifact insert, entries sorted by
//! fingerprint, so the index bytes are a pure function of the store
//! contents.
//!
//! [`numbering_signature`]: gp_ir::SpModel::numbering_signature
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::lock;
use gp_serve::json::Json;
use gp_serve::Fingerprint;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The index `format` marker.
pub const INDEX_FORMAT: &str = "graphpipe-store-index";

/// The index version this build writes.
pub const INDEX_VERSION: u64 = 1;

/// Name of the index file inside the store directory.
pub const INDEX_FILE: &str = "index.json";

/// What the index records per artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Numbering signature of the planned graph; `None` when the entry
    /// was recovered by an index rebuild (the artifact file itself does
    /// not carry it).
    numbering: Option<u64>,
}

/// A directory-backed store of plan artifacts with a versioned index.
pub struct ArtifactStore {
    dir: PathBuf,
    index: Mutex<BTreeMap<Fingerprint, IndexEntry>>,
    /// Whether `open` found no usable index and recovered by scanning.
    rebuilt: bool,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store at `dir`, loading the index or
    /// rebuilding it from the artifact files when it is missing or
    /// corrupt.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (directory creation, file reads,
    /// index persistence).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (index, rebuilt) = match read_index(&dir) {
            Some(index) => (index, false),
            None => {
                let index = scan_artifacts(&dir)?;
                write_index(&dir, &index)?;
                (index, true)
            }
        };
        Ok(ArtifactStore {
            dir,
            index: Mutex::new(index),
            rebuilt,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether opening recovered the index by scanning artifact files
    /// (missing or corrupt `index.json`).
    pub fn rebuilt_index(&self) -> bool {
        self.rebuilt
    }

    /// Artifacts currently indexed.
    pub fn len(&self) -> usize {
        lock(&self.index).len()
    }

    /// True when the store indexes no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All indexed fingerprints, ascending.
    pub fn fingerprints(&self) -> Vec<Fingerprint> {
        lock(&self.index).keys().copied().collect()
    }

    /// The artifact bytes and recorded numbering signature for a
    /// fingerprint, or `None` when the store has no such artifact (or its
    /// file vanished out from under the index, in which case the entry is
    /// dropped).
    pub fn get(&self, fingerprint: &Fingerprint) -> Option<(String, Option<u64>)> {
        let entry = *lock(&self.index).get(fingerprint)?;
        match std::fs::read_to_string(self.artifact_path(fingerprint)) {
            Ok(text) => Some((text, entry.numbering)),
            Err(_) => {
                lock(&self.index).remove(fingerprint);
                None
            }
        }
    }

    /// Persists artifact bytes under a fingerprint and records the graph
    /// numbering they were planned for; both the artifact file and the
    /// index are written atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; on error the in-memory index is
    /// left unchanged.
    pub fn put(&self, fingerprint: Fingerprint, text: &str, numbering: u64) -> io::Result<()> {
        write_atomic(&self.artifact_path(&fingerprint), text)?;
        let snapshot = {
            let mut index = lock(&self.index);
            index.insert(
                fingerprint,
                IndexEntry {
                    numbering: Some(numbering),
                },
            );
            index.clone()
        };
        write_index(&self.dir, &snapshot)
    }

    /// Records the numbering signature for an artifact whose index entry
    /// lost it (an index rebuild), after a successful validated decode
    /// against a graph with that signature.
    pub fn confirm_numbering(&self, fingerprint: Fingerprint, numbering: u64) {
        let mut index = lock(&self.index);
        if let Some(entry) = index.get_mut(&fingerprint) {
            if entry.numbering.is_none() {
                entry.numbering = Some(numbering);
                let snapshot = index.clone();
                drop(index);
                // Best-effort persistence: the in-memory index is already
                // correct, and a lost write only costs a re-validation on
                // the next restart.
                let _ = write_index(&self.dir, &snapshot);
            }
        }
    }

    fn artifact_path(&self, fingerprint: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }
}

/// Writes `text` to `path` atomically: temp file in the same directory,
/// then rename.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Parses `index.json`; `None` when missing, malformed, unversioned, or
/// newer than this build understands (any of which trigger a rebuild).
fn read_index(dir: &Path) -> Option<BTreeMap<Fingerprint, IndexEntry>> {
    let text = std::fs::read_to_string(dir.join(INDEX_FILE)).ok()?;
    let doc = Json::parse(&text).ok()?;
    if doc.get("format")?.as_str()? != INDEX_FORMAT {
        return None;
    }
    if doc.get("version")?.as_u64()? > INDEX_VERSION {
        return None;
    }
    let mut index = BTreeMap::new();
    for entry in doc.get("artifacts")?.as_arr()? {
        let fingerprint = Fingerprint::parse(entry.get("fingerprint")?.as_str()?)?;
        let numbering = match entry.get("numbering")? {
            Json::Null => None,
            other => Some(u64::from_str_radix(other.as_str()?, 16).ok()?),
        };
        index.insert(fingerprint, IndexEntry { numbering });
    }
    Some(index)
}

/// Rebuilds the index by scanning the directory for plan-artifact files:
/// every `*.json` (except the index) whose `format` marker is the plan
/// codec's and whose `fingerprint` header parses. Files are visited in
/// sorted name order so the rebuilt index is reproducible.
fn scan_artifacts(dir: &Path) -> io::Result<BTreeMap<Fingerprint, IndexEntry>> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|e| e == "json")
                && p.file_name().is_some_and(|n| n != INDEX_FILE)
        })
        .collect();
    names.sort();
    let mut index = BTreeMap::new();
    for path in names {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(doc) = Json::parse(&text) else {
            continue;
        };
        if doc.get("format").and_then(Json::as_str) != Some(gp_serve::artifact::FORMAT) {
            continue;
        }
        let Some(fingerprint) = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(Fingerprint::parse)
        else {
            continue;
        };
        // The artifact codec does not carry the numbering signature; the
        // first validated decode backfills it (`confirm_numbering`).
        index.insert(fingerprint, IndexEntry { numbering: None });
    }
    Ok(index)
}

/// Writes the index document atomically, entries sorted by fingerprint.
fn write_index(dir: &Path, index: &BTreeMap<Fingerprint, IndexEntry>) -> io::Result<()> {
    let artifacts = index
        .iter()
        .map(|(fp, entry)| {
            Json::Obj(vec![
                ("fingerprint".into(), Json::Str(fp.to_string())),
                (
                    "numbering".into(),
                    match entry.numbering {
                        Some(n) => Json::Str(format!("{n:016x}")),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("format".into(), Json::Str(INDEX_FORMAT.into())),
        ("version".into(), Json::Int(i128::from(INDEX_VERSION))),
        ("artifacts".into(), Json::Arr(artifacts)),
    ]);
    write_atomic(&dir.join(INDEX_FILE), &doc.to_string())
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

    #[test]
    fn put_get_round_trips_bytes_and_numbering() {
        let dir = temp_dir("roundtrip");
        let (fp, text, numbering) = artifact_text();
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.put(fp, &text, numbering).unwrap();
        let (read, n) = store.get(&fp).unwrap();
        assert_eq!(read, text);
        assert_eq!(n, Some(numbering));
        assert_eq!(store.fingerprints(), vec![fp]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_loads_the_persisted_index() {
        let dir = temp_dir("reopen");
        let (fp, text, numbering) = artifact_text();
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(fp, &text, numbering).unwrap();
        }
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(!store.rebuilt_index(), "index.json should have loaded");
        let (read, n) = store.get(&fp).unwrap();
        assert_eq!(read, text);
        assert_eq!(n, Some(numbering));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_corrupt_index_rebuilds_from_artifact_files() {
        let dir = temp_dir("rebuild");
        let (fp, text, numbering) = artifact_text();
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(fp, &text, numbering).unwrap();
        }
        for sabotage in ["missing", "garbage", "nesting bomb"] {
            let index_path = dir.join(INDEX_FILE);
            match sabotage {
                "missing" => std::fs::remove_file(&index_path).unwrap(),
                "garbage" => std::fs::write(&index_path, "not json at all").unwrap(),
                _ => std::fs::write(&index_path, "[".repeat(100_000)).unwrap(),
            }
            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.rebuilt_index(), "{sabotage}: expected a rebuild");
            let (read, n) = store.get(&fp).unwrap();
            assert_eq!(read, text, "{sabotage}: artifact bytes survived");
            // A rebuilt entry has no numbering until a decode confirms it.
            assert_eq!(n, None);
            store.confirm_numbering(fp, numbering);
            assert_eq!(store.get(&fp).unwrap().1, Some(numbering));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_ignores_non_artifact_files() {
        let dir = temp_dir("ignore");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.json"), "{\"format\":\"other\"}").unwrap();
        std::fs::write(dir.join("junk.txt"), "junk").unwrap();
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newer_index_version_triggers_a_rebuild_not_a_misread() {
        let dir = temp_dir("version");
        let (fp, text, numbering) = artifact_text();
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(fp, &text, numbering).unwrap();
        }
        let newer = format!(
            "{{\"format\":\"{INDEX_FORMAT}\",\"version\":{},\"artifacts\":[]}}",
            INDEX_VERSION + 1
        );
        std::fs::write(dir.join(INDEX_FILE), newer).unwrap();
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.rebuilt_index());
        assert_eq!(store.len(), 1, "artifact recovered by the scan");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
