//! The on-disk snapshot store: crash-safe writes, versioned per-model
//! history, a self-checksummed manifest journal, and paranoid last-good
//! recovery.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   manifest.txt              journal: "<model>\t<version>\t<crc32>" lines
//!   <model>/
//!     v00000001.fsnap         snapshot version 1
//!     v00000002.fsnap         snapshot version 2 (newest = last-good)
//!     .v00000003.fsnap.tmp    in-flight write (ignored by readers)
//! ```
//!
//! Versions are zero-padded so lexical order is numeric order. Every save
//! goes through temp file → `fsync` → atomic rename (plus a best-effort
//! directory fsync), so a crash at any instant leaves either the old state
//! or the new state — never a half-written `.fsnap` under a durable name.
//!
//! The manifest is an *optimization and audit trail only*: it lets operators
//! see the last-known-good version per model without decoding snapshots, and
//! every line carries its own CRC so a torn manifest write corrupts nothing.
//! Readers never trust it — [`Store::load_last_good`] walks the model's
//! directory newest-first and fully validates each candidate, so a stale or
//! damaged manifest can at worst mislead a human, never the daemon.

use crate::artifact::{decode_artifact, encode_artifact, ModelArtifact};
use crate::crc32::crc32;
use crate::error::StoreError;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Snapshot file extension (with the leading dot).
const SNAP_EXT: &str = ".fsnap";

/// Reserved metadata key holding the profile fingerprint.
pub const FINGERPRINT_KEY: &str = "fingerprint";

/// A successfully recovered snapshot.
#[derive(Debug)]
pub struct Recovered {
    /// The restored model.
    pub artifact: ModelArtifact,
    /// Caller metadata stored alongside it.
    pub meta: Vec<(String, String)>,
    /// Which snapshot version was loaded.
    pub version: u64,
    /// `true` when the newest snapshot was rejected (corrupt or stale) and
    /// an older last-good version was served instead.
    pub fallback: bool,
}

/// One row of [`Store::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Model name (directory name under the store root).
    pub model: String,
    /// Snapshot version.
    pub version: u64,
    /// Snapshot file size in bytes.
    pub bytes: u64,
}

/// A durable, versioned snapshot store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`, probing that the
    /// directory is actually writable so misconfiguration fails at startup,
    /// not mid-boot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created or written.
    pub fn open(root: &Path) -> Result<Self, StoreError> {
        fs::create_dir_all(root).map_err(|e| StoreError::io(root, e))?;
        let probe = root.join(format!(".probe-{}", std::process::id()));
        fs::write(&probe, b"probe").map_err(|e| StoreError::io(&probe, e))?;
        fs::remove_file(&probe).map_err(|e| StoreError::io(&probe, e))?;
        Ok(Self { root: root.to_path_buf() })
    }

    /// Persists a new snapshot version for `model`, crash-safely, and
    /// returns the version number. `meta` should include the profile
    /// fingerprint under [`FINGERPRINT_KEY`] so loads can reject stale
    /// snapshots.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure; a failed save never
    /// clobbers existing versions.
    pub fn save(
        &self,
        model: &str,
        artifact: &ModelArtifact,
        meta: &[(String, String)],
    ) -> Result<u64, StoreError> {
        validate_model_name(model)?;
        let dir = self.root.join(model);
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let version = self.versions(model)?.last().copied().unwrap_or(0) + 1;
        let bytes = encode_artifact(artifact, meta);
        let final_path = dir.join(snapshot_file_name(version));
        let tmp_path = dir.join(format!(".{}.tmp", snapshot_file_name(version)));
        {
            let mut f = fs::File::create(&tmp_path).map_err(|e| StoreError::io(&tmp_path, e))?;
            f.write_all(&bytes).map_err(|e| StoreError::io(&tmp_path, e))?;
            f.sync_all().map_err(|e| StoreError::io(&tmp_path, e))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| StoreError::io(&final_path, e))?;
        // Make the rename itself durable; on filesystems where directories
        // cannot be fsynced this is best-effort (the write remains atomic).
        if let Ok(d) = fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        self.rewrite_manifest()?;
        Ok(version)
    }

    /// Loads the newest fully-valid snapshot of `model` whose fingerprint
    /// matches `expect_fingerprint` (pass `None` to accept any). Corrupt or
    /// stale versions are skipped newest-to-oldest — a half-written, bit-
    /// flipped, or truncated file can cost a fallback, never a bad model.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSnapshot`] when no version survives validation; the
    /// caller's fallback is to retrain.
    pub fn load_last_good(
        &self,
        model: &str,
        expect_fingerprint: Option<&str>,
    ) -> Result<Recovered, StoreError> {
        validate_model_name(model)?;
        let versions = self.versions(model)?;
        let newest = versions.last().copied();
        for &version in versions.iter().rev() {
            let path = self.snapshot_path(model, version);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => continue,
            };
            let (artifact, meta) = match decode_artifact(&bytes) {
                Ok(decoded) => decoded,
                Err(_) => continue,
            };
            if let Some(expected) = expect_fingerprint {
                let found = meta
                    .iter()
                    .find(|(k, _)| k == FINGERPRINT_KEY)
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("");
                if found != expected {
                    continue;
                }
            }
            return Ok(Recovered { artifact, meta, version, fallback: Some(version) != newest });
        }
        Err(StoreError::NoSnapshot(model.to_string()))
    }

    /// All snapshots in the store, sorted by model then version.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root cannot be scanned.
    pub fn list(&self) -> Result<Vec<SnapshotInfo>, StoreError> {
        let mut out = Vec::new();
        for model in self.models()? {
            for version in self.versions(&model)? {
                let path = self.snapshot_path(&model, version);
                let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                out.push(SnapshotInfo { model: model.clone(), version, bytes });
            }
        }
        Ok(out)
    }

    /// Model directories present under the root, sorted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root cannot be scanned.
    pub(crate) fn models(&self) -> Result<Vec<String>, StoreError> {
        let mut models = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| StoreError::io(&self.root, e))?;
        for entry in entries.flatten() {
            if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if !name.starts_with('.') {
                    models.push(name.to_string());
                }
            }
        }
        models.sort();
        Ok(models)
    }

    /// Snapshot versions present for `model`, ascending. Leftover temp files
    /// and foreign files are ignored. An absent model directory is simply an
    /// empty history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory exists but cannot be scanned.
    pub fn versions(&self, model: &str) -> Result<Vec<u64>, StoreError> {
        validate_model_name(model)?;
        let dir = self.root.join(model);
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io(&dir, e)),
        };
        let mut versions: Vec<u64> = entries
            .flatten()
            .filter_map(|entry| parse_snapshot_file_name(entry.file_name().to_str()?))
            .collect();
        versions.sort_unstable();
        Ok(versions)
    }

    /// Prunes old snapshot versions, keeping the newest `keep` per model
    /// (`keep` is clamped to at least 1 — gc never deletes the last-good
    /// copy), and sweeps leftover temp files. Returns the number of files
    /// removed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a directory cannot be scanned; individual
    /// file removals are best-effort.
    pub fn gc(&self, keep: usize) -> Result<usize, StoreError> {
        let keep = keep.max(1);
        let mut removed = 0usize;
        for model in self.models()? {
            let versions = self.versions(&model)?;
            for &version in versions.iter().rev().skip(keep) {
                if fs::remove_file(self.snapshot_path(&model, version)).is_ok() {
                    removed += 1;
                }
            }
            let dir = self.root.join(&model);
            if let Ok(entries) = fs::read_dir(&dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    if name.starts_with('.') && name.ends_with(".tmp") {
                        removed += usize::from(fs::remove_file(entry.path()).is_ok());
                    }
                }
            }
        }
        self.rewrite_manifest()?;
        Ok(removed)
    }

    /// Reads the manifest journal: model → last-good version, skipping any
    /// line whose self-checksum fails (torn manifest writes degrade to "no
    /// opinion", never to bad data). A missing manifest is an empty map.
    pub fn manifest(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        let Ok(text) = fs::read_to_string(self.manifest_path()) else {
            return map;
        };
        for line in text.lines() {
            let mut parts = line.splitn(3, '\t');
            let (Some(model), Some(version), Some(crc)) =
                (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let (Ok(version), Ok(crc)) = (version.parse::<u64>(), crc.parse::<u32>()) else {
                continue;
            };
            if crc32(format!("{model}\t{version}").as_bytes()) != crc {
                continue;
            }
            map.insert(model.to_string(), version);
        }
        map
    }

    /// Path of a specific snapshot file.
    pub fn snapshot_path(&self, model: &str, version: u64) -> PathBuf {
        self.root.join(model).join(snapshot_file_name(version))
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.txt")
    }

    /// Rewrites the manifest journal to reflect the directory state, via the
    /// same temp → fsync → rename dance as snapshots.
    fn rewrite_manifest(&self) -> Result<(), StoreError> {
        let mut text = String::new();
        for model in self.models()? {
            if let Some(&version) = self.versions(&model)?.last() {
                let line = format!("{model}\t{version}");
                let crc = crc32(line.as_bytes());
                text.push_str(&format!("{line}\t{crc}\n"));
            }
        }
        let tmp = self.root.join(".manifest.txt.tmp");
        {
            let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
            f.write_all(text.as_bytes()).map_err(|e| StoreError::io(&tmp, e))?;
            f.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
        }
        let path = self.manifest_path();
        fs::rename(&tmp, &path).map_err(|e| StoreError::io(&path, e))?;
        Ok(())
    }
}

fn snapshot_file_name(version: u64) -> String {
    format!("v{version:08}{SNAP_EXT}")
}

fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix('v')?.strip_suffix(SNAP_EXT)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Model names become directory names; keep them to a safe charset so a
/// hostile config cannot traverse out of the store root.
fn validate_model_name(model: &str) -> Result<(), StoreError> {
    let ok = !model.is_empty()
        && model.len() <= 128
        && !model.starts_with('.')
        && model.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.');
    if ok {
        Ok(())
    } else {
        Err(StoreError::Malformed(format!("invalid model name '{model}'")))
    }
}
