//! # fab-store
//!
//! Durable model snapshots for the fab serving stack: a versioned,
//! CRC32-checksummed binary format ([`format`]) for frozen f32 and quantized
//! int8 models ([`ModelArtifact`]), written crash-safely and read
//! paranoidly ([`Store`]).
//!
//! Design rules, in priority order:
//!
//! 1. **Never serve a half-read model.** Every byte of a snapshot is covered
//!    by a checksum (whole-body plus per-section); decoding validates all
//!    lengths before trusting them and surfaces every corruption mode as a
//!    typed [`StoreError`] — truncation, bit flips, torn writes, stale
//!    manifests, and structurally-impossible models all included. No input
//!    can make the reader panic or return partial data.
//! 2. **Crashes lose at most the in-flight write.** Saves go temp file →
//!    `fsync` → atomic rename; the manifest journal is advisory and
//!    self-checksummed per line, and readers re-derive truth from the
//!    directory contents.
//! 3. **Bit-identical restore.** f32 tensors round-trip by exact bit
//!    pattern and derived fields are recomputed, so a restored model's
//!    logits equal the saved model's logits bit for bit — warm-started
//!    serving is indistinguishable from freshly-trained serving.
//! 4. **Last-good fallback.** [`Store::load_last_good`] walks versions
//!    newest-to-oldest, skipping anything invalid or fingerprint-stale; the
//!    caller's final fallback is retraining.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod artifact;
mod crc32;
mod error;
mod format;
mod store;

pub use artifact::{decode_artifact, encode_artifact, ModelArtifact};
pub use crc32::crc32;
pub use error::StoreError;
pub use format::{section_offsets, Section, SectionData, Snapshot, FORMAT_VERSION, MAGIC};
pub use store::{Recovered, SnapshotInfo, Store, FINGERPRINT_KEY};
