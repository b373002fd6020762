//! The `FABSNAP1` binary snapshot format: a checksummed header followed by
//! named, typed, individually CRC32-checksummed sections.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   "FABSNAP1"
//! format_version   u32       currently 1
//! body_len         u64       byte length of everything after body_crc32
//! body_crc32       u32       CRC32 over the body bytes
//! body:
//!   section_count  u32
//!   section × N:
//!     name_len     u16       then `name_len` UTF-8 bytes
//!     dtype        u8        0 = f32, 1 = i8, 2 = u64, 3 = utf-8 string
//!     ndim         u8        then `ndim` u64 dims
//!     payload_len  u64       then `payload_len` payload bytes
//!     payload_crc  u32       CRC32 over the payload bytes
//! ```
//!
//! f32 payloads store the exact IEEE-754 bit pattern of every value
//! (`to_le_bytes`/`from_le_bytes`), so a decoded tensor is bit-identical to
//! the encoded one — the foundation of the "restored logits are bit-equal"
//! guarantee up the stack.
//!
//! The reader is paranoid by construction: every length is bounds-checked
//! before use, every read is total, and every failure is a typed
//! [`StoreError`]. It never panics on attacker- or bitrot-shaped input, and
//! it never returns partially-decoded data — the body checksum is verified
//! before any section is parsed, and each section's own checksum before its
//! payload is decoded.

use crate::crc32::crc32;
use crate::error::StoreError;

/// File magic: format name + major generation.
pub const MAGIC: &[u8; 8] = b"FABSNAP1";

/// Current format version written by this crate.
pub const FORMAT_VERSION: u32 = 1;

/// Refuse to decode bodies larger than this (a corrupt `body_len` must not
/// become an allocation bomb). Models in this workspace are kilobytes; the
/// cap is generous.
const MAX_BODY_BYTES: u64 = 1 << 32;

/// Refuse section names and dimension counts beyond sane bounds.
const MAX_NAME_LEN: usize = 1 << 12;
const MAX_NDIM: usize = 8;

/// A decoded section payload.
#[derive(Debug, Clone, PartialEq)]
pub enum SectionData {
    /// Bit-exact f32 values.
    F32(Vec<f32>),
    /// Raw int8 values (quantized weights / embedding tables).
    I8(Vec<i8>),
    /// Unsigned integers (shapes, hyper-parameters, flags).
    U64(Vec<u64>),
    /// A UTF-8 string (metadata, enum tags).
    Str(String),
}

impl SectionData {
    fn dtype_tag(&self) -> u8 {
        match self {
            SectionData::F32(_) => 0,
            SectionData::I8(_) => 1,
            SectionData::U64(_) => 2,
            SectionData::Str(_) => 3,
        }
    }

    fn payload_bytes(&self) -> Vec<u8> {
        match self {
            SectionData::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            SectionData::I8(v) => v.iter().map(|&x| x as u8).collect(),
            SectionData::U64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            SectionData::Str(s) => s.as_bytes().to_vec(),
        }
    }

    /// Number of scalar elements (bytes for strings).
    pub(crate) fn len(&self) -> usize {
        match self {
            SectionData::F32(v) => v.len(),
            SectionData::I8(v) => v.len(),
            SectionData::U64(v) => v.len(),
            SectionData::Str(s) => s.len(),
        }
    }
}

/// One named, typed, shaped blob of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name (a `/`-separated path such as `block0/ffn/lin1/w`).
    pub name: String,
    /// Logical dimensions of the payload (empty for scalars/strings).
    pub dims: Vec<u64>,
    /// The payload.
    pub data: SectionData,
}

/// An in-memory snapshot: an ordered list of sections. Encode with
/// [`Snapshot::encode`], decode with [`Snapshot::decode`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    sections: Vec<Section>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// All sections, in write order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Appends an f32 tensor section (bit-exact round trip).
    pub fn push_f32(&mut self, name: &str, dims: &[u64], values: &[f32]) {
        self.push(name, dims, SectionData::F32(values.to_vec()));
    }

    /// Appends an int8 section.
    pub fn push_i8(&mut self, name: &str, dims: &[u64], values: &[i8]) {
        self.push(name, dims, SectionData::I8(values.to_vec()));
    }

    /// Appends a u64 section.
    pub fn push_u64(&mut self, name: &str, values: &[u64]) {
        self.push(name, &[values.len() as u64], SectionData::U64(values.to_vec()));
    }

    /// Appends a string section.
    pub fn push_str(&mut self, name: &str, value: &str) {
        self.push(name, &[], SectionData::Str(value.to_string()));
    }

    fn push(&mut self, name: &str, dims: &[u64], data: SectionData) {
        debug_assert!(!self.sections.iter().any(|s| s.name == name), "duplicate section '{name}'");
        self.sections.push(Section { name: name.to_string(), dims: dims.to_vec(), data });
    }

    /// Looks a section up by name.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`].
    pub(crate) fn section(&self, name: &str) -> Result<&Section, StoreError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StoreError::MissingSection(name.to_string()))
    }

    /// An f32 section's values, validating the element count.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] / [`StoreError::BadSection`].
    pub(crate) fn f32s(&self, name: &str, expect_len: usize) -> Result<&[f32], StoreError> {
        match &self.section(name)?.data {
            SectionData::F32(v) if v.len() == expect_len => Ok(v),
            SectionData::F32(v) => Err(StoreError::BadSection {
                section: name.to_string(),
                reason: format!("expected {expect_len} f32 values, found {}", v.len()),
            }),
            other => Err(wrong_dtype(name, "f32", other)),
        }
    }

    /// An i8 section's values, validating the element count.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] / [`StoreError::BadSection`].
    pub(crate) fn i8s(&self, name: &str, expect_len: usize) -> Result<&[i8], StoreError> {
        match &self.section(name)?.data {
            SectionData::I8(v) if v.len() == expect_len => Ok(v),
            SectionData::I8(v) => Err(StoreError::BadSection {
                section: name.to_string(),
                reason: format!("expected {expect_len} i8 values, found {}", v.len()),
            }),
            other => Err(wrong_dtype(name, "i8", other)),
        }
    }

    /// A u64 section's values, validating the element count.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] / [`StoreError::BadSection`].
    pub(crate) fn u64s(&self, name: &str, expect_len: usize) -> Result<&[u64], StoreError> {
        match &self.section(name)?.data {
            SectionData::U64(v) if v.len() == expect_len => Ok(v),
            SectionData::U64(v) => Err(StoreError::BadSection {
                section: name.to_string(),
                reason: format!("expected {expect_len} u64 values, found {}", v.len()),
            }),
            other => Err(wrong_dtype(name, "u64", other)),
        }
    }

    /// A string section's value.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] / [`StoreError::BadSection`].
    pub fn str(&self, name: &str) -> Result<&str, StoreError> {
        match &self.section(name)?.data {
            SectionData::Str(s) => Ok(s),
            other => Err(wrong_dtype(name, "string", other)),
        }
    }

    /// Serializes the snapshot into the on-disk byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(1024);
        body.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            let name = s.name.as_bytes();
            body.extend_from_slice(&(name.len() as u16).to_le_bytes());
            body.extend_from_slice(name);
            body.push(s.data.dtype_tag());
            body.push(s.dims.len() as u8);
            for &d in &s.dims {
                body.extend_from_slice(&d.to_le_bytes());
            }
            let payload = s.data.payload_bytes();
            body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            body.extend_from_slice(&payload);
            body.extend_from_slice(&crc32(&payload).to_le_bytes());
        }
        let mut out = Vec::with_capacity(body.len() + 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes and fully validates an on-disk snapshot.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] for every corruption mode: wrong magic,
    /// unknown version, truncation anywhere, body or section checksum
    /// mismatch, or structural damage. Never panics, never returns a
    /// partially-decoded snapshot.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8, "magic")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let body_len = r.u64("body length")?;
        if body_len > MAX_BODY_BYTES {
            return Err(StoreError::Malformed(format!("body length {body_len} exceeds cap")));
        }
        let body_crc = r.u32("body checksum")?;
        let body = r.take(body_len as usize, "body")?;
        if !r.at_end() {
            return Err(StoreError::Malformed("trailing bytes after body".to_string()));
        }
        if crc32(body) != body_crc {
            return Err(StoreError::BodyChecksum);
        }

        let mut r = Reader { bytes: body, pos: 0 };
        let count = r.u32("section count")? as usize;
        let mut sections = Vec::new();
        for _ in 0..count {
            let name_len = r.u16("section name length")? as usize;
            if name_len > MAX_NAME_LEN {
                return Err(StoreError::Malformed(format!("section name length {name_len}")));
            }
            let name = std::str::from_utf8(r.take(name_len, "section name")?)
                .map_err(|_| StoreError::Malformed("section name is not UTF-8".to_string()))?
                .to_string();
            let dtype = r.u8("section dtype")?;
            let ndim = r.u8("section ndim")? as usize;
            if ndim > MAX_NDIM {
                return Err(StoreError::Malformed(format!("section '{name}' ndim {ndim}")));
            }
            let mut dims = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                dims.push(r.u64("section dims")?);
            }
            let payload_len = r.u64("payload length")? as usize;
            let payload = r.take(payload_len, "section payload")?;
            let payload_crc = r.u32("payload checksum")?;
            if crc32(payload) != payload_crc {
                return Err(StoreError::SectionChecksum(name));
            }
            let data = decode_payload(&name, dtype, payload)?;
            if let Some(elems) = dims.iter().copied().try_fold(1u64, |a, d| a.checked_mul(d)) {
                if !dims.is_empty() && elems as usize != data.len() {
                    return Err(StoreError::BadSection {
                        section: name,
                        reason: format!(
                            "dims {dims:?} promise {elems} elements, payload holds {}",
                            data.len()
                        ),
                    });
                }
            } else {
                return Err(StoreError::BadSection {
                    section: name,
                    reason: format!("dims {dims:?} overflow"),
                });
            }
            sections.push(Section { name, dims, data });
        }
        if !r.at_end() {
            return Err(StoreError::Malformed("trailing bytes after sections".to_string()));
        }
        Ok(Snapshot { sections })
    }
}

fn wrong_dtype(name: &str, expected: &str, found: &SectionData) -> StoreError {
    let found = match found {
        SectionData::F32(_) => "f32",
        SectionData::I8(_) => "i8",
        SectionData::U64(_) => "u64",
        SectionData::Str(_) => "string",
    };
    StoreError::BadSection {
        section: name.to_string(),
        reason: format!("expected dtype {expected}, found {found}"),
    }
}

fn decode_payload(name: &str, dtype: u8, payload: &[u8]) -> Result<SectionData, StoreError> {
    let multiple_of = |width: usize| -> Result<(), StoreError> {
        if payload.len().is_multiple_of(width) {
            Ok(())
        } else {
            Err(StoreError::BadSection {
                section: name.to_string(),
                reason: format!("payload length {} not a multiple of {width}", payload.len()),
            })
        }
    };
    match dtype {
        0 => {
            multiple_of(4)?;
            Ok(SectionData::F32(
                payload
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            ))
        }
        1 => Ok(SectionData::I8(payload.iter().map(|&b| b as i8).collect())),
        2 => {
            multiple_of(8)?;
            Ok(SectionData::U64(
                payload
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                    .collect(),
            ))
        }
        3 => Ok(SectionData::Str(
            std::str::from_utf8(payload)
                .map_err(|_| StoreError::BadSection {
                    section: name.to_string(),
                    reason: "string payload is not UTF-8".to_string(),
                })?
                .to_string(),
        )),
        other => Err(StoreError::BadSection {
            section: name.to_string(),
            reason: format!("unknown dtype tag {other}"),
        }),
    }
}

/// Byte offsets (into the encoded file) where each section begins, plus the
/// final end-of-body offset. Used by corruption-injection tests to truncate
/// at exactly every section boundary.
///
/// # Errors
///
/// The same structural errors as [`Snapshot::decode`] (checksums are *not*
/// verified here — the walker only needs the layout).
pub fn section_offsets(bytes: &[u8]) -> Result<Vec<usize>, StoreError> {
    let mut r = Reader { bytes, pos: 0 };
    r.take(8, "magic")?;
    r.u32("format version")?;
    let body_len = r.u64("body length")? as usize;
    r.u32("body checksum")?;
    let body_start = r.pos;
    let count = r.u32("section count")? as usize;
    let mut offsets = Vec::with_capacity(count + 1);
    for _ in 0..count {
        offsets.push(r.pos);
        let name_len = r.u16("name length")? as usize;
        r.take(name_len, "name")?;
        r.u8("dtype")?;
        let ndim = r.u8("ndim")? as usize;
        for _ in 0..ndim {
            r.u64("dims")?;
        }
        let payload_len = r.u64("payload length")? as usize;
        r.take(payload_len, "payload")?;
        r.u32("payload checksum")?;
    }
    if r.pos != body_start + body_len {
        return Err(StoreError::Malformed("body length disagrees with sections".to_string()));
    }
    offsets.push(r.pos);
    Ok(offsets)
}

/// A bounds-checked cursor: every read is total.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated { context })?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated { context });
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, StoreError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, StoreError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, StoreError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.push_str("meta/kind", "frozen");
        s.push_f32("w", &[2, 3], &[1.0, -2.5, f32::MIN_POSITIVE, 0.0, -0.0, 3.25e-30]);
        s.push_i8("q", &[4], &[-128, -1, 0, 127]);
        s.push_u64("dims", &[16, 2, 4]);
        s
    }

    #[test]
    fn round_trips_bit_exactly() {
        let s = sample();
        let bytes = s.encode();
        let d = Snapshot::decode(&bytes).expect("decodes");
        assert_eq!(d.sections(), s.sections());
        // -0.0 and denormals survive with their exact bit patterns.
        let w = d.f32s("w", 6).expect("w");
        assert_eq!(w[4].to_bits(), (-0.0f32).to_bits());
        assert_eq!(w[2], f32::MIN_POSITIVE);
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..len]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BodyChecksum
                        | StoreError::BadMagic
                        | StoreError::Malformed(_)
                ),
                "truncation to {len} gave unexpected error {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(Snapshot::decode(&corrupt).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn section_offsets_cover_the_body() {
        let s = sample();
        let bytes = s.encode();
        let offsets = section_offsets(&bytes).expect("offsets");
        assert_eq!(offsets.len(), s.sections().len() + 1);
        assert_eq!(*offsets.last().expect("end"), bytes.len());
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn typed_accessors_validate_dtype_and_length() {
        let bytes = sample().encode();
        let d = Snapshot::decode(&bytes).expect("decodes");
        assert!(matches!(d.f32s("nope", 1), Err(StoreError::MissingSection(_))));
        assert!(matches!(d.f32s("q", 4), Err(StoreError::BadSection { .. })));
        assert!(matches!(d.f32s("w", 5), Err(StoreError::BadSection { .. })));
        assert!(matches!(d.str("w"), Err(StoreError::BadSection { .. })));
        assert_eq!(d.str("meta/kind").expect("kind"), "frozen");
        assert_eq!(d.u64s("dims", 3).expect("dims"), &[16, 2, 4]);
        assert_eq!(d.i8s("q", 4).expect("q"), &[-128, -1, 0, 127]);
    }

    #[test]
    fn garbage_and_adversarial_headers_never_panic() {
        for bytes in [
            &b""[..],
            &b"FABSNAP"[..],
            &b"FABSNAP2\x01\x00\x00\x00"[..],
            &b"FABSNAP1\x01\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00"[..],
        ] {
            assert!(Snapshot::decode(bytes).is_err());
        }
        // A body that promises u32::MAX sections but holds none.
        let mut s = Snapshot::new();
        s.push_str("x", "y");
        let mut bytes = s.encode();
        let body_start = 24;
        bytes[body_start..body_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Snapshot::decode(&bytes).is_err());
    }
}
