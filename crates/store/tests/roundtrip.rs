//! PR-8 property tests: snapshot round trips must be logit-bit-identical for
//! every architecture at every precision, and no corruption of the on-disk
//! bytes — truncation at any boundary, bit flips anywhere, torn renames,
//! stale manifests — may ever panic the reader or hand back a half-read
//! model.

use fab_nn::{Model, ModelConfig, ModelKind};
use fab_quant::{quantize_frozen, CalibrationConfig};
use fab_store::{
    decode_artifact, encode_artifact, section_offsets, ModelArtifact, Section, SectionData,
    Snapshot, Store, StoreError, FINGERPRINT_KEY,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

const KINDS: [ModelKind; 3] = [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet];

fn tiny() -> ModelConfig {
    ModelConfig::tiny_for_tests()
}

fn calib_samples(n: usize, len: usize, vocab: usize) -> Vec<Vec<usize>> {
    (0..n).map(|i| (0..len).map(|j| (i * 5 + j * 11 + 1) % vocab).collect()).collect()
}

/// Builds one artifact per precision (exact f32, fast-math f32, int8) for a
/// seeded model of the given architecture.
fn artifacts(seed: u64, kind: ModelKind) -> Vec<ModelArtifact> {
    let config = tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(&config, kind, &mut rng);
    let exact = model.freeze();
    let fast = model.freeze().with_fast_math(true);
    let samples = calib_samples(8, config.max_seq.min(8), config.vocab_size);
    let quant = quantize_frozen(&fast, &samples, &CalibrationConfig::default());
    vec![ModelArtifact(exact), ModelArtifact(fast), ModelArtifact(quant)]
}

fn logits_of(artifact: &ModelArtifact, tokens: &[usize]) -> Vec<f32> {
    artifact.0.logits(tokens)
}

fn probe_batches(vocab: usize, max_seq: usize) -> Vec<Vec<usize>> {
    vec![
        vec![1 % vocab],
        (0..max_seq).map(|j| (j * 7 + 3) % vocab).collect(),
        (0..max_seq / 2).map(|j| (j * 13 + 1) % vocab).collect(),
    ]
}

fn temp_root(test: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("fab-store-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

#[test]
fn encode_decode_is_logit_bit_identical_for_all_archs_and_precisions() {
    for (seed, kind) in KINDS.iter().copied().enumerate() {
        for (p, artifact) in artifacts(seed as u64 + 40, kind).iter().enumerate() {
            let meta = vec![(FINGERPRINT_KEY.to_string(), format!("fp-{p}"))];
            let bytes = encode_artifact(artifact, &meta);
            let (restored, meta_back) = decode_artifact(&bytes).expect("decode");
            assert_eq!(meta_back, meta, "{kind:?} precision {p}");
            assert_eq!(restored.format(), if p == 2 { "quant" } else { "frozen" });
            assert_eq!(restored.0.fast_math(), p == 1, "{kind:?} precision {p}");
            for tokens in probe_batches(tiny().vocab_size, tiny().max_seq) {
                assert_eq!(
                    logits_of(artifact, &tokens),
                    logits_of(&restored, &tokens),
                    "{kind:?} precision {p} tokens {tokens:?}"
                );
            }
        }
    }
}

#[test]
fn a_restored_model_has_the_weights_it_was_saved_with() {
    for (seed, kind) in KINDS.iter().copied().enumerate() {
        let artifacts = artifacts(seed as u64 + 60, kind);
        for (p, artifact) in artifacts.iter().enumerate() {
            let restored = decode_artifact(&encode_artifact(artifact, &[])).expect("decode").0;
            assert!(!restored.0.shares_weights(&artifact.0));
            assert!(restored.0.same_weights(&artifact.0), "{kind:?} precision {p}");
        }
        // Exact and fast-math were frozen one after the other, int8 is
        // quantized: two equal weight sets and a third.
        assert!(artifacts[0].0.same_weights(&artifacts[1].0), "{kind:?}");
        assert!(!artifacts[0].0.same_weights(&artifacts[2].0), "{kind:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random seeds, architectures and probe sequences: the restored model's
    // logits equal the original's bit for bit at every precision.
    #[test]
    fn snapshot_round_trip_preserves_logits(
        seed in 0u64..1000,
        kind_ix in 0usize..3,
        len in 1usize..16,
        salt in 0usize..100,
    ) {
        let kind = KINDS[kind_ix];
        let config = tiny();
        let tokens: Vec<usize> =
            (0..len).map(|j| (j * 31 + salt * 7 + 1) % config.vocab_size).collect();
        for artifact in artifacts(seed, kind) {
            let bytes = encode_artifact(&artifact, &[]);
            let (restored, _) = decode_artifact(&bytes).expect("decode");
            prop_assert_eq!(logits_of(&artifact, &tokens), logits_of(&restored, &tokens));
        }
    }

    // Bit flips at random positions are always detected — decode returns a
    // typed error, never a model and never a panic.
    #[test]
    fn random_bit_flips_never_yield_a_model(
        seed in 0u64..1000,
        kind_ix in 0usize..3,
        pos_salt in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let artifact = artifacts(seed, KINDS[kind_ix]).remove(2);
        let mut bytes = encode_artifact(&artifact, &[]);
        let pos = pos_salt % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(decode_artifact(&bytes).is_err());
    }
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let artifact = artifacts(7, ModelKind::FabNet).remove(0);
    let bytes = encode_artifact(&artifact, &[(FINGERPRINT_KEY.to_string(), "fp".to_string())]);
    let offsets = section_offsets(&bytes).expect("offsets");
    // Every section boundary, plus the header edges (the final offset is
    // the end of the intact file, which decodes — skip it).
    let mut cuts: Vec<usize> = offsets;
    cuts.extend([0, 4, 8, 12, 20, bytes.len() - 1]);
    cuts.retain(|&c| c < bytes.len());
    for cut in cuts {
        let err = decode_artifact(&bytes[..cut]).expect_err("must fail");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BodyChecksum
                    | StoreError::BadMagic
                    | StoreError::Malformed(_)
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
}

#[test]
fn header_blob_and_crc_byte_flips_are_all_detected() {
    let artifact = artifacts(8, ModelKind::Transformer).remove(1);
    let bytes = encode_artifact(&artifact, &[]);
    let offsets = section_offsets(&bytes).expect("offsets");
    // Flip bytes in: the magic, the version, body_len, body_crc, the first
    // section's header, a payload byte deep inside, and a section CRC (the
    // last 4 bytes of each section record).
    let mut positions = vec![0, 9, 13, 21, offsets[0], offsets[0] + 3];
    for w in offsets.windows(2) {
        positions.push(w[1] - 2); // inside that section's trailing CRC
        positions.push((w[0] + w[1]) / 2); // somewhere in the payload
    }
    for pos in positions {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x20;
        assert!(decode_artifact(&corrupt).is_err(), "flip at {pos} went undetected");
    }
}

#[test]
fn store_save_load_round_trips_and_versions_accumulate() {
    let root = temp_root("versions");
    let store = Store::open(&root).expect("open");
    let artifact = artifacts(9, ModelKind::FNet).remove(2);
    let meta = vec![(FINGERPRINT_KEY.to_string(), "fp-a".to_string())];
    assert_eq!(store.save("m", &artifact, &meta).expect("save 1"), 1);
    assert_eq!(store.save("m", &artifact, &meta).expect("save 2"), 2);
    assert_eq!(store.versions("m").expect("versions"), vec![1, 2]);
    let rec = store.load_last_good("m", Some("fp-a")).expect("load");
    assert_eq!(rec.version, 2);
    assert!(!rec.fallback);
    let tokens = vec![1usize, 3, 5];
    assert_eq!(logits_of(&artifact, &tokens), logits_of(&rec.artifact, &tokens));
    assert_eq!(store.manifest().get("m"), Some(&2));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_newest_falls_back_to_previous_last_good() {
    let root = temp_root("fallback");
    let store = Store::open(&root).expect("open");
    let artifact = artifacts(10, ModelKind::FabNet).remove(0);
    store.save("m", &artifact, &[]).expect("save 1");
    store.save("m", &artifact, &[]).expect("save 2");
    // Flip a byte in the newest snapshot.
    let newest = store.snapshot_path("m", 2);
    let mut bytes = fs::read(&newest).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, &bytes).expect("write corruption");
    let rec = store.load_last_good("m", None).expect("load");
    assert_eq!(rec.version, 1);
    assert!(rec.fallback, "must be flagged as a fallback load");
    // Corrupt the survivor too: now nothing is loadable.
    let v1 = store.snapshot_path("m", 1);
    fs::write(&v1, b"FABSNAP1 definitely not a snapshot").expect("write corruption");
    assert!(matches!(store.load_last_good("m", None), Err(StoreError::NoSnapshot(_))));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stale_fingerprint_is_skipped_and_torn_tmp_files_are_ignored() {
    let root = temp_root("stale");
    let store = Store::open(&root).expect("open");
    let artifact = artifacts(11, ModelKind::Transformer).remove(1);
    let old = vec![(FINGERPRINT_KEY.to_string(), "fp-old".to_string())];
    let new = vec![(FINGERPRINT_KEY.to_string(), "fp-new".to_string())];
    store.save("m", &artifact, &new).expect("save 1");
    store.save("m", &artifact, &old).expect("save 2");
    // A torn rename leaves a .tmp file behind; readers must ignore it.
    let bytes = encode_artifact(&artifact, &new);
    fs::write(root.join("m").join(".v00000003.fsnap.tmp"), &bytes[..bytes.len() / 3])
        .expect("write torn tmp");
    // Newest (v2) has the old fingerprint → skipped; v1 matches.
    let rec = store.load_last_good("m", Some("fp-new")).expect("load");
    assert_eq!(rec.version, 1);
    assert!(rec.fallback);
    // No version matches a future fingerprint.
    assert!(store.load_last_good("m", Some("fp-future")).is_err());
    assert_eq!(store.versions("m").expect("versions"), vec![1, 2], "tmp file leaked in");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn gc_keeps_newest_versions_and_sweeps_tmp_files() {
    let root = temp_root("gc");
    let store = Store::open(&root).expect("open");
    let artifact = artifacts(12, ModelKind::FNet).remove(0);
    for _ in 0..5 {
        store.save("m", &artifact, &[]).expect("save");
    }
    fs::write(root.join("m").join(".v00000099.fsnap.tmp"), b"torn").expect("tmp");
    let removed = store.gc(2).expect("gc");
    assert_eq!(removed, 4, "3 old versions + 1 tmp file");
    assert_eq!(store.versions("m").expect("versions"), vec![4, 5]);
    // gc never removes the last copy.
    assert_eq!(store.gc(0).expect("gc floor"), 1);
    assert_eq!(store.versions("m").expect("versions"), vec![5]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn gc_after_every_save_bounds_history_and_newest_good_survives() {
    // Mirrors the daemon's persist path — `save` immediately followed by
    // `gc(keep)` — across many snapshot cycles: the on-disk history must
    // stay bounded at `keep` versions, every load must pick the newest,
    // and corrupting that newest must fall back to the *surviving* older
    // version, never to one gc already pruned.
    let root = temp_root("gc-loop");
    let store = Store::open(&root).expect("open");
    let keep = 2usize;
    let all = artifacts(13, ModelKind::FabNet);
    let probe: Vec<usize> =
        (0..tiny().max_seq / 2).map(|j| (j * 3 + 2) % tiny().vocab_size).collect();
    for cycle in 0..6u64 {
        // Alternate artifacts so versions are distinguishable by logits.
        let artifact = &all[(cycle as usize) % all.len()];
        let version = store.save("m", artifact, &[]).expect("save");
        assert_eq!(version, cycle + 1);
        store.gc(keep).expect("gc after save");
        let versions = store.versions("m").expect("versions");
        assert!(versions.len() <= keep, "history grew past keep: {versions:?}");
        assert_eq!(*versions.last().expect("non-empty"), version, "newest survives gc");
        let rec = store.load_last_good("m", None).expect("newest loads after gc");
        assert_eq!(rec.version, version);
        assert!(!rec.fallback);
        assert_eq!(logits_of(&rec.artifact, &probe), logits_of(artifact, &probe));
    }
    // Versions 1..=4 were pruned; 5 and 6 remain. Corrupt the newest:
    // the fallback must be the surviving version 5, bit-identical to
    // what was saved as cycle 4's artifact.
    assert_eq!(store.versions("m").expect("versions"), vec![5, 6]);
    let newest = store.snapshot_path("m", 6);
    let mut bytes = fs::read(&newest).expect("read newest");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, &bytes).expect("corrupt newest");
    let rec = store.load_last_good("m", None).expect("fallback survives the gc loop");
    assert_eq!(rec.version, 5);
    assert!(rec.fallback);
    assert_eq!(logits_of(&rec.artifact, &probe), logits_of(&all[4 % all.len()], &probe));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_manifest_lines_are_ignored_not_trusted() {
    let root = temp_root("manifest");
    let store = Store::open(&root).expect("open");
    let artifact = artifacts(13, ModelKind::FabNet).remove(0);
    store.save("good", &artifact, &[]).expect("save");
    // Rewrite the manifest with one valid line, one checksum-corrupted line,
    // and one garbage line: only the valid one survives, and loads ignore
    // the manifest entirely.
    let valid = fs::read_to_string(root.join("manifest.txt")).expect("manifest");
    fs::write(root.join("manifest.txt"), format!("{valid}phantom\t7\t12345\nnot a line at all\n"))
        .expect("write manifest");
    let manifest = store.manifest();
    assert_eq!(manifest.len(), 1);
    assert_eq!(manifest.get("good"), Some(&1));
    assert!(store.load_last_good("good", None).is_ok());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn open_rejects_unwritable_roots_and_hostile_model_names() {
    let root = temp_root("unwritable");
    fs::create_dir_all(&root).expect("mkdir");
    let file_path = root.join("not-a-dir");
    fs::write(&file_path, b"x").expect("file");
    // A path under a regular file cannot be created.
    assert!(matches!(Store::open(&file_path.join("sub")), Err(StoreError::Io { .. })));
    let store = Store::open(&root).expect("open");
    let artifact = artifacts(14, ModelKind::FNet).remove(0);
    for name in ["", "../escape", "a/b", ".hidden", "semi;colon"] {
        assert!(store.save(name, &artifact, &[]).is_err(), "name '{name}' accepted");
        assert!(store.load_last_good(name, None).is_err());
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn snapshot_format_surface_is_stable() {
    // The store's own format handles arbitrary sections; sanity-check the
    // public surface the daemon relies on.
    let mut s = Snapshot::new();
    s.push_str("meta/note", "hello");
    let bytes = s.encode();
    assert_eq!(&bytes[..8], fab_store::MAGIC);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
        fab_store::FORMAT_VERSION
    );
    assert_eq!(Snapshot::decode(&bytes).expect("decode").str("meta/note").expect("note"), "hello");
}

/// Re-encodes `bytes` with the sections `edit` returns a replacement for
/// swapped out (same name, new dims and payload) — a CRC-valid file that
/// describes a different model.
fn with_sections(
    bytes: &[u8],
    edit: impl Fn(&Section) -> Option<(Vec<u64>, SectionData)>,
) -> Vec<u8> {
    let mut out = Snapshot::new();
    for s in Snapshot::decode(bytes).expect("decode").sections() {
        let (dims, data) = edit(s).unwrap_or_else(|| (s.dims.clone(), s.data.clone()));
        match data {
            SectionData::F32(v) => out.push_f32(&s.name, &dims, &v),
            SectionData::I8(v) => out.push_i8(&s.name, &dims, &v),
            SectionData::U64(v) => out.push_u64(&s.name, &v),
            SectionData::Str(v) => out.push_str(&s.name, &v),
        }
    }
    out.encode()
}

#[test]
fn checksum_valid_snapshots_of_an_impossible_model_are_bad_sections_not_panics() {
    // Four files that pass every CRC and every per-section check yet chain
    // shapes no forward pass survives, in both formats (the quant file's
    // linears are int8, the frozen file's dense).
    let config = tiny();
    let (h, ffn) = (config.hidden, config.hidden * config.ffn_ratio);
    let all = artifacts(21, ModelKind::Transformer);
    for (format, artifact) in [("frozen", &all[1]), ("quant", &all[2])] {
        let bytes = encode_artifact(artifact, &[]);
        let f32s = |dims: &[usize]| {
            let dims: Vec<u64> = dims.iter().map(|&d| d as u64).collect();
            let len = dims.iter().product::<u64>() as usize;
            Some((dims, SectionData::F32(vec![0.5; len])))
        };
        let i8s = |rows: usize, cols: usize| {
            Some((vec![rows as u64, cols as u64], SectionData::I8(vec![1; rows * cols])))
        };
        type Edit<'a> = Box<dyn Fn(&Section) -> Option<(Vec<u64>, SectionData)> + 'a>;
        let cases: Vec<(&str, Edit)> = vec![
            (
                "block0/ffn/lin1",
                Box::new(|s| match s.name.as_str() {
                    "block0/ffn/lin1/w" => f32s(&[h + 1, ffn]),
                    "block0/ffn/lin1/qw" => i8s(ffn, h + 1),
                    _ => None,
                }),
            ),
            (
                "block0/attn/dims",
                Box::new(|s| {
                    (s.name == "block0/attn/dims")
                        .then(|| (vec![2], SectionData::U64(vec![2 * h as u64, 2])))
                }),
            ),
            (
                "block0/ln1/gamma",
                Box::new(|s| match s.name.as_str() {
                    "block0/ln1/gamma" | "block0/ln1/beta" => f32s(&[h + 1]),
                    _ => None,
                }),
            ),
            (
                "head",
                Box::new(|s| match s.name.as_str() {
                    "head/w" => f32s(&[h, config.num_classes + 1]),
                    "head/b" | "head/w_scale" | "head/bias" => f32s(&[config.num_classes + 1]),
                    "head/qw" => i8s(config.num_classes + 1, h),
                    _ => None,
                }),
            ),
            (
                // One past the deepest int8 GEMM (130 000).
                "head",
                Box::new(|s| match s.name.as_str() {
                    "head/w" => f32s(&[130_001, config.num_classes]),
                    "head/qw" => i8s(config.num_classes, 130_001),
                    _ => None,
                }),
            ),
        ];
        for (section, edit) in cases {
            let hostile = with_sections(&bytes, edit);
            assert_ne!(hostile, bytes, "{format}: the {section} edit matched no section");
            match decode_artifact(&hostile) {
                Err(StoreError::BadSection { section: got, .. }) => {
                    assert_eq!(got, section, "{format}: wrong section blamed")
                }
                other => panic!("{format} {section}: expected BadSection, got {other:?}"),
            }
        }
    }
    // Shapes that chain but are empty: a zero-class head.
    for (format, artifact) in [("frozen", &all[1]), ("quant", &all[2])] {
        let bytes = encode_artifact(artifact, &[]);
        let zero_classes = with_sections(&bytes, |s| match s.name.as_str() {
            "config" => {
                let SectionData::U64(mut c) = s.data.clone() else { panic!("config is u64") };
                c[7] = 0;
                Some((vec![8], SectionData::U64(c)))
            }
            "head/w" => Some((vec![h as u64, 0], SectionData::F32(vec![]))),
            "head/qw" => Some((vec![0, h as u64], SectionData::I8(vec![]))),
            "head/b" | "head/w_scale" | "head/bias" => Some((vec![0], SectionData::F32(vec![]))),
            _ => None,
        });
        assert_ne!(zero_classes, bytes, "{format}: the zero-class edit matched no section");
        match decode_artifact(&zero_classes) {
            Err(StoreError::BadSection { section, .. }) => assert_eq!(section, "head", "{format}"),
            other => panic!("{format} zero classes: expected BadSection, got {other:?}"),
        }
    }
}

#[test]
fn golden_fixtures_decode_reencode_byte_for_byte_and_serve_the_recorded_logits() {
    // Snapshots written by the commit before the Frozen*/Quant* twin was
    // merged (tiny Transformer and FABNet, `frozen` fast-math and `quant`),
    // with each probe's logits recorded under FAB_SIMD=scalar. Old files
    // must keep loading, re-encode to the same bytes, and serve the same
    // bits on the scalar backend; the SIMD f32 GEMM is FMA-tiled, so other
    // backends get the serving tolerance.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let scalar = !fab_tensor::simd::backend().is_simd();
    let sidecar = fs::read_to_string(dir.join("golden_logits.tsv")).expect("sidecar");
    let mut probes = 0;
    for line in sidecar.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split('\t').collect();
        let [file, tokens, bits] = fields[..] else { panic!("malformed sidecar line: {line}") };
        let bytes = fs::read(dir.join(file)).expect("fixture");
        let (artifact, meta) = decode_artifact(&bytes).expect("fixture decodes");
        assert_eq!(encode_artifact(&artifact, &meta), bytes, "{file} re-encoded differently");
        assert_eq!(file.contains("quant"), artifact.format() == "quant", "{file}");
        let tokens: Vec<usize> = tokens.split(',').map(|t| t.parse().expect("token")).collect();
        let want: Vec<f32> = bits
            .split(',')
            .map(|b| f32::from_bits(u32::from_str_radix(b, 16).expect("hex bits")))
            .collect();
        let got = logits_of(&artifact, &tokens);
        if scalar {
            assert_eq!(got, want, "{file} {tokens:?}: logits moved on the scalar backend");
        } else {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-5, "{file} {tokens:?}: {g} vs recorded {w}");
            }
        }
        probes += 1;
    }
    assert_eq!(probes, 12, "four fixtures, three probes each");
}
