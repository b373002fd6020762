//! (De)serialization of trained model artifacts into [`Snapshot`] sections.
//!
//! A [`ModelArtifact`] is the unit the store persists: one
//! [`FrozenModel`] — exact or fast-math f32, or post-training-quantized
//! int8 — plus caller metadata (profile fingerprint, provenance). Encoding
//! walks the model's component accessors into named sections; decoding
//! rebuilds it through the `from_parts`/`new` constructors in `fab-nn`.
//! Every f32 value round-trips bit-exactly and every derived field (e.g. an
//! int8 linear's dequantization multipliers) is recomputed, so a restored
//! model serves logits bit-identical to the one that was saved.
//!
//! # Section naming
//!
//! ```text
//! meta/<key>                caller metadata (string), e.g. meta/fingerprint
//! meta/format               "frozen" (f32 tables) | "quant" (int8 tables)
//! arch                      "Transformer" | "FNet" | "FABNet"
//! config                    u64×8: hidden, ffn_ratio, num_layers, num_abfly,
//!                           num_heads, vocab_size, max_seq, num_classes
//! fast_math                 u64×1 (frozen only): 0 | 1
//! tok_table / pos_table     f32 [rows, hidden] (frozen)
//! tok/q tok/scale …         i8 table + f32 per-row scales (quant)
//! block<i>/mixing           "attention" | "fourier"
//! block<i>/attn/dims        u64×2: dim, num_heads
//! block<i>/attn/wq …        a linear (see below) for wq/wk/wv/wo
//! block<i>/ffn/lin1 …       linears
//! block<i>/ln1/gamma …      f32 gamma/beta + f32×1 eps, same for ln2
//! head                      a linear
//! ```
//!
//! The format tag only says which pair of table sections is present (a
//! `quant` model always runs with fast math off, so it has no `fast_math`
//! section); everything after the tables is the same in both. A linear at
//! prefix `P` is tagged by `P/kind`: `dense` (`P/w` `[d_in, d_out]`,
//! `P/b`), `butterfly` (`P/bfly` = the `[stages, 2n]` weight tensor, `P/b`,
//! `P/dims` = `[d_in, d_out]`) or `int8` (`P/qw` i8 `[d_out, d_in]`,
//! `P/w_scale`, `P/bias`, `P/in_scale` f32×1) — any kind in either format.

use crate::error::StoreError;
use crate::format::Snapshot;
use fab_butterfly::ButterflyMatrix;
use fab_nn::{
    FrozenAttention, FrozenBlock, FrozenEmbedding, FrozenFeedForward, FrozenLayerNorm,
    FrozenLinear, FrozenMixing, FrozenModel, ModelConfig, ModelKind, QuantEmbedding, QuantLinear,
};
use fab_tensor::Tensor;

/// A persistable trained model: what the store saves and restores.
#[derive(Debug, Clone)]
pub struct ModelArtifact(pub FrozenModel);

impl ModelArtifact {
    /// `"quant"` for a model with int8 tables (what quantization produces),
    /// `"frozen"` otherwise.
    pub fn format(&self) -> &'static str {
        match self.0.embedding() {
            FrozenEmbedding::F32 { .. } => "frozen",
            FrozenEmbedding::Int8 { .. } => "quant",
        }
    }
}

/// Serializes an artifact plus caller metadata into snapshot bytes.
///
/// Metadata keys are stored as `meta/<key>` string sections and returned
/// verbatim by [`decode_artifact`]; the key `format` is reserved.
pub fn encode_artifact(artifact: &ModelArtifact, meta: &[(String, String)]) -> Vec<u8> {
    let mut snap = Snapshot::new();
    for (key, value) in meta {
        debug_assert!(key != "format", "metadata key 'format' is reserved");
        snap.push_str(&format!("meta/{key}"), value);
    }
    snap.push_str("meta/format", artifact.format());
    encode_model(&mut snap, &artifact.0);
    snap.encode()
}

/// Decodes snapshot bytes into the artifact and its metadata sections.
///
/// # Errors
///
/// Every corruption mode surfaces as a typed [`StoreError`]; structurally
/// valid files that describe an impossible model (dimension mismatches,
/// unknown tags) report [`StoreError::BadSection`] / [`StoreError::Malformed`]
/// rather than panicking, here or in the first forward pass.
pub fn decode_artifact(bytes: &[u8]) -> Result<(ModelArtifact, Vec<(String, String)>), StoreError> {
    let snap = Snapshot::decode(bytes)?;
    let mut meta = Vec::new();
    for s in snap.sections() {
        if let Some(key) = s.name.strip_prefix("meta/") {
            if key != "format" {
                meta.push((key.to_string(), snap.str(&s.name)?.to_string()));
            }
        }
    }
    Ok((ModelArtifact(decode_model(&snap)?), meta))
}

// ---------------------------------------------------------------------------
// Shared pieces: config, arch, tensors, layer norms
// ---------------------------------------------------------------------------

fn encode_config(snap: &mut Snapshot, config: &ModelConfig, kind: ModelKind) {
    snap.push_str("arch", kind.name());
    snap.push_u64(
        "config",
        &[
            config.hidden as u64,
            config.ffn_ratio as u64,
            config.num_layers as u64,
            config.num_abfly as u64,
            config.num_heads as u64,
            config.vocab_size as u64,
            config.max_seq as u64,
            config.num_classes as u64,
        ],
    );
}

fn decode_config(snap: &Snapshot) -> Result<(ModelConfig, ModelKind), StoreError> {
    let kind = match snap.str("arch")? {
        "Transformer" => ModelKind::Transformer,
        "FNet" => ModelKind::FNet,
        "FABNet" => ModelKind::FabNet,
        other => {
            return Err(StoreError::BadSection {
                section: "arch".to_string(),
                reason: format!("unknown architecture '{other}'"),
            });
        }
    };
    let c = snap.u64s("config", 8)?;
    let cap = 1u64 << 32;
    if c.iter().any(|&v| v >= cap) {
        return Err(StoreError::BadSection {
            section: "config".to_string(),
            reason: "hyper-parameter out of range".to_string(),
        });
    }
    let config = ModelConfig {
        hidden: c[0] as usize,
        ffn_ratio: c[1] as usize,
        num_layers: c[2] as usize,
        num_abfly: c[3] as usize,
        num_heads: c[4] as usize,
        vocab_size: c[5] as usize,
        max_seq: c[6] as usize,
        num_classes: c[7] as usize,
    };
    config
        .validate()
        .map_err(|reason| StoreError::BadSection { section: "config".to_string(), reason })?;
    Ok((config, kind))
}

fn push_tensor(snap: &mut Snapshot, name: &str, t: &Tensor) {
    let dims: Vec<u64> = t.shape().iter().map(|&d| d as u64).collect();
    snap.push_f32(name, &dims, t.as_slice());
}

/// Rebuilds a tensor from a section, validating the dimensions fit `usize`
/// and multiply out to the payload length.
fn read_tensor(snap: &Snapshot, name: &str) -> Result<Tensor, StoreError> {
    let section = snap.section(name)?;
    let values = match &section.data {
        crate::format::SectionData::F32(v) => v.clone(),
        _ => {
            return Err(StoreError::BadSection {
                section: name.to_string(),
                reason: "expected dtype f32".to_string(),
            });
        }
    };
    let dims: Vec<usize> = section.dims.iter().map(|&d| d as usize).collect();
    Tensor::from_vec(values, &dims).map_err(|e| StoreError::BadSection {
        section: name.to_string(),
        reason: format!("tensor shape rejected: {e:?}"),
    })
}

fn read_tensor_2d(snap: &Snapshot, name: &str) -> Result<Tensor, StoreError> {
    let t = read_tensor(snap, name)?;
    if t.shape().len() != 2 {
        return Err(StoreError::BadSection {
            section: name.to_string(),
            reason: format!("expected 2-D tensor, found shape {:?}", t.shape()),
        });
    }
    Ok(t)
}

fn encode_layer_norm(snap: &mut Snapshot, prefix: &str, ln: &FrozenLayerNorm) {
    push_tensor(snap, &format!("{prefix}/gamma"), ln.gamma());
    push_tensor(snap, &format!("{prefix}/beta"), ln.beta());
    snap.push_f32(&format!("{prefix}/eps"), &[1], &[ln.eps()]);
}

fn decode_layer_norm(snap: &Snapshot, prefix: &str) -> Result<FrozenLayerNorm, StoreError> {
    let gamma = read_tensor(snap, &format!("{prefix}/gamma"))?;
    let beta = read_tensor(snap, &format!("{prefix}/beta"))?;
    let eps = snap.f32s(&format!("{prefix}/eps"), 1)?[0];
    if gamma.len() != beta.len() || !(eps.is_finite() && eps > 0.0) {
        return Err(StoreError::BadSection {
            section: format!("{prefix}/eps"),
            reason: "inconsistent layer norm parameters".to_string(),
        });
    }
    Ok(FrozenLayerNorm::new(gamma, beta, eps))
}

// ---------------------------------------------------------------------------
// Linears and embedding tables
// ---------------------------------------------------------------------------

fn encode_linear(snap: &mut Snapshot, prefix: &str, lin: &FrozenLinear) {
    match lin {
        FrozenLinear::Dense { w, b } => {
            snap.push_str(&format!("{prefix}/kind"), "dense");
            push_tensor(snap, &format!("{prefix}/w"), w);
            push_tensor(snap, &format!("{prefix}/b"), b);
        }
        FrozenLinear::Butterfly { bfly, b, d_in, d_out } => {
            snap.push_str(&format!("{prefix}/kind"), "butterfly");
            push_tensor(snap, &format!("{prefix}/bfly"), &bfly.to_weight_tensor());
            push_tensor(snap, &format!("{prefix}/b"), b);
            snap.push_u64(&format!("{prefix}/dims"), &[*d_in as u64, *d_out as u64]);
        }
        FrozenLinear::Int8(q) => {
            snap.push_str(&format!("{prefix}/kind"), "int8");
            snap.push_i8(&format!("{prefix}/qw"), &[q.d_out() as u64, q.d_in() as u64], q.qw());
            snap.push_f32(&format!("{prefix}/w_scale"), &[q.d_out() as u64], q.w_scales());
            snap.push_f32(&format!("{prefix}/bias"), &[q.d_out() as u64], q.bias());
            snap.push_f32(&format!("{prefix}/in_scale"), &[1], &[q.in_scale()]);
        }
    }
}

fn decode_linear(snap: &Snapshot, prefix: &str) -> Result<FrozenLinear, StoreError> {
    match snap.str(&format!("{prefix}/kind"))? {
        "dense" => {
            let w = read_tensor_2d(snap, &format!("{prefix}/w"))?;
            let b = read_tensor(snap, &format!("{prefix}/b"))?;
            if b.len() != w.cols() {
                return Err(StoreError::BadSection {
                    section: format!("{prefix}/b"),
                    reason: format!("bias length {} != d_out {}", b.len(), w.cols()),
                });
            }
            Ok(FrozenLinear::Dense { w, b })
        }
        "butterfly" => {
            let wt = read_tensor_2d(snap, &format!("{prefix}/bfly"))?;
            let bfly = ButterflyMatrix::try_from(wt).map_err(|e| StoreError::BadSection {
                section: format!("{prefix}/bfly"),
                reason: format!("butterfly weights rejected: {e:?}"),
            })?;
            let b = read_tensor(snap, &format!("{prefix}/b"))?;
            let dims = snap.u64s(&format!("{prefix}/dims"), 2)?;
            let (d_in, d_out) = (dims[0] as usize, dims[1] as usize);
            if d_in > bfly.size() || d_out > bfly.size() || b.len() != d_out {
                return Err(StoreError::BadSection {
                    section: format!("{prefix}/dims"),
                    reason: format!(
                        "dims [{d_in}, {d_out}] inconsistent with transform size {} / bias {}",
                        bfly.size(),
                        b.len()
                    ),
                });
            }
            Ok(FrozenLinear::Butterfly { bfly, b, d_in, d_out })
        }
        "int8" => {
            let qw_name = format!("{prefix}/qw");
            let &[d_out, d_in] = &snap.section(&qw_name)?.dims[..] else {
                return Err(StoreError::BadSection {
                    section: qw_name,
                    reason: "expected 2-D int8 weights".to_string(),
                });
            };
            // `Snapshot::decode` held the dims to the payload length, and
            // the expected lengths below hold `w_scale` / `bias` to them.
            let (d_out, d_in) = (d_out as usize, d_in as usize);
            let qw = snap.i8s(&qw_name, d_out * d_in)?.to_vec();
            let w_scale = snap.f32s(&format!("{prefix}/w_scale"), d_out)?.to_vec();
            let bias = snap.f32s(&format!("{prefix}/bias"), d_out)?.to_vec();
            let in_scale = snap.f32s(&format!("{prefix}/in_scale"), 1)?[0];
            if !(in_scale.is_finite() && in_scale > 0.0) {
                return Err(StoreError::BadSection {
                    section: format!("{prefix}/in_scale"),
                    reason: format!("input scale {in_scale} must be finite and positive"),
                });
            }
            Ok(FrozenLinear::Int8(QuantLinear::from_parts(
                qw, w_scale, bias, in_scale, d_in, d_out,
            )))
        }
        other => Err(StoreError::BadSection {
            section: format!("{prefix}/kind"),
            reason: format!("unknown linear kind '{other}'"),
        }),
    }
}

fn encode_quant_embedding(snap: &mut Snapshot, prefix: &str, e: &QuantEmbedding) {
    snap.push_i8(&format!("{prefix}/q"), &[e.rows() as u64, e.cols() as u64], e.q());
    snap.push_f32(&format!("{prefix}/scale"), &[e.rows() as u64], e.scales());
}

fn decode_quant_embedding(
    snap: &Snapshot,
    prefix: &str,
    rows: usize,
    cols: usize,
) -> Result<QuantEmbedding, StoreError> {
    let q = snap.i8s(&format!("{prefix}/q"), rows * cols)?.to_vec();
    let scale = snap.f32s(&format!("{prefix}/scale"), rows)?.to_vec();
    Ok(QuantEmbedding::from_parts(q, scale, rows, cols))
}

/// Reads the f32 table `name`, which must be `[rows, hidden]`.
fn decode_table(
    snap: &Snapshot,
    name: &str,
    rows: usize,
    hidden: usize,
) -> Result<Tensor, StoreError> {
    let t = read_tensor_2d(snap, name)?;
    if t.shape() != [rows, hidden] {
        return Err(StoreError::BadSection {
            section: name.to_string(),
            reason: format!("shape {:?} != [{rows}, hidden {hidden}]", t.shape()),
        });
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

fn encode_model(snap: &mut Snapshot, m: &FrozenModel) {
    encode_config(snap, m.config(), m.kind());
    match m.embedding() {
        FrozenEmbedding::F32 { tok, pos } => {
            snap.push_u64("fast_math", &[u64::from(m.fast_math())]);
            push_tensor(snap, "tok_table", tok);
            push_tensor(snap, "pos_table", pos);
        }
        FrozenEmbedding::Int8 { tok, pos } => {
            encode_quant_embedding(snap, "tok", tok);
            encode_quant_embedding(snap, "pos", pos);
        }
    }
    for (i, block) in m.blocks().iter().enumerate() {
        let p = format!("block{i}");
        match block.mixing() {
            FrozenMixing::Attention(a) => {
                snap.push_str(&format!("{p}/mixing"), "attention");
                snap.push_u64(&format!("{p}/attn/dims"), &[a.dim() as u64, a.num_heads() as u64]);
                encode_linear(snap, &format!("{p}/attn/wq"), a.wq());
                encode_linear(snap, &format!("{p}/attn/wk"), a.wk());
                encode_linear(snap, &format!("{p}/attn/wv"), a.wv());
                encode_linear(snap, &format!("{p}/attn/wo"), a.wo());
            }
            FrozenMixing::Fourier => snap.push_str(&format!("{p}/mixing"), "fourier"),
        }
        encode_linear(snap, &format!("{p}/ffn/lin1"), block.ffn().lin1());
        encode_linear(snap, &format!("{p}/ffn/lin2"), block.ffn().lin2());
        encode_layer_norm(snap, &format!("{p}/ln1"), block.ln1());
        encode_layer_norm(snap, &format!("{p}/ln2"), block.ln2());
    }
    encode_linear(snap, "head", m.head());
}

fn decode_model(snap: &Snapshot) -> Result<FrozenModel, StoreError> {
    let (config, kind) = decode_config(snap)?;
    let (vocab, max_seq, hidden) = (config.vocab_size, config.max_seq, config.hidden);
    let (embedding, fast_math) = match snap.str("meta/format")? {
        "frozen" => {
            let fast_math = match snap.u64s("fast_math", 1)?[0] {
                0 => false,
                1 => true,
                other => {
                    return Err(StoreError::BadSection {
                        section: "fast_math".to_string(),
                        reason: format!("expected 0 or 1, found {other}"),
                    });
                }
            };
            let tok = decode_table(snap, "tok_table", vocab, hidden)?;
            let pos = decode_table(snap, "pos_table", max_seq, hidden)?;
            (FrozenEmbedding::F32 { tok, pos }, fast_math)
        }
        "quant" => {
            let tok = decode_quant_embedding(snap, "tok", vocab, hidden)?;
            let pos = decode_quant_embedding(snap, "pos", max_seq, hidden)?;
            (FrozenEmbedding::Int8 { tok, pos }, false)
        }
        other => {
            return Err(StoreError::Malformed(format!("unknown artifact format '{other}'")));
        }
    };
    // Grown block by block: `num_layers` is input, and a missing section
    // ends the loop long before a hostile count could size an allocation.
    let mut blocks = Vec::new();
    for i in 0..config.num_layers {
        let p = format!("block{i}");
        let mixing = match snap.str(&format!("{p}/mixing"))? {
            "attention" => {
                let dims = snap.u64s(&format!("{p}/attn/dims"), 2)?;
                let (dim, num_heads) = (dims[0] as usize, dims[1] as usize);
                if dim != hidden || num_heads == 0 || !dim.is_multiple_of(num_heads) {
                    return Err(StoreError::BadSection {
                        section: format!("{p}/attn/dims"),
                        reason: format!(
                            "dim {dim} with {num_heads} heads does not fit hidden {hidden}"
                        ),
                    });
                }
                FrozenMixing::Attention(Box::new(FrozenAttention::new(
                    decode_linear(snap, &format!("{p}/attn/wq"))?,
                    decode_linear(snap, &format!("{p}/attn/wk"))?,
                    decode_linear(snap, &format!("{p}/attn/wv"))?,
                    decode_linear(snap, &format!("{p}/attn/wo"))?,
                    dim,
                    num_heads,
                )))
            }
            "fourier" => FrozenMixing::Fourier,
            other => {
                return Err(StoreError::BadSection {
                    section: format!("{p}/mixing"),
                    reason: format!("unknown mixing '{other}'"),
                });
            }
        };
        let ffn = FrozenFeedForward::new(
            decode_linear(snap, &format!("{p}/ffn/lin1"))?,
            decode_linear(snap, &format!("{p}/ffn/lin2"))?,
        );
        let ln1 = decode_layer_norm(snap, &format!("{p}/ln1"))?;
        let ln2 = decode_layer_norm(snap, &format!("{p}/ln2"))?;
        blocks.push(FrozenBlock::new(mixing, ffn, ln1, ln2));
    }
    let head = decode_linear(snap, "head")?;
    check_shapes(&config, &blocks, &head)?;
    Ok(FrozenModel::from_parts(config, kind, embedding, blocks, head).with_fast_math(fast_math))
}

/// The shape walk: every linear's `(d_in, d_out)` chained through attention,
/// FFN and head, and every layer norm's width, against `config.hidden` —
/// each mismatch would otherwise pass decode and panic in a serving
/// worker's first forward. (Each linear's own sections were already
/// checked against its declared dims when it was decoded.)
fn check_shapes(
    config: &ModelConfig,
    blocks: &[FrozenBlock],
    head: &FrozenLinear,
) -> Result<(), StoreError> {
    let check_linear = |section: String, lin: &FrozenLinear, d_in: usize, d_out: usize| {
        let got_in = match lin {
            FrozenLinear::Dense { w, .. } => w.rows(),
            FrozenLinear::Butterfly { d_in, .. } => *d_in,
            FrozenLinear::Int8(q) => q.d_in(),
        };
        // A zero width (an empty FFN, `num_classes` 0) chains but cannot run.
        if (got_in, lin.d_out()) == (d_in, d_out) && d_out > 0 {
            return Ok(());
        }
        Err(StoreError::BadSection {
            section,
            reason: format!(
                "linear maps {got_in} -> {}, the model needs {d_in} -> {d_out}",
                lin.d_out()
            ),
        })
    };
    let hidden = config.hidden;
    for (i, block) in blocks.iter().enumerate() {
        let p = format!("block{i}");
        if let FrozenMixing::Attention(a) = block.mixing() {
            for (name, lin) in [("wq", a.wq()), ("wk", a.wk()), ("wv", a.wv()), ("wo", a.wo())] {
                check_linear(format!("{p}/attn/{name}"), lin, hidden, hidden)?;
            }
        }
        let (lin1, lin2) = (block.ffn().lin1(), block.ffn().lin2());
        check_linear(format!("{p}/ffn/lin1"), lin1, hidden, lin1.d_out())?;
        check_linear(format!("{p}/ffn/lin2"), lin2, lin1.d_out(), hidden)?;
        for (name, ln) in [("ln1", block.ln1()), ("ln2", block.ln2())] {
            if ln.gamma().len() != hidden {
                return Err(StoreError::BadSection {
                    section: format!("{p}/{name}/gamma"),
                    reason: format!("width {} != hidden {hidden}", ln.gamma().len()),
                });
            }
        }
    }
    check_linear("head".to_string(), head, hidden, config.num_classes)
}
