//! Quantization: swapping a frozen model's dense linears and embedding
//! tables for their int8 variants.

use crate::calibrate::ActivationScales;
use fab_nn::{
    FrozenAttention, FrozenBlock, FrozenEmbedding, FrozenFeedForward, FrozenLinear, FrozenMixing,
    FrozenModel, QuantEmbedding, QuantLinear,
};

/// A quantized model is a [`FrozenModel`] whose dense linears and tables
/// are int8 — what [`quantize`] returns.
pub type QuantModel = FrozenModel;

/// Quantizes dense linears; butterfly (and already-int8) linears pass
/// through.
fn quantize_linear(lin: &FrozenLinear, in_scale: f32) -> FrozenLinear {
    match lin {
        FrozenLinear::Dense { w, b } => FrozenLinear::Int8(QuantLinear::from_dense(w, b, in_scale)),
        other => other.clone(),
    }
}

/// Quantizes a frozen model using calibrated activation scales (see
/// [`crate::calibrate()`] and the convenience [`crate::quantize_frozen`]):
/// every dense linear becomes [`FrozenLinear::Int8`] bound to its input
/// scale and the embedding tables become [`FrozenEmbedding::Int8`]. The
/// result runs with fast math off, whatever `frozen` was calibrated with.
///
/// # Panics
///
/// Panics when `scales` was calibrated for a different architecture
/// (block count mismatch).
pub fn quantize(frozen: &FrozenModel, scales: &ActivationScales) -> FrozenModel {
    assert_eq!(
        scales.blocks.len(),
        frozen.blocks().len(),
        "activation scales calibrated for a different model"
    );
    let blocks = frozen
        .blocks()
        .iter()
        .zip(scales.blocks.iter())
        .map(|(fb, bs)| {
            let mixing = match fb.mixing() {
                FrozenMixing::Attention(a) => {
                    FrozenMixing::Attention(Box::new(FrozenAttention::new(
                        quantize_linear(a.wq(), bs.attn_in),
                        quantize_linear(a.wk(), bs.attn_in),
                        quantize_linear(a.wv(), bs.attn_in),
                        quantize_linear(a.wo(), bs.attn_out_in),
                        a.dim(),
                        a.num_heads(),
                    )))
                }
                FrozenMixing::Fourier => FrozenMixing::Fourier,
            };
            let ffn = FrozenFeedForward::new(
                quantize_linear(fb.ffn().lin1(), bs.ffn1_in),
                quantize_linear(fb.ffn().lin2(), bs.ffn2_in),
            );
            FrozenBlock::new(mixing, ffn, fb.ln1().clone(), fb.ln2().clone())
        })
        .collect();
    let embedding = match frozen.embedding() {
        FrozenEmbedding::F32 { tok, pos } => FrozenEmbedding::Int8 {
            tok: QuantEmbedding::from_table(tok),
            pos: QuantEmbedding::from_table(pos),
        },
        int8 => int8.clone(),
    };
    FrozenModel::from_parts(
        frozen.config().clone(),
        frozen.kind(),
        embedding,
        blocks,
        quantize_linear(frozen.head(), scales.head_in),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn quant_model_is_send_and_sync() {
        assert_send_sync::<QuantModel>();
    }
}
