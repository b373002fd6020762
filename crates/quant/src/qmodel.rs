//! The quantized counterpart of [`fab_nn::FrozenModel`].

use crate::calibrate::ActivationScales;
use crate::qlinear::{MaybeQuantLinear, QuantEmbedding};
use fab_butterfly::flops::{attention_core_flops, fourier_mix_flops};
use fab_butterfly::fourier_mix;
use fab_nn::{argmax, FrozenLayerNorm, FrozenMixing, FrozenModel, ModelConfig, ModelKind};
use fab_tensor::{Tensor, PAR_GRAIN_OPS};
use rayon::prelude::*;

/// Quantized multi-head self-attention: int8 projections around the f32
/// `softmax(QKᵀ)·V` core.
#[derive(Debug, Clone)]
pub struct QuantAttention {
    wq: MaybeQuantLinear,
    wk: MaybeQuantLinear,
    wv: MaybeQuantLinear,
    wo: MaybeQuantLinear,
    dim: usize,
    num_heads: usize,
}

impl QuantAttention {
    /// Reassembles quantized attention from its four projections (snapshot
    /// restore).
    ///
    /// # Panics
    ///
    /// Panics when `num_heads` does not divide `dim`.
    pub fn new(
        wq: MaybeQuantLinear,
        wk: MaybeQuantLinear,
        wv: MaybeQuantLinear,
        wo: MaybeQuantLinear,
        dim: usize,
        num_heads: usize,
    ) -> Self {
        assert!(
            num_heads > 0 && dim.is_multiple_of(num_heads),
            "heads must divide the feature dimension"
        );
        Self { wq, wk, wv, wo, dim, num_heads }
    }

    /// The query projection.
    pub fn wq(&self) -> &MaybeQuantLinear {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &MaybeQuantLinear {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &MaybeQuantLinear {
        &self.wv
    }

    /// The output projection.
    pub fn wo(&self) -> &MaybeQuantLinear {
        &self.wo
    }

    /// Model (embedding) dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Applies self-attention to a flat `[B * pad_to, dim]` batch; the
    /// projections run int8 over the whole batch, the attention core runs
    /// f32 per example on its true-length segment (padding rows never
    /// contribute attention mass — the same invariance as the f32 path).
    fn forward_batch(&self, x: &Tensor, pad_to: usize, lengths: &[usize]) -> Tensor {
        // q/k/v share one calibrated input scale, so the batch is quantized
        // once and the int8 buffer reused across the three projections
        // (bit-identical to three independent forwards).
        let (q, k, v) = match (&self.wq, &self.wk, &self.wv) {
            (
                MaybeQuantLinear::Int8(wq),
                MaybeQuantLinear::Int8(wk),
                MaybeQuantLinear::Int8(wv),
            ) => {
                debug_assert!(
                    wq.in_scale() == wk.in_scale() && wq.in_scale() == wv.in_scale(),
                    "attention q/k/v projections must share the calibrated input scale"
                );
                let mut qx = Vec::new();
                wq.quantize_input(x, &mut qx);
                let rows = x.rows();
                (
                    wq.forward_prequantized(&qx, rows, false),
                    wk.forward_prequantized(&qx, rows, false),
                    wv.forward_prequantized(&qx, rows, false),
                )
            }
            _ => (self.wq.forward(x, false), self.wk.forward(x, false), self.wv.forward(x, false)),
        };
        let dim = self.dim;
        let mut mixed = vec![0.0f32; x.len()];
        // The shared frozen-model attention core (`fab_nn::attention_mix_rows`)
        // runs the f32 mixing on the dequantized projections — the quantized
        // forward and the f32 path cannot drift apart structurally.
        let core = |i: usize, chunk: &mut [f32]| {
            let len = lengths[i];
            let start = i * pad_to;
            let (qi, ki, vi) = (
                q.slice_rows(start, start + len),
                k.slice_rows(start, start + len),
                v.slice_rows(start, start + len),
            );
            fab_nn::attention_mix_rows(
                &qi,
                &ki,
                &vi,
                self.num_heads,
                false,
                &mut chunk[..len * dim],
            );
        };
        let ops = lengths.iter().map(|&len| attention_core_flops(len, dim)).sum();
        run_per_example(&mut mixed, pad_to * dim, ops, core);
        let mixed = Tensor::from_vec(mixed, &[x.rows(), dim]).expect("attention batch shape");
        self.wo.forward(&mixed, false)
    }
}

/// The token-mixing half of a quantized block.
#[derive(Debug, Clone)]
pub enum QuantMixing {
    /// int8-projected attention.
    Attention(Box<QuantAttention>),
    /// Parameter-free f32 Fourier mixing.
    Fourier,
}

/// Quantized feed-forward: `lin2(gelu(lin1(x)))` with the GELU fused into
/// `lin1`'s dequantization epilogue.
#[derive(Debug, Clone)]
pub struct QuantFeedForward {
    lin1: MaybeQuantLinear,
    lin2: MaybeQuantLinear,
}

impl QuantFeedForward {
    /// Reassembles a quantized FFN from its two linear maps (snapshot
    /// restore).
    pub fn new(lin1: MaybeQuantLinear, lin2: MaybeQuantLinear) -> Self {
        Self { lin1, lin2 }
    }

    /// The expanding linear map (`hidden → ffn`).
    pub fn lin1(&self) -> &MaybeQuantLinear {
        &self.lin1
    }

    /// The contracting linear map (`ffn → hidden`).
    pub fn lin2(&self) -> &MaybeQuantLinear {
        &self.lin2
    }

    fn forward(&self, x: &Tensor) -> Tensor {
        let a = self.lin1.forward(x, true);
        self.lin2.forward(&a, false)
    }
}

/// One quantized encoder block: int8 GEMMs with f32 layer norms at the
/// residual boundaries.
#[derive(Debug, Clone)]
pub struct QuantBlock {
    mixing: QuantMixing,
    ffn: QuantFeedForward,
    ln1: FrozenLayerNorm,
    ln2: FrozenLayerNorm,
}

impl QuantBlock {
    /// Reassembles a quantized block from its halves (snapshot restore).
    pub fn new(
        mixing: QuantMixing,
        ffn: QuantFeedForward,
        ln1: FrozenLayerNorm,
        ln2: FrozenLayerNorm,
    ) -> Self {
        Self { mixing, ffn, ln1, ln2 }
    }

    /// The token-mixing half of the block.
    pub fn mixing(&self) -> &QuantMixing {
        &self.mixing
    }

    /// The feed-forward half of the block.
    pub fn ffn(&self) -> &QuantFeedForward {
        &self.ffn
    }

    /// Layer norm wrapping the mixing residual.
    pub fn ln1(&self) -> &FrozenLayerNorm {
        &self.ln1
    }

    /// Layer norm wrapping the FFN residual.
    pub fn ln2(&self) -> &FrozenLayerNorm {
        &self.ln2
    }

    fn forward_batch(&self, x: &Tensor, pad_to: usize, lengths: &[usize]) -> Tensor {
        let m = match &self.mixing {
            QuantMixing::Attention(a) => a.forward_batch(x, pad_to, lengths),
            QuantMixing::Fourier => fourier_batch(x, pad_to, lengths),
        };
        let x = self.ln1.forward_residual(x, &m);
        let f = self.ffn.forward(&x);
        self.ln2.forward_residual(&x, &f)
    }
}

/// Per-example 2-D Fourier mixing over true-length segments (identical to
/// the frozen f32 path: butterfly/Fourier mixing stays f32).
fn fourier_batch(x: &Tensor, pad_to: usize, lengths: &[usize]) -> Tensor {
    let hidden = x.cols();
    let mut mixed = vec![0.0f32; x.len()];
    let mix = |i: usize, chunk: &mut [f32]| {
        let len = lengths[i];
        let start = i * pad_to;
        let xi = Tensor::from_vec(
            x.as_slice()[start * hidden..(start + len) * hidden].to_vec(),
            &[len, hidden],
        )
        .expect("fourier segment shape");
        let yi = fourier_mix(&xi);
        chunk[..len * hidden].copy_from_slice(yi.as_slice());
    };
    let ops = lengths.iter().map(|&len| fourier_mix_flops(len, hidden)).sum();
    run_per_example(&mut mixed, pad_to * hidden, ops, mix);
    Tensor::from_vec(mixed, &[x.rows(), hidden]).expect("fourier batch shape")
}

/// Runs `f(example_index, example_chunk)` over per-example chunks, in
/// parallel when the batch's `ops` operations reach the workspace fan-out
/// grain (same policy as `fab_nn::frozen`); each example is independent, so
/// results do not depend on the thread count.
fn run_per_example(
    out: &mut [f32],
    chunk_elems: usize,
    ops: u64,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if ops < PAR_GRAIN_OPS {
        for (i, chunk) in out.chunks_mut(chunk_elems).enumerate() {
            f(i, chunk);
        }
    } else {
        out.par_chunks_mut(chunk_elems).enumerate().for_each(|(i, chunk)| f(i, chunk));
    }
}

/// An immutable, `Send + Sync` int8 inference snapshot: the quantized
/// counterpart of [`FrozenModel`], produced by [`QuantModel::quantize`].
///
/// Dense GEMMs (attention projections, FFN layers, the classifier head) run
/// int8 with per-output-row weight scales and calibrated per-tensor input
/// scales; embedding tables are int8 with per-row scales, dequantized on
/// gather. Softmax, layer norm, the attention core and butterfly/Fourier
/// mixing stay f32, with dequantization at the boundaries. Scales are
/// static, so logits are **bit-invariant** to batch composition, padding
/// and thread count, exactly like the f32 serving path.
#[derive(Debug, Clone)]
pub struct QuantModel {
    config: ModelConfig,
    kind: ModelKind,
    tok: QuantEmbedding,
    pos: QuantEmbedding,
    blocks: Vec<QuantBlock>,
    head: MaybeQuantLinear,
}

impl QuantModel {
    /// Quantizes a frozen model using calibrated activation scales (see
    /// [`crate::calibrate`] and the convenience [`crate::quantize_frozen`]).
    ///
    /// # Panics
    ///
    /// Panics when `scales` was calibrated for a different architecture
    /// (block count mismatch).
    pub fn quantize(frozen: &FrozenModel, scales: &ActivationScales) -> Self {
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
                        QuantMixing::Attention(Box::new(QuantAttention {
                            wq: MaybeQuantLinear::quantize(a.wq(), bs.attn_in),
                            wk: MaybeQuantLinear::quantize(a.wk(), bs.attn_in),
                            wv: MaybeQuantLinear::quantize(a.wv(), bs.attn_in),
                            wo: MaybeQuantLinear::quantize(a.wo(), bs.attn_out_in),
                            dim: a.dim(),
                            num_heads: a.num_heads(),
                        }))
                    }
                    FrozenMixing::Fourier => QuantMixing::Fourier,
                };
                QuantBlock {
                    mixing,
                    ffn: QuantFeedForward {
                        lin1: MaybeQuantLinear::quantize(fb.ffn().lin1(), bs.ffn1_in),
                        lin2: MaybeQuantLinear::quantize(fb.ffn().lin2(), bs.ffn2_in),
                    },
                    ln1: fb.ln1().clone(),
                    ln2: fb.ln2().clone(),
                }
            })
            .collect();
        Self {
            config: frozen.config().clone(),
            kind: frozen.kind(),
            tok: QuantEmbedding::from_table(frozen.tok_table()),
            pos: QuantEmbedding::from_table(frozen.pos_table()),
            blocks,
            head: MaybeQuantLinear::quantize(frozen.head(), scales.head_in),
        }
    }

    /// Reassembles a quantized model from its parts — the inverse of the
    /// component accessors, used by snapshot restore. A model rebuilt from
    /// the exact stored values of a [`QuantModel::quantize`] result produces
    /// bit-identical logits.
    ///
    /// # Panics
    ///
    /// Panics when the embedding tables disagree with `config` or the block
    /// count differs from `config.num_layers`.
    pub fn from_parts(
        config: ModelConfig,
        kind: ModelKind,
        tok: QuantEmbedding,
        pos: QuantEmbedding,
        blocks: Vec<QuantBlock>,
        head: MaybeQuantLinear,
    ) -> Self {
        assert_eq!(
            (tok.rows(), tok.cols()),
            (config.vocab_size, config.hidden),
            "token table shape mismatch"
        );
        assert_eq!(
            (pos.rows(), pos.cols()),
            (config.max_seq, config.hidden),
            "positional table shape mismatch"
        );
        assert_eq!(blocks.len(), config.num_layers, "block count mismatch");
        Self { config, kind, tok, pos, blocks, head }
    }

    /// The configuration of the model this snapshot was quantized from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The int8 token-embedding table.
    pub fn tok(&self) -> &QuantEmbedding {
        &self.tok
    }

    /// The int8 positional-embedding table.
    pub fn pos(&self) -> &QuantEmbedding {
        &self.pos
    }

    /// The quantized encoder blocks, in execution order.
    pub fn blocks(&self) -> &[QuantBlock] {
        &self.blocks
    }

    /// The (possibly quantized) classifier head.
    pub fn head(&self) -> &MaybeQuantLinear {
        &self.head
    }

    /// Which architecture the snapshot instantiates.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.head.d_out()
    }

    /// Maximum supported sequence length.
    pub fn max_seq(&self) -> usize {
        self.config.max_seq
    }

    /// Fraction of linear maps (projections, FFN layers, head) running the
    /// int8 path — below 1.0 when the model uses butterfly-factorised
    /// linears, which stay f32.
    pub fn quantized_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut int8 = 0usize;
        let mut count = |l: &MaybeQuantLinear| {
            total += 1;
            int8 += usize::from(l.is_quantized());
        };
        for b in &self.blocks {
            if let QuantMixing::Attention(a) = &b.mixing {
                count(&a.wq);
                count(&a.wk);
                count(&a.wv);
                count(&a.wo);
            }
            count(&b.ffn.lin1);
            count(&b.ffn.lin2);
        }
        count(&self.head);
        int8 as f64 / total as f64
    }

    /// Per-example class logits for a padded batch. Each example's logits
    /// are bit-identical to [`QuantModel::logits`] on that sequence alone,
    /// independent of batch composition and padding.
    ///
    /// # Panics
    ///
    /// Panics when the batch is empty, a sequence is empty or longer than
    /// `pad_to`, `pad_to` exceeds `max_seq`, or a token id is out of
    /// vocabulary.
    pub fn logits_batch<S: AsRef<[usize]>>(&self, batch: &[S], pad_to: usize) -> Vec<Vec<f32>> {
        let lengths: Vec<usize> = batch.iter().map(|s| s.as_ref().len()).collect();
        let x = self.embed_batch(batch, pad_to);
        let x = self.run_blocks(x, pad_to, &lengths);
        self.pool_and_head(&x, &lengths, pad_to)
    }

    /// [`QuantModel::logits_batch`] over a caller-managed flat token buffer
    /// (the layout of [`fab_nn::FrozenModel::forward_batch_flat`]).
    ///
    /// # Panics
    ///
    /// Panics when the buffer length is not `lengths.len() * pad_to`, a
    /// length is zero or exceeds `pad_to`, `pad_to` exceeds `max_seq`, or a
    /// token id is out of vocabulary.
    pub fn logits_batch_flat(
        &self,
        tokens_padded: &[usize],
        lengths: &[usize],
        pad_to: usize,
    ) -> Vec<Vec<f32>> {
        let x = self.embed_flat(tokens_padded, lengths, pad_to);
        let x = self.run_blocks(x, pad_to, lengths);
        self.pool_and_head(&x, lengths, pad_to)
    }

    /// Class logits for a single sequence.
    ///
    /// # Panics
    ///
    /// Panics when `tokens` is empty or longer than `max_seq`.
    pub fn logits(&self, tokens: &[usize]) -> Vec<f32> {
        self.logits_batch(&[tokens], tokens.len()).pop().expect("one logits row")
    }

    /// Predicted class for a single sequence.
    pub fn predict_class(&self, tokens: &[usize]) -> usize {
        argmax(&self.logits(tokens))
    }

    fn run_blocks(&self, mut x: Tensor, pad_to: usize, lengths: &[usize]) -> Tensor {
        for block in &self.blocks {
            x = block.forward_batch(&x, pad_to, lengths);
        }
        x
    }

    /// Mean-pools each example over its true-length rows and runs the
    /// (quantized) classifier head over the pooled batch.
    fn pool_and_head(&self, x: &Tensor, lengths: &[usize], pad_to: usize) -> Vec<Vec<f32>> {
        let hidden = self.config.hidden;
        let mut pooled = vec![0.0f32; lengths.len() * hidden];
        for (i, &len) in lengths.iter().enumerate() {
            let dst = &mut pooled[i * hidden..(i + 1) * hidden];
            for row in x.as_slice()[i * pad_to * hidden..].chunks(hidden).take(len) {
                for (d, &v) in dst.iter_mut().zip(row.iter()) {
                    *d += v;
                }
            }
            for d in dst.iter_mut() {
                *d /= len as f32;
            }
        }
        let pooled =
            Tensor::from_vec(pooled, &[lengths.len(), hidden]).expect("pooled batch shape");
        let logits = self.head.forward(&pooled, false);
        let classes = logits.cols();
        logits.as_slice().chunks(classes).map(|row| row.to_vec()).collect()
    }

    /// Dequantized token + positional embedding gather for a padded batch.
    fn embed_batch<S: AsRef<[usize]>>(&self, batch: &[S], pad_to: usize) -> Tensor {
        assert!(!batch.is_empty(), "cannot run a quantized model on an empty batch");
        assert!(
            pad_to >= 1 && pad_to <= self.config.max_seq,
            "pad_to {pad_to} outside 1..={}",
            self.config.max_seq
        );
        let hidden = self.config.hidden;
        let vocab = self.config.vocab_size;
        let mut x = vec![0.0f32; batch.len() * pad_to * hidden];
        for (s, ex) in batch.iter().zip(x.chunks_mut(pad_to * hidden)) {
            let tokens = s.as_ref();
            assert!(!tokens.is_empty(), "cannot run a quantized model on an empty sequence");
            assert!(
                tokens.len() <= pad_to,
                "sequence length {} exceeds pad_to {pad_to}",
                tokens.len()
            );
            for (j, row) in ex.chunks_mut(hidden).enumerate() {
                let id = tokens.get(j).copied().unwrap_or(0);
                assert!(id < vocab, "token index {id} out of range for vocab {vocab}");
                self.tok.add_row_into(id, row);
                self.pos.add_row_into(j, row);
            }
        }
        Tensor::from_vec(x, &[batch.len() * pad_to, hidden]).expect("embedding batch shape")
    }

    /// Dequantized embedding gather over a flat padded token buffer.
    fn embed_flat(&self, tokens_padded: &[usize], lengths: &[usize], pad_to: usize) -> Tensor {
        assert!(!lengths.is_empty(), "cannot run a quantized model on an empty batch");
        assert!(
            pad_to >= 1 && pad_to <= self.config.max_seq,
            "pad_to {pad_to} outside 1..={}",
            self.config.max_seq
        );
        assert_eq!(
            tokens_padded.len(),
            lengths.len() * pad_to,
            "flat token buffer length mismatch"
        );
        for &len in lengths {
            assert!(len >= 1 && len <= pad_to, "sequence length {len} outside 1..={pad_to}");
        }
        let hidden = self.config.hidden;
        let vocab = self.config.vocab_size;
        let mut x = vec![0.0f32; tokens_padded.len() * hidden];
        for (ex, ids) in x.chunks_mut(pad_to * hidden).zip(tokens_padded.chunks(pad_to)) {
            for ((j, row), &id) in ex.chunks_mut(hidden).enumerate().zip(ids.iter()) {
                assert!(id < vocab, "token index {id} out of range for vocab {vocab}");
                self.tok.add_row_into(id, row);
                self.pos.add_row_into(j, row);
            }
        }
        Tensor::from_vec(x, &[tokens_padded.len(), hidden]).expect("embedding batch shape")
    }
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
