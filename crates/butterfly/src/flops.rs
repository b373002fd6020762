//! Floating-point operation counts for the layer types studied in the paper.
//!
//! These counters drive the reproduction of Fig. 1 (operation breakdown of
//! attention vs. linear layers) and Fig. 17 (FLOP reduction of FABNet over
//! the vanilla Transformer and FNet). Multiply and add are counted as
//! separate operations, the convention used when reporting GOPs in the paper.

/// FLOPs of a dense linear layer mapping `[rows, d_in] -> [rows, d_out]`.
pub fn dense_linear_flops(rows: usize, d_in: usize, d_out: usize) -> u64 {
    2 * rows as u64 * d_in as u64 * d_out as u64
}

/// FLOPs of a butterfly linear layer of (padded) size `n` applied to `rows`
/// rows: `log2 n` stages of `n/2` butterflies, each 4 multiplies + 2 adds.
pub fn butterfly_linear_flops(rows: usize, n: usize) -> u64 {
    let stages = (n as f64).log2().ceil() as u64;
    rows as u64 * stages * (n as u64 / 2) * 6
}

/// FLOPs of a radix-2 complex FFT of length `n`: `n/2 log2 n` butterflies,
/// each one complex multiply (6 real ops) and two complex adds (4 real ops).
pub(crate) fn fft_flops(n: usize) -> u64 {
    let stages = (n as f64).log2().ceil() as u64;
    stages * (n as u64 / 2) * 10
}

/// FLOPs of the FNet/FBfly 2-D Fourier mixing over a `[seq, hidden]` tile:
/// one full complex FFT per row plus one per column.
///
/// This is the *nominal* count — what the paper's operation accounting
/// charges a Fourier layer, and what the fan-out decisions compare against
/// [`fab_tensor::PAR_GRAIN_OPS`]. It is not the executed count:
/// [`crate::fft::fft2_real`] exploits the real input and the real output
/// (a half-size packed transform along the sequence, then only `seq/2 + 1`
/// hidden-dimension transforms), so it performs a bit under half of this.
pub fn fourier_mix_flops(seq: usize, hidden: usize) -> u64 {
    seq as u64 * fft_flops(hidden) + hidden as u64 * fft_flops(seq)
}

/// FLOPs of the attention score/value computation (excluding the Q/K/V and
/// output projections): `Q·K^T`, softmax and `S·V` over all heads.
pub fn attention_core_flops(seq: usize, hidden: usize) -> u64 {
    let qk = 2 * seq as u64 * seq as u64 * hidden as u64;
    let softmax = 5 * seq as u64 * seq as u64;
    let sv = 2 * seq as u64 * seq as u64 * hidden as u64;
    qk + softmax + sv
}

/// FLOPs of a dense feed-forward network with expansion ratio `r`.
pub fn ffn_flops(seq: usize, hidden: usize, r: usize) -> u64 {
    dense_linear_flops(seq, hidden, hidden * r) + dense_linear_flops(seq, hidden * r, hidden)
}

/// FLOPs of layer normalisation over `[seq, hidden]` (mean, variance,
/// normalise, scale and shift ≈ 8 ops per element).
pub fn layer_norm_flops(seq: usize, hidden: usize) -> u64 {
    8 * seq as u64 * hidden as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn butterfly_is_asymptotically_cheaper_than_dense() {
        let n = 1024;
        let dense = dense_linear_flops(1, n, n);
        let bfly = butterfly_linear_flops(1, n);
        assert!(dense / bfly > 30, "expected >30x reduction, got {}", dense / bfly);
    }

    #[test]
    fn attention_core_scales_quadratically_with_sequence() {
        let short = attention_core_flops(128, 64);
        let long = attention_core_flops(1024, 64);
        let ratio = long as f64 / short as f64;
        assert!((ratio - 64.0).abs() / 64.0 < 0.05, "ratio {ratio}");
    }

    #[test]
    fn fourier_mix_scales_n_log_n() {
        let a = fourier_mix_flops(256, 256) as f64;
        let b = fourier_mix_flops(512, 256) as f64;
        // Doubling the sequence should just over double the cost, far below 4x.
        assert!(b / a > 2.0 && b / a < 2.5, "ratio {}", b / a);
    }

    #[test]
    fn linear_layers_dominate_short_sequences() {
        // Fig. 1: for short sequences the FFN + projections dominate attention core.
        let seq = 128;
        let hidden = 768;
        let linear = 4 * dense_linear_flops(seq, hidden, hidden) + ffn_flops(seq, hidden, 4);
        let attn = attention_core_flops(seq, hidden);
        assert!(linear > 4 * attn);
    }

    #[test]
    fn attention_dominates_long_sequences() {
        // Fig. 1: for long sequences the attention core dominates.
        let seq = 8192;
        let hidden = 768;
        let linear = 4 * dense_linear_flops(seq, hidden, hidden) + ffn_flops(seq, hidden, 4);
        let attn = attention_core_flops(seq, hidden);
        assert!(attn > linear);
    }
}
