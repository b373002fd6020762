//! FABNet's butterfly-FFN blocks run their second half — `ln1`, both
//! butterfly maps with bias and GELU, `ln2` — as one pass over lane tiles
//! (`fab_butterfly::ButterflyFfn`). Property: block by block and in the
//! logits, that pass gives the bits of the row-major composition built
//! from public pieces (`FrozenLinear::forward`, `Tensor::gelu`,
//! `Tensor::add_layer_norm_rows`), for FBfly and ABfly blocks, f32 and
//! int8 models, at default threads and on one thread. The widths cover
//! the layer norm's 8-lane groups (16, 64), its tail fold (20) and a
//! partial lane group (24); `ffn_ratio` 3 makes the intermediate narrower
//! than its butterflies, so rows `ffn..n` must be zeroed before the second
//! map. The lengths straddle one 16-row tile, and 129 rows at hidden 64
//! fan out over the worker pool.

use fab_butterfly::{fourier_mix, ButterflyFfn, LayerNorm};
use fab_nn::{
    attention_mix_rows, FrozenBlock, FrozenEmbedding, FrozenLayerNorm, FrozenLinear, FrozenMixing,
    FrozenModel, Model, ModelConfig, ModelKind,
};
use fab_quant::{quantize_frozen, CalibrationConfig};
use fab_tensor::{with_rayon_threads, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serialises the tests that set `RAYON_NUM_THREADS`, which is
/// process-global.
static THREAD_ENV_LOCK: Mutex<()> = Mutex::new(());

const HIDDENS: [usize; 4] = [16, 20, 24, 64];
const LENS: [usize; 5] = [1, 15, 16, 17, 129];
const VOCAB: usize = 32;

/// One FBfly block under one ABfly block.
fn config(hidden: usize, ffn_ratio: usize) -> ModelConfig {
    ModelConfig {
        hidden,
        ffn_ratio,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 4,
        vocab_size: VOCAB,
        max_seq: 129,
        num_classes: 3,
    }
}

fn tokens(len: usize, salt: u64) -> Vec<usize> {
    (0..len).map(|j| (j * 7 + salt as usize % 11 * 3 + 1) % VOCAB).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The embedded sequence, `[len, hidden]`.
fn embed(m: &FrozenModel, tokens: &[usize]) -> Tensor {
    let hidden = m.config().hidden;
    let mut x = vec![0.0f32; tokens.len() * hidden];
    for (j, (row, &id)) in x.chunks_mut(hidden).zip(tokens).enumerate() {
        match m.embedding() {
            FrozenEmbedding::F32 { tok, pos } => {
                let (t, p) = (&tok.as_slice()[id * hidden..], &pos.as_slice()[j * hidden..]);
                for ((d, &t), &p) in row.iter_mut().zip(t).zip(p) {
                    *d = t + p;
                }
            }
            FrozenEmbedding::Int8 { tok, pos } => {
                tok.add_row_into(id, row);
                pos.add_row_into(j, row);
            }
        }
    }
    Tensor::from_vec(x, &[tokens.len(), hidden]).expect("embedding shape")
}

/// A block's token mixing of `x`, from its public projections.
fn mixing(block: &FrozenBlock, x: &Tensor, fast: bool) -> Tensor {
    match block.mixing() {
        FrozenMixing::Attention(a) => {
            let q = a.wq().forward(x);
            let q = if fast { q.scale(1.0 / ((a.dim() / a.num_heads()) as f32).sqrt()) } else { q };
            let (k, v) = (a.wk().forward(x), a.wv().forward(x));
            let mut mixed = vec![0.0f32; x.len()];
            attention_mix_rows(&q, &k, &v, a.num_heads(), fast, &mut mixed);
            a.wo().forward(&Tensor::from_vec(mixed, x.shape()).expect("attention shape"))
        }
        FrozenMixing::Fourier => fourier_mix(x),
    }
}

/// The block's second half as the forward ran it before the lane pass:
/// `y = ln1(x + mixed)`, `ln2(y + lin2(gelu(lin1(y))))`, one row-major
/// pass each.
fn ffn_half_by_rows(block: &FrozenBlock, x: &Tensor, mixed: &Tensor) -> Tensor {
    let (ln1, ln2, ffn) = (block.ln1(), block.ln2(), block.ffn());
    let y = x.add_layer_norm_rows(mixed, ln1.gamma(), ln1.beta(), ln1.eps());
    let f = ffn.lin2().forward(&ffn.lin1().forward(&y).gelu());
    y.add_layer_norm_rows(&f, ln2.gamma(), ln2.beta(), ln2.eps())
}

fn lane_params(ln: &FrozenLayerNorm) -> LayerNorm<'_> {
    LayerNorm { gamma: ln.gamma().as_slice(), beta: ln.beta().as_slice(), eps: ln.eps() }
}

/// The block's second half as one lane pass.
fn ffn_half_by_tiles(block: &FrozenBlock, x: &Tensor, mixed: &Tensor) -> Tensor {
    let (
        FrozenLinear::Butterfly { bfly: up, b: b1, .. },
        FrozenLinear::Butterfly { bfly: down, b: b2, .. },
    ) = (block.ffn().lin1(), block.ffn().lin2())
    else {
        panic!("a FABNet FFN is butterfly")
    };
    let ffn = ButterflyFfn::new(up, b1.as_slice(), down, b2.as_slice());
    let mut out = Tensor::default();
    ffn.block_rows_into(x, mixed, lane_params(block.ln1()), lane_params(block.ln2()), &mut out);
    out
}

/// Runs `tokens` through `m` block by block, checking each block's lane
/// pass against the composition, and returns the logits of the
/// composition.
fn logits_by_rows(m: &FrozenModel, tokens: &[usize], what: &str) -> Vec<f32> {
    let mut x = embed(m, tokens);
    for (b, block) in m.blocks().iter().enumerate() {
        let mixed = mixing(block, &x, m.fast_math());
        let by_rows = ffn_half_by_rows(block, &x, &mixed);
        let y = x.add_layer_norm_rows(
            &mixed,
            block.ln1().gamma(),
            block.ln1().beta(),
            block.ln1().eps(),
        );
        assert_eq!(
            bits(block.ffn().forward(&y, m.fast_math()).as_slice()),
            bits(block.ffn().lin2().forward(&block.ffn().lin1().forward(&y).gelu()).as_slice()),
            "{what}: block {b}'s FFN alone"
        );
        assert_eq!(
            bits(ffn_half_by_tiles(block, &x, &mixed).as_slice()),
            bits(by_rows.as_slice()),
            "{what}: block {b}"
        );
        x = by_rows;
    }
    m.head().forward(&x.mean_rows()).into_vec()
}

/// `hidden`, `ffn_ratio`: an f32 and a calibrated int8 FABNet.
fn models(hidden: usize, ffn_ratio: usize, seed: u64) -> [(String, FrozenModel); 2] {
    let model =
        Model::new(&config(hidden, ffn_ratio), ModelKind::FabNet, &mut StdRng::seed_from_u64(seed));
    let exact = model.freeze();
    let calibration: Vec<Vec<usize>> = (0..3).map(|i| tokens(9 + 5 * i, seed + i as u64)).collect();
    let int8 = quantize_frozen(&exact, &calibration, &CalibrationConfig::default());
    [("f32", exact), ("int8", int8)]
        .map(|(precision, m)| (format!("hidden {hidden} ffn_ratio {ffn_ratio} {precision}"), m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn the_lane_pass_gives_the_bits_of_the_row_composition(seed in 0u64..1 << 32) {
        for hidden in HIDDENS {
            for ffn_ratio in 1..=4 {
                for (what, m) in models(hidden, ffn_ratio, seed) {
                    for len in LENS {
                        let tokens = tokens(len, seed);
                        let what = format!("{what} len {len}");
                        let expected = bits(&logits_by_rows(&m, &tokens, &what));
                        prop_assert!(bits(&m.logits(&tokens)) == expected, "{what}");
                        let _guard = THREAD_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                        let one = with_rayon_threads(1, || {
                            logits_by_rows(&m, &tokens, &format!("{what}, one thread"));
                            m.logits(&tokens)
                        });
                        prop_assert!(bits(&one) == expected, "{what} on one thread");
                    }
                }
            }
        }
    }
}

/// 129 rows at hidden 64 reach the fan-out grain, so the default-threads
/// runs above split the pass into chunks.
#[test]
fn the_longest_case_fans_out() {
    let n = 256; // next_pow2(64 · 4)
    let flops = fab_butterfly::flops::butterfly_linear_flops(129, n);
    assert!(2 * flops >= fab_tensor::PAR_GRAIN_OPS, "{flops}");
}
