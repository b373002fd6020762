//! Prints the bits of the frozen forward's logits: one line per model ×
//! precision × sequence length, each logit as its `to_bits` in hex.
//!
//! The check behind every "logits bit-identical" claim. Run it at the
//! parent commit and at the change, under the native backend,
//! `FAB_SIMD=scalar` and `RAYON_NUM_THREADS=1`, and `cmp` the outputs: a
//! kernel or forward change that moves a value shows as a differing line.
//! The native and scalar outputs differ from each other (FMA rounding); the
//! default-threads and one-thread outputs of one backend must not.
//!
//! ```bash
//! cargo run --release -p fab-nn --example logits_bits > bits.txt
//! ```
//!
//! The models are seeded and untrained: Transformer, FNet, FABNet (Fourier
//! blocks only), FABNet with one ABfly block and a FABNet with one ABfly
//! block at hidden 24 and `ffn_ratio` 3 (widths that are not powers of two,
//! and an FFN narrower than its butterflies), each exact, fast-math and
//! calibrated int8. Lengths ascend and then descend, so every forward but
//! the first runs in a workspace a different shape has used, and they
//! straddle the attention core's sub-tile and band edges and the fan-out
//! grain. Every exact line is also checked against the tape path
//! (`Model::predict`) before it is printed.

use fab_nn::{FrozenModel, Model, ModelConfig, ModelKind};
use fab_quant::{quantize_frozen, CalibrationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 32;
const LENS: [usize; 15] = [1, 7, 8, 9, 15, 16, 17, 63, 127, 128, 129, 200, 512, 1000, 1024];

fn tokens(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|j| (j * 7 + salt * 3 + 1) % VOCAB).collect()
}

/// `(label, frozen model, the trained model when the frozen one is exact)`.
fn models() -> Vec<(String, FrozenModel, Option<Model>)> {
    let config = |hidden, ffn_ratio, num_abfly| ModelConfig {
        hidden,
        ffn_ratio,
        num_layers: 2,
        num_abfly,
        num_heads: 4,
        vocab_size: VOCAB,
        max_seq: 1024,
        num_classes: 3,
    };
    let calibration: Vec<Vec<usize>> = (0..4).map(|i| tokens(24 + 8 * i, i)).collect();
    [
        ("transformer", ModelKind::Transformer, config(64, 2, 0)),
        ("fnet", ModelKind::FNet, config(64, 2, 0)),
        ("fabnet", ModelKind::FabNet, config(64, 2, 0)),
        ("fabnet-abfly", ModelKind::FabNet, config(64, 2, 1)),
        ("fabnet-h24-ffn3", ModelKind::FabNet, config(24, 3, 1)),
    ]
    .into_iter()
    .flat_map(|(name, kind, config)| {
        let model = Model::new(&config, kind, &mut StdRng::seed_from_u64(11));
        let exact = model.freeze();
        let fast = exact.clone().with_fast_math(true);
        let int8 = quantize_frozen(&fast, &calibration, &CalibrationConfig::default());
        [("exact", exact, Some(model)), ("fast", fast, None), ("int8", int8, None)]
            .map(|(precision, frozen, tape)| (format!("{name} {precision}"), frozen, tape))
    })
    .collect()
}

fn main() {
    let hex = |logits: &[f32]| -> Vec<String> {
        logits.iter().map(|x| format!("{:08x}", x.to_bits())).collect()
    };
    for (label, frozen, tape) in models() {
        for (salt, &len) in LENS.iter().chain(LENS.iter().rev()).enumerate() {
            let tokens = tokens(len, salt);
            let bits = hex(&frozen.logits(&tokens));
            if let Some(tape) = &tape {
                assert_eq!(bits, hex(&tape.predict(&tokens)), "{label} {len}: frozen != tape");
            }
            println!("{label} {len} {}", bits.join(" "));
        }
    }
}
