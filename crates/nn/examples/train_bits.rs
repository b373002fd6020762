//! Prints the bits of a few training steps: one line per model × sequence
//! length × step with the loss's `to_bits`, then one line per model ×
//! length with a hash of every parameter's bits after the steps.
//!
//! The check behind every "trained weights bit-identical" claim, beside
//! `logits_bits`. A train step must not depend on the thread count: the
//! default-threads and `RAYON_NUM_THREADS=1` outputs of one backend must be
//! the same file (CI `cmp`s them). Run at a parent commit and at a change
//! it also shows whether a tape op or an optimiser change moved a weight.
//!
//! ```bash
//! cargo run --release -p fab-nn --example train_bits > train.txt
//! ```
//!
//! The models are seeded: a Transformer, a FABNet of Fourier blocks only
//! and a FABNet with one ABfly block, hidden 64 in 4 heads of 16 and in 2
//! of 32. The lengths straddle the attention op's 32-row tiles and the
//! fan-out grain, and every length trains a fresh model.

use fab_nn::{FusedAdamW, Model, ModelConfig, ModelKind, TrainStep};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 32;
const LENS: [usize; 6] = [1, 31, 32, 33, 65, 200];
const STEPS: usize = 3;

/// FNV-1a over the bits of every parameter of `model`, in binding order.
fn param_hash(model: &Model) -> u64 {
    let (_tape, _loss, bindings) = model.loss(&[1, 2, 3], 0);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (_, param) in bindings.iter() {
        for x in param.value().as_slice() {
            for byte in x.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

fn main() {
    let models = [
        ("transformer", ModelKind::Transformer, 0, 4),
        ("transformer-h2", ModelKind::Transformer, 0, 2),
        ("fabnet", ModelKind::FabNet, 0, 4),
        ("fabnet-abfly", ModelKind::FabNet, 1, 4),
        ("fabnet-abfly-h2", ModelKind::FabNet, 1, 2),
    ];
    for (name, kind, num_abfly, num_heads) in models {
        let config = ModelConfig {
            hidden: 64,
            ffn_ratio: 2,
            num_layers: 2,
            num_abfly,
            num_heads,
            vocab_size: VOCAB,
            max_seq: 256,
            num_classes: 3,
        };
        for len in LENS {
            let model = Model::new(&config, kind, &mut StdRng::seed_from_u64(5));
            let mut step = TrainStep::new(FusedAdamW::new(1e-3));
            for i in 0..STEPS {
                let tokens: Vec<usize> = (0..len).map(|j| (j * 7 + i * 3 + 1) % VOCAB).collect();
                let loss = step.step(&model, &tokens, i % 3);
                println!("{name} {len} step {i} loss {:08x}", loss.to_bits());
            }
            println!("{name} {len} params {:016x}", param_hash(&model));
        }
    }
}
