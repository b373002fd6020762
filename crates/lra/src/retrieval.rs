//! Byte-level document-retrieval proxy: two documents are concatenated with a
//! separator and the model must decide whether they carry the same key token,
//! which requires relating information across the two halves of the sequence.

use crate::Sample;
use rand::rngs::StdRng;
use rand::Rng;

/// Vocabulary: separator, 8 key tokens and filler bytes.
pub(crate) const VOCAB: usize = 32;

const SEP: usize = 0;
const KEY_BASE: usize = 1;
const NUM_KEYS: usize = 8;

/// Generates one retrieval sample of `seq_len` tokens; `index` balances labels.
pub(crate) fn sample(seq_len: usize, index: usize, rng: &mut StdRng) -> Sample {
    let label = index % 2;
    let half = seq_len / 2;
    let mut tokens: Vec<usize> =
        (0..seq_len).map(|_| rng.gen_range(KEY_BASE + NUM_KEYS..VOCAB)).collect();
    tokens[half] = SEP;
    let key1 = KEY_BASE + rng.gen_range(0..NUM_KEYS);
    let key2 = if label == 1 {
        key1
    } else {
        // A different key, chosen uniformly among the remaining ones.
        let offset = rng.gen_range(1..NUM_KEYS);
        KEY_BASE + ((key1 - KEY_BASE) + offset) % NUM_KEYS
    };
    let p1 = rng.gen_range(0..half);
    let p2 = half + 1 + rng.gen_range(0..seq_len - half - 1);
    tokens[p1] = key1;
    tokens[p2] = key2;
    Sample::new(tokens, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn keys_in(tokens: &[usize]) -> Vec<usize> {
        tokens.iter().copied().filter(|&t| (KEY_BASE..KEY_BASE + NUM_KEYS).contains(&t)).collect()
    }

    #[test]
    fn matching_documents_share_the_key() {
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..100 {
            let s = sample(64, i, &mut rng);
            let keys = keys_in(&s.tokens);
            assert_eq!(keys.len(), 2, "expected exactly two key tokens");
            if s.label == 1 {
                assert_eq!(keys[0], keys[1]);
            } else {
                assert_ne!(keys[0], keys[1]);
            }
        }
    }

    #[test]
    fn separator_splits_the_sequence() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = sample(64, 0, &mut rng);
        assert_eq!(s.tokens[32], SEP);
    }

    #[test]
    fn keys_appear_on_both_sides_of_the_separator() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = sample(64, 1, &mut rng);
        let positions: Vec<usize> = s
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, &t)| (KEY_BASE..KEY_BASE + NUM_KEYS).contains(&t))
            .map(|(i, _)| i)
            .collect();
        assert!(positions[0] < 32 && positions[1] > 32);
    }
}
