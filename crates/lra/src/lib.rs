//! # fab-lra
//!
//! Synthetic proxies for the five Long-Range-Arena (LRA) tasks the paper
//! evaluates on: ListOps, byte-level Text classification, byte-level document
//! Retrieval, Image (pixel-sequence) classification and Pathfinder.
//!
//! The real LRA datasets (a 33 GB download plus hundreds of GPU-hours of
//! training) are out of scope for this reproduction, so each proxy generates
//! small sequences that preserve the *structural* property that matters for
//! the paper's comparison: solving the task requires mixing information
//! across the whole sequence (long-range/global), sometimes combined with
//! local structure. See DESIGN.md for the substitution rationale.
//!
//! # Example
//!
//! ```rust
//! use fab_lra::{LraTask, TaskConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let config = TaskConfig { seq_len: 32, ..TaskConfig::default() };
//! let samples = LraTask::Text.generate(&config, 10, &mut rng);
//! assert_eq!(samples.len(), 10);
//! assert!(samples.iter().all(|s| s.tokens.len() == 32));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod image;
mod listops;
mod pathfinder;
mod retrieval;
mod text;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed salt separating [`LraTask::calibration_batches`] streams from the
/// train/eval streams of [`LraTask::generate`] under the same user seed.
pub const CALIBRATION_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// One labelled sequence sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Token ids in `0..vocab_size`.
    pub tokens: Vec<usize>,
    /// Class label in `0..num_classes`.
    pub label: usize,
}

impl Sample {
    /// Creates a sample.
    pub fn new(tokens: Vec<usize>, label: usize) -> Self {
        Self { tokens, label }
    }
}

/// Generation parameters shared by all tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskConfig {
    /// Sequence length of every generated sample.
    pub seq_len: usize,
}

impl Default for TaskConfig {
    fn default() -> Self {
        Self { seq_len: 64 }
    }
}

/// The five LRA tasks (Section VI-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LraTask {
    /// Hierarchical list-operation evaluation (10-way classification).
    ListOps,
    /// Byte-level text classification (binary).
    Text,
    /// Byte-level document retrieval: do the two documents match? (binary).
    Retrieval,
    /// Image classification over a pixel sequence (4 pattern classes).
    Image,
    /// Long-range spatial path connectivity (binary).
    Pathfinder,
}

impl LraTask {
    /// All five tasks in the order the paper reports them.
    pub const ALL: [LraTask; 5] =
        [LraTask::ListOps, LraTask::Text, LraTask::Retrieval, LraTask::Image, LraTask::Pathfinder];

    /// Task name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            LraTask::ListOps => "ListOps",
            LraTask::Text => "Text",
            LraTask::Retrieval => "Retrieval",
            LraTask::Image => "Image",
            LraTask::Pathfinder => "Pathfinder",
        }
    }

    /// Vocabulary size of the task's token alphabet.
    pub fn vocab_size(self) -> usize {
        match self {
            LraTask::ListOps => listops::VOCAB,
            LraTask::Text => text::VOCAB,
            LraTask::Retrieval => retrieval::VOCAB,
            LraTask::Image => image::VOCAB,
            LraTask::Pathfinder => pathfinder::VOCAB,
        }
    }

    /// Number of target classes.
    pub fn num_classes(self) -> usize {
        match self {
            LraTask::ListOps => 10,
            LraTask::Text => 2,
            LraTask::Retrieval => 2,
            LraTask::Image => 4,
            LraTask::Pathfinder => 2,
        }
    }

    /// The sequence length used by the paper for this task (1K–4K); the
    /// proxies default to much shorter sequences via [`TaskConfig`].
    pub fn paper_seq_len(self) -> usize {
        match self {
            LraTask::ListOps => 2048,
            LraTask::Text => 4096,
            LraTask::Retrieval => 4096,
            LraTask::Image => 1024,
            LraTask::Pathfinder => 1024,
        }
    }

    /// Generates `n` labelled samples.
    ///
    /// Each sample is produced from its own child RNG (seeded sequentially
    /// from `rng`), so generation is deterministic for a given seed *and*
    /// large batches can be built in parallel on the worker pool.
    ///
    /// # Panics
    ///
    /// Panics when `config.seq_len` is too small for the task (each task
    /// needs at least 16 tokens).
    pub fn generate(self, config: &TaskConfig, n: usize, rng: &mut StdRng) -> Vec<Sample> {
        assert!(config.seq_len >= 16, "LRA proxy tasks need seq_len >= 16");
        let seeds: Vec<u64> = (0..n).map(|_| rng.gen_range(0..u64::MAX)).collect();
        let seq_len = config.seq_len;
        let make = |i: usize| {
            let mut sample_rng = StdRng::seed_from_u64(seeds[i]);
            match self {
                LraTask::ListOps => listops::sample(seq_len, &mut sample_rng),
                LraTask::Text => text::sample(seq_len, i, &mut sample_rng),
                LraTask::Retrieval => retrieval::sample(seq_len, i, &mut sample_rng),
                LraTask::Image => image::sample(seq_len, i, &mut sample_rng),
                LraTask::Pathfinder => pathfinder::sample(seq_len, i, &mut sample_rng),
            }
        };
        let mut samples = vec![None; n];
        rayon::fork_chunks_mut([(&mut samples, 1)], |i, [out]| out[0] = Some(make(i)));
        samples.into_iter().map(|s| s.expect("every index is generated")).collect()
    }

    /// Generates `n` deterministic calibration samples for post-training
    /// quantization (`fab-quant`).
    ///
    /// The stream is derived from `seed` through a fixed salt
    /// ([`CALIBRATION_SALT`]), so for any given `(seed, n)` it is
    /// bit-reproducible across hosts and thread counts **and disjoint from
    /// every [`LraTask::generate`] / [`LraTask::generate_split`] stream
    /// seeded with the same `seed`** — calibrating on these batches never
    /// leaks the train or eval split into the quantization statistics.
    ///
    /// # Panics
    ///
    /// Panics when `config.seq_len` is too small for the task (see
    /// [`LraTask::generate`]).
    pub fn calibration_batches(self, config: &TaskConfig, seed: u64, n: usize) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed ^ CALIBRATION_SALT);
        self.generate(config, n, &mut rng)
    }

    /// Generates a train/test split with `n_train` and `n_test` samples.
    pub fn generate_split(
        self,
        config: &TaskConfig,
        n_train: usize,
        n_test: usize,
        rng: &mut StdRng,
    ) -> (Vec<Sample>, Vec<Sample>) {
        (self.generate(config, n_train, rng), self.generate(config, n_test, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn check_task(task: LraTask) {
        let mut rng = StdRng::seed_from_u64(1234);
        let config = TaskConfig { seq_len: 32 };
        let samples = task.generate(&config, 200, &mut rng);
        assert_eq!(samples.len(), 200);
        let mut labels = HashSet::new();
        for s in &samples {
            assert_eq!(s.tokens.len(), 32, "{}", task.name());
            assert!(s.tokens.iter().all(|&t| t < task.vocab_size()), "{}", task.name());
            assert!(s.label < task.num_classes(), "{}", task.name());
            labels.insert(s.label);
        }
        // The generator must produce more than one class.
        assert!(labels.len() >= 2, "{} produced a single class", task.name());
    }

    #[test]
    fn all_tasks_generate_valid_samples() {
        for task in LraTask::ALL {
            check_task(task);
        }
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        for task in LraTask::ALL {
            let config = TaskConfig { seq_len: 32 };
            let mut a = StdRng::seed_from_u64(7);
            let mut b = StdRng::seed_from_u64(7);
            assert_eq!(task.generate(&config, 20, &mut a), task.generate(&config, 20, &mut b));
        }
    }

    #[test]
    fn calibration_batches_are_deterministic_and_disjoint_from_eval() {
        let config = TaskConfig { seq_len: 32 };
        for task in LraTask::ALL {
            let a = task.calibration_batches(&config, 7, 20);
            let b = task.calibration_batches(&config, 7, 20);
            assert_eq!(a, b, "{} calibration stream not deterministic", task.name());
            // Same user seed, but a different stream than generate(): no
            // calibration sample may appear in the train/eval stream.
            let mut rng = StdRng::seed_from_u64(7);
            let eval = task.generate(&config, 40, &mut rng);
            for s in &a {
                assert!(
                    !eval.contains(s),
                    "{} calibration sample leaked into the eval stream",
                    task.name()
                );
            }
        }
    }

    #[test]
    fn labels_are_reasonably_balanced() {
        for task in [LraTask::Text, LraTask::Retrieval, LraTask::Pathfinder] {
            let mut rng = StdRng::seed_from_u64(99);
            let config = TaskConfig { seq_len: 64 };
            let samples = task.generate(&config, 400, &mut rng);
            let ones = samples.iter().filter(|s| s.label == 1).count();
            let frac = ones as f64 / samples.len() as f64;
            assert!(frac > 0.25 && frac < 0.75, "{}: positive fraction {frac}", task.name());
        }
    }

    #[test]
    fn paper_sequence_lengths_are_long_range() {
        for task in LraTask::ALL {
            assert!(task.paper_seq_len() >= 1024);
        }
    }
}
