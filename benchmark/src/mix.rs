//! Seeded inputs: token sequences, request mixes and Poisson schedules.
//! Everything the programs under test see is generated here from `--seed`
//! with the benchmark's own generator, so the stream (and its `mix_hash`)
//! does not depend on the vendored `rand` shim.

/// SplitMix64: tiny, well-distributed, and stable forever.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for an independent stream of the same seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut root = Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Self(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// `len` uniform token ids below `vocab`.
    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<usize> {
        (0..len).map(|_| self.range(0, vocab - 1)).collect()
    }
}

/// One request of a serving workload: which model it addresses, its
/// priority class, and one (`predict`) or several (`predict_batch`)
/// token sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub model: usize,
    pub interactive: bool,
    pub sequences: Vec<Vec<usize>>,
}

/// Shape of a serving request mix.
#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    pub models: usize,
    pub sequences_per_request: usize,
    pub min_len: usize,
    pub max_len: usize,
    pub vocab: usize,
    /// Alternate interactive/batch priority (otherwise all interactive).
    pub alternate_priority: bool,
}

/// `n` requests: lengths uniform in `min_len..=max_len`, model
/// round-robin, tokens uniform.
pub fn request_mix(spec: &MixSpec, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix::stream(seed, 1);
    (0..n)
        .map(|i| Request {
            model: i % spec.models,
            interactive: !spec.alternate_priority || i % 2 == 0,
            sequences: (0..spec.sequences_per_request)
                .map(|_| {
                    let len = rng.range(spec.min_len, spec.max_len);
                    rng.tokens(len, spec.vocab)
                })
                .collect(),
        })
        .collect()
}

/// Due times (seconds from phase start) of a Poisson process of
/// `rate_per_s` arrivals per second over `duration_s` seconds.
pub fn poisson_schedule(seed: u64, stream: u64, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = SplitMix::stream(seed, 0x5c4e_d01e ^ stream);
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// FNV-1a over a stream of integers; printed with every result so two runs
/// can be shown to have offered the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct MixHash(u64);

impl Default for MixHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl MixHash {
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_tokens(&mut self, tokens: &[usize]) {
        self.add(tokens.len() as u64);
        for &t in tokens {
            self.add(t as u64);
        }
    }

    pub fn add_requests(&mut self, requests: &[Request]) {
        for r in requests {
            self.add(r.model as u64);
            self.add(u64::from(r.interactive));
            for s in &r.sequences {
                self.add_tokens(s);
            }
        }
    }

    /// Due times enter at microsecond resolution.
    pub fn add_schedule(&mut self, due_s: &[f64]) {
        for &d in due_s {
            self.add((d * 1e6).round() as u64);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: MixSpec = MixSpec {
        models: 3,
        sequences_per_request: 2,
        min_len: 8,
        max_len: 32,
        vocab: 100,
        alternate_priority: true,
    };

    fn hash_of(seed: u64) -> String {
        let mut h = MixHash::default();
        h.add_requests(&request_mix(&SPEC, seed, 64));
        h.add_schedule(&poisson_schedule(seed, 0, 100.0, 2.0));
        h.hex()
    }

    #[test]
    fn mix_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(request_mix(&SPEC, 7, 64), request_mix(&SPEC, 7, 64));
        assert_ne!(request_mix(&SPEC, 7, 64), request_mix(&SPEC, 8, 64));
        assert_eq!(hash_of(7), hash_of(7));
        assert_ne!(hash_of(7), hash_of(8));
    }

    #[test]
    fn mix_respects_its_spec() {
        let mix = request_mix(&SPEC, 1, 300);
        for (i, r) in mix.iter().enumerate() {
            assert_eq!(r.model, i % 3);
            assert_eq!(r.interactive, i % 2 == 0);
            assert_eq!(r.sequences.len(), 2);
            for s in &r.sequences {
                assert!((8..=32).contains(&s.len()));
                assert!(s.iter().all(|&t| t < 100));
            }
        }
        let lens: Vec<usize> = mix.iter().flat_map(|r| r.sequences.iter().map(Vec::len)).collect();
        assert_eq!(*lens.iter().min().unwrap(), 8);
        assert_eq!(*lens.iter().max().unwrap(), 32);
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_has_the_asked_rate() {
        let a = poisson_schedule(3, 0, 200.0, 10.0);
        assert_eq!(a, poisson_schedule(3, 0, 200.0, 10.0));
        assert_ne!(a, poisson_schedule(4, 0, 200.0, 10.0));
        assert_ne!(a, poisson_schedule(3, 1, 200.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // 2000 expected arrivals, sd ~45: five sigma either way.
        assert!((1775..=2225).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: the mean gap is 1/rate and gaps are not constant.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.005).abs() < 0.0006, "mean gap {mean}");
        assert!(gaps.iter().any(|&g| g > 0.015) && gaps.iter().any(|&g| g < 0.001));
    }
}
