//! Seeded input generation. Every stimulus the benchmark sends is derived
//! from the `--seed` argument through [`Rng::derive`], so the same seed
//! gives the same inputs on every commit and host.

use c2nn_core::Stimulus;

/// SplitMix64: tiny, fast, and good enough for test stimuli.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one `(seed, path...)` coordinate, e.g.
    /// `(seed, workload, circuit, call)`, so inputs never depend on the
    /// order in which other streams were consumed.
    pub fn derive(seed: u64, path: &[u64]) -> Rng {
        let mut r = Rng(seed);
        for &p in path {
            r.0 ^= p.wrapping_mul(0xd6e8_feb8_6659_fd93);
            r.next_u64();
        }
        r
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

    /// `n` testbench lengths covering `lo..=hi` evenly, in seeded random
    /// order: their total is the same for every seed, so the work a
    /// workload does depends on its seed only through the bit patterns.
    pub fn lengths(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let span = hi - lo + 1;
        let mut v: Vec<usize> = (0..n).map(|i| lo + i * span / n.max(1)).collect();
        for i in (1..n).rev() {
            let j = self.range(0, i);
            v.swap(i, j);
        }
        v
    }

    /// A random testbench: `len` cycles of `inputs` uniform random bits.
    pub fn stimulus(&mut self, inputs: usize, len: usize) -> Stimulus {
        let cycles = (0..len)
            .map(|_| {
                let mut word = 0u64;
                (0..inputs)
                    .map(|i| {
                        if i % 64 == 0 {
                            word = self.next_u64();
                        }
                        (word >> (i % 64)) & 1 == 1
                    })
                    .collect()
            })
            .collect();
        Stimulus { cycles }
    }
}

/// Stable small integer for a name, for use in [`Rng::derive`] paths.
pub fn name_id(name: &str) -> u64 {
    crate::provenance::fnv1a(name.as_bytes())
}
