//! Bit-plane stimulus packing.
//!
//! The pooled-CSR path spends one scalar lane (an `f32`) per stimulus bit.
//! A [`BitTensor`] instead packs 64 stimuli into every machine word: it is
//! the same feature-major layout as `Dense` — feature `f` of lane `l` — but
//! lane `l` lives in bit `l % 64` of word `f * W + l / 64`, where
//! `W = ceil(batch / 64)` words hold one feature's plane.
//!
//! Bits past `batch` in a feature's last word ("the ragged tail") are
//! *unspecified*. Every kernel in [`super::exec`] is lane-wise (AND, OR,
//! XOR, and per-bit ripple-carry popcount counters), so tail garbage can
//! never leak into a valid lane; the unpack paths here simply never read
//! past `batch`.

use crate::sim::SimError;

/// Transpose a 64×64 bit matrix in place, LSB-first: bit `c` of `m[r]`
/// becomes bit `r` of `m[c]`. Recursive block swaps (Hacker's Delight
/// §7-3): six rounds of 32 masked word swaps instead of 4096 bit moves.
/// This is how a plane of 64 cycles of one testbench becomes one word of
/// 64 testbenches in each of 64 cycle planes, and back.
pub fn transpose64(m: &mut [u64; 64]) {
    swap_blocks(m, 32, 0x0000_0000_FFFF_FFFF);
    swap_blocks(m, 16, 0x0000_FFFF_0000_FFFF);
    swap_blocks(m, 8, 0x00FF_00FF_00FF_00FF);
    swap_blocks(m, 4, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks(m, 2, 0x3333_3333_3333_3333);
    swap_blocks(m, 1, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`]: in every `2j`-row band, swap the
/// high-column `j×j` block of the top half (`mask` selects the low
/// columns) with the low-column block of the bottom half.
#[inline(always)]
fn swap_blocks(m: &mut [u64; 64], j: usize, mask: u64) {
    for band in (0..64).step_by(2 * j) {
        for k in band..band + j {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
        }
    }
}

/// A feature-major binary matrix with 64 stimulus lanes per word.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitTensor {
    features: usize,
    batch: usize,
    /// Words per feature plane: `ceil(batch / 64)`.
    words: usize,
    data: Vec<u64>,
}

impl BitTensor {
    /// An all-zero tensor of `features × batch` bits.
    pub fn zeros(features: usize, batch: usize) -> Self {
        let words = batch.div_ceil(64);
        BitTensor {
            features,
            batch,
            words,
            data: vec![0; features * words],
        }
    }

    /// Number of features (rows).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of stimulus lanes (columns).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Words per feature plane (`ceil(batch / 64)`).
    pub fn words_per_feature(&self) -> usize {
        self.words
    }

    /// The backing words, feature-major.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable backing words, feature-major.
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// The `W` words of feature `f`'s plane.
    pub fn feature_words(&self, f: usize) -> &[u64] {
        &self.data[f * self.words..(f + 1) * self.words]
    }

    /// Mutable plane of feature `f`.
    pub fn feature_words_mut(&mut self, f: usize) -> &mut [u64] {
        &mut self.data[f * self.words..(f + 1) * self.words]
    }

    /// Reshape in place, reusing the allocation. Contents become
    /// unspecified (callers overwrite every plane they read).
    pub fn resize_to(&mut self, features: usize, batch: usize) {
        self.features = features;
        self.batch = batch;
        self.words = batch.div_ceil(64);
        self.data.resize(features * self.words, 0);
    }

    /// Bit of feature `f`, lane `l`.
    pub fn get_bit(&self, f: usize, l: usize) -> bool {
        debug_assert!(f < self.features && l < self.batch);
        self.data[f * self.words + l / 64] >> (l % 64) & 1 == 1
    }

    /// Set or clear the bit of feature `f`, lane `l`.
    pub fn set_bit(&mut self, f: usize, l: usize, bit: bool) {
        debug_assert!(f < self.features && l < self.batch);
        let w = &mut self.data[f * self.words + l / 64];
        let mask = 1u64 << (l % 64);
        if bit {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Mask selecting the valid lanes of the last word of each plane
    /// (`!0` when the batch fills its words exactly).
    pub fn tail_mask(&self) -> u64 {
        match self.batch % 64 {
            0 => !0,
            r => (1u64 << r) - 1,
        }
    }

    /// Adopt pre-packed backing words (e.g. decoded straight off the
    /// binary wire) without copying. Returns `None` when `data.len()`
    /// does not equal `features * ceil(batch / 64)`. Ragged tail bits are
    /// taken as-is; callers that need the canonical zero-tail form run
    /// [`BitTensor::mask_tails`] afterwards.
    pub fn from_words(features: usize, batch: usize, data: Vec<u64>) -> Option<Self> {
        let words = batch.div_ceil(64);
        if features.checked_mul(words)? != data.len() {
            return None;
        }
        Some(BitTensor {
            features,
            batch,
            words,
            data,
        })
    }

    /// Zero the ragged tail bits of every feature plane, making the
    /// contents canonical (equal tensors compare equal word-for-word; the
    /// wire codecs require this form).
    pub fn mask_tails(&mut self) {
        let mask = self.tail_mask();
        if mask == !0 || self.words == 0 {
            return;
        }
        for f in 0..self.features {
            self.data[f * self.words + self.words - 1] &= mask;
        }
    }

    /// Pack per-lane bit vectors (`lanes[l][f]`, the same shape
    /// `Dense::from_lanes` takes): `lanes.len()` is the batch, every lane
    /// carries one bit per feature, as many as the first lane.
    pub fn from_lanes(lanes: &[Vec<bool>]) -> Self {
        let features = lanes.first().map_or(0, Vec::len);
        debug_assert!(lanes.iter().all(|lane| lane.len() == features));
        Self::pack(features, lanes)
    }

    /// [`BitTensor::from_lanes`] for lanes that must each carry exactly
    /// `features` bits: a lane of another width is a typed
    /// [`SimError::InputWidth`], checked before any bit is packed. The
    /// shape is `features × lanes.len()` even when there are no lanes.
    pub fn from_lanes_checked(features: usize, lanes: &[Vec<bool>]) -> Result<Self, SimError> {
        if let Some(lane) = lanes.iter().find(|lane| lane.len() != features) {
            return Err(SimError::InputWidth {
                expected: features,
                got: lane.len(),
            });
        }
        Ok(Self::pack(features, lanes))
    }

    fn pack(features: usize, lanes: &[Vec<bool>]) -> Self {
        let mut t = BitTensor::zeros(features, lanes.len());
        for (l, lane) in lanes.iter().enumerate() {
            for (f, &bit) in lane.iter().enumerate().take(features) {
                if bit {
                    t.data[f * t.words + l / 64] |= 1 << (l % 64);
                }
            }
        }
        t
    }

    /// Inverse of [`BitTensor::from_lanes`]: per-lane bit vectors. Never
    /// reads the ragged tail.
    pub fn to_lanes(&self) -> Vec<Vec<bool>> {
        (0..self.batch)
            .map(|l| (0..self.features).map(|f| self.get_bit(f, l)).collect())
            .collect()
    }
}
