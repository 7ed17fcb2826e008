//! Property tests for bit-plane packing: pack/unpack must be exact
//! inverses and lane-scatter must be exact for arbitrary feature widths
//! and batch sizes 1..=300 — including ragged batches whose last word is
//! only partially filled — and tail garbage must never leak into a valid
//! lane. The 64×64 bit-matrix transpose that reshapes testbench planes
//! into lane planes matches a bit-by-bit reference and is an involution.

use c2nn_core::bitplane::{transpose64, BitTensor};
use proptest::prelude::*;

/// Derive lane bit vectors from a flat bool pool so shrinking stays
/// meaningful: lane `l`, feature `f` reads `bits[(l * features + f) % len]`.
fn lanes_from_pool(bits: &[bool], batch: usize, features: usize) -> Vec<Vec<bool>> {
    (0..batch)
        .map(|l| {
            (0..features)
                .map(|f| bits[(l * features + f) % bits.len()])
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, .. ProptestConfig::default() })]

    /// from_lanes → to_lanes is the identity for every width × batch,
    /// every bit pattern.
    #[test]
    fn pack_unpack_roundtrip(
        features in 1usize..48,
        batch in 1usize..=300,
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let lanes = lanes_from_pool(&bits, batch, features);
        let t = BitTensor::from_lanes(&lanes);
        prop_assert_eq!(t.features(), features);
        prop_assert_eq!(t.batch(), batch);
        prop_assert_eq!(t.words_per_feature(), batch.div_ceil(64));
        prop_assert_eq!(t.to_lanes(), lanes);
    }

    /// Scattering single bits to arbitrary (feature, lane) coordinates —
    /// including overwrites — recovers exactly what a scalar shadow model
    /// holds, bit for bit.
    #[test]
    fn lane_scatter_matches_scalar_shadow(
        features in 1usize..24,
        batch in 1usize..=300,
        writes in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 0..200),
    ) {
        let mut t = BitTensor::zeros(features, batch);
        let mut shadow = vec![vec![false; features]; batch];
        for &(f, l, bit) in &writes {
            let f = f as usize % features;
            let l = l as usize % batch;
            t.set_bit(f, l, bit);
            shadow[l][f] = bit;
        }
        for (l, lane) in shadow.iter().enumerate() {
            for (f, &want) in lane.iter().enumerate() {
                prop_assert_eq!(t.get_bit(f, l), want, "feature {} lane {}", f, l);
            }
        }
        prop_assert_eq!(t.to_lanes(), shadow);
    }

    /// Garbage in the ragged tail (bits at and past `batch` in the last
    /// word of each plane) is invisible: after clobbering the raw words
    /// and rewriting only the valid lanes, unpack is still exact.
    #[test]
    fn ragged_tail_garbage_never_leaks(
        features in 1usize..24,
        batch in 1usize..=300,
        garbage in any::<u64>(),
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let lanes = lanes_from_pool(&bits, batch, features);
        let mut t = BitTensor::from_lanes(&lanes);
        // clobber every word, then restore the valid lanes bit by bit
        t.data_mut().fill(garbage);
        for (l, lane) in lanes.iter().enumerate() {
            for (f, &bit) in lane.iter().enumerate() {
                t.set_bit(f, l, bit);
            }
        }
        prop_assert_eq!(t.to_lanes(), lanes);
        // the tail mask itself: exactly the valid lanes of the last word
        let r = batch % 64;
        let want = if r == 0 { !0u64 } else { (1u64 << r) - 1 };
        prop_assert_eq!(t.tail_mask(), want);
    }

    /// `transpose64` moves bit `c` of row `r` to bit `r` of row `c`, the
    /// same matrix a `get_bit`/`set_bit` loop builds, and applying it
    /// twice gives the input back.
    #[test]
    fn transpose64_matches_bitwise_reference_and_is_an_involution(
        rows in proptest::collection::vec(any::<u64>(), 64),
        density in 0u32..4,
    ) {
        // vary the density so sparse and dense matrices both show up
        let rows: Vec<u64> = rows
            .iter()
            .zip(rows.iter().rev())
            .map(|(&a, &b)| match density {
                0 => a & b & b.rotate_left(17),
                1 => a & b,
                2 => a,
                _ => a | b,
            })
            .collect();
        let m = BitTensor::from_words(64, 64, rows.clone()).unwrap();
        let mut want = BitTensor::zeros(64, 64);
        for r in 0..64 {
            for c in 0..64 {
                want.set_bit(c, r, m.get_bit(r, c));
            }
        }
        let mut got: [u64; 64] = rows.clone().try_into().unwrap();
        transpose64(&mut got);
        prop_assert_eq!(&got[..], want.data());
        transpose64(&mut got);
        prop_assert_eq!(&got[..], &rows[..]);
    }
}
