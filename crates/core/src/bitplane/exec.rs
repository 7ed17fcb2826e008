//! Word-parallel execution of a bit-plane program.
//!
//! One forward pass evaluates each output plane from the input planes with
//! plain word ops: 64 stimulus lanes advance per AND/OR/XOR. The general
//! [`RowOp::Weighted`] fallback runs an exact per-lane popcount in
//! bit-sliced form: the running sum is held as planes of its binary digits
//! (`acc[p]` holds bit `p` of 64 independent counters), each fan-in plane
//! is added with a ripple-carry of word ops, and the final `A > B`
//! comparison is a lexicographic scan from the most significant digit
//! plane. Everything is lane-wise, so ragged batches need no masking —
//! garbage in the tail bits stays in the tail bits.
//!
//! Rows are independent, so layers dispatch on the shared worker pool in
//! whole-plane chunks (`W` words each), mirroring the CSR path's
//! row-sharded `par_chunks_mut`.

use super::pack::BitTensor;
use super::plan::{BitLayer, BitplaneNn, RowOp};
use c2nn_tensor::par::par_chunks_mut;
use c2nn_tensor::Device;
use std::cell::RefCell;

/// Ping-pong buffers for a forward pass, reusable across calls.
#[derive(Clone, Debug, Default)]
pub struct BitplaneScratch {
    a: BitTensor,
    b: BitTensor,
}

impl BitplaneNn {
    /// Run the network on packed stimuli: `x` is `in_width × batch`
    /// (primary inputs followed by state planes). Returns the output
    /// tensor (`out_width × batch`) borrowed from `scratch`.
    ///
    /// Panics if the network has no layers or `x` has the wrong width
    /// (the simulator/runner wrappers surface those as typed errors).
    pub fn forward_with<'s>(
        &self,
        x: &BitTensor,
        device: Device,
        scratch: &'s mut BitplaneScratch,
    ) -> &'s BitTensor {
        assert!(!self.layers.is_empty(), "forward on empty network");
        assert_eq!(x.features(), self.in_width(), "input plane count");
        forward_layer(&self.layers[0], x, device, &mut scratch.a);
        let (mut src, mut dst) = (&mut scratch.a, &mut scratch.b);
        for layer in &self.layers[1..] {
            forward_layer(layer, src, device, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }
}

/// Evaluate one layer into `y` (resized in place).
pub(crate) fn forward_layer(layer: &BitLayer, x: &BitTensor, device: Device, y: &mut BitTensor) {
    debug_assert_eq!(x.features(), layer.in_width);
    y.resize_to(layer.ops.len(), x.batch());
    let w = x.words_per_feature();
    if w == 0 || layer.ops.is_empty() {
        return;
    }
    // same shape as the CSR dispatch: shard rows, keep a few thousand
    // words of work per task
    let grain = (4096 / w).clamp(1, 256);
    match device {
        Device::Serial => {
            for (r, out) in y.data_mut().chunks_mut(w).enumerate() {
                eval_op(&layer.ops[r], x, out);
            }
        }
        Device::Parallel => {
            par_chunks_mut(y.data_mut(), w, grain, |r, out| {
                eval_op(&layer.ops[r], x, out)
            });
        }
    }
}

/// Evaluate one output plane (`out` is its `W` words).
fn eval_op(op: &RowOp, x: &BitTensor, out: &mut [u64]) {
    match op {
        RowOp::Const(b) => out.fill(if *b { !0 } else { 0 }),
        RowOp::Copy(c) => out.copy_from_slice(x.feature_words(*c as usize)),
        RowOp::Not(c) => {
            for (o, &v) in out.iter_mut().zip(x.feature_words(*c as usize)) {
                *o = !v;
            }
        }
        RowOp::And(srcs) => reduce(out, x, srcs, false, false),
        RowOp::Nand(srcs) => reduce(out, x, srcs, false, true),
        RowOp::Or(srcs) => reduce(out, x, srcs, true, false),
        RowOp::Nor(srcs) => reduce(out, x, srcs, true, true),
        RowOp::Xor { srcs, invert } => {
            out.fill(if *invert { !0 } else { 0 });
            for &c in srcs {
                for (o, &v) in out.iter_mut().zip(x.feature_words(c as usize)) {
                    *o ^= v;
                }
            }
        }
        RowOp::Weighted {
            plus,
            minus,
            pos_bias,
            neg_bias,
        } => {
            eval_weighted(plus, minus, *pos_bias, *neg_bias, x, out);
        }
    }
}

fn reduce(out: &mut [u64], x: &BitTensor, srcs: &[u32], or: bool, negate: bool) {
    out.copy_from_slice(x.feature_words(srcs[0] as usize));
    for &c in &srcs[1..] {
        let f = x.feature_words(c as usize);
        if or {
            for (o, &v) in out.iter_mut().zip(f) {
                *o |= v;
            }
        } else {
            for (o, &v) in out.iter_mut().zip(f) {
                *o &= v;
            }
        }
    }
    if negate {
        for o in out.iter_mut() {
            *o = !*o;
        }
    }
}

thread_local! {
    /// The two bit-sliced counters of [`eval_weighted`], kept per thread so
    /// a forward pass allocates nothing per row once each pool worker's
    /// pair has grown to the widest counter it has needed.
    static COUNTERS: RefCell<(Vec<u64>, Vec<u64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Exact 64-lane threshold: `A > B` per lane, with the two sides
/// accumulated as bit-sliced counters word position by word position.
fn eval_weighted(
    plus: &[(u32, u64)],
    minus: &[(u32, u64)],
    pos_bias: u64,
    neg_bias: u64,
    x: &BitTensor,
    out: &mut [u64],
) {
    COUNTERS.with(|counters| {
        let (a, b) = &mut *counters.borrow_mut();
        size_counter(a, pos_bias, plus);
        size_counter(b, neg_bias, minus);
        for (k, o) in out.iter_mut().enumerate() {
            a.fill(0);
            b.fill(0);
            add_scaled(a, !0, pos_bias);
            for &(c, w) in plus {
                add_scaled(a, x.feature_words(c as usize)[k], w);
            }
            add_scaled(b, !0, neg_bias);
            for &(c, w) in minus {
                add_scaled(b, x.feature_words(c as usize)[k], w);
            }
            *o = gt(a, b);
        }
    });
}

/// Give `acc` exactly the digit planes a side's largest sum (its bias
/// plus every weight) needs, so no carry ever ripples past its end.
fn size_counter(acc: &mut Vec<u64>, bias: u64, terms: &[(u32, u64)]) {
    let max = terms.iter().fold(bias as u128, |s, &(_, w)| s + w as u128);
    acc.resize((u128::BITS - max.leading_zeros()) as usize, 0);
}

/// `acc += w * plane`, lane-wise: add `plane` into digit position `j` for
/// every set bit `j` of `w`.
fn add_scaled(acc: &mut [u64], plane: u64, mut w: u64) {
    let mut j = 0;
    while w != 0 {
        if w & 1 == 1 {
            add_plane(acc, plane, j);
        }
        w >>= 1;
        j += 1;
    }
}

/// Ripple-carry add of one plane into digit position `p` of a bit-sliced
/// counter (each `acc[p]` holds digit `p` of 64 independent lane counts).
fn add_plane(acc: &mut [u64], mut carry: u64, mut p: usize) {
    while carry != 0 {
        let t = acc[p] ^ carry;
        carry &= acc[p];
        acc[p] = t;
        p += 1;
    }
}

/// Lane-wise `a > b` over bit-sliced counters: lexicographic compare from
/// the most significant digit plane down.
fn gt(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().max(b.len());
    let mut gt = 0u64;
    let mut eq = !0u64;
    for p in (0..n).rev() {
        let av = a.get(p).copied().unwrap_or(0);
        let bv = b.get(p).copied().unwrap_or(0);
        gt |= eq & av & !bv;
        eq &= !(av ^ bv);
    }
    gt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_sliced_counters_count_exactly() {
        // add planes with known popcount patterns and read back the digits
        let mut acc = [0u64; 64];
        add_plane(&mut acc, 0b1011, 0); // lanes 0,1,3 += 1
        add_plane(&mut acc, 0b0011, 0); // lanes 0,1   += 1
        add_plane(&mut acc, 0b0001, 0); // lane 0      += 1
                                        // lane counts: 3, 2, 0, 1
        let digit = |p: usize, l: usize| acc[p] >> l & 1;
        let count = |l: usize| digit(0, l) + 2 * digit(1, l) + 4 * digit(2, l);
        assert_eq!([count(0), count(1), count(2), count(3)], [3, 2, 0, 1]);
    }

    #[test]
    fn scaled_add_and_compare_match_scalar_arithmetic() {
        // lanes: x = bit pattern, weights chosen to exercise carries
        let lanes: u64 = 0b1101;
        for &(w_a, w_b, bias_a, bias_b) in &[
            (5u64, 3u64, 2u64, 0u64),
            (1, 1, 0, 0),
            (7, 9, 0, 4),
            (100, 1, 0, 63),
        ] {
            let mut a = [0u64; 64];
            let mut b = [0u64; 64];
            add_scaled(&mut a, !0, bias_a);
            add_scaled(&mut a, lanes, w_a);
            add_scaled(&mut b, !0, bias_b);
            add_scaled(&mut b, lanes, w_b);
            let got = gt(&a, &b);
            for l in 0..4 {
                let x = lanes >> l & 1;
                let expect = (w_a * x + bias_a) > (w_b * x + bias_b);
                assert_eq!(got >> l & 1 == 1, expect, "lane {l} w=({w_a},{w_b})");
            }
        }
    }
}
