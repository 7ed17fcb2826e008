//! The backend trait contract: capabilities manifest, admission, plans,
//! and resumable runners.
//!
//! A [`Backend`] is a registered execution engine. It does not execute
//! anything itself — it *admits* a compiled network, producing a
//! [`Plan`]: the backend-specific legalized artifact (a CSR network as-is,
//! a bit-plane program, a future GPU buffer set) plus a capabilities
//! [`Manifest`] the cost model prices. A plan runs ragged testbenches to
//! completion on a fixed-batch, state-resident [`Lockstep`]
//! ([`Plan::execute_planes`], the loop both the serve scheduler and
//! offline [`Plan::execute_batch`] go through), and manufactures
//! resumable per-lane [`Runner`]s for callers that step `Session`s.
//!
//! Admission is fallible by design: a backend that cannot run a model
//! (e.g. bit-plane legalization of non-integral weights) returns a typed
//! [`Reject`] *at admission time*, so `--backend auto` can fall through to
//! the next-best candidate instead of discovering the failure inside a
//! batcher thread.

use c2nn_core::bitplane::transpose64;
use c2nn_core::{BenchResult, BitTensor, CompileOptions, CompiledNn, Session, SimError, Stimulus};
use std::fmt;
use std::sync::Arc;

/// A typed admission refusal: which backend said no, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reject {
    /// Name of the refusing backend.
    pub backend: String,
    /// Human-readable reason (surfaced in CLI/server errors).
    pub reason: String,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend `{}` rejected the model: {}",
            self.backend, self.reason
        )
    }
}

impl std::error::Error for Reject {}

/// One row-class entry of a capabilities manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct RowClassCount {
    /// Class name (e.g. `unit-gate`, `counter`).
    pub class: String,
    /// Rows in this class.
    pub rows: u64,
}

c2nn_json::json_struct!(RowClassCount { class, rows });

/// What an admitted plan looks like to the cost model: the work shape the
/// calibrated [`BackendCalibration`](crate::BackendCalibration) prices.
///
/// The two-term kernel model generalizes `c2nn-bench`'s device model:
///
/// ```text
/// t_cycle(batch) = layers × launch_s
///                + ⌈batch / lanes_per_word⌉ × (cheap + factor × weighted) / unit_per_s
/// ```
///
/// CSR backends report one lane per "word", `cheap_units` = nnz (one MAC
/// per nonzero per lane) and no weighted units; the bit-plane backend
/// reports 64 lanes per word and its modeled word-op split.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Backend that produced this plan.
    pub backend: String,
    /// Stimulus lanes advanced per unit of work (1 for scalar lanes, 64
    /// for packed bitplanes).
    pub lanes_per_word: u64,
    /// Layers per simulated cycle (each is one dispatch).
    pub layers: u64,
    /// Work units per word-column on the backend's cheap path.
    pub cheap_units: f64,
    /// Work units per word-column on the backend's expensive path
    /// (priced at the calibrated `weighted_unit_factor`).
    pub weighted_units: f64,
    /// Per-row-class legalization counts (empty when the backend has a
    /// single row class).
    pub row_classes: Vec<RowClassCount>,
}

c2nn_json::json_struct!(Manifest {
    backend,
    lanes_per_word,
    layers,
    cheap_units,
    weighted_units,
    row_classes,
});

/// A resumable stepping engine over a plan: the HAL twin of
/// [`SessionRunner::step`](c2nn_core::SessionRunner::step), with the
/// identical contract — the batch is whatever slice the caller assembled,
/// composition may change freely between calls, and every lane's
/// trajectory is bit-exact against running it alone.
pub trait Runner {
    /// Advance every session one clock cycle in lockstep; returns the
    /// primary outputs per lane. Shape errors are typed and identical
    /// across backends (enforced by the conformance suite).
    fn step(
        &mut self,
        sessions: &mut [Session<f32>],
        inputs: &[Vec<bool>],
    ) -> Result<Vec<Vec<bool>>, SimError>;
}

/// A fixed batch of lanes advancing in lockstep with its recurrent state
/// resident in the engine (planes for bit-plane, a `Dense` tensor for
/// CSR): nothing per lane moves between cycles but the I/O planes.
/// [`Plan::execute_planes`] drives one per call.
pub trait Lockstep {
    /// Advance every lane one clock: `inputs` is
    /// `num_primary_inputs × batch` planes; the outputs land in `outputs`
    /// (resized to `num_primary_outputs × batch`). Ragged lane tails of
    /// `outputs` are unspecified.
    fn step(&mut self, inputs: &BitTensor, outputs: &mut BitTensor) -> Result<(), SimError>;
}

/// An admitted model on one backend: the legalized artifact plus its
/// costed [`Manifest`]. Shared (`Arc`) between the registry, the serve
/// scheduler, and stats reporting; runners borrow from it.
pub trait Plan: Send + Sync {
    /// The backend this plan runs on.
    fn backend(&self) -> &str;

    /// The capabilities manifest the cost model prices.
    fn manifest(&self) -> &Manifest;

    /// The compiled network this plan was admitted from (port order and
    /// state layout are shared across backends, so sessions are
    /// interchangeable).
    fn nn(&self) -> &Arc<CompiledNn<f32>>;

    /// Manufacture a fresh resumable runner over this plan, for callers
    /// that step their own `Session`s (runners are cheap: scratch buffers
    /// only).
    fn runner(&self) -> Box<dyn Runner + '_>;

    /// A fixed-batch stepper of `batch` lanes, all at the power-on state,
    /// whose state never leaves the engine between cycles.
    fn lockstep(&self, batch: usize) -> Box<dyn Lockstep + '_>;

    /// Run a set of ragged testbenches to completion on packed planes:
    /// testbench `j` arrives as `num_primary_inputs × cycles_j` and comes
    /// back as `num_primary_outputs × cycles_j` (ragged tails zero). One
    /// [`Lockstep`] of `stims.len()` lanes advances every testbench; a
    /// testbench that has run out of cycles idles on zero inputs until
    /// the longest finishes, and input bits past its last cycle are
    /// ignored. A zero-cycle testbench carries no input bits, so only
    /// testbenches with cycles are width-checked.
    ///
    /// The reshaping between testbench planes (cycles along a word) and
    /// lane planes (testbenches along a word) is word work only: per
    /// block of 64 cycles, one 64×64 [`transpose64`] per
    /// `(feature, 64-testbench word)` on the way in and on the way out.
    /// Only one block of per-cycle planes is held at a time.
    fn execute_planes(&self, stims: &[BitTensor]) -> Result<Vec<BitTensor>, SimError> {
        let nn = self.nn();
        let (pi, po) = (nn.num_primary_inputs, nn.num_primary_outputs);
        if let Some(s) = stims.iter().find(|s| s.batch() > 0 && s.features() != pi) {
            return Err(SimError::InputWidth {
                expected: pi,
                got: s.features(),
            });
        }
        let mut outs: Vec<BitTensor> = stims
            .iter()
            .map(|s| BitTensor::zeros(po, s.batch()))
            .collect();
        let max_cycles = stims.iter().map(BitTensor::batch).max().unwrap_or(0);
        if max_cycles == 0 {
            return Ok(outs);
        }
        let lanes = stims.len();
        let words = lanes.div_ceil(64);
        let mut engine = self.lockstep(lanes);
        // One block of transposed planes: 64-word chunk `f * words + w`
        // holds word `w` of lane plane `f` for each of the block's 64
        // cycles, so cycle `c` of a lane plane is word `c` of every chunk.
        let mut xin = vec![0u64; pi * words * 64];
        let mut yout = vec![0u64; po * words * 64];
        let mut x = BitTensor::zeros(pi, lanes);
        let mut y = BitTensor::zeros(po, lanes);
        for block in 0..max_cycles.div_ceil(64) {
            // gather: before the transpose, row r of chunk (f, w) is
            // testbench 64w + r's 64 cycles of feature f
            for (w, group) in stims.chunks(64).enumerate() {
                for f in 0..pi {
                    let rows = block_chunk(&mut xin, f * words + w);
                    rows.fill(0);
                    for (row, stim) in rows.iter_mut().zip(group) {
                        *row = block_word(stim, f, block);
                    }
                    transpose64(rows);
                }
            }
            for c in 0..(max_cycles - block * 64).min(64) {
                for (word, chunk) in x.data_mut().iter_mut().zip(xin.chunks_exact(64)) {
                    *word = chunk[c];
                }
                engine.step(&x, &mut y)?;
                for (chunk, &word) in yout.chunks_exact_mut(64).zip(y.data()) {
                    chunk[c] = word;
                }
            }
            // scatter: after the transpose, row r of chunk (f, w) is
            // testbench 64w + r's 64 cycles of output f (cycles this block
            // did not run hold stale words from the last block; they land
            // past every testbench's last cycle and are masked off)
            for (w, group) in outs.chunks_mut(64).enumerate() {
                for f in 0..po {
                    let rows = block_chunk(&mut yout, f * words + w);
                    transpose64(rows);
                    for (out, &word) in group.iter_mut().zip(rows.iter()) {
                        let mask = cycle_mask(out.batch(), block);
                        if mask != 0 {
                            out.feature_words_mut(f)[block] = word & mask;
                        }
                    }
                }
            }
        }
        Ok(outs)
    }

    /// [`execute_planes`](Plan::execute_planes) over per-cycle lane
    /// vectors: every cycle must carry `num_primary_inputs` bits (a typed
    /// [`SimError::InputWidth`] otherwise), and each testbench's outputs
    /// stop at its own length — the contract of [`c2nn_core::run_batch`].
    fn execute_batch(&self, stims: &[Stimulus]) -> Result<Vec<BenchResult>, SimError> {
        let pi = self.nn().num_primary_inputs;
        let planes = stims
            .iter()
            .map(|s| BitTensor::from_lanes_checked(pi, &s.cycles))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self
            .execute_planes(&planes)?
            .iter()
            .map(|out| BenchResult {
                cycles: out.to_lanes(),
            })
            .collect())
    }
}

/// Chunk `i` of a transposed block buffer, as a transposable matrix.
fn block_chunk(buf: &mut [u64], i: usize) -> &mut [u64; 64] {
    (&mut buf[i * 64..(i + 1) * 64])
        .try_into()
        .expect("a 64-word range")
}

/// The valid cycles of word `block` of a `cycles`-long testbench plane.
fn cycle_mask(cycles: usize, block: usize) -> u64 {
    match cycles.saturating_sub(block * 64) {
        0 => 0,
        n if n >= 64 => !0,
        n => (1 << n) - 1,
    }
}

/// Word `block` of feature `f` of a testbench's input planes, with the
/// bits past its last cycle cleared (zero once the testbench has ended).
fn block_word(stim: &BitTensor, f: usize, block: usize) -> u64 {
    match cycle_mask(stim.batch(), block) {
        0 => 0,
        mask => stim.feature_words(f)[block] & mask,
    }
}

/// A registered execution engine.
pub trait Backend: Send + Sync {
    /// Canonical registry name (`scalar`, `pooled-csr`, `bitplane`, ...).
    fn name(&self) -> &'static str;

    /// Adjust compile options for models compiled *for* this backend
    /// (the bit-plane backend drops layer-merge so the unmerged pipeline
    /// legalizes popcount-free). Admission must still accept models
    /// compiled with any options.
    fn compile_options(&self, base: CompileOptions) -> CompileOptions {
        base
    }

    /// Admit a compiled network: legalize it for this engine and return
    /// the costed plan, or a typed refusal.
    fn admit(&self, nn: &Arc<CompiledNn<f32>>) -> Result<Arc<dyn Plan>, Reject>;
}
