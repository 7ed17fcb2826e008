//! The backend trait contract: capabilities manifest, admission, plans,
//! and resumable runners.
//!
//! A [`Backend`] is a registered execution engine. It does not execute
//! anything itself — it *admits* a compiled network, producing a
//! [`Plan`]: the backend-specific legalized artifact (a CSR network as-is,
//! a bit-plane program, a future GPU buffer set) plus a capabilities
//! [`Manifest`] the cost model prices. A plan manufactures resumable
//! [`Runner`]s and runs ragged testbenches to completion with one of them
//! ([`Plan::execute_planes`], the loop both the serve scheduler and
//! offline [`Plan::execute_batch`] go through).
//!
//! Admission is fallible by design: a backend that cannot run a model
//! (e.g. bit-plane legalization of non-integral weights) returns a typed
//! [`Reject`] *at admission time*, so `--backend auto` can fall through to
//! the next-best candidate instead of discovering the failure inside a
//! batcher thread.

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

    /// Packed twin of [`step`](Runner::step): inputs arrive as feature-major
    /// bit planes (`num_primary_inputs × sessions.len()`) and outputs come
    /// back packed (`num_primary_outputs × sessions.len()`, ragged tails
    /// zeroed), with the same typed shape errors.
    fn step_planes(
        &mut self,
        sessions: &mut [Session<f32>],
        inputs: &BitTensor,
    ) -> Result<BitTensor, SimError>;
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

    /// Manufacture a fresh resumable runner over this plan. Runners are
    /// cheap (scratch buffers only): [`execute_planes`](Plan::execute_planes)
    /// builds one per call.
    fn runner(&self) -> Box<dyn Runner + '_>;

    /// Run a set of ragged testbenches to completion on packed planes:
    /// testbench `j` arrives as `num_primary_inputs × cycles_j` and comes
    /// back as `num_primary_outputs × cycles_j` (ragged tails zero). One
    /// runner advances every testbench with one
    /// [`step_planes`](Runner::step_planes) call per cycle; a testbench
    /// that has run out of cycles idles on zero inputs until the longest
    /// finishes. A zero-cycle testbench carries no input bits, so only
    /// testbenches with cycles are width-checked.
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
        let mut runner = self.runner();
        let mut sessions: Vec<Session<f32>> = stims.iter().map(|_| Session::new(nn)).collect();
        let mut x = BitTensor::zeros(pi, stims.len());
        for c in 0..max_cycles {
            x.data_mut().fill(0);
            for (j, s) in stims.iter().enumerate().filter(|(_, s)| c < s.batch()) {
                for f in 0..pi {
                    if s.get_bit(f, c) {
                        x.set_bit(f, j, true);
                    }
                }
            }
            let y = runner.step_planes(&mut sessions, &x)?;
            for (j, out) in outs.iter_mut().enumerate().filter(|(_, o)| c < o.batch()) {
                for f in 0..po {
                    if y.get_bit(f, j) {
                        out.set_bit(f, c, true);
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
