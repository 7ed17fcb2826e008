//! The three built-in execution backends, ported from the former
//! `BackendKind`/`AnyRunner` ad-hoc dispatch:
//!
//! * `scalar` — dense `f32` lanes over CSR layers, serial dispatch. The
//!   lowest launch overhead; wins on tiny models and tiny batches.
//! * `pooled-csr` — the same CSR kernels sharded on the shared worker
//!   pool ([`c2nn_tensor::Pool`]). The paper's stimulus parallelism.
//! * `bitplane` — 64 stimuli per machine word over word ops (see
//!   [`c2nn_core::bitplane`]). Requires exact integral weights; refuses
//!   admission otherwise.
//!
//! Each plan drives its engine's fixed-batch simulator as the
//! state-resident [`Lockstep`] behind `execute_planes` (`Simulator` for
//! the CSR engines, `BitplaneSimulator` for bit-plane) and its engine's
//! session runner as the per-lane [`Runner`], with bit-exact semantics —
//! the shared conformance suite ([`crate::conformance`]) holds all three
//! to it.

use crate::backend::{Backend, Lockstep, Manifest, Plan, Reject, RowClassCount, Runner};
use c2nn_core::bitplane::{BitplaneNn, BitplaneRunner, BitplaneSimulator};
use c2nn_core::{
    BitTensor, CompileOptions, CompiledNn, PassId, Session, SessionRunner, SimError, Simulator,
};
use c2nn_tensor::{Dense, Device};
use std::sync::Arc;

impl Runner for SessionRunner<'_, f32> {
    fn step(
        &mut self,
        sessions: &mut [Session<f32>],
        inputs: &[Vec<bool>],
    ) -> Result<Vec<Vec<bool>>, SimError> {
        SessionRunner::step(self, sessions, inputs)
    }
}

impl Runner for BitplaneRunner<'_, f32> {
    fn step(
        &mut self,
        sessions: &mut [Session<f32>],
        inputs: &[Vec<bool>],
    ) -> Result<Vec<Vec<bool>>, SimError> {
        BitplaneRunner::step(self, sessions, inputs)
    }
}

impl Lockstep for BitplaneSimulator<'_> {
    fn step(&mut self, inputs: &BitTensor, outputs: &mut BitTensor) -> Result<(), SimError> {
        self.step_packed_into(inputs, outputs)
    }
}

/// The CSR engines' lockstep: a [`Simulator`] (state resident as a
/// `Dense` tensor), with the I/O planes widened to and narrowed from one
/// `f32` per lane at the engine boundary.
struct CsrLockstep<'a> {
    sim: Simulator<'a, f32>,
    x: Dense<f32>,
}

impl Lockstep for CsrLockstep<'_> {
    fn step(&mut self, inputs: &BitTensor, outputs: &mut BitTensor) -> Result<(), SimError> {
        let b = inputs.batch();
        self.x.resize_to(inputs.features(), b);
        for (row, plane) in self
            .x
            .data_mut()
            .chunks_mut(b.max(1))
            .zip(inputs.data().chunks(inputs.words_per_feature().max(1)))
        {
            for (l, v) in row.iter_mut().enumerate() {
                *v = (plane[l / 64] >> (l % 64) & 1) as f32;
            }
        }
        let y = self.sim.try_step(&self.x)?;
        outputs.resize_to(y.rows(), b);
        let words = outputs.words_per_feature();
        for (plane, row) in outputs
            .data_mut()
            .chunks_mut(words.max(1))
            .zip(y.data().chunks(b.max(1)))
        {
            plane.fill(0);
            for (l, &v) in row.iter().enumerate() {
                plane[l / 64] |= ((v == 1.0) as u64) << (l % 64);
            }
        }
        Ok(())
    }
}

/// A CSR-lane backend: `scalar` (serial) or `pooled-csr` (worker pool).
pub struct CsrBackend {
    name: &'static str,
    device: Device,
}

impl CsrBackend {
    /// The serial single-thread engine.
    pub fn scalar() -> Self {
        CsrBackend {
            name: "scalar",
            device: Device::Serial,
        }
    }

    /// The pool-sharded engine (the default before the HAL existed).
    pub fn pooled() -> Self {
        CsrBackend {
            name: "pooled-csr",
            device: Device::Parallel,
        }
    }
}

struct CsrPlan {
    backend: &'static str,
    device: Device,
    nn: Arc<CompiledNn<f32>>,
    manifest: Manifest,
}

impl Plan for CsrPlan {
    fn backend(&self) -> &str {
        self.backend
    }

    fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn nn(&self) -> &Arc<CompiledNn<f32>> {
        &self.nn
    }

    fn runner(&self) -> Box<dyn Runner + '_> {
        Box::new(SessionRunner::new(&self.nn, self.device))
    }

    fn lockstep(&self, batch: usize) -> Box<dyn Lockstep + '_> {
        Box::new(CsrLockstep {
            sim: Simulator::new(&self.nn, batch, self.device),
            x: Dense::zeros(0, 0),
        })
    }
}

impl Backend for CsrBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn admit(&self, nn: &Arc<CompiledNn<f32>>) -> Result<Arc<dyn Plan>, Reject> {
        if nn.layers.is_empty() {
            return Err(Reject {
                backend: self.name.to_string(),
                reason: "network has no layers".to_string(),
            });
        }
        let manifest = Manifest {
            backend: self.name.to_string(),
            lanes_per_word: 1,
            layers: nn.num_layers() as u64,
            // one MAC per nonzero weight per lane per cycle
            cheap_units: nn.connections() as f64,
            weighted_units: 0.0,
            row_classes: Vec::new(),
        };
        Ok(Arc::new(CsrPlan {
            backend: self.name,
            device: self.device,
            nn: Arc::clone(nn),
            manifest,
        }))
    }
}

/// The packed-bitplane backend: 64 stimuli per word; admission legalizes
/// the network to a [`BitplaneNn`] (typed refusal for non-integral
/// weights) and prices the result row class by row class.
pub struct BitplaneBackend;

struct BitplanePlan {
    nn: Arc<CompiledNn<f32>>,
    program: BitplaneNn,
    manifest: Manifest,
}

impl Plan for BitplanePlan {
    fn backend(&self) -> &str {
        "bitplane"
    }

    fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn nn(&self) -> &Arc<CompiledNn<f32>> {
        &self.nn
    }

    fn runner(&self) -> Box<dyn Runner + '_> {
        Box::new(BitplaneRunner::<f32>::new(&self.program, Device::Parallel))
    }

    fn lockstep(&self, batch: usize) -> Box<dyn Lockstep + '_> {
        Box::new(BitplaneSimulator::new(
            &self.program,
            batch,
            Device::Parallel,
        ))
    }
}

impl Backend for BitplaneBackend {
    fn name(&self) -> &'static str {
        "bitplane"
    }

    /// Drop layer-merge: merging trades depth for dense integer rows — a
    /// win for CSR arithmetic, but it forces the bit-plane executor into
    /// its counter fallback, whereas the unmerged threshold/linear
    /// alternation legalizes to single word ops per neuron.
    fn compile_options(&self, base: CompileOptions) -> CompileOptions {
        let passes = base.passes.without(PassId::LayerMerge);
        base.with_passes(passes)
    }

    fn admit(&self, nn: &Arc<CompiledNn<f32>>) -> Result<Arc<dyn Plan>, Reject> {
        if nn.layers.is_empty() {
            return Err(Reject {
                backend: "bitplane".to_string(),
                reason: "network has no layers".to_string(),
            });
        }
        let program = BitplaneNn::from_compiled(nn.as_ref()).map_err(|e| Reject {
            backend: "bitplane".to_string(),
            reason: e.to_string(),
        })?;
        let (cheap_units, weighted_units) = program.modeled_units();
        let row_classes = program
            .row_classes
            .entries()
            .iter()
            .map(|&(class, rows)| RowClassCount {
                class: class.to_string(),
                rows,
            })
            .collect();
        let manifest = Manifest {
            backend: "bitplane".to_string(),
            lanes_per_word: 64,
            layers: program.num_layers() as u64,
            cheap_units,
            weighted_units,
            row_classes,
        };
        Ok(Arc::new(BitplanePlan {
            nn: Arc::clone(nn),
            program,
            manifest,
        }))
    }
}
