//! Cycle-accurate drivers for the bit-plane backend, mirroring the CSR
//! path's [`Simulator`](crate::Simulator) (fixed batch) and
//! [`SessionRunner`](crate::SessionRunner) (resumable lanes) so either
//! backend can serve the same callers.

use super::exec::BitplaneScratch;
use super::pack::BitTensor;
use super::plan::BitplaneNn;
use crate::session::Session;
use crate::sim::SimError;
use c2nn_tensor::{Device, Scalar};

/// A fixed-batch sequential simulator over a bit-plane program: `batch`
/// testbenches advance one clock per [`step`](BitplaneSimulator::step),
/// 64 of them per machine word.
pub struct BitplaneSimulator<'a> {
    nn: &'a BitplaneNn,
    state: BitTensor,
    batch: usize,
    cycles: u64,
    device: Device,
    xbuf: BitTensor,
    scratch: BitplaneScratch,
}

impl<'a> BitplaneSimulator<'a> {
    /// A simulator over `nn` with `batch` lanes, all at the power-on state.
    pub fn new(nn: &'a BitplaneNn, batch: usize, device: Device) -> Self {
        let mut state = BitTensor::zeros(nn.state_bits(), batch);
        for (f, &init) in nn.state_init.iter().enumerate() {
            if init {
                state.feature_words_mut(f).fill(!0);
            }
        }
        BitplaneSimulator {
            nn,
            state,
            batch,
            cycles: 0,
            device,
            xbuf: BitTensor::zeros(0, 0),
            scratch: BitplaneScratch::default(),
        }
    }

    /// The program this simulator runs.
    pub fn nn(&self) -> &BitplaneNn {
        self.nn
    }

    /// Lane count.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current flip-flop values per lane.
    pub fn state_lanes(&self) -> Vec<Vec<bool>> {
        self.state.to_lanes()
    }

    /// Advance one clock: `inputs[l]` is lane `l`'s primary-input bits.
    /// Returns the primary outputs per lane. Packs the lanes and runs
    /// [`step_packed_into`](BitplaneSimulator::step_packed_into).
    pub fn step(&mut self, inputs: &[Vec<bool>]) -> Result<Vec<Vec<bool>>, SimError> {
        if inputs.len() != self.batch {
            return Err(SimError::BatchMismatch {
                expected: self.batch,
                got: inputs.len(),
            });
        }
        let x = BitTensor::from_lanes_checked(self.nn.num_primary_inputs, inputs)?;
        let mut out = BitTensor::zeros(0, 0);
        self.step_packed_into(&x, &mut out)?;
        Ok(out.to_lanes())
    }

    /// The zero-copy hot path: `inputs` is already packed
    /// (`num_primary_inputs × batch`); outputs land in `out`
    /// (`num_primary_outputs × batch`, resized in place). Same semantics
    /// as [`step`](BitplaneSimulator::step), without the bit-vector
    /// conversion at either end.
    pub fn step_packed_into(
        &mut self,
        inputs: &BitTensor,
        out: &mut BitTensor,
    ) -> Result<(), SimError> {
        let pi = self.nn.num_primary_inputs;
        if self.nn.layers.is_empty() {
            return Err(SimError::NoLayers);
        }
        if inputs.batch() != self.batch {
            return Err(SimError::BatchMismatch {
                expected: self.batch,
                got: inputs.batch(),
            });
        }
        if inputs.features() != pi {
            return Err(SimError::InputWidth {
                expected: pi,
                got: inputs.features(),
            });
        }
        let mut packed = BitTensor::zeros(0, 0);
        std::mem::swap(&mut packed, &mut self.xbuf);
        self.pack_inputs(inputs, &mut packed);
        {
            let y = self
                .nn
                .forward_with(&packed, self.device, &mut self.scratch);
            let po = self.nn.num_primary_outputs;
            let w = y.words_per_feature();
            out.resize_to(po, self.batch);
            out.data_mut().copy_from_slice(&y.data()[..po * w]);
            Self::scatter_state(self.nn, y, &mut self.state);
        }
        self.xbuf = packed;
        self.cycles += 1;
        Ok(())
    }

    /// Assemble `[inputs ; state]` into `packed`.
    fn pack_inputs(&self, inputs: &BitTensor, packed: &mut BitTensor) {
        let pi = self.nn.num_primary_inputs;
        let s = self.nn.state_bits();
        packed.resize_to(pi + s, self.batch);
        let w = packed.words_per_feature();
        debug_assert_eq!(inputs.words_per_feature(), w);
        packed.data_mut()[..pi * w].copy_from_slice(inputs.data());
        packed.data_mut()[pi * w..].copy_from_slice(self.state.data());
    }

    /// Copy the next-state planes (after the outputs) back into `state`.
    fn scatter_state(nn: &BitplaneNn, y: &BitTensor, state: &mut BitTensor) {
        let po = nn.num_primary_outputs;
        let s = nn.state_bits();
        let w = y.words_per_feature();
        debug_assert_eq!(y.features(), po + s);
        state
            .data_mut()
            .copy_from_slice(&y.data()[po * w..(po + s) * w]);
    }
}

/// Steps arbitrary collections of [`Session`]s through a bit-plane
/// program — the packed-backend twin of
/// [`SessionRunner`](crate::SessionRunner), with identical shape checks
/// and per-lane semantics, so the serve scheduler can swap backends
/// without touching session bookkeeping.
pub struct BitplaneRunner<'a, T> {
    nn: &'a BitplaneNn,
    device: Device,
    xbuf: BitTensor,
    scratch: BitplaneScratch,
    _scalar: std::marker::PhantomData<T>,
}

impl<'a, T: Scalar> BitplaneRunner<'a, T> {
    /// A runner over `nn` executing on `device`.
    pub fn new(nn: &'a BitplaneNn, device: Device) -> Self {
        BitplaneRunner {
            nn,
            device,
            xbuf: BitTensor::zeros(0, 0),
            scratch: BitplaneScratch::default(),
            _scalar: std::marker::PhantomData,
        }
    }

    /// The program this runner executes.
    pub fn nn(&self) -> &BitplaneNn {
        self.nn
    }

    /// Advance every session one clock cycle in lockstep; same contract as
    /// [`SessionRunner::step`](crate::SessionRunner::step) — the batch
    /// composition may change freely between calls.
    pub fn step(
        &mut self,
        sessions: &mut [Session<T>],
        inputs: &[Vec<bool>],
    ) -> Result<Vec<Vec<bool>>, SimError> {
        let pi = self.nn.num_primary_inputs;
        let po = self.nn.num_primary_outputs;
        let s = self.nn.state_bits();
        let b = sessions.len();
        if inputs.len() != b {
            return Err(SimError::BatchMismatch {
                expected: b,
                got: inputs.len(),
            });
        }
        let x = BitTensor::from_lanes_checked(pi, inputs)?;
        if self.nn.layers.is_empty() {
            return Err(SimError::NoLayers);
        }
        for sess in sessions.iter() {
            if sess.state_raw().len() != s {
                return Err(SimError::StateWidth {
                    expected: s,
                    got: sess.state_raw().len(),
                });
            }
        }
        if b == 0 {
            return Ok(Vec::new());
        }
        self.xbuf.resize_to(pi + s, b);
        let w = self.xbuf.words_per_feature();
        self.xbuf.data_mut()[..pi * w].copy_from_slice(x.data());
        self.xbuf.data_mut()[pi * w..].fill(0);
        for (l, sess) in sessions.iter().enumerate() {
            for (f, &v) in sess.state_raw().iter().enumerate() {
                if v == T::ONE {
                    self.xbuf.set_bit(pi + f, l, true);
                }
            }
        }
        let y = self
            .nn
            .forward_with(&self.xbuf, self.device, &mut self.scratch);
        debug_assert_eq!(y.features(), po + s);
        let outputs = (0..b)
            .map(|l| (0..po).map(|f| y.get_bit(f, l)).collect())
            .collect();
        for (l, sess) in sessions.iter_mut().enumerate() {
            for (f, v) in sess.state_raw_mut().iter_mut().enumerate() {
                *v = if y.get_bit(po + f, l) {
                    T::ONE
                } else {
                    T::ZERO
                };
            }
            sess.bump_cycles();
        }
        Ok(outputs)
    }
}
