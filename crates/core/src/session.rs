//! Resumable per-lane simulation sessions.
//!
//! A [`Simulator`](crate::Simulator) owns one fixed batch: `B` testbenches
//! created together, stepped together, destroyed together. That is the
//! right shape for offline verification runs, but a *serving* workload is
//! the opposite: independent clients arrive at arbitrary times, each owns
//! one testbench, and the scheduler wants to pack whichever of them are
//! currently runnable into a single forward pass (the paper's stimulus
//! parallelism, re-cast as request coalescing).
//!
//! A [`Session`] is the per-lane unit that makes this possible: just the
//! recurrent state of one testbench (the flip-flop cut values) plus its
//! cycle count, detached from any particular batch. A [`SessionRunner`]
//! assembles any set of sessions into one feature-major batch, runs one
//! cycle, and scatters next-state back — so the *composition* of the batch
//! can change freely between cycles while every lane's own trajectory stays
//! bit-exact.

use crate::compile::CompiledNn;
use crate::sim::SimError;
use c2nn_tensor::{Dense, Device, Scalar};

/// The resumable state of one simulation lane: one testbench's flip-flop
/// values and its cycle count. Cheap to create, move, and park between
/// batched steps.
#[derive(Clone, Debug, PartialEq)]
pub struct Session<T> {
    state: Vec<T>,
    cycles: u64,
}

impl<T: Scalar> Session<T> {
    /// A fresh session at the power-on state of `nn`.
    pub fn new(nn: &CompiledNn<T>) -> Self {
        Session {
            state: nn
                .state_init
                .iter()
                .map(|&b| if b { T::ONE } else { T::ZERO })
                .collect(),
            cycles: 0,
        }
    }

    /// Cycles this lane has simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current state as bits.
    pub fn state_bits(&self) -> Vec<bool> {
        self.state.iter().map(|&v| v == T::ONE).collect()
    }

    /// Rewind this lane to the power-on state of `nn`.
    pub fn reset(&mut self, nn: &CompiledNn<T>) {
        *self = Session::new(nn);
    }

    /// Raw state values, for backends that pack lanes themselves (the
    /// bit-plane runner reads these as bits and writes them back as 0/1).
    pub(crate) fn state_raw(&self) -> &[T] {
        &self.state
    }

    pub(crate) fn state_raw_mut(&mut self) -> &mut [T] {
        &mut self.state
    }

    pub(crate) fn bump_cycles(&mut self) {
        self.cycles += 1;
    }
}

/// Steps arbitrary collections of [`Session`]s through one compiled
/// network, one batched forward pass per call, reusing its assembly and
/// ping-pong buffers across calls (no per-cycle allocation beyond the
/// returned output bits).
pub struct SessionRunner<'a, T> {
    nn: &'a CompiledNn<T>,
    device: Device,
    xbuf: Dense<T>,
    scratch: (Dense<T>, Dense<T>),
}

impl<'a, T: Scalar> SessionRunner<'a, T> {
    /// A runner over `nn` executing on `device`.
    pub fn new(nn: &'a CompiledNn<T>, device: Device) -> Self {
        SessionRunner {
            nn,
            device,
            xbuf: Dense::zeros(0, 0),
            scratch: (Dense::zeros(0, 0), Dense::zeros(0, 0)),
        }
    }

    /// The network this runner executes.
    pub fn nn(&self) -> &CompiledNn<T> {
        self.nn
    }

    /// Advance every session one clock cycle in lockstep: `sessions[l]`
    /// consumes `inputs[l]` (primary-input bits, LSB-first) and its state is
    /// updated in place. Returns the primary outputs per lane.
    ///
    /// The batch is whatever slice the caller assembled — lanes may come
    /// and go between calls; each session's trajectory is identical to
    /// running it alone (lanes are independent columns of the forward
    /// pass).
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
        if let Some(lane) = inputs.iter().find(|lane| lane.len() != pi) {
            return Err(SimError::InputWidth {
                expected: pi,
                got: lane.len(),
            });
        }
        if self.nn.layers.is_empty() {
            return Err(SimError::NoLayers);
        }
        for sess in sessions.iter() {
            if sess.state.len() != s {
                return Err(SimError::StateWidth {
                    expected: s,
                    got: sess.state.len(),
                });
            }
        }
        if b == 0 {
            return Ok(Vec::new());
        }
        // x = [inputs ; state], feature-major: feature f of lane l at
        // data[f * b + l]
        self.xbuf.resize_to(pi + s, b);
        let data = self.xbuf.data_mut();
        for (l, (lane, sess)) in inputs.iter().zip(sessions.iter()).enumerate() {
            for (f, &bit) in lane.iter().enumerate() {
                data[f * b + l] = if bit { T::ONE } else { T::ZERO };
            }
            for (f, &v) in sess.state.iter().enumerate() {
                data[(pi + f) * b + l] = v;
            }
        }
        let y = self
            .nn
            .forward_with(&self.xbuf, self.device, &mut self.scratch);
        debug_assert_eq!(y.rows(), po + s);
        let ydata = y.data();
        let outputs = (0..b)
            .map(|l| (0..po).map(|f| ydata[f * b + l] == T::ONE).collect())
            .collect();
        for (l, sess) in sessions.iter_mut().enumerate() {
            for f in 0..s {
                sess.state[f] = ydata[(po + f) * b + l];
            }
            sess.cycles += 1;
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::sim::Simulator;
    use c2nn_netlist::{NetlistBuilder, WordOps};

    fn counter_nn() -> CompiledNn<f32> {
        let mut b = NetlistBuilder::new("ctr");
        let clk = b.clock("clk");
        let en = b.input("en");
        let q = b.fresh_word("q", 4);
        let inc = b.inc_word(&q);
        let next = b.mux_word(en, &q, &inc);
        b.connect_ff_word(&next, &q, clk, None, None, 0, 0);
        b.output_word(&q, "q");
        compile(&b.finish().unwrap(), CompileOptions::with_l(4)).unwrap()
    }

    fn as_u32(bits: &[bool]) -> u32 {
        bits.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum()
    }

    #[test]
    fn sessions_match_simulator_lanes() {
        let nn = counter_nn();
        let mut sim = Simulator::new(&nn, 3, Device::Serial);
        let mut sessions: Vec<Session<f32>> = (0..3).map(|_| Session::new(&nn)).collect();
        let mut runner = SessionRunner::new(&nn, Device::Serial);
        // lane 0 always counts, lane 1 counts on even cycles, lane 2 never
        for c in 0..10u32 {
            let lanes = vec![vec![true], vec![c % 2 == 0], vec![false]];
            let sim_out = sim.step(&Dense::from_lanes(&lanes)).to_lanes();
            let sess_out = runner.step(&mut sessions, &lanes).unwrap();
            assert_eq!(sim_out, sess_out, "cycle {c}");
        }
        assert_eq!(sessions[0].cycles(), 10);
        // and the states agree too
        assert_eq!(
            sim.state_lanes(),
            sessions.iter().map(|s| s.state_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_composition_can_change_between_cycles() {
        let nn = counter_nn();
        // a lone session counts 5 cycles...
        let mut runner = SessionRunner::new(&nn, Device::Serial);
        let mut a = Session::new(&nn);
        for _ in 0..5 {
            runner
                .step(std::slice::from_mut(&mut a), &[vec![true]])
                .unwrap();
        }
        // ...then a newcomer joins and both advance in one batch
        let mut b = Session::new(&nn);
        let mut pair = [a, b.clone()];
        for _ in 0..3 {
            runner.step(&mut pair, &[vec![true], vec![true]]).unwrap();
        }
        [a, b] = pair;
        assert_eq!(as_u32(&a.state_bits()), 8, "resumed lane: 5 + 3 cycles");
        assert_eq!(as_u32(&b.state_bits()), 3, "late joiner: 3 cycles");
        assert_eq!(a.cycles(), 8);
        assert_eq!(b.cycles(), 3);
    }

    #[test]
    fn shape_errors_are_typed() {
        let nn = counter_nn();
        let mut runner = SessionRunner::new(&nn, Device::Serial);
        let mut sess = [Session::new(&nn)];
        assert_eq!(
            runner.step(&mut sess, &[]),
            Err(SimError::BatchMismatch {
                expected: 1,
                got: 0
            })
        );
        assert_eq!(
            runner.step(&mut sess, &[vec![true, false]]),
            Err(SimError::InputWidth {
                expected: 1,
                got: 2
            })
        );
        let mut bad = [Session {
            state: vec![0.0; 2],
            cycles: 0,
        }];
        assert!(matches!(
            runner.step(&mut bad, &[vec![true]]),
            Err(SimError::StateWidth {
                expected: 4,
                got: 2
            })
        ));
    }
}
