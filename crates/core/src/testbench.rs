//! Testbench stimulus files — the verification workflow the paper's
//! introduction targets ("the different verification benchmarks for ICs
//! have to be processed one after the other... no commercial simulator
//! exploits stimulus parallelism").
//!
//! A `.stim` file is a plain-text testbench: one line per cycle, each line
//! a string of `0`/`1` for the primary inputs (MSB first, matching the
//! waveform reading order), with optional `xN` repeat suffixes, `#`
//! comments, and blank lines. [`run_batch`] executes **many testbenches in
//! one batched simulation**, which is exactly the paper's pitch: one
//! forward pass per cycle advances every testbench at once.
//!
//! ```text
//! # counter testbench: reset, then count 5, then hold
//! 10
//! 01 x5
//! 00 x2
//! ```

use crate::bitplane::BitTensor;
use crate::compile::CompiledNn;
use crate::sim::Simulator;
use c2nn_tensor::{Dense, Device, Scalar};

/// A parsed stimulus sequence: per-cycle input bit vectors (LSB-first,
/// i.e. `inputs[j]` is primary input `j`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stimulus {
    pub cycles: Vec<Vec<bool>>,
}

/// Packs a stimulus into bit planes: feature `f` of cycle `c` is
/// `cycles[c][f]`, so the planes are `inputs × cycles`. The width is the
/// first cycle's; a zero-cycle stimulus packs to `0 × 0`.
impl From<Stimulus> for BitTensor {
    fn from(stim: Stimulus) -> Self {
        BitTensor::from_lanes(&stim.cycles)
    }
}

/// Errors from [`parse_stim`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StimError {
    pub message: String,
    pub line: usize,
}

impl std::fmt::Display for StimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stimulus error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StimError {}

/// Parse `.stim` text for a circuit with `num_inputs` primary inputs.
pub fn parse_stim(text: &str, num_inputs: usize) -> Result<Stimulus, StimError> {
    let mut cycles = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(bits_str) = parts.next() else {
            continue;
        };
        let repeat = match parts.next() {
            None => 1usize,
            Some(r) => {
                let r = r.strip_prefix('x').ok_or(StimError {
                    message: format!("expected xN repeat, got '{r}'"),
                    line: lineno + 1,
                })?;
                let n: usize = r.parse().map_err(|_| StimError {
                    message: format!("bad repeat count '{r}'"),
                    line: lineno + 1,
                })?;
                // bound the expansion: a hostile `x99999999999` repeat must
                // not allocate the testbench into oblivion
                if n == 0 || n > 1_000_000 {
                    return Err(StimError {
                        message: format!("repeat count {n} out of range (1..=1000000)"),
                        line: lineno + 1,
                    });
                }
                n
            }
        };
        if parts.next().is_some() {
            return Err(StimError {
                message: "trailing tokens".into(),
                line: lineno + 1,
            });
        }
        if bits_str.len() != num_inputs {
            return Err(StimError {
                message: format!("expected {num_inputs} input bits, got {}", bits_str.len()),
                line: lineno + 1,
            });
        }
        // MSB-first in the file → inputs[0] is the last character
        let mut bits = Vec::with_capacity(num_inputs);
        for c in bits_str.chars().rev() {
            bits.push(match c {
                '0' => false,
                '1' => true,
                other => {
                    return Err(StimError {
                        message: format!("bad bit character '{other}'"),
                        line: lineno + 1,
                    })
                }
            });
        }
        for _ in 0..repeat {
            cycles.push(bits.clone());
        }
    }
    Ok(Stimulus { cycles })
}

/// Render a stimulus back to `.stim` text (run-length encoded).
pub fn format_stim(stim: &Stimulus) -> String {
    let mut s = String::new();
    let mut i = 0;
    while i < stim.cycles.len() {
        let cur = &stim.cycles[i];
        let mut run = 1;
        while i + run < stim.cycles.len() && stim.cycles[i + run] == *cur {
            run += 1;
        }
        let bits: String = cur
            .iter()
            .rev()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        if run > 1 {
            s.push_str(&format!("{bits} x{run}\n"));
        } else {
            s.push_str(&bits);
            s.push('\n');
        }
        i += run;
    }
    s
}

/// The per-cycle outputs of one testbench (LSB-first bit vectors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchResult {
    pub cycles: Vec<Vec<bool>>,
}

/// Run many testbenches through one batched simulation: one simulator lane
/// per testbench, one forward pass per cycle across all of them. Shorter
/// testbenches idle (inputs held at zero) until the longest one finishes;
/// their recorded outputs stop at their own length.
pub fn run_batch<T: Scalar>(
    nn: &CompiledNn<T>,
    benches: &[Stimulus],
    device: Device,
) -> Vec<BenchResult> {
    let pi = nn.num_primary_inputs;
    let lanes = benches.len();
    let max_cycles = benches.iter().map(|b| b.cycles.len()).max().unwrap_or(0);
    let mut sim = Simulator::new(nn, lanes, device);
    let mut results: Vec<BenchResult> = benches
        .iter()
        .map(|_| BenchResult { cycles: Vec::new() })
        .collect();
    for c in 0..max_cycles {
        let rows: Vec<Vec<bool>> = benches
            .iter()
            .map(|b| b.cycles.get(c).cloned().unwrap_or_else(|| vec![false; pi]))
            .collect();
        let out = sim.step(&Dense::from_lanes(&rows)).to_lanes();
        for (lane, bench) in benches.iter().enumerate() {
            if c < bench.cycles.len() {
                results[lane].cycles.push(out[lane].clone());
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use c2nn_netlist::{NetlistBuilder, WordOps};

    #[test]
    fn parse_repeats_and_comments() {
        let s = parse_stim("# header comment\n10\n01 x3\n\n00 # inline\n", 2).unwrap();
        assert_eq!(s.cycles.len(), 5);
        // "10" MSB-first → input0 = 0, input1 = 1
        assert_eq!(s.cycles[0], vec![false, true]);
        assert_eq!(s.cycles[1], vec![true, false]);
        assert_eq!(s.cycles[4], vec![false, false]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_stim("101", 2).is_err()); // wrong width
        assert!(parse_stim("1x", 2).is_err()); // bad char
        assert!(parse_stim("10 y3", 2).is_err()); // bad repeat
        assert!(parse_stim("10 x3 junk", 2).is_err());
    }

    #[test]
    fn format_roundtrips_with_rle() {
        let s = parse_stim("10\n01 x4\n11\n", 2).unwrap();
        let text = format_stim(&s);
        assert_eq!(text, "10\n01 x4\n11\n");
        assert_eq!(parse_stim(&text, 2).unwrap(), s);
    }

    #[test]
    fn batched_testbenches_match_individual_runs() {
        // counter with enable: three testbenches of different lengths
        let mut b = NetlistBuilder::new("ctr");
        let clk = b.clock("clk");
        let en = b.input("en");
        let q = b.fresh_word("q", 4);
        let inc = b.inc_word(&q);
        let next = b.mux_word(en, &q, &inc);
        b.connect_ff_word(&next, &q, clk, None, None, 0, 0);
        b.output_word(&q, "q");
        let nl = b.finish().unwrap();
        let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();

        let tb1 = parse_stim("1 x7\n", 1).unwrap();
        let tb2 = parse_stim("1 x2\n0 x2\n1 x2\n", 1).unwrap();
        let tb3 = parse_stim("0 x3\n", 1).unwrap();
        let batch = run_batch(
            &nn,
            &[tb1.clone(), tb2.clone(), tb3.clone()],
            Device::Serial,
        );
        // each result has its own length
        assert_eq!(batch[0].cycles.len(), 7);
        assert_eq!(batch[1].cycles.len(), 6);
        assert_eq!(batch[2].cycles.len(), 3);
        // batched == run alone
        for (i, tb) in [tb1, tb2, tb3].iter().enumerate() {
            let solo = run_batch(&nn, std::slice::from_ref(tb), Device::Serial);
            assert_eq!(batch[i], solo[0], "testbench {i}");
        }
        // and the counting is right: tb1 counts 0..6
        let vals: Vec<u32> = batch[0]
            .cycles
            .iter()
            .map(|c| c.iter().enumerate().map(|(k, &b)| (b as u32) << k).sum())
            .collect();
        assert_eq!(vals, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
