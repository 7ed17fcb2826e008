//! The offline workloads, `regress` and `interactive`: the path `c2nn
//! compile` then `c2nn sim` take. Each Table I circuit is compiled with
//! default passes, a backend is picked with `Choice::Auto` from the
//! committed calibration, and ragged seeded testbenches run through
//! `Plan::execute_batch` from this one calling thread.

use crate::report::Outcome;
use crate::rng::{name_id, Rng};
use crate::setup::{self, Compiled, RoundTimes};
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use c2nn_core::{BenchResult, Session, SimError, Stimulus};
use c2nn_hal::{BackendRegistry, Choice, DeviceCalibration, Plan, Selection};
use c2nn_refsim::CycleSim;
use std::time::Instant;

/// What distinguishes the two offline workloads.
pub struct Spec {
    pub name: &'static str,
    /// Testbenches per `execute_batch` call; also the batch width given to
    /// backend selection.
    pub lanes: usize,
    /// Testbench lengths are uniform in `min_len..=max_len` cycles.
    pub min_len: usize,
    pub max_len: usize,
    /// Gate·cycles each circuit gets per second of `--seconds`, rounded up
    /// to whole calls. Every circuit gets the same budget, so the harmonic
    /// mean of the per-circuit rates is the suite's rate. The constant is
    /// sized so the timed phase lasts about `--seconds` on a 2-core host;
    /// the work is fixed by `--seconds`, not by how fast the program runs.
    pub gc_per_second: f64,
    /// Lanes per call compared with the reference simulator besides the
    /// shortest and the longest testbench (with one lane, that lane is
    /// every testbench).
    pub check_extra: usize,
}

/// Offline regression at wide batch: bit-plane word work and lane
/// marshalling dominate, per-layer dispatch is amortized.
pub const REGRESS: Spec = Spec {
    name: "regress",
    lanes: 1024,
    min_len: 32,
    max_len: 64,
    gc_per_second: 5.0e7,
    check_extra: 2,
};

/// One testbench at a time (the paper's Fig. 6 axis): per-layer dispatch
/// dominates and word work is negligible.
pub const INTERACTIVE: Spec = Spec {
    name: "interactive",
    lanes: 1,
    min_len: 32,
    max_len: 64,
    gc_per_second: 1.6e6,
    check_extra: 0,
};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Circuit {
    c: Compiled,
    sel: Selection,
}

/// Source to ready-to-simulate for every Table I circuit.
fn set_up(
    spec: &Spec,
    cal: &DeviceCalibration,
    round: u64,
    tracer: &Tracer,
) -> Result<(Vec<Circuit>, RoundTimes), String> {
    let mut times = RoundTimes::default();
    let t0 = Instant::now();
    let root = tracer.open("setup", round, 0, None);
    let mut circuits = Vec::new();
    for bench in c2nn_circuits::table1_suite() {
        let c = setup::build_and_compile(&bench, round, tracer, root, &mut times)?;
        let sel = setup::timed("hal.select", round, tracer, root, &mut times, || {
            BackendRegistry::global().select(&c.nn, &Choice::Auto, cal, spec.lanes)
        })
        .map_err(|e| format!("{}: backend selection failed: {e}", bench.name))?;
        circuits.push(Circuit { c, sel });
    }
    tracer.close(root);
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((circuits, times))
}

/// One circuit's `execute_batch` calls that returned results.
struct Calls {
    key: &'static str,
    /// Gate·cycles/s of each call.
    rates: Vec<f64>,
    /// Duration of each call in ms.
    durations_ms: Vec<f64>,
}

impl Calls {
    /// The circuit's rate: the median of its calls' rates, which a slow
    /// moment of a shared host moves less than a total would.
    fn rate(&self) -> f64 {
        stats::median(&self.rates)
    }
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    circuits: Vec<Calls>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    /// Traced phases only: the phase span, and `Runner::step` calls
    /// times plan layers over the replays.
    span: Option<SpanId>,
    layer_steps: f64,
}

impl Phase {
    /// Harmonic mean of the circuits' rates: the suite rate when every
    /// circuit gets the same gate·cycle budget.
    fn sim_gcps(&self) -> f64 {
        let rates: Vec<f64> = self.circuits.iter().map(Calls::rate).collect();
        stats::harmonic_mean(&rates)
    }

    /// Percentile `q` of time to result over testbenches. A testbench's
    /// time to result is its call's duration, taken as its circuit's
    /// median call duration: like the median rate in `sim_gcps`, this
    /// keeps a slow moment of a shared host from setting the tail. The
    /// circuits with the most testbenches, SPI and then UART, set p50 and
    /// p90.
    fn latency(&self, q: f64, lanes: usize) -> f64 {
        let per_circuit: Vec<(f64, f64)> = self
            .circuits
            .iter()
            .map(|c| {
                let testbenches = c.durations_ms.len() * lanes;
                (stats::median(&c.durations_ms), testbenches as f64)
            })
            .collect();
        stats::weighted_percentile(&per_circuit, q)
    }
}

/// The testbenches of call `call` on circuit `ci`, with the given
/// lengths, and which lanes of them are compared with the reference
/// simulator.
fn inputs(
    spec: &Spec,
    seed: u64,
    ci: usize,
    call: usize,
    pi: usize,
    lengths: &[usize],
) -> (Vec<Stimulus>, Vec<usize>) {
    let mut rng = Rng::derive(seed, &[name_id(spec.name), ci as u64, call as u64]);
    let stims: Vec<Stimulus> = lengths.iter().map(|&len| rng.stimulus(pi, len)).collect();
    let len = |i: usize| stims[i].cycles.len();
    let shortest = (0..stims.len()).min_by_key(|&i| len(i)).unwrap_or(0);
    let longest = (0..stims.len()).max_by_key(|&i| len(i)).unwrap_or(0);
    let mut checked = vec![shortest];
    if longest != shortest {
        checked.push(longest);
    }
    while checked.len() < 2 + spec.check_extra && checked.len() < stims.len() {
        let lane = rng.range(0, stims.len() - 1);
        if !checked.contains(&lane) {
            checked.push(lane);
        }
    }
    (stims, checked)
}

/// Replays `stims` through a `Plan::runner()` the way the provided
/// `Plan::execute_batch` does, timing each `Runner::step` call. Only the
/// step times are reported; the loop around them is the benchmark's own.
pub(crate) fn replay(
    plan: &dyn Plan,
    stims: &[Stimulus],
    tracer: &Tracer,
    id: u64,
    parent: Option<SpanId>,
) -> Result<Vec<BenchResult>, SimError> {
    let span = tracer.open("bench.replay", id, 0, parent);
    let nn = plan.nn();
    let pi = nn.num_primary_inputs;
    let mut runner = plan.runner();
    let mut sessions: Vec<Session<f32>> = stims.iter().map(|_| Session::new(nn)).collect();
    let max_cycles = stims.iter().map(|s| s.cycles.len()).max().unwrap_or(0);
    let mut results: Vec<BenchResult> = stims
        .iter()
        .map(|_| BenchResult { cycles: Vec::new() })
        .collect();
    for c in 0..max_cycles {
        let inputs: Vec<Vec<bool>> = stims
            .iter()
            .map(|s| s.cycles.get(c).cloned().unwrap_or_else(|| vec![false; pi]))
            .collect();
        let t0 = Instant::now();
        let outs = runner.step(&mut sessions, &inputs)?;
        tracer.record("hal.step", id, 0, span, t0, Instant::now());
        for (lane, stim) in stims.iter().enumerate() {
            if c < stim.cycles.len() {
                results[lane].cycles.push(outs[lane].clone());
            }
        }
    }
    tracer.close(span);
    Ok(results)
}

/// Calls per circuit and their order: each circuit gets whole calls, at
/// least one, until its share of the budget is spent, and its calls are
/// spread evenly over the phase so that every circuit sees the host in
/// the same range of states.
fn schedule(spec: &Spec, circuits: &[Circuit], seconds: u64) -> Vec<(usize, usize, usize)> {
    let budget = spec.gc_per_second * seconds as f64;
    let mean_len = (spec.min_len + spec.max_len) as f64 / 2.0;
    let mut order: Vec<(f64, usize, usize, usize)> = Vec::new();
    for (ci, circuit) in circuits.iter().enumerate() {
        let gates = circuit.sel.plan.nn().gate_count as f64;
        let calls = ((budget / (gates * spec.lanes as f64 * mean_len)).ceil() as usize).max(1);
        for call in 0..calls {
            order.push(((call as f64 + 0.5) / calls as f64, ci, call, calls));
        }
    }
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order
        .into_iter()
        .map(|(_, ci, call, calls)| (ci, call, calls))
        .collect()
}

/// One timed phase over every circuit. With tracing on it also replays
/// each call step by step (outside the timed calls).
fn run_phase(
    spec: &Spec,
    circuits: &[Circuit],
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase {
        span: tracer.open("phase", 0, 0, None),
        circuits: circuits
            .iter()
            .map(|c| Calls {
                key: c.c.key,
                rates: Vec::new(),
                durations_ms: Vec::new(),
            })
            .collect(),
        ..Phase::default()
    };
    let mut refsims = circuits
        .iter()
        .map(|c| {
            CycleSim::new(&c.c.nl).map_err(|e| format!("{}: reference simulator: {e}", c.c.key))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut lengths: Vec<Option<Vec<usize>>> = vec![None; circuits.len()];
    for (id, (ci, call, calls)) in schedule(spec, circuits, seconds).into_iter().enumerate() {
        let id = id as u64;
        let circuit = &circuits[ci];
        let plan = circuit.sel.plan.as_ref();
        let nn = plan.nn();
        let t = Instant::now();
        // the circuit's testbench lengths cover min..=max evenly over all
        // its calls, so its work does not depend on the seed
        let lengths = lengths[ci].get_or_insert_with(|| {
            Rng::derive(seed, &[name_id(spec.name), ci as u64, u64::MAX]).lengths(
                calls * spec.lanes,
                spec.min_len,
                spec.max_len,
            )
        });
        let lengths = &lengths[call * spec.lanes..(call + 1) * spec.lanes];
        let (stims, checked) = inputs(spec, seed, ci, call, nn.num_primary_inputs, lengths);
        tracer.record("bench.gen", id, 0, phase.span, t, Instant::now());

        let t = Instant::now();
        let expected: Vec<Vec<Vec<bool>>> = checked
            .iter()
            .map(|&lane| {
                refsims[ci].reset();
                refsims[ci].run(&stims[lane].cycles)
            })
            .collect();
        tracer.record("refsim.expect", id, 0, phase.span, t, Instant::now());

        let t0 = Instant::now();
        let result = plan.execute_batch(&stims);
        let t1 = Instant::now();
        tracer.record("hal.execute", id, 0, phase.span, t0, t1);
        phase.attempted += stims.len() as u64;

        let t = Instant::now();
        match &result {
            Ok(out) => {
                let dt = (t1 - t0).as_secs_f64();
                let cycles: usize = stims.iter().map(|s| s.cycles.len()).sum();
                let calls = &mut phase.circuits[ci];
                calls.rates.push(nn.gate_count as f64 * cycles as f64 / dt);
                calls.durations_ms.push(dt * 1e3);
                for (&lane, want) in checked.iter().zip(&expected) {
                    if out[lane].cycles != *want {
                        eprintln!(
                            "MISMATCH: {} {} call {call} lane {lane} differs from refsim",
                            spec.name, circuit.c.key
                        );
                        phase.mismatched += 1;
                        phase.failed += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!(
                    "{} {} call {call}: execute_batch failed: {e}",
                    spec.name, circuit.c.key
                );
                phase.failed += stims.len() as u64;
            }
        }
        tracer.record("refsim.check", id, 0, phase.span, t, Instant::now());
        drop(result);

        if tracer.enabled() {
            let again = replay(plan, &stims, tracer, id, phase.span)
                .map_err(|e| format!("{}: replay failed: {e}", circuit.c.key))?;
            let max_cycles = stims.iter().map(|s| s.cycles.len()).max().unwrap_or(0);
            phase.layer_steps += (max_cycles as u64 * plan.manifest().layers) as f64;
            for (&lane, want) in checked.iter().zip(&expected) {
                if again[lane].cycles != *want {
                    eprintln!(
                        "MISMATCH: {} replay lane {lane} differs from refsim",
                        circuit.c.key
                    );
                    phase.mismatched += 1;
                }
            }
        }
    }
    tracer.close(phase.span);
    Ok(phase)
}

/// Run one offline workload.
pub fn run(spec: &Spec, seed: u64, seconds: u64, trace_run: bool) -> Result<Outcome, String> {
    let cal = setup::load_calibration()?;
    let tracer = if trace_run {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let t_run = Instant::now();
    let mut rounds = Vec::new();
    let mut circuits = Vec::new();
    for round in 0..SETUPS {
        // drop the previous repetition first so set-ups do not overlap in memory
        circuits.clear();
        let (c, times) = set_up(spec, &cal, round as u64, &tracer)?;
        circuits = c;
        rounds.push(times);
    }
    let totals: Vec<f64> = rounds.iter().map(|r| r.total_s).collect();

    let mut out = Outcome::default();
    let phase = run_phase(spec, &circuits, seed, seconds, &Tracer::off())?;
    for c in &phase.circuits {
        eprintln!(
            "{}: {} calls, median {:.4e} gate-cycles/s",
            c.key,
            c.rates.len(),
            c.rate()
        );
    }
    out.set("setup_s", stats::median(&totals));
    out.set("sim_gcps", phase.sim_gcps());
    out.set("req_p50_ms", phase.latency(0.50, spec.lanes));
    out.set("req_p90_ms", phase.latency(0.90, spec.lanes));
    let (mut attempted, mut failed, mut mismatched) =
        (phase.attempted, phase.failed, phase.mismatched);

    if trace_run {
        rounds[stats::median_index(&totals)].report(&mut out);
        for circuit in &circuits {
            setup::count(&mut out, &circuit.c, circuit.sel.plan.as_ref())?;
        }
        let traced = run_phase(spec, &circuits, seed, seconds, &tracer)?;
        attempted += traced.attempted;
        failed += traced.failed;
        mismatched += traced.mismatched;
        let spans = tracer.spans();
        let layers = trace::reduce(&spans);
        let total = |name: &str| layers.get(name).map_or(0.0, |t| t.total_s);
        let (execute, step) = (total("hal.execute"), total("hal.step"));
        out.set("hal.execute_s", execute);
        out.set("hal.step_s", step);
        out.set("hal.marshal_s", execute - step);
        out.set("hal.step_us_per_layer", step / traced.layer_steps * 1e6);
        out.set("refsim.check_s", total("refsim.check"));
        for c in &traced.circuits {
            out.set(format!("hal.gcps.{}", c.key), c.rate());
        }
        let span = traced.span.expect("a traced phase has a span").index();
        let covered = trace::covered(&spans, span);
        out.set("trace.coverage", covered / spans[span].dur());
        out.set("trace.untraced_s", spans[span].dur() - covered);
        out.set(
            "trace.overhead.sim_gcps",
            traced.sim_gcps() - phase.sim_gcps(),
        );
        out.set(
            "trace.overhead.req_p50_ms",
            traced.latency(0.5, spec.lanes) - phase.latency(0.5, spec.lanes),
        );
        out.set("trace.wall_s", t_run.elapsed().as_secs_f64());
        crate::write_trace(spec.name, seed, &spans);
    }
    out.correct = mismatched == 0 && failed == 0;
    out.attempted = attempted;
    out.failed = failed;
    out.set("peak_rss_mb", crate::report::peak_rss_mb());
    Ok(out)
}
