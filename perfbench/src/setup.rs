//! Set-up shared by the workloads: circuit source to compiled network the
//! way `c2nn compile` does it (L=4, default passes), plus the exact counts
//! reported about what was built.

use crate::catalog;
use crate::report::Outcome;
use crate::trace::{SpanId, Tracer};
use c2nn_circuits::Benchmark;
use c2nn_core::bitplane::BitplaneNn;
use c2nn_core::{compile_with_report, CompileOptions, CompileReport, CompiledNn};
use c2nn_hal::{DeviceCalibration, Plan};
use c2nn_netlist::Netlist;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// LUT size of every workload (the paper's Table I setting used here).
pub const LUT_SIZE: usize = 4;

/// One circuit, built and compiled.
pub struct Compiled {
    /// Short key (`aes`, `uart`, ...).
    pub key: &'static str,
    pub nl: Netlist,
    /// The one copy of the network the benchmark holds; backend selection
    /// shares it.
    pub nn: Arc<CompiledNn<f32>>,
    pub report: CompileReport,
}

/// Wall time of each set-up layer in one set-up repetition.
#[derive(Default)]
pub struct RoundTimes {
    pub total_s: f64,
    pub layers: BTreeMap<String, f64>,
}

impl RoundTimes {
    pub fn add(&mut self, layer: &str, secs: f64) {
        *self.layers.entry(layer.to_string()).or_insert(0.0) += secs;
    }

    /// Copy into the outcome as per-layer metrics, adding `core.map_s`:
    /// compile time not spent in the pass pipeline (netlist preparation
    /// and LUT mapping).
    pub fn report(&self, out: &mut Outcome) {
        for (name, v) in &self.layers {
            out.set(name.clone(), *v);
        }
        let passes: f64 = catalog::PASSES
            .iter()
            .filter_map(|p| self.layers.get(&format!("core.pass.{p}_s")))
            .sum();
        let compile = self.layers.get("core.compile_s").copied().unwrap_or(0.0);
        out.set("core.map_s", compile - passes);
    }
}

/// Time `f` as layer `layer`: into `times` and, when tracing, as a span.
pub fn timed<T>(
    layer: &'static str,
    round: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    times: &mut RoundTimes,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let v = f();
    let t1 = Instant::now();
    tracer.record(layer, round, 0, parent, t0, t1);
    times.add(&format!("{layer}_s"), (t1 - t0).as_secs_f64());
    v
}

/// Build a circuit from its source and compile it with default options.
pub fn build_and_compile(
    bench: &Benchmark,
    round: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    times: &mut RoundTimes,
) -> Result<Compiled, String> {
    let nl = timed("circuits.build", round, tracer, parent, times, || {
        (bench.build)()
    });
    let (nn, report) = timed("core.compile", round, tracer, parent, times, || {
        compile_with_report::<f32>(&nl, CompileOptions::with_l(LUT_SIZE))
    })
    .map_err(|e| format!("{}: compile failed: {e}", bench.name))?;
    for p in &report.passes {
        times.add(&format!("core.pass.{}_s", p.pass), p.wall_s);
    }
    Ok(Compiled {
        key: catalog::circuit_key(bench.name),
        nl,
        nn: Arc::new(nn),
        report,
    })
}

/// The calibration `c2nn sim` and `c2nn serve` use for `--backend auto`:
/// the committed `results/DEVICE.json`, or the built-in host numbers when
/// the file is absent.
pub fn load_calibration() -> Result<DeviceCalibration, String> {
    let path = crate::provenance::device_json_path();
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            DeviceCalibration::from_json_text(&text).map_err(|e| format!("{}: {e}", path.display()))
        }
        Err(_) => Ok(DeviceCalibration::default_host(
            c2nn_tensor::Pool::global().threads(),
        )),
    }
}

/// Exact counts of one compiled circuit and its admitted plan, summed into
/// the outcome.
pub fn count(out: &mut Outcome, c: &Compiled, plan: &dyn Plan) -> Result<(), String> {
    if let Some(m) = c.report.final_metrics() {
        out.add("core.nnz", m.nnz as f64);
        out.add("core.layers", m.layers as f64);
    }
    let m = plan.manifest();
    out.add("hal.plan.layers", m.layers as f64);
    out.add("hal.plan.cheap_units", m.cheap_units);
    out.add("hal.plan.weighted_units", m.weighted_units);
    out.add(format!("hal.backend.{}", plan.backend()), 1.0);
    let census = BitplaneNn::from_compiled(&c.nn)
        .map_err(|e| format!("{}: bit-plane census: {e}", c.key))?
        .op_census();
    out.add("bitplane.ops", census.total() as f64);
    out.add("bitplane.copy_ops", census.copies as f64);
    out.add("bitplane.weighted_ops", census.weighted as f64);
    Ok(())
}
