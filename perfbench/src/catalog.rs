//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! declares the same lists (a test checks that they agree).

/// Metrics a user of the system sees; printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_gcps", "gc/s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Short keys of the Table I circuits, in suite order.
pub const CIRCUITS: &[(&str, &str)] = &[
    ("AES", "aes"),
    ("SHA", "sha"),
    ("SPI", "spi"),
    ("UART", "uart"),
    ("DMA", "dma"),
    ("RISC-V interface", "riscv"),
];

/// The compile report's stage names, in pipeline order.
pub const PASSES: &[&str] = &[
    "lower",
    "constant-fold",
    "monomial-cse",
    "dead-neuron-elim",
    "layer-merge",
    "legalize",
];

/// Metrics of single layers; printed by traced runs. A layer a workload
/// does not exercise reads 0 on that workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    // set-up layers (summed over the workload's circuits)
    add("circuits.build_s".into(), "s");
    add("core.compile_s".into(), "s");
    add("core.map_s".into(), "s");
    for p in PASSES {
        add(format!("core.pass.{p}_s"), "s");
    }
    add("hal.select_s".into(), "s");
    add("core.serialize_s".into(), "s");
    add("serve.start_s".into(), "s");
    add("serve.load_s".into(), "s");
    // execute layers
    add("hal.execute_s".into(), "s");
    add("hal.step_s".into(), "s");
    add("hal.marshal_s".into(), "s");
    add("hal.step_us_per_layer".into(), "us");
    for (_, key) in CIRCUITS {
        add(format!("hal.gcps.{key}"), "gc/s");
    }
    add("refsim.check_s".into(), "s");
    // exact counts
    add("core.nnz".into(), "count");
    add("core.layers".into(), "count");
    add("hal.plan.layers".into(), "count");
    add("hal.plan.cheap_units".into(), "count");
    add("hal.plan.weighted_units".into(), "count");
    for b in ["scalar", "pooled-csr", "bitplane"] {
        add(format!("hal.backend.{b}"), "count");
    }
    add("bitplane.ops".into(), "count");
    add("bitplane.copy_ops".into(), "count");
    add("bitplane.weighted_ops".into(), "count");
    // serve layers
    for c in ["json", "binary"] {
        add(format!("serve.req_p50_ms.{c}"), "ms");
    }
    for c in ["json", "binary"] {
        add(format!("protocol.encode_us.{c}"), "us");
        add(format!("protocol.decode_us.{c}"), "us");
    }
    add("scheduler.submit_ms".into(), "ms");
    add("scheduler.wait_ms".into(), "ms");
    add("serve.server_latency_ms".into(), "ms");
    add("serve.lanes_per_batch".into(), "lanes/batch");
    add("serve.batches".into(), "count");
    for c in ["json", "binary"] {
        for d in ["in", "out"] {
            add(format!("serve.wire_bytes.{c}.{d}"), "B");
        }
    }
    add("serve.rejected".into(), "count");
    add("serve.wakeups_per_req".into(), "1/req");
    add("loadgen.late_ms.p50".into(), "ms");
    add("loadgen.late_ms.max".into(), "ms");
    // accounting of the traced run itself
    add("trace.wall_s".into(), "s");
    add("trace.coverage".into(), "ratio");
    add("trace.untraced_s".into(), "s");
    add("trace.overhead.sim_gcps".into(), "gc/s");
    add("trace.overhead.req_p50_ms".into(), "ms");
    m
}

/// Short key of a Table I circuit name.
pub fn circuit_key(name: &str) -> &'static str {
    CIRCUITS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, k)| *k)
        .expect("every Table I circuit has a key")
}
