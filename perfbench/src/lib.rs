//! End-to-end benchmark of the c2nn user path, layer by layer.
//!
//! One command runs one workload with one seed, checks every output it
//! compares against the gate-level reference simulator, and prints its
//! metrics as a single JSON line. See `README.md` for the workloads and
//! metrics.

pub mod catalog;
pub mod offline;
pub mod prom;
pub mod provenance;
pub mod report;
pub mod rng;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// Where results and traces are written (ignored by git).
pub fn out_dir() -> PathBuf {
    provenance::repo_root().join("perfbench").join("out")
}

fn write(name: &str, body: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(name), body));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", dir.join(name).display());
    }
}

/// Write a traced run's spans, with the run's provenance.
pub fn write_trace(workload: &str, seed: u64, spans: &[trace::Span]) {
    let body = format!(
        "{{\"provenance\": {},\n\"spans\": {}}}\n",
        provenance::to_json(workload, seed, 0, true),
        trace::to_json(spans)
    );
    write(&format!("{workload}-seed{seed}.spans.json"), &body);
}

/// Write a run's result line, with its provenance.
pub fn write_result(workload: &str, seed: u64, seconds: u64, trace: bool, line: &str) {
    let body = format!(
        "{{\"provenance\": {},\n\"result\": {line}}}\n",
        provenance::to_json(workload, seed, seconds, trace)
    );
    write(
        &format!("{workload}-seed{seed}-trace{}.json", trace as u8),
        &body,
    );
}
