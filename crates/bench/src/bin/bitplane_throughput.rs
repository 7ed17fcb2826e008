//! Bit-plane throughput gate (CI): race the bit-plane backend against the
//! pooled-CSR simulator on every suite circuit, time the same program
//! behind the HAL (`Plan::execute_planes`), write
//! `results/BENCH_bitplane.json`, and **fail** (exit 1) if the best
//! speedup falls below `--min-speedup` (default 10×), if any circuit's
//! HAL throughput falls below `--min-hal-ratio` of its raw step (default
//! 0.25: the transposed loop read 0.30–2.9 per circuit, the per-bit loop
//! it replaced 0.10–0.36), or if popcount fallbacks stop being rare (≥1% of
//! a circuit's rows — cse coefficient merging leaves a handful of
//! weight-2 rows on the full DMA, which is fine; a legalization
//! regression is not).
//!
//! ```text
//! bitplane_throughput [--l N] [--batch N] [--budget-ms N] [--min-speedup X] [--min-hal-ratio X]
//! ```

use c2nn_bench::experiments::{bitplane_throughput, format_bitplane};
use std::time::Duration;

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let l: usize = flag(&args, "--l", 4);
    let batch: usize = flag(&args, "--batch", 4096);
    let budget_ms: u64 = flag(&args, "--budget-ms", 200);
    let min_speedup: f64 = flag(&args, "--min-speedup", 10.0);
    let min_hal_ratio: f64 = flag(&args, "--min-hal-ratio", 0.25);

    let rows = bitplane_throughput(l, batch, Duration::from_millis(budget_ms));
    print!("{}", format_bitplane(&rows));

    std::fs::create_dir_all("results").ok();
    let path = "results/BENCH_bitplane.json";
    std::fs::write(path, c2nn_json::to_string_pretty(&rows)).expect("write results");
    eprintln!("wrote {path}");

    let mut failed = false;
    for r in &rows {
        let total = r.gate_ops + r.weighted_ops;
        if r.weighted_ops * 100 >= total {
            eprintln!(
                "FAIL: {} needed {} popcount-fallback rows of {total} — legalization regressed",
                r.circuit, r.weighted_ops
            );
            failed = true;
        } else if r.weighted_ops > 0 {
            eprintln!(
                "note: {} has {} popcount-fallback rows of {total} (rare fallbacks are expected)",
                r.circuit, r.weighted_ops
            );
        }
    }
    let best = rows.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
    eprintln!("best speedup over pooled CSR: {best:.1}x (gate: >= {min_speedup:.1}x)");
    if best < min_speedup {
        eprintln!("FAIL: bit-plane backend must beat pooled CSR by {min_speedup:.1}x somewhere");
        failed = true;
    }
    for r in rows.iter().filter(|r| r.hal_over_raw < min_hal_ratio) {
        eprintln!(
            "FAIL: {} keeps {:.2} of its raw step throughput behind the HAL (gate: >= {min_hal_ratio:.2})",
            r.circuit, r.hal_over_raw
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
