//! `c2nn-perfbench --workload <regress|interactive|serve> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Prints progress and provenance on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones untraced, per-layer ones with `--trace 1`).
//! Exits non-zero when any testbench or request failed, any output
//! differs from the reference simulator, or the run could not complete.

use c2nn_perfbench::{offline, serve, write_result};
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: c2nn-perfbench --workload <regress|interactive|serve> --seed <n> --seconds <n> --trace <0|1>"
    );
    exit(2)
}

fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    let value = args
        .iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| usage(&format!("missing {name}")));
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value `{value}` for {name}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = arg(&args, "--workload");
    let seed: u64 = arg(&args, "--seed");
    let seconds: u64 = arg(&args, "--seconds");
    let trace = match arg::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    eprintln!(
        "{}",
        c2nn_perfbench::provenance::to_json(&workload, seed, seconds, trace)
    );
    let outcome = match workload.as_str() {
        "regress" => offline::run(&offline::REGRESS, seed, seconds, trace),
        "interactive" => offline::run(&offline::INTERACTIVE, seed, seconds, trace),
        "serve" => serve::run(seed, seconds, trace),
        other => usage(&format!("unknown workload `{other}`")),
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    let line = outcome.to_json_line(trace);
    write_result(&workload, seed, seconds, trace, &line);
    println!("{line}");
    if !outcome.correct {
        eprintln!(
            "error: {} of {} attempted failed, or outputs differ from the reference simulator",
            outcome.failed, outcome.attempted
        );
        exit(1)
    }
}
