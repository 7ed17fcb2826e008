//! What every written result records about the code, host and inputs it
//! was measured with. Backend choice depends on `results/DEVICE.json`, so
//! its hash is recorded: a recalibration shows up as a changed input.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The calibration file `c2nn sim` and `c2nn serve` read for `--backend auto`.
pub fn device_json_path() -> PathBuf {
    repo_root().join("results").join("DEVICE.json")
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpuinfo_field(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "v")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Hash of the program's sources (`src/`, `crates/`, the root manifests),
/// which identifies the measured code even in a checkout without git.
fn source_hash(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("src"), &mut files);
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut acc = Vec::new();
    for f in &files {
        acc.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        acc.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv1a(&acc))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Provenance as a JSON object.
pub fn to_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let root = repo_root();
    let device = match std::fs::read(device_json_path()) {
        Ok(bytes) => format!("{:016x}", fnv1a(&bytes)),
        Err(_) => "absent (built-in host calibration)".to_string(),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // only ask git inside a git checkout, so it never searches parent
    // directories outside the checkout
    let commit = if root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], &root)
    } else {
        None
    };
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        (
            "commit",
            json_str(&commit.unwrap_or_else(|| "unknown (not a git checkout)".to_string())),
        ),
        ("source_fnv", json_str(&source_hash(&root))),
        ("device_json_fnv", json_str(&device)),
        ("nproc", threads.to_string()),
        ("cpu_model", json_str(&cpuinfo_field("model name"))),
        ("cpu_flags", json_str(&cpuinfo_field("flags"))),
        (
            "rustc",
            json_str(
                &command_line("rustc", &["--version"], &root)
                    .unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}
