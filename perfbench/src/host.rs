//! Host fingerprint and process memory, read from outside the program.

use std::path::Path;
use std::process::Command;

/// What a result was measured on and built from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Threads the process may run on.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD`, when run from a git checkout.
    pub git_rev: String,
    /// FNV-1a digest of the library sources and manifests, so a result
    /// names the code it measured even outside a git checkout.
    pub source_digest: String,
    /// Cargo profile of the benchmark build.
    pub profile: &'static str,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev(),
            source_digest: source_digest(),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }
}

/// Threads the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_rev() -> String {
    // Only ask git inside a checkout's own root, so an enclosing
    // repository is never reported by mistake.
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a over the relative path and bytes of every file under the
/// library and vendored sources, plus the workspace manifests.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.is_file() {
            out.push(p);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
