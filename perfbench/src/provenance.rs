//! The `box` block: which machine, source and toolchain produced a
//! result. Every result and every failed check carries it.

use std::fmt;
use std::path::Path;
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct BoxInfo {
    pub nproc: usize,
    pub cpu: String,
    /// `git rev-parse HEAD`, or a digest of the sources when the
    /// checkout is not a git repository.
    pub rev: String,
    pub rustc: String,
}

impl BoxInfo {
    pub fn probe() -> Self {
        BoxInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rev: git_rev().unwrap_or_else(source_digest),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

impl fmt::Display for BoxInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rev={} rustc=\"{}\"",
            self.nproc, self.cpu, self.rev, self.rustc
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs a command to completion and returns its first stdout line.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout);
    s.lines().next().map(|l| l.trim().to_string())
}

fn git_rev() -> Option<String> {
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
}

/// FNV-1a over the workspace sources, in sorted path order.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&path, out);
        }
    }
}
