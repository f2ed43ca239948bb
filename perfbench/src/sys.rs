//! Host facts the report header records, and process memory.

use std::path::{Path, PathBuf};

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from procfs.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checked-out revision, read from `.git` without running git;
/// `"unknown"` outside a repository.
pub fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Scratch directory for this run's files, inside the build directory
/// (`CARGO_TARGET_DIR`, else the package's own `target/`), so the
/// benchmark writes only inside its checkout.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    base.join("perfbench-scratch")
        .join(format!("{tag}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive() {
        let mb = peak_rss_mb(std::process::id()).expect("procfs");
        assert!(mb > 0.0 && mb.is_finite());
        assert!(nproc() >= 1);
    }
}
