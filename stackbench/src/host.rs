//! Host fingerprint and process memory.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

pub struct Fingerprint {
    pub nproc: usize,
    /// `git` HEAD if the tree is a git checkout, else `"unknown"`.
    pub commit: String,
    pub profile: &'static str,
}

pub fn fingerprint() -> Fingerprint {
    let root = repo_root();
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: git_head(&root).unwrap_or_else(|| "unknown".into()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    }
}

/// Resolve `.git/HEAD` by reading files only (no `git` process, no
/// search outside the tree).
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
