//! What the benchmark reads from the host: process CPU time and peak
//! memory, the provenance block, and a scratch directory that removes
//! itself.

use fasda_trace::Json;
use std::path::{Path, PathBuf};

/// User + system CPU seconds this process has consumed, all threads,
/// exited ones included (`/proc/self/stat` fields 14 and 15, in clock
/// ticks of 10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The parenthesised comm may contain spaces; fields resume after it.
    let mut fields = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// Everything needed to judge whether two result sets are comparable.
/// `rustc` and the `target-cpu=native` flag are those of the build (see
/// `build.rs`); the rest is read at run time.
pub fn provenance(seed: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or(String::new(), |v| v.trim().to_string())
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    Json::obj()
        .field("nproc", nproc())
        .field("cpu_model", field("model name"))
        .field("avx2", has("avx2"))
        .field("avx512dq", has("avx512dq"))
        .field("fma", has("fma"))
        .field("rustc", env!("BENCH_RUSTC_VERSION"))
        .field("target_cpu_native", env!("BENCH_TARGET_CPU_NATIVE") == "1")
        .field(
            "git_commit",
            // Only inside a git checkout: elsewhere git would search the
            // parent directories, which are not the benchmark's to read.
            Path::new(".git")
                .exists()
                .then(|| first_line_of("git", &["rev-parse", "HEAD"]))
                .flatten()
                .map_or(Json::Null, Json::from),
        )
        .field("load_average_1m", load_average())
        .field("seed", Json::uint(seed))
        .build()
}

/// Where scratch directories and result files go, relative to the repo
/// root the benchmark is run from. Kept inside the checkout (the
/// benchmark writes nowhere else) and relative, so Unix-socket paths
/// under it stay within `sun_path`'s 108 bytes however deep the checkout
/// sits.
pub const SCRATCH_ROOT: &str = "benchmark/.tmp";
pub const RESULTS_DIR: &str = "benchmark/results";

/// A scratch directory under [`SCRATCH_ROOT`], removed on drop — so also
/// when a workload fails or panics.
pub struct TempDir {
    root: PathBuf,
    dir: PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        TempDir::new_in(Path::new(SCRATCH_ROOT), tag)
    }

    pub fn new_in(root: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = root.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir {
            root: root.to_path_buf(),
            dir,
        })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty sub-directory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty scratch root behind; fails harmlessly while
        // another workload's directory is still in it.
        let _ = std::fs::remove_dir(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_removes_itself() {
        let path = {
            let root = std::env::temp_dir().join("fasda-bench-unit");
            let t = TempDir::new_in(&root, "unit").expect("create");
            std::fs::write(t.path().join("f"), b"x").expect("write");
            assert!(t.sub("child").starts_with(t.path()));
            t.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn host_readings_are_sane() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        let p = provenance(7);
        assert_eq!(p.get("seed").and_then(Json::as_i64), Some(7));
        assert!(p
            .get("rustc")
            .and_then(Json::as_str)
            .is_some_and(|v| v.starts_with("rustc")));
    }
}
