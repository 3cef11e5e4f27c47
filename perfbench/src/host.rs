//! Host measurements: process CPU time, peak resident set, worker
//! count, and the benchmark's private scratch directories.

use std::path::PathBuf;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, live or
/// joined.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is never negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below 1e9"),
    )
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Worker threads: every core the host offers.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A directory private to one benchmark process, under
/// `.bench_work/` in the working directory, removed when dropped.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    next: u64,
}

impl WorkDir {
    /// Creates `.bench_work/<label>-<pid>/`, emptied first.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn create(label: &str) -> std::io::Result<Self> {
        let root = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        Self::at(root)
    }

    /// Uses `root` (emptied first) as the work directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn at(root: PathBuf) -> std::io::Result<Self> {
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, empty subdirectory (`<prefix>-<n>`), created now.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn fresh(&mut self, prefix: &str) -> std::io::Result<PathBuf> {
        self.next += 1;
        let dir = self.root.join(format!("{prefix}-{}", self.next));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty `.bench_work/` behind either.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
