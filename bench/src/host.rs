//! Host stamp, the thread rules, and peak memory.

use std::process::Command;

use wavefront::pipeline::JsonObj;

/// Closed-loop callers / connections a job workload drives. Exactly two:
/// with one, the second core idles and the run flips between two
/// frequency/scheduling regimes from one run to the next.
pub const GENERATORS: usize = 2;

/// Processors every job asks for (`.line(2)` / `Session::procs(2)`).
pub const PROCS: usize = 2;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc's `mallopt(3)`.
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Tell glibc's allocator to keep what the process frees: serve every
/// request below 32 MiB (the highest threshold `mallopt` takes) from the
/// heap instead of a mapping of its own, and never trim the heap.
/// Returns whether both settings took; on another C library nothing is
/// changed and the stamp says so.
///
/// Left to itself, glibc maps and unmaps each array of the sizes the
/// workloads use, or does not, depending on which buffer happened to be
/// freed first, and on the reference host memory that went back to the
/// kernel and is mapped again runs 1.4x slower for seconds to minutes
/// (`sweep_large`: 115 ms per op against 82 ms, for whole rounds). A
/// process that keeps its memory — any long-lived server, once it has
/// served its largest request — is in neither lottery.
pub fn retain_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        // SAFETY: `mallopt` takes two integers by value and only sets
        // fields of the allocator's own state, under its lock; a value
        // it does not accept makes it return 0 and change nothing.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TRIM_THRESHOLD, std::ffi::c_int::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// What the numbers of a run were measured on.
pub struct Host {
    /// `std::thread::available_parallelism`, or 1 when unknown.
    pub available_parallelism: usize,
    /// `processor` entries in `/proc/cpuinfo` (0 when unreadable).
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `(level+type, size)` per cache of cpu0, e.g. `("L2", "4096K")`.
    pub caches: Vec<(String, String)>,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `$GIT_SHA`, else `git rev-parse`, else `unknown` (the driver's
    /// checkout is not a repository).
    pub git_sha: String,
    /// Threads the workload keeps busy: [`GENERATORS`] callers or
    /// [`PROCS`] engine workers.
    pub threads: usize,
    /// Set when the host has fewer cores than `threads`: wall-clock
    /// ratios are then oversubscription numbers, informational only.
    pub oversubscribed: bool,
    /// Whether [`retain_memory`] took.
    pub memory_retained: bool,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

impl Host {
    /// Probe the host; `memory_retained` is what [`retain_memory`] said.
    pub fn probe(memory_retained: bool) -> Host {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        let mut caches = Vec::new();
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                break;
            };
            let suffix = match kind.trim() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            caches.push((
                format!("L{}{suffix}", level.trim()),
                size.trim().to_string(),
            ));
        }
        let git_sha = std::env::var("GIT_SHA")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .or_else(|| first_line_of("git", &["rev-parse", "--short=12", "HEAD"]))
            .unwrap_or_else(|| "unknown".to_string());
        let threads = GENERATORS.max(PROCS);
        Host {
            available_parallelism,
            nproc,
            cpu_model,
            caches,
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            git_sha,
            threads,
            oversubscribed: available_parallelism < threads,
            memory_retained,
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, seconds: f64) -> String {
        let caches = self
            .caches
            .iter()
            .fold(JsonObj::new(), |obj, (k, v)| obj.str(k, v));
        JsonObj::new()
            .str("workload", workload)
            .uint("seed", seed)
            .num("seconds", seconds)
            .uint("nproc", self.nproc as u64)
            .uint("available_parallelism", self.available_parallelism as u64)
            .uint("threads", self.threads as u64)
            .raw("oversubscribed", &self.oversubscribed.to_string())
            .raw("memory_retained", &self.memory_retained.to_string())
            .str("cpu_model", &self.cpu_model)
            .raw("caches", &caches.finish())
            .str("rustc", &self.rustc)
            .str(
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            )
            .str("git_sha", &self.git_sha)
            .finish()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when `/proc` is
/// not there.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
