//! The host record printed beside every result, and process resource
//! usage (CPU time, peak resident set) read through `getrusage`.

use std::process::Command;
use std::time::Duration;

/// Worker threads the benchmark allows itself: one per hardware thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    output
        .status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
        .filter(|line| !line.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line naming the host and build: only numbers whose host lines
/// match are comparable.
pub fn record() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto, codegen-units=1)"
    };
    format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" profile=\"{}\" commit={}",
        nproc(),
        cpu_model(),
        first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        profile,
        first_line_of("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
    )
}

/// `struct timeval` of the C library (64-bit Linux layout).
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the C library (64-bit Linux layout): two time
/// values followed by fourteen `long` counters, the first of which is
/// the peak resident set in KiB.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the C layout
    // above, and `who` is one of the two selectors the call accepts.
    let status = unsafe { getrusage(who, &mut usage) };
    assert_eq!(status, 0, "getrusage rejected a valid selector");
    usage
}

fn cpu(usage: &RUsage) -> Duration {
    let micros = |t: TimeVal| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(usage.utime) + micros(usage.stime))
}

/// User + system CPU time of every child this process has waited for
/// (grandchildren included, once their parent waited for them).
pub fn children_cpu() -> Duration {
    cpu(&rusage(RUSAGE_CHILDREN))
}

/// User + system CPU time of this process, all its threads.
pub fn self_cpu() -> Duration {
    cpu(&rusage(RUSAGE_SELF))
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    rusage(RUSAGE_SELF).maxrss_kib as f64 / 1024.0
}

/// Peak resident set (`VmHWM`) of a live process, MiB.
pub fn peak_rss_mib_of(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_usage_reads_are_plausible() {
        assert!(peak_rss_mib() > 0.0);
        assert!(peak_rss_mib_of(std::process::id()).is_some_and(|mib| mib > 0.0));
        let before = children_cpu();
        assert!(children_cpu() >= before);
        assert!(record().starts_with("host: nproc="));
    }
}
