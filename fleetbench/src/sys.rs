//! Process measurements the standard library does not expose: CPU time,
//! peak resident memory and the host's core count.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("fleetbench reads CPU time and peak RSS through 64-bit Linux interfaces");

/// `struct rusage` of the 64-bit Linux ABI: two `timeval`s (seconds and
/// microseconds, each a `long`) followed by fourteen `long` counters.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed so far by every thread of this
/// process, exited threads included.
pub fn cpu_seconds() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `u` is a live, writable value with that struct's 64-bit Linux layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(u.utime) + tv(u.stime)
}

/// Restart the peak-resident-set count from the current resident set, so
/// [`peak_rss_mib`] measures what follows (Linux `clear_refs` mode 5).
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("Linux resets VmHWM through clear_refs");
}

/// The process's peak resident set (`VmHWM` of `/proc/self/status`) since
/// start or the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted on Linux");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status carries a VmHWM line");
    kib / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
