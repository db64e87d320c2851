//! The few things the benchmark needs from the operating system that
//! `std` does not offer: a readiness wait with a sub-millisecond
//! timeout (socket read timeouts round to scheduler ticks, which would
//! make an open-loop generator late by more than the latencies it
//! measures), CPU clocks per thread and per process, and `/proc`
//! counters. Linux only, like the repository's epoll reactor.

use std::fs;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Block until `fd` is readable (or hung up) or `timeout` passes.
/// Returns true when a read will not block.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are valid for the duration of the call,
    // `nfds` is 1 and matches the single `PollFd`, and a null signal
    // mask is allowed (the mask is left unchanged).
    let ready = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    ready > 0
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; both clock ids are
    // defined on every Linux this repository's reactor runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time the whole process has used, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Context switches (voluntary + involuntary) summed over every thread
/// of this process. `/proc/self/status` alone covers only the main
/// thread, which here does nothing but sleep.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// `(current, peak)` resident set size of the process in bytes.
pub fn rss_bytes() -> (u64, u64) {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    (
        status_field(&status, "VmRSS:") * 1024,
        status_field(&status, "VmHWM:") * 1024,
    )
}

/// The first number after `label` in a `/proc/<pid>/status` text.
fn status_field(status: &str, label: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Total size in bytes of the regular files under `dir` (one level of
/// per-site subdirectories, as `ClusterConfig::with_data_dir` lays out).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
