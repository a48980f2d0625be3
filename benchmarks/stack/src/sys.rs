//! The few things the harness asks the operating system directly: CPU
//! pinning, process-wide resource counters, and the `/proc/self` files.
//!
//! Everything here is Linux-only, like the serving stack's epoll front end.

use std::time::Duration;

/// 1024 CPUs, the kernel's default `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// `struct rusage` on 64-bit Linux: two `timeval`s (4 longs) + 14 longs.
#[cfg(target_pointer_width = "64")]
type RawRusage = [i64; 18];

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Pins the calling thread to the highest-numbered CPU it is allowed on and
/// returns that CPU. Threads spawned afterwards inherit the mask, so the
/// servers, routers and clients the harness starts all share the one CPU:
/// a loopback round trip then never waits for an idle sibling CPU to wake
/// (the 6 µs / 47 µs split of an unpinned ping-pong, see README).
pub fn pin_to_last_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Process-wide counters that only ever grow; ledger rows are differences
/// of two snapshots divided by the ops in between.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcCounters {
    /// User + system CPU time of every thread of the process.
    pub cpu: Duration,
    /// Voluntary + involuntary context switches of every thread.
    pub ctx_switches: u64,
    /// `syscr` of `/proc/self/io`: read-family system calls.
    pub read_syscalls: u64,
    /// `syscw` of `/proc/self/io`: write-family system calls.
    pub write_syscalls: u64,
}

impl ProcCounters {
    pub fn now() -> Self {
        let mut raw: RawRusage = [0; 18];
        // SAFETY: `raw` has the size and alignment of `struct rusage` on
        // 64-bit Linux and the kernel only writes into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        let (cpu, ctx_switches) = if rc == 0 {
            let tv = |sec: i64, usec: i64| Duration::new(sec as u64, usec as u32 * 1_000);
            // ru_utime, ru_stime, then 14 longs ending in ru_nvcsw, ru_nivcsw.
            (tv(raw[0], raw[1]) + tv(raw[2], raw[3]), (raw[16] + raw[17]) as u64)
        } else {
            (Duration::ZERO, 0)
        };
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        Self {
            cpu,
            ctx_switches,
            read_syscalls: proc_field(&io, "syscr:").unwrap_or(0),
            write_syscalls: proc_field(&io, "syscw:").unwrap_or(0),
        }
    }
}

/// The number after `key` on its line of a `/proc` status-style file.
fn proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// `VmHWM`: the process's peak resident set, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    proc_field(&status, "VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Removes every `PITEX_*` variable: the stack reads ~40 of them and a
/// stray one in the caller's shell must not change what is measured.
pub fn clear_pitex_env() {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PITEX_"))
        .collect();
    for key in keys {
        std::env::remove_var(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_field_reads_the_named_line_only() {
        let text = "rchar: 12\nsyscr: 34\nsyscw: 5\nVmHWM:\t  1408 kB\n";
        assert_eq!(proc_field(text, "syscr:"), Some(34));
        assert_eq!(proc_field(text, "VmHWM:"), Some(1408));
        assert_eq!(proc_field(text, "missing:"), None);
    }

    #[test]
    fn counters_grow() {
        let a = ProcCounters::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let b = ProcCounters::now();
        assert!(b.cpu >= a.cpu);
        assert!(b.ctx_switches >= a.ctx_switches);
        assert!(peak_rss_mb() > 0.0);
    }
}
