//! Process-level readings and settings: CPU time and context switches from
//! `getrusage`, peak resident memory, thread count and stolen CPU time from
//! `/proc`, and pinning the process to one CPU.

use std::sync::OnceLock;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals
/// followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK`: the unit of the times in `/proc/stat`.
const SC_CLK_TCK: i32 = 2;
/// CPUs an affinity mask covers here.
const MASK_CPUS: usize = 1024;

const PR_SET_TIMERSLACK: i32 = 29;

const RUSAGE_SELF: i32 = 0;
/// Indices of `ru_nvcsw` and `ru_nivcsw` in [`Rusage::counters`].
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// CPU time and context switches of the whole process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User-mode CPU time over all threads.
    pub user: Duration,
    /// Kernel-mode CPU time over all threads.
    pub sys: Duration,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Reads the process's usage now.
    pub fn now() -> Usage {
        let mut raw = Rusage {
            ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
            ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
            counters: [0; 14],
        };
        // SAFETY: `raw` is a live, writable value with the layout of the C
        // `struct rusage` on 64-bit Linux (repr(C), 2 timevals + 14 longs),
        // and `getrusage` writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
        let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
        Usage {
            user: tv(&raw.ru_utime),
            sys: tv(&raw.ru_stime),
            ctx_switches: (raw.counters[NVCSW] + raw.counters[NIVCSW]) as u64,
        }
    }

    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// The sum of two spans of usage.
    pub fn plus(&self, other: &Usage) -> Usage {
        Usage {
            user: self.user + other.user,
            sys: self.sys + other.sys,
            ctx_switches: self.ctx_switches + other.ctx_switches,
        }
    }

    /// Usage accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Sets how late the kernel may wake the calling thread from a sleep, in
/// nanoseconds. A thread attribute; best effort.
pub fn set_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes its value by integer and touches no
    // memory of the caller; the unused arguments are zero as required.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0) };
}

/// The CPU [`pin_to_one_cpu`] pinned the process to.
static PINNED: OnceLock<usize> = OnceLock::new();

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on, and returns that CPU; `None` if
/// the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_CPUS / 64];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and the kernel writes at most that many bytes into it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..MASK_CPUS).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_CPUS / 64];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the kernel
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then(|| *PINNED.get_or_init(|| cpu))
}

/// Time the hypervisor has taken the pinned CPU away from this machine
/// since boot (the `steal` column of `/proc/stat`); zero where it is not
/// reported or the process is not pinned.
pub fn stolen() -> Duration {
    let Some(cpu) = PINNED.get() else { return Duration::ZERO };
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = format!("cpu{cpu}");
    let ticks = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
        .and_then(|l| l.split_whitespace().nth(8)?.parse::<u64>().ok())
        .unwrap_or(0);
    // SAFETY: `sysconf` takes its argument by value and touches no memory
    // of the caller.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Duration::ZERO;
    }
    Duration::from_secs_f64(ticks as f64 / hz as f64)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads of this process right now.
pub fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = Usage::now();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = Usage::now().since(&before).cpu();
        assert!(spent >= Duration::from_millis(10), "{spent:?}");
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
    }
}
