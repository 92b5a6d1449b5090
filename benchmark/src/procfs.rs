//! Resource readings from `/proc`, for the benchmark process and the
//! `source-server` children.  Every reading is best-effort: a missing file
//! (a child that already exited, a non-Linux host) reads as zero.

/// Clock ticks per second of `/proc/<pid>/stat` times.  `USER_HZ` is 100 on
/// every Linux ABI, and `sysconf` is out of reach without a libc crate.
const USER_HZ: f64 = 100.0;

fn read(path: String) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// The `kB` value of one `/proc/<pid>/status` line such as `VmHWM`.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    read(format!("/proc/{pid}/status"))
        .and_then(|s| status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User + system CPU time `pid` (all its threads) has consumed, in
/// microseconds.
pub fn cpu_us(pid: u32) -> f64 {
    read(format!("/proc/{pid}/stat"))
        .and_then(|s| stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ * 1e6)
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line.  The
/// command name in field 2 may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Voluntary + involuntary context switches of this process, summed over
/// its threads (`/proc/self/status` alone covers the main thread only).
pub fn own_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            ["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"]
                .iter()
                .filter_map(|key| {
                    status
                        .lines()
                        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
                        .and_then(|v| v.trim().parse::<u64>().ok())
                })
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_stat_lines_parse() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(status_kb(status, "VmSwap"), None);
        let stat = "12 (a (b) c) S 1 12 12 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 1 2 3";
        assert_eq!(stat_cpu_ticks(stat), Some(42));
        assert_eq!(stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(peak_rss_mb(me) > 0.0);
        assert!(own_ctx_switches() > 0 || cfg!(not(target_os = "linux")));
        assert!(cpu_us(me) >= 0.0);
        assert_eq!(peak_rss_mb(u32::MAX), 0.0);
    }
}
