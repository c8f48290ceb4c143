//! Host-side readings of this process from `/proc`: resident memory and CPU time.

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB; 0 when unreadable.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// The kernel's high-water resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// User plus system CPU seconds this process has used, over all its threads.
///
/// Reads `utime` and `stime` from `/proc/self/stat`, in clock ticks of the kernel's fixed
/// user-visible rate (`USER_HZ`, 100 per second on Linux).
pub fn cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3 (`state`); utime and
    // stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}
