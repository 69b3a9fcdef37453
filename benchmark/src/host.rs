//! Process counters read from Linux `/proc`.

/// Peak resident set size (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Minor page faults of the whole process so far, if readable.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at `state`
    // (field 3); `minflt` is field 10.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Nanoseconds the process's live threads have spent runnable but waiting
/// for a CPU (second field of each thread's `schedstat`); 0 when the
/// kernel does not expose it.
pub fn runq_wait_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_on_linux() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(minor_faults().is_some_and(|n| n > 0));
        let _ = runq_wait_ns();
    }
}
