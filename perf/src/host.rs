//! Host-side process accounting read from `/proc/self`: CPU time and
//! peak resident set. Every reader returns `None` where `/proc` is
//! absent (non-Linux hosts), and the caller prints `null` rather than
//! a made-up 0.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15 of the full line.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// On-CPU nanoseconds of one thread from the text of its `schedstat`
/// (the first of three fields).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// User + system CPU seconds this process (all threads, including
/// ones that already exited) has consumed so far.
///
/// The process-wide counters of `/proc/self/stat` tick at 10 ms, far
/// too coarse for a one-second pass, so the calling (main) thread is
/// read at nanosecond resolution from its `schedstat` and only the
/// *other* threads' share — process ticks minus main-thread ticks —
/// stays in ticks. Five of the six workloads run on the main thread
/// alone.
pub fn cpu_seconds() -> Option<f64> {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let process_ticks = parse_stat_cpu_ticks(&read("/proc/self/stat")?)?;
    let main = format!("/proc/self/task/{}", std::process::id());
    let main_ticks = parse_stat_cpu_ticks(&read(&format!("{main}/stat"))?)?;
    let others = process_ticks.saturating_sub(main_ticks) as f64 / USER_HZ;
    let main_s = match read(&format!("{main}/schedstat")).and_then(|s| parse_schedstat_ns(&s)) {
        Some(ns) => ns as f64 / 1e9,
        None => main_ticks as f64 / USER_HZ,
    };
    Some(main_s + others)
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_last_paren() {
        // comm = "a) b (c" — spaces and parentheses inside the name.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194560 812 0 0 0 \
                    37 5 0 0 20 0 3 0 123456 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
    }

    #[test]
    fn stat_garbage_is_none_not_zero() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"),
            None
        );
    }

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(
            parse_schedstat_ns("535963999 1532972 32\n"),
            Some(535_963_999)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn status_vm_hwm() {
        let status = "Name:\tperf\nVmPeak:\t  9000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tperf\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 pages\n"), None);
    }

    /// The non-Linux fallback: a missing `/proc` yields `None`, which
    /// the result writer renders as `null` — never as 0.
    #[test]
    fn missing_proc_renders_null() {
        let absent: Option<f64> = None;
        assert_eq!(crate::json::J::opt_num(absent).render(), "null");
        if cfg!(target_os = "linux") {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        } else {
            assert!(cpu_seconds().is_none());
            assert!(peak_rss_mb().is_none());
        }
    }
}
