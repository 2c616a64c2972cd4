//! Peak resident set size of this process.

/// Parse the `VmHWM` (peak RSS) line of a `/proc/<pid>/status` text into
/// MiB. `None` when the line is missing or malformed.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib as f64 / 1024.0),
        _ => None,
    }
}

/// Peak RSS of the current process in MiB (Linux `/proc/self/status`).
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 1024 pages\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\n"), None);
    }

    #[test]
    fn live_peak_grows_with_a_touched_allocation() {
        let before = peak_rss_mib().expect("/proc/self/status readable");
        assert!(before > 0.0);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = peak_rss_mib().expect("/proc/self/status readable");
        assert!(after >= before + 32.0, "peak {before} -> {after} MiB after touching 64 MiB");
    }
}
