//! What the harness reads from the host: peak resident memory and the
//! hardware thread count every threaded result is reported with.

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_a_status_text() {
        let status = "Name:\tmot-benchmark\nVmPeak:\t  300000 kB\n\
                      VmHWM:\t  110732 kB\nVmRSS:\t   90000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(110_732));
    }

    #[test]
    fn malformed_or_missing_vm_hwm_is_none() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 pages\n"), None);
        assert_eq!(parse_vm_hwm_kib(""), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }
}
