//! CPU time and peak memory of the benchmark process, read from procfs.
//!
//! The live fleets run as threads of this process or as children it
//! reaps, so `utime + stime + cutime + cstime` is the CPU the client and
//! the fleet spent together — which is the cost a user of the live
//! backend pays per request.

use std::fs;

/// Kernel clock ticks per second as exposed to user space (`USER_HZ`),
/// fixed at 100 on Linux regardless of the kernel's own tick rate.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time consumed so far, in milliseconds, split by mode. Children
/// count once they have been waited for.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuMs {
    /// User-mode time of this process and its reaped children.
    pub user: f64,
    /// Kernel-mode time of this process and its reaped children.
    pub sys: f64,
}

impl CpuMs {
    /// User plus kernel time.
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }

    /// Time spent since `earlier`.
    pub fn since(&self, earlier: &CpuMs) -> CpuMs {
        CpuMs {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// Parse the CPU fields out of a `/proc/<pid>/stat` line. The second
/// field (`comm`) is the executable name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: after it come `state` (field 3) and onwards, which puts `utime`,
/// `stime`, `cutime`, `cstime` (fields 14–17) at offsets 11–14.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuMs> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (tick(11)?, tick(12)?, tick(13)?, tick(14)?);
    let ms = |ticks: u64| ticks as f64 * 1000.0 / TICKS_PER_SEC;
    Some(CpuMs {
        user: ms(utime + cutime),
        sys: ms(stime + cstime),
    })
}

/// Parse a `kB` field such as `VmHWM` out of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// CPU time of this process and its reaped children so far.
pub fn cpu_now() -> CpuMs {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .expect("/proc/self/status carries VmHWM on Linux") as f64
        / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 2 3 4 5 6 7 8 9 10 120 30 40 5 20 0 1 0 100 200 300";

    #[test]
    fn parses_cpu_ticks_into_milliseconds() {
        let cpu = parse_stat_cpu(&format!("4242 (c3-benchmark) {TAIL}")).unwrap();
        // utime 120 + cutime 40 ticks, stime 30 + cstime 5 ticks, 10 ms each.
        assert_eq!(cpu.user, 1600.0);
        assert_eq!(cpu.sys, 350.0);
        assert_eq!(cpu.total(), 1950.0);
    }

    #[test]
    fn comm_may_hold_spaces_and_parentheses() {
        let plain = parse_stat_cpu(&format!("1 (a) {TAIL}")).unwrap();
        for comm in ["(my bench)", "(a) R 9 9 9)", "(((x)) y)", "()"] {
            let cpu = parse_stat_cpu(&format!("1 {comm} {TAIL}")).unwrap();
            assert_eq!(cpu, plain, "comm {comm:?}");
        }
    }

    #[test]
    fn malformed_stat_lines_are_refused() {
        assert_eq!(parse_stat_cpu("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3 4 5 6 7 8 9 10 a b c d"), None);
    }

    #[test]
    fn deltas_subtract_per_mode() {
        let a = CpuMs {
            user: 100.0,
            sys: 40.0,
        };
        let b = CpuMs {
            user: 350.0,
            sys: 90.0,
        };
        assert_eq!(
            b.since(&a),
            CpuMs {
                user: 250.0,
                sys: 50.0
            }
        );
    }

    #[test]
    fn reads_kb_fields_from_status() {
        let status =
            "Name:\tc3-benchmark\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(100));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_procfs_reads_work() {
        assert!(cpu_now().total() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
