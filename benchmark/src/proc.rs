//! Process-level readings from `/proc/self`: CPU time and peak memory.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times. `USER_HZ` is 100 on
/// every Linux ABI; std offers no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// User + system CPU time this process (all threads) has used, in ms.
pub fn cpu_ms() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1e3 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_and_cpu_time_advances() {
        let before = cpu_ms().expect("/proc/self/stat is readable");
        let mut x = 0u64;
        while cpu_ms().unwrap() < before + 20.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mb().expect("/proc/self/status has VmHWM") > 0.5);
    }
}
