//! Order statistics and the process figures read from `/proc`.

use std::fs;

/// Nearest-rank quantile of unsorted samples (the rank rule of
/// `obs::Histogram::quantile`); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the nearest-rank quantile `q`.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU time this process has used, in seconds, over all its threads,
/// those that have exited included (`utime + stime` of `/proc/self/stat`).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; the fields after it do not.
    let rest = stat
        .rsplit_once(')')
        .ok_or("/proc/self/stat: no command name")?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name, field 3 (state) comes first: utime is field 14.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "/proc/self/stat: bad utime/stime".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// How long tasks on this machine have waited for a CPU, in seconds (the
/// `some` total of `/proc/pressure/cpu`); `None` without pressure stall
/// information. Other tenants' tasks count, and so do this process's own
/// threads when they outnumber the CPUs.
pub fn cpu_pressure_s() -> Option<f64> {
    let psi = fs::read_to_string("/proc/pressure/cpu").ok()?;
    let some = psi.lines().find(|l| l.starts_with("some "))?;
    let total = some
        .split_whitespace()
        .find_map(|f| f.strip_prefix("total="))?;
    Some(total.parse::<f64>().ok()? / 1e6)
}

fn status_field(name: &str) -> Result<String, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim().to_string())
        .ok_or_else(|| format!("/proc/self/status has no {name}"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let raw = status_field("VmHWM:")?;
    let kb: f64 = raw
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("bad VmHWM {raw:?}"))?;
    Ok(kb / 1024.0)
}

/// CPUs this process may run on (what `nproc` prints), from
/// `Cpus_allowed_list`, e.g. `0-3,6`.
pub fn nproc() -> Result<usize, String> {
    let list = status_field("Cpus_allowed_list:")?;
    let mut n = 0;
    for part in list.split(',') {
        let bad = || format!("bad Cpus_allowed_list {list:?}");
        n += match part.split_once('-') {
            Some((a, b)) => {
                let a: usize = a.parse().map_err(|_| bad())?;
                let b: usize = b.parse().map_err(|_| bad())?;
                b.checked_sub(a).ok_or_else(bad)? + 1
            }
            None => {
                part.parse::<usize>().map_err(|_| bad())?;
                1
            }
        };
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 51.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(beyond(&s, 0.9), 10);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_figures_read() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(nproc().unwrap() >= 1);
    }
}
