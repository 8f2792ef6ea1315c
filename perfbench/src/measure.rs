//! Sample statistics and process-level clocks (CPU time, peak memory).

use std::time::Instant;

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are bugs in the caller.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Quartiles `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Fewer than two samples repeat the
/// only one.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    // Python's integer arithmetic, transcribed: j = clamp(i·m // 4, 1, n−1)
    // and the weight i·m − 4j may leave 0..4 after clamping.
    let m = (n + 1) as i64;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - 4 * j) as f64;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process plus every child it has
/// waited for (`utime + stime + cutime + cstime` of `/proc/self/stat`).
///
/// # Errors
/// Fails when `/proc/self/stat` is missing or malformed (not Linux).
pub fn cpu_seconds() -> Result<f64, String> {
    let text =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the first field is field 3 (state): utime is field 14.
    let mut ticks = 0.0;
    for idx in 11..15 {
        let f = fields.get(idx).ok_or("/proc/self/stat: too few fields")?;
        ticks += f
            .parse::<f64>()
            .map_err(|e| format!("/proc/self/stat field {}: {e}", idx + 3))?;
    }
    Ok(ticks / USER_HZ)
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`).
///
/// # Errors
/// Fails when the field is missing (not Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("/proc/self/status: no VmHWM")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_clocks_read() {
        assert!(cpu_seconds().expect("cpu clock") >= 0.0);
        assert!(peak_rss_mb().expect("rss") > 0.0);
    }
}
