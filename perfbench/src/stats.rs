//! Order statistics and process measurements.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The tail sample: the highest nearest-rank percentile with at least
/// ten samples above it, and never below the median. Returns the value,
/// its percentile and the sample count.
///
/// # Panics
///
/// On an empty slice or a NaN.
pub fn tail(values: &mut [f64]) -> (f64, f64, usize) {
    assert!(!values.is_empty(), "tail of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = values.len();
    let rank = n.saturating_sub(10).max(n / 2 + 1);
    (values[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
///
/// # Panics
///
/// On an empty slice or a NaN.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((p / 100.0 * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident memory of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above_and_never_drops_below_the_median() {
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut hundred), (90.0, 90.0, 100));
        let mut twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&mut twelve).0, 7.0);
        let mut five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&mut five), (3.0, 60.0, 5));
    }
}
