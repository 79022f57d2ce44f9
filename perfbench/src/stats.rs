//! Order statistics and host readings shared by every workload.

/// A percentile together with the number of samples it was taken over,
/// so no percentile is ever reported without its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `0.0` over no samples.
pub fn quantile(values: &[f64], q: f64) -> Pct {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = match sorted.len() {
        0 => 0.0,
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    };
    Pct {
        value,
        samples: values.len(),
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).value
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_carry_their_base() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(
            quantile(&v, 0.5),
            Pct {
                value: 3.0,
                samples: 5
            }
        );
        assert!((quantile(&v, 0.9).value - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.9).samples, 0);
        assert!((median(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert!(ratio(3, 0).abs() < f64::EPSILON);
        assert!((ratio(1, 4) - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
