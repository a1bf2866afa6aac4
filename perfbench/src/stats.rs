//! Order statistics for latency samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of `samples` after dropping the lowest and the highest
/// `trim` share of them.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim.clamp(0.0, 0.49)) as usize;
    mean(&v[cut..v.len() - cut])
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Total length of the union of the intervals `(start, end)`.
pub fn union_s(mut spans: Vec<(f64, f64)>) -> f64 {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (start, end) in spans {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + open.map_or(0.0, |(s, e)| e - s)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 4.0, -50.0], 0.2), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0], 0.2), 1.5);
        assert_eq!(union_s(vec![(2.0, 3.0), (0.0, 1.0), (0.5, 1.5)]), 2.5);
        assert_eq!(union_s(Vec::new()), 0.0);
    }
}
