//! Summaries computed from raw samples: medians, tail percentiles with
//! their sample support, and the process's peak resident memory.

/// A percentile read from raw samples (nearest-rank), with how many samples
/// it rests on and how many lie beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The percentile actually reported, in `(0, 1)`.
    pub q: f64,
    pub value: f64,
    pub count: usize,
    pub beyond: usize,
}

impl Percentile {
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p{:.0} = {:.3} {unit} (n = {}, {} beyond)",
            self.q * 100.0,
            self.value,
            self.count,
            self.beyond
        )
    }
}

/// Nearest-rank percentile `q` of `sorted` (ascending, nonempty).
pub fn percentile(sorted: &[f64], q: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let count = sorted.len();
    let rank = ((q * count as f64).ceil() as usize).clamp(1, count);
    Percentile {
        q,
        value: sorted[rank - 1],
        count,
        beyond: count - rank,
    }
}

/// The `top`-th percentile when at least ten samples lie beyond it;
/// otherwise the highest whole percentile (down to the median) that has ten
/// beyond.
pub fn tail_percentile(sorted: &[f64], top: u32) -> Percentile {
    for pct in (50..=top).rev() {
        let p = percentile(sorted, pct as f64 / 100.0);
        if p.beyond >= 10 {
            return p;
        }
    }
    percentile(sorted, 0.5)
}

/// Nearest-rank quantile `q` of `samples` (nonempty, any order).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    percentile(&sorted(samples), q).value
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (mean of the two middle values when even).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let k = v.len();
    assert!(k > 0, "median of no samples");
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p = tail_percentile(&v, 99);
        assert_eq!((p.q, p.value, p.beyond), (0.99, 1980.0, 20));
        let p = tail_percentile(&v, 95);
        assert_eq!((p.q, p.value, p.beyond), (0.95, 1900.0, 100));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = tail_percentile(&v, 99);
        assert_eq!((p.q, p.beyond), (0.90, 10));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.9), 18.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
