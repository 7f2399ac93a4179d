//! Order statistics for timing samples: median, quartiles and the tail
//! percentile the benchmark reports beside every timing.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `sorted` by linear interpolation
/// between closest ranks (the "inclusive" definition: `p = 0` is the
/// minimum, `p = 1` the maximum). `None` on an empty sample.
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let (&first, rest) = sorted.split_first()?;
    if rest.is_empty() {
        return Some(first);
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of an unsorted sample (`None` if empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples), 0.5)
}

/// A sorted copy of `samples` (total order; NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest whole percentile with at least ten samples strictly above
/// its rank, for a sample of `n`: `⌊100·(n − 10)/n⌋`, or `None` when
/// `n ≤ 10` leaves no such percentile. A tail figure backed by fewer
/// samples than that would be one or two outliers, not a tail.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n <= 10 {
        return None;
    }
    Some(u32::try_from(100 * (n - 10) / n).expect("a percentile is at most 100"))
}

/// Median, quartiles and tail of one timing sample, as the benchmark
/// prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The tail percentile and its value, when the sample has one.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes a non-empty sample (`None` if empty).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let s = sorted(samples);
        let tail = tail_percentile(s.len())
            .map(|p| (p, quantile(&s, f64::from(p) / 100.0).expect("non-empty")));
        Some(Summary {
            n: s.len(),
            q1: quantile(&s, 0.25)?,
            median: quantile(&s, 0.5)?,
            q3: quantile(&s, 0.75)?,
            tail,
        })
    }

    /// One human-readable line, values scaled by `scale` and suffixed
    /// with `unit`.
    pub fn render(&self, scale: f64, unit: &str) -> String {
        let tail = self.tail.map_or_else(
            || "p-tail n/a (≤ 10 samples)".to_string(),
            |(p, v)| format!("p{p} {:.4}{unit}", v * scale),
        );
        format!(
            "median {:.4}{unit}  q1 {:.4}{unit}  q3 {:.4}{unit}  {tail}  (n = {})",
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&s, 0.25), Some(1.75));
        assert_eq!(quantile(&s, 0.75), Some(3.25));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        // At least ten of the n samples rank above the reported percentile.
        for n in 11..500 {
            let p = f64::from(tail_percentile(n).unwrap()) / 100.0;
            let rank = p * (n - 1) as f64;
            let above = (0..n).filter(|&i| i as f64 > rank).count();
            assert!(above >= 10, "n = {n}: only {above} beyond p{p}");
        }
    }

    #[test]
    fn summary_reports_quartiles_and_tail() {
        let samples: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 21);
        assert_eq!(s.median, 11.0);
        assert_eq!(s.q1, 6.0);
        assert_eq!(s.q3, 16.0);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 52);
        assert!((v - 11.4).abs() < 1e-9, "p52 = {v}");
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[2.0]).unwrap().tail, None);
    }
}
