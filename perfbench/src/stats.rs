//! Summary statistics with the benchmark's reporting rule: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs 1,000 samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `min..max` of `values` with `prec` decimals, for the report.
pub fn range(values: &[f64], prec: usize) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        return "empty".to_string();
    }
    format!("{min:.prec$}..{max:.prec$}")
}

/// Nearest-rank `q`-quantile of an ascending slice, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A latency distribution in one unit, summarized as the benchmark
/// reports it.
#[derive(Debug, Default, Clone)]
pub struct Dist {
    samples: Vec<f64>,
}

impl Dist {
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.samples.extend(vs);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `(p50, p99)` under the reporting rule.
    pub fn p50_p99(&self) -> (Option<f64>, Option<f64>) {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        (percentile(&v, 0.50), percentile(&v, 0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // Rank 990 of 999 leaves only 9 samples beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.50), Some(500.0));
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.50), None);
        let ok: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn dist_reports_p99_only_with_enough_samples() {
        let mut d = Dist::default();
        d.extend((1..=500).map(f64::from));
        assert_eq!(d.p50_p99(), (Some(250.0), None));
        d.extend((501..=1000).map(f64::from));
        assert_eq!(d.p50_p99(), (Some(500.0), Some(990.0)));
    }
}
