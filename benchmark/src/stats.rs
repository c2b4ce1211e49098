//! Sample buffers and the percentile / quartile maths of the report.

/// Latency samples of one kind, in nanoseconds. Preallocated by the caller
/// so recording never allocates inside a timed section.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u32>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    #[inline]
    pub fn push_ns(&mut self, ns: u128) {
        self.0.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Sort in place and return a view the percentile functions accept.
    pub fn sorted(&mut self) -> Sorted<'_> {
        self.0.sort_unstable();
        Sorted(&self.0)
    }
}

/// A sorted sample set.
#[derive(Debug, Clone, Copy)]
pub struct Sorted<'a>(&'a [u32]);

impl Sorted<'_> {
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`p` in 0..=100): the smallest sample with
    /// at least `p` percent of the samples at or below it. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let n = self.0.len();
        // p * n first: 90 * 100 / 100 is exactly 90, 0.9 * 100 is not
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        f64::from(self.0[rank.clamp(1, n) - 1])
    }

    /// The median of samples that are whole nanoseconds, interpolated
    /// inside the nanosecond the middle sample falls into by how many
    /// samples share it (Python's `statistics.median_grouped`). Unlike the
    /// nearest-rank median it moves when the distribution moves by less
    /// than a nanosecond. 0 when empty.
    pub fn median_grouped(&self) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let x = self.0[n / 2];
        let below = self.0.partition_point(|&v| v < x);
        let through = self.0.partition_point(|&v| v <= x);
        let share = (n as f64 / 2.0 - below as f64) / (through - below) as f64;
        f64::from(x) - 0.5 + share
    }

    /// The highest of 50, 90, 99, 99.9, 99.99 that still has at least ten
    /// samples beyond it — the tail percentile this sample count supports.
    pub fn highest_supported(&self) -> f64 {
        let mut best = 50.0;
        for p in [90.0, 99.0, 99.9, 99.99] {
            let n = self.0.len();
            let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
            if n >= rank + 10 {
                best = p;
            }
        }
        best
    }
}

/// Median of a set of values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of a set of values, linearly interpolated
/// between the two nearest ranks. 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The value of a per-round *time* in the undisturbed rounds: the lower
/// quartile over rounds. On the boxes this runs on, interference from
/// outside the process comes in bursts of 0.1–1 s that slow whole rounds
/// by a quarter and only ever slow them; the share of disturbed rounds
/// drifts from run to run and drags a median with it, the quartile on the
/// fast side stays put as long as a quarter of the rounds ran undisturbed.
pub fn undisturbed_time(per_round: &[f64]) -> f64 {
    quantile(per_round, 0.25)
}

/// As [`undisturbed_time`] for a per-round *rate*: the upper quartile.
pub fn undisturbed_rate(per_round: &[f64]) -> f64 {
    quantile(per_round, 0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples((1..=100).rev().collect());
        let v = s.sorted();
        assert_eq!(v.count(), 100);
        assert_eq!(v.percentile(50.0), 50.0);
        assert_eq!(v.percentile(99.0), 99.0);
        assert_eq!(v.percentile(100.0), 100.0);
        assert_eq!(v.percentile(0.0), 1.0);
        let mut one = Samples(vec![7]);
        assert_eq!(one.sorted().percentile(50.0), 7.0);
        assert_eq!(Samples::default().sorted().percentile(50.0), 0.0);
    }

    #[test]
    fn grouped_median_interpolates_inside_the_middle_value() {
        // statistics.median_grouped([1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) == 3.7
        let mut s = Samples(vec![1, 2, 2, 3, 4, 4, 4, 4, 4, 5]);
        assert!((s.sorted().median_grouped() - 3.7).abs() < 1e-12);
        // statistics.median_grouped([1, 3, 3, 5, 7]) == 3.25
        let mut s = Samples(vec![1, 3, 3, 5, 7]);
        assert!((s.sorted().median_grouped() - 3.25).abs() < 1e-12);
        let mut s = Samples(vec![45; 9]);
        assert_eq!(s.sorted().median_grouped(), 45.0);
        assert_eq!(Samples::default().sorted().median_grouped(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let mut s = Samples(vec![1; 99]);
        assert_eq!(s.sorted().highest_supported(), 50.0);
        let mut s = Samples(vec![1; 100]);
        assert_eq!(s.sorted().highest_supported(), 90.0);
        let mut s = Samples(vec![1; 1000]);
        assert_eq!(s.sorted().highest_supported(), 99.0);
        let mut s = Samples(vec![1; 10_000]);
        assert_eq!(s.sorted().highest_supported(), 99.9);
    }

    #[test]
    fn quantiles_interpolate_and_pick_the_undisturbed_side() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.25), 25.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // 60 % of the rounds undisturbed at 100 ns, 40 % disturbed at 130 ns
        let mut times = vec![100.0; 60];
        times.extend(vec![130.0; 40]);
        assert_eq!(undisturbed_time(&times), 100.0);
        let rates: Vec<f64> = times.iter().map(|t| 1e9 / t).collect();
        assert_eq!(undisturbed_rate(&rates), 1e7);
    }

    #[test]
    fn push_saturates() {
        let mut s = Samples::with_capacity(2);
        s.push_ns(12);
        s.push_ns(u128::from(u64::MAX));
        assert_eq!(s.0, vec![12, u32::MAX]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
