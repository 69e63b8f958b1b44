//! Measurement helpers: summaries and percentiles.

/// An accumulating sample set with summary statistics.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Move every sample of `other` onto the end of this set, in
    /// `other`'s order, leaving `other` empty. Appending to an empty set
    /// takes `other`'s storage without copying a value.
    pub fn append(&mut self, other: &mut Samples) {
        if self.values.is_empty() {
            std::mem::swap(&mut self.values, &mut other.values);
        } else {
            self.values.append(&mut other.values);
        }
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sum() / self.values.len() as f64
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }

    /// The p-th percentile (0..=100) by nearest-rank on the sorted samples.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let n = self.values.len();
        // lint: allow(cast) — percentile rank in [0, n] by construction, clamped next line
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    /// Smallest sample.
    pub fn min(&mut self) -> f64 {
        self.percentile(0.0)
    }

    /// Largest sample.
    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    /// The raw samples, in insertion (or sorted, after percentile) order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let mut s = Samples::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.percentile(50.0), 3.0);
        s.push(0.5);
        assert_eq!(s.min(), 0.5);
    }

    #[test]
    fn append_moves_samples_in_order() {
        let mut all = Samples::new();
        let mut a = Samples::new();
        for v in [3.0, 1.0] {
            a.push(v);
        }
        let mut b = Samples::new();
        for v in [2.0, 0.5] {
            b.push(v);
        }
        all.append(&mut a);
        all.append(&mut b);
        assert_eq!(all.values(), &[3.0, 1.0, 2.0, 0.5]);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(all.min(), 0.5);
    }

    #[test]
    fn empty_samples_are_zero() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(90.0), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert!(s.is_empty());
    }
}
