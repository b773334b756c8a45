//! Online moment accumulators.
//!
//! The distortion model's single parameter σ is estimated (§IV-C) as the mean
//! of the per-component standard deviations of observed distortion vectors;
//! [`VectorMoments`] accumulates those per-component statistics in one pass
//! with Welford's numerically stable update.

/// Welford online estimator of mean and variance for one scalar stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (`NaN` when empty).
    pub fn variance_population(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator (parallel Welford / Chan et al.).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        *self = Moments { n, mean, m2 };
    }
}

/// Per-component moments of a stream of fixed-dimension vectors.
#[derive(Clone, Debug)]
pub struct VectorMoments {
    dims: Vec<Moments>,
}

impl VectorMoments {
    /// Creates an accumulator for `dims`-dimensional vectors.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0);
        VectorMoments {
            dims: vec![Moments::new(); dims],
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// Adds one vector.
    ///
    /// # Panics
    /// If the vector length differs from the configured dimension.
    pub fn add(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.dims.len(), "dimension mismatch");
        for (m, &x) in self.dims.iter_mut().zip(v) {
            m.add(x);
        }
    }

    /// Adds one distortion vector given as signed component differences.
    pub fn add_i32(&mut self, v: &[i32]) {
        assert_eq!(v.len(), self.dims.len(), "dimension mismatch");
        for (m, &x) in self.dims.iter_mut().zip(v) {
            m.add(f64::from(x));
        }
    }

    /// Number of vectors accumulated.
    pub fn count(&self) -> u64 {
        self.dims[0].count()
    }

    /// Per-component standard deviations `σ_j`.
    pub fn std_devs(&self) -> Vec<f64> {
        self.dims.iter().map(Moments::std_dev).collect()
    }

    /// Per-component means.
    pub fn means(&self) -> Vec<f64> {
        self.dims.iter().map(Moments::mean).collect()
    }

    /// The paper's pooled σ̄: the mean of the per-component standard
    /// deviations (§IV-C). This is the single parameter of the isotropic
    /// distortion model and the severity measure of Table I.
    pub fn mean_sigma(&self) -> f64 {
        let s = self.std_devs();
        s.iter().sum::<f64>() / s.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let mut m = Moments::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.add(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance_population() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_are_nan() {
        let mut m = Moments::new();
        assert!(m.mean().is_nan());
        assert!(m.variance().is_nan());
        m.add(3.0);
        assert_eq!(m.mean(), 3.0);
        assert!(m.variance().is_nan());
        assert_eq!(m.variance_population(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 20.0).collect();
        let mut whole = Moments::new();
        for &x in &data {
            whole.add(x);
        }
        let mut a = Moments::new();
        let mut b = Moments::new();
        for &x in &data[..33] {
            a.add(x);
        }
        for &x in &data[33..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Moments::new();
        a.add(1.0);
        a.add(2.0);
        let before = (a.count(), a.mean(), a.variance_population());
        a.merge(&Moments::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance_population()));
        let mut e = Moments::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn welford_stable_for_large_offset() {
        // Classic catastrophic-cancellation case: huge mean, small variance.
        let mut m = Moments::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            m.add(x);
        }
        assert!((m.variance() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn vector_moments_per_component() {
        let mut vm = VectorMoments::new(2);
        vm.add(&[1.0, 10.0]);
        vm.add(&[3.0, 10.0]);
        vm.add(&[5.0, 10.0]);
        let means = vm.means();
        assert!((means[0] - 3.0).abs() < 1e-12);
        assert!((means[1] - 10.0).abs() < 1e-12);
        let sd = vm.std_devs();
        assert!((sd[0] - 2.0).abs() < 1e-12);
        assert!(sd[1].abs() < 1e-12);
        assert_eq!(vm.count(), 3);
    }

    #[test]
    fn mean_sigma_pools_components() {
        let mut vm = VectorMoments::new(2);
        // Component 0 has sd 2, component 1 has sd 4 → σ̄ = 3.
        for i in 0..1000 {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            vm.add(&[2.0 * s, 4.0 * s]);
        }
        assert!((vm.mean_sigma() - 3.0).abs() < 0.01);
    }

    #[test]
    fn add_i32_matches_add() {
        let mut a = VectorMoments::new(3);
        let mut b = VectorMoments::new(3);
        a.add_i32(&[-4, 0, 200]);
        b.add(&[-4.0, 0.0, 200.0]);
        assert_eq!(a.means(), b.means());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_rejected() {
        let mut vm = VectorMoments::new(3);
        vm.add(&[1.0, 2.0]);
    }
}
