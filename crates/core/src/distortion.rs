//! Distortion models: the probability law of `ΔS = S(m) − S(t(m))`.
//!
//! A statistical query of expectation α (§II, eq. 1) searches the region of
//! feature space holding mass ≥ α of `p_ΔS(X − Q)`. The only structural
//! assumption the index needs (§IV) is *component independence*, so the mass
//! of an axis-aligned block factorises into per-dimension interval masses —
//! this trait exposes exactly that factorisation.
//!
//! Two concrete models are provided:
//!
//! * [`IsotropicNormal`] — the paper's model (§IV-C): every component is
//!   `N(0, σ²)` with one pooled σ, estimated as the mean of per-component
//!   standard deviations;
//! * [`DiagonalNormal`] — the "more sophisticated model" the paper leaves as
//!   future work: per-component σ_j. Used by the ablation benchmark.

use s3_stats::{Normal, VectorMoments};

/// A component-independent probability model of the distortion vector.
pub trait DistortionModel: Sync {
    /// Number of fingerprint components.
    fn dims(&self) -> usize;

    /// `P(ΔS_j ∈ [a, b))` for component `j`.
    fn component_mass(&self, dim: usize, a: f64, b: f64) -> f64;

    /// The pooled severity σ̄ — the paper's severity measure (Table I).
    fn severity(&self) -> f64;
}

/// The paper's isotropic model: iid `N(0, σ²)` components.
#[derive(Clone, Debug)]
pub struct IsotropicNormal {
    dims: usize,
    component: Normal,
}

impl IsotropicNormal {
    /// Creates the model for `dims` components with common deviation `sigma`.
    pub fn new(dims: usize, sigma: f64) -> Self {
        assert!(dims > 0);
        IsotropicNormal {
            dims,
            component: Normal::new(0.0, sigma),
        }
    }

    /// The model's σ.
    pub fn sigma(&self) -> f64 {
        self.component.sigma()
    }

    /// Estimates σ from observed distortion vectors (§IV-C): the mean of the
    /// per-component standard deviations.
    ///
    /// # Panics
    /// If fewer than two vectors are provided.
    pub fn fit(dims: usize, distortions: impl IntoIterator<Item = Vec<f64>>) -> Self {
        let mut vm = VectorMoments::new(dims);
        for d in distortions {
            vm.add(&d);
        }
        assert!(vm.count() >= 2, "need at least two distortion samples");
        IsotropicNormal::new(dims, vm.mean_sigma())
    }
}

impl DistortionModel for IsotropicNormal {
    fn dims(&self) -> usize {
        self.dims
    }

    #[inline]
    fn component_mass(&self, _dim: usize, a: f64, b: f64) -> f64 {
        self.component.interval(a, b)
    }

    fn severity(&self) -> f64 {
        self.component.sigma()
    }
}

/// Per-component normal model `ΔS_j ~ N(0, σ_j²)` (paper's future work).
#[derive(Clone, Debug)]
pub struct DiagonalNormal {
    components: Vec<Normal>,
}

impl DiagonalNormal {
    /// Creates the model from per-component deviations.
    pub fn new(sigmas: &[f64]) -> Self {
        assert!(!sigmas.is_empty());
        DiagonalNormal {
            components: sigmas.iter().map(|&s| Normal::new(0.0, s)).collect(),
        }
    }

    /// Per-component σ_j.
    pub fn sigmas(&self) -> Vec<f64> {
        self.components.iter().map(Normal::sigma).collect()
    }

    /// Estimates per-component deviations from observed distortion vectors.
    ///
    /// Components with (near-)zero observed deviation are floored at
    /// `min_sigma` so the model stays proper.
    pub fn fit(
        dims: usize,
        distortions: impl IntoIterator<Item = Vec<f64>>,
        min_sigma: f64,
    ) -> Self {
        assert!(min_sigma > 0.0);
        let mut vm = VectorMoments::new(dims);
        for d in distortions {
            vm.add(&d);
        }
        assert!(vm.count() >= 2, "need at least two distortion samples");
        let sigmas: Vec<f64> = vm.std_devs().iter().map(|&s| s.max(min_sigma)).collect();
        DiagonalNormal::new(&sigmas)
    }
}

impl DistortionModel for DiagonalNormal {
    fn dims(&self) -> usize {
        self.components.len()
    }

    #[inline]
    fn component_mass(&self, dim: usize, a: f64, b: f64) -> f64 {
        self.components[dim].interval(a, b)
    }

    fn severity(&self) -> f64 {
        let s: f64 = self.components.iter().map(Normal::sigma).sum();
        s / self.components.len() as f64
    }
}

/// Test double shared by the engines' unit tests: counts `component_mass`
/// integrations — the filter's only use of the model under `Refine::All`,
/// so the count is the filter work done.
#[cfg(test)]
pub(crate) struct CountingModel {
    inner: IsotropicNormal,
    integrations: std::sync::atomic::AtomicU64,
}

#[cfg(test)]
impl CountingModel {
    pub(crate) fn new(inner: IsotropicNormal) -> CountingModel {
        CountingModel {
            inner,
            integrations: 0.into(),
        }
    }

    /// Integrations since the last call.
    pub(crate) fn take_integrations(&self) -> u64 {
        self.integrations
            .swap(0, std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
impl DistortionModel for CountingModel {
    fn dims(&self) -> usize {
        self.inner.dims()
    }
    fn component_mass(&self, dim: usize, a: f64, b: f64) -> f64 {
        self.integrations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.component_mass(dim, a, b)
    }
    fn severity(&self) -> f64 {
        self.inner.severity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotropic_mass_matches_normal_interval() {
        let m = IsotropicNormal::new(20, 20.0);
        let n = Normal::new(0.0, 20.0);
        for (a, b) in [(-10.0, 10.0), (0.0, 40.0), (-100.0, -60.0)] {
            assert_eq!(m.component_mass(3, a, b), n.interval(a, b));
        }
    }

    #[test]
    fn isotropic_full_space_mass_one() {
        let m = IsotropicNormal::new(5, 18.0);
        let p: f64 = (0..5).map(|d| m.component_mass(d, -1e5, 1e5)).product();
        assert!((p - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fit_recovers_pooled_sigma() {
        // Two components with sd 2 and 4 → σ̄ = 3.
        let data: Vec<Vec<f64>> = (0..2000)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![2.0 * s, 4.0 * s]
            })
            .collect();
        let m = IsotropicNormal::fit(2, data);
        assert!((m.sigma() - 3.0).abs() < 0.01, "sigma={}", m.sigma());
    }

    #[test]
    fn diagonal_respects_per_component_sigmas() {
        let m = DiagonalNormal::new(&[1.0, 10.0]);
        // Same interval has much more mass under the tight component.
        let tight = m.component_mass(0, -2.0, 2.0);
        let wide = m.component_mass(1, -2.0, 2.0);
        assert!(tight > 0.9 && wide < 0.3);
    }

    #[test]
    fn diagonal_fit_floors_zero_variance() {
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![if i % 2 == 0 { 3.0 } else { -3.0 }, 0.0])
            .collect();
        let m = DiagonalNormal::fit(2, data, 0.5);
        let s = m.sigmas();
        assert!((s[0] - 3.0).abs() < 0.1);
        assert_eq!(s[1], 0.5);
    }

    #[test]
    fn severity_is_mean_sigma() {
        let m = DiagonalNormal::new(&[1.0, 3.0]);
        assert!((m.severity() - 2.0).abs() < 1e-12);
        let iso = IsotropicNormal::new(7, 23.43);
        assert_eq!(iso.severity(), 23.43);
    }
}
