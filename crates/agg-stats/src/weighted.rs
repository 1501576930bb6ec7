//! Inverse-variance weighting of independent unbiased estimators.
//!
//! This is the combination rule behind Theorem 4.2 (two estimators) and
//! Corollary 4.2 (one estimator per age group): given independent unbiased
//! estimates `e_x` with variances `v_x`, the minimum-variance unbiased
//! linear combination weights each by `1/v_x`, achieving variance
//! `1 / Σ(1/v_x)` — equation (37) of the paper.

/// One component estimate: value and (estimated) variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// The estimate.
    pub estimate: f64,
    /// Its variance (≥ 0; 0 means exact).
    pub variance: f64,
}

impl Component {
    /// Creates a component.
    pub fn new(estimate: f64, variance: f64) -> Self {
        Self { estimate, variance }
    }
}

/// The optimally combined estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Combined {
    /// The weighted estimate.
    pub estimate: f64,
    /// Its variance, `1/Σ(1/v_x)` (0 if any component was exact).
    pub variance: f64,
    /// Number of components that contributed.
    pub used: usize,
}

/// Combines independent unbiased estimates by inverse-variance weighting.
///
/// Rules for degenerate inputs:
/// * components with non-finite estimate or variance are skipped;
/// * if any component has zero variance, those (exact) components are
///   averaged and the variance is 0;
/// * `None` if no usable component remains.
pub fn combine(components: &[Component]) -> Option<Combined> {
    let usable: Vec<&Component> = components
        .iter()
        .filter(|c| c.estimate.is_finite() && c.variance.is_finite() && c.variance >= 0.0)
        .collect();
    if usable.is_empty() {
        return None;
    }
    let exact: Vec<&&Component> = usable.iter().filter(|c| c.variance == 0.0).collect();
    if !exact.is_empty() {
        let mean = exact.iter().map(|c| c.estimate).sum::<f64>() / exact.len() as f64;
        return Some(Combined { estimate: mean, variance: 0.0, used: exact.len() });
    }
    let mut inv_sum = 0.0;
    let mut weighted = 0.0;
    for c in &usable {
        let w = 1.0 / c.variance;
        inv_sum += w;
        weighted += w * c.estimate;
    }
    Some(Combined { estimate: weighted / inv_sum, variance: 1.0 / inv_sum, used: usable.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_variances_average() {
        let c = combine(&[Component::new(10.0, 4.0), Component::new(20.0, 4.0)]).unwrap();
        assert!((c.estimate - 15.0).abs() < 1e-12);
        assert!((c.variance - 2.0).abs() < 1e-12);
        assert_eq!(c.used, 2);
    }

    #[test]
    fn lower_variance_dominates() {
        let c = combine(&[Component::new(10.0, 1.0), Component::new(20.0, 9.0)]).unwrap();
        // Weights 0.9 / 0.1.
        assert!((c.estimate - 11.0).abs() < 1e-12);
        assert!((c.variance - 0.9).abs() < 1e-12);
    }

    #[test]
    fn combined_variance_never_exceeds_best_component() {
        let comps = [Component::new(5.0, 3.0), Component::new(6.0, 10.0), Component::new(4.0, 0.5)];
        let c = combine(&comps).unwrap();
        assert!(c.variance <= 0.5 + 1e-12);
    }

    #[test]
    fn exact_components_short_circuit() {
        let c = combine(&[
            Component::new(10.0, 0.0),
            Component::new(99.0, 5.0),
            Component::new(12.0, 0.0),
        ])
        .unwrap();
        assert!((c.estimate - 11.0).abs() < 1e-12);
        assert_eq!(c.variance, 0.0);
        assert_eq!(c.used, 2);
    }

    #[test]
    fn skips_non_finite() {
        let c = combine(&[
            Component::new(f64::NAN, 1.0),
            Component::new(3.0, f64::INFINITY),
            Component::new(7.0, 2.0),
        ])
        .unwrap();
        assert_eq!(c.used, 1);
        assert!((c.estimate - 7.0).abs() < 1e-12);
        assert!(combine(&[Component::new(f64::NAN, 1.0)]).is_none());
        assert!(combine(&[]).is_none());
    }
}
