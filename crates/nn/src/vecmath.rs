//! Flat-vector kernels for the model-agnostic learning frameworks.
//!
//! Domain Negotiation, Domain Regularization, PCGrad and the meta-learning
//! baselines all manipulate whole-model parameter vectors. These are the
//! only operations they need.

/// `y += alpha * x`.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Inner product `<a, b>`, accumulated in f64 for stability.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f32]) -> f64 {
    dot(a, a).sqrt()
}

/// `out = a - b` into a fresh vector.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Scales in place.
pub fn scale(a: &mut [f32], s: f32) {
    for x in a.iter_mut() {
        *x *= s;
    }
}

/// Linear interpolation toward a target: `theta += beta * (target - theta)`.
///
/// This is the Reptile-style outer update used by Domain Negotiation
/// (paper Eq. 3) and Domain Regularization (paper Eq. 8).
pub fn lerp_toward(theta: &mut [f32], target: &[f32], beta: f32) {
    debug_assert_eq!(theta.len(), target.len());
    for (t, &g) in theta.iter_mut().zip(target) {
        *t += beta * (g - *t);
    }
}

/// Cosine similarity between two vectors (0 when either is zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Projects `g` onto the normal plane of `other` when they conflict
/// (inner product < 0), as in PCGrad: `g -= (<g,o>/<o,o>) * o`.
///
/// No-op when the gradients agree or `other` is zero.
pub fn project_conflict(g: &mut [f32], other: &[f32]) {
    let ip = dot(g, other);
    if ip >= 0.0 {
        return;
    }
    let denom = dot(other, other);
    if denom == 0.0 {
        return;
    }
    let coeff = (ip / denom) as f32;
    for (gi, &oi) in g.iter_mut().zip(other) {
        *gi -= coeff * oi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_dot_norm() {
        let mut y = vec![1.0, 2.0];
        axpy(&mut y, 2.0, &[3.0, 4.0]);
        assert_eq!(y, vec![7.0, 10.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_toward_endpoints() {
        let mut theta = vec![0.0, 10.0];
        let target = vec![10.0, 0.0];
        let mut half = theta.clone();
        lerp_toward(&mut half, &target, 0.5);
        assert_eq!(half, vec![5.0, 5.0]);
        // beta = 1 lands exactly on the target (DN degrades to Alternate).
        lerp_toward(&mut theta, &target, 1.0);
        assert_eq!(theta, target);
    }

    #[test]
    fn cosine_bounds() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn project_conflict_removes_negative_component() {
        // Anti-parallel becomes zero.
        let mut g = vec![-1.0, 0.0];
        project_conflict(&mut g, &[2.0, 0.0]);
        assert!(norm(&g) < 1e-9);
        // Conflicting gradients become orthogonal.
        let mut g = vec![1.0, -1.0];
        let o = vec![0.0, 2.0];
        project_conflict(&mut g, &o);
        assert!(dot(&g, &o).abs() < 1e-9);
        assert_eq!(g[0], 1.0);
        // Agreeing gradients untouched.
        let mut g = vec![1.0, 1.0];
        project_conflict(&mut g, &[1.0, 0.0]);
        assert_eq!(g, vec![1.0, 1.0]);
    }

    #[test]
    fn add_sub_scale() {
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        let mut v = vec![2.0, -4.0];
        scale(&mut v, 0.5);
        assert_eq!(v, vec![1.0, -2.0]);
    }
}
