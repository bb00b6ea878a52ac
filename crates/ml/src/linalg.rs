//! Minimal dense linear-algebra helpers.
//!
//! Deliberately simple loops: the point of this substrate is computational
//! *shape* (a linear model is a dot product; an MLP is a few mat-vecs), not
//! peak FLOPs. Everything operates on `f32` slices.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if lengths differ.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `y += alpha * x`, elementwise.
pub(crate) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Squared Euclidean distance.
pub(crate) fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Index of the maximum element; ties break to the lowest index.
/// Returns 0 for an empty slice.
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// In-place numerically-stable softmax.
pub fn softmax(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Indices of the `k` largest elements, descending by value.
pub fn top_k(xs: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        xs[b]
            .partial_cmp(&xs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn sq_dist_is_zero_for_identical() {
        let v = vec![0.5f32; 16];
        assert_eq!(sq_dist(&v, &v), 0.0);
        assert_eq!(sq_dist(&[0.0], &[3.0]), 9.0);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let mut xs = vec![1000.0, 1001.0];
        softmax(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn top_k_returns_descending_indices() {
        let xs = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k(&xs, 2), vec![1, 3]);
        assert_eq!(top_k(&xs, 10).len(), 4);
    }
}
