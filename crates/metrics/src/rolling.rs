//! Incremental rolling-FID estimation.
//!
//! The serving session exposes a live FID estimate over the most recent
//! responses in every snapshot. Refitting a Gaussian from scratch over the
//! tail costs `O(window · d²)` per snapshot; at tight observer cadences
//! that refit dominates snapshot time. [`RollingFid`] maintains the
//! windowed first and second moments incrementally — `O(d)` + `O(d²)` per
//! pushed sample, independent of the window length — and only pays the
//! eigendecomposition when an estimate is actually requested.
//!
//! The estimator keeps the raw feature vectors in one flat `window × d`
//! ring alongside the running sum `Σx` and scatter `Σxxᵀ`, so evicting the
//! oldest sample is a subtraction rather than a refit, and once the window
//! has filled a push allocates nothing. Floating-point drift from the
//! add/subtract cycle is bounded by rebuilding the moments exactly from the
//! ring every [`REBUILD_INTERVAL`] pushes.

use diffserve_linalg::Mat;

use crate::fid::{frechet_distance, GaussianStats};

/// Exact moment rebuilds happen every this many pushes, bounding the
/// accumulated round-off of the incremental add/subtract updates.
pub const REBUILD_INTERVAL: usize = 4096;

/// Windowed FID estimator with `O(d²)`-per-sample incremental updates.
///
/// Semantically equivalent to fitting [`GaussianStats`] over the last
/// `window` pushed feature vectors (sample covariance, `ridge · I` added
/// to the diagonal) and taking the Fréchet distance to the reference —
/// but without re-scanning the window on every estimate.
///
/// # Examples
///
/// ```
/// use diffserve_linalg::Mat;
/// use diffserve_metrics::{GaussianStats, RollingFid};
///
/// let reference = GaussianStats::from_moments(vec![0.0, 0.0], Mat::identity(2));
/// let mut rolling = RollingFid::new(reference, 4, 1e-3);
/// assert!(rolling.estimate().is_nan()); // too few samples
/// for i in 0..8 {
///     rolling.push(&[i as f64, -(i as f64)]);
/// }
/// assert_eq!(rolling.len(), 4); // only the window is retained
/// assert!(rolling.estimate().is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct RollingFid {
    reference: GaussianStats,
    window: usize,
    ridge: f64,
    /// Retained samples, row-major: slot `i` holds `ring[i·d..(i+1)·d]`.
    /// Grows to `window` slots, then each push overwrites the oldest.
    ring: Vec<f64>,
    /// Slot of the oldest retained sample.
    head: usize,
    /// Running `Σx` over the ring.
    sum: Vec<f64>,
    /// Running `Σxxᵀ` over the ring (upper triangle only).
    scatter: Mat,
    pushes_since_rebuild: usize,
}

impl RollingFid {
    /// Creates an estimator comparing the last `window` samples against
    /// `reference`, regularizing the windowed covariance with `ridge · I`.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (no covariance can be fit) or the reference
    /// has zero dimension.
    pub fn new(reference: GaussianStats, window: usize, ridge: f64) -> Self {
        assert!(window >= 2, "rolling FID needs a window of at least 2");
        let d = reference.dim();
        assert!(d > 0, "reference must have at least one feature dimension");
        RollingFid {
            reference,
            window,
            ridge,
            ring: Vec::new(),
            head: 0,
            sum: vec![0.0; d],
            scatter: Mat::zeros(d, d),
            pushes_since_rebuild: 0,
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len() / self.sum.len()
    }

    /// `true` if no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The window length this estimator was built with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pushes one feature vector, evicting the oldest once the window is
    /// full.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match the reference dimensionality.
    pub fn push(&mut self, features: &[f64]) {
        assert_eq!(
            features.len(),
            self.reference.dim(),
            "feature dimension mismatch"
        );
        accumulate(&mut self.sum, &mut self.scatter, features, 1.0);
        if self.len() < self.window {
            self.ring.extend_from_slice(features);
        } else {
            // Full: the new sample is counted before the oldest is
            // subtracted, then takes the oldest's slot.
            let d = self.sum.len();
            let slot = &mut self.ring[self.head * d..(self.head + 1) * d];
            accumulate(&mut self.sum, &mut self.scatter, slot, -1.0);
            slot.copy_from_slice(features);
            self.head = (self.head + 1) % self.window;
        }
        self.pushes_since_rebuild += 1;
        if self.pushes_since_rebuild >= REBUILD_INTERVAL {
            self.rebuild();
        }
    }

    /// FID of the current window against the reference; `NaN` with fewer
    /// than two samples (matching [`GaussianStats::fit`]'s requirement) or
    /// on numerical failure.
    pub fn estimate(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return f64::NAN;
        }
        let d = self.sum.len();
        let inv_n = 1.0 / n as f64;
        let mean: Vec<f64> = self.sum.iter().map(|s| s * inv_n).collect();
        // Sample covariance from the moments: (Σxxᵀ − n·μμᵀ) / (n − 1).
        let denom = (n - 1) as f64;
        let mut cov = Mat::zeros(d, d);
        for a in 0..d {
            for b in a..d {
                let c = (self.scatter[(a, b)] - n as f64 * mean[a] * mean[b]) / denom;
                cov[(a, b)] = c;
                cov[(b, a)] = c;
            }
            cov[(a, a)] += self.ridge;
        }
        let stats = GaussianStats::from_moments(mean, cov);
        frechet_distance(&stats, &self.reference).unwrap_or(f64::NAN)
    }

    /// Recomputes the moments exactly from the ring, oldest sample first.
    fn rebuild(&mut self) {
        self.sum.fill(0.0);
        self.scatter.as_mut_slice().fill(0.0);
        let d = self.sum.len();
        let (newer, older) = self.ring.split_at(self.head * d);
        for x in older.chunks_exact(d).chain(newer.chunks_exact(d)) {
            accumulate(&mut self.sum, &mut self.scatter, x, 1.0);
        }
        self.pushes_since_rebuild = 0;
    }
}

/// Adds (`sign = 1.0`) or removes (`sign = -1.0`) one sample's contribution
/// to the running moments. Only the upper triangle of the scatter is
/// maintained, one row slice at a time; [`RollingFid::estimate`] mirrors it.
fn accumulate(sum: &mut [f64], scatter: &mut Mat, x: &[f64], sign: f64) {
    let d = x.len();
    for (s, &v) in sum.iter_mut().zip(x) {
        *s += sign * v;
    }
    let scatter = scatter.as_mut_slice();
    for (a, &xa) in x.iter().enumerate() {
        let scaled = sign * xa;
        for (s, &xb) in scatter[a * d + a..(a + 1) * d].iter_mut().zip(&x[a..]) {
            *s += scaled * xb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fid::FidError;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn reference_2d() -> GaussianStats {
        GaussianStats::from_moments(vec![0.2, -0.4], Mat::from_rows(&[&[1.5, 0.2], &[0.2, 0.9]]))
    }

    /// The batch computation the incremental path must agree with: fit a
    /// Gaussian over exactly the window tail and take the distance.
    fn batch_estimate(
        samples: &[Vec<f64>],
        window: usize,
        ridge: f64,
        reference: &GaussianStats,
    ) -> f64 {
        let tail = &samples[samples.len().saturating_sub(window)..];
        if tail.len() < 2 {
            return f64::NAN;
        }
        let rows: Vec<&[f64]> = tail.iter().map(|v| v.as_slice()).collect();
        match GaussianStats::fit(&Mat::from_rows(&rows), ridge) {
            Ok(g) => frechet_distance(&g, reference).unwrap_or(f64::NAN),
            Err(FidError::TooFewSamples { .. }) => f64::NAN,
            Err(_) => f64::NAN,
        }
    }

    #[test]
    fn nan_below_two_samples() {
        let mut r = RollingFid::new(reference_2d(), 8, 1e-3);
        assert!(r.estimate().is_nan());
        r.push(&[0.1, 0.2]);
        assert!(r.estimate().is_nan());
        r.push(&[0.3, -0.1]);
        assert!(r.estimate().is_finite());
    }

    #[test]
    fn window_is_enforced() {
        let mut r = RollingFid::new(reference_2d(), 3, 1e-3);
        for i in 0..10 {
            r.push(&[i as f64, 1.0]);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.window(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn matches_batch_fit_through_evictions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let reference = reference_2d();
        let mut rolling = RollingFid::new(reference.clone(), 16, 1e-3);
        let mut seen: Vec<Vec<f64>> = Vec::new();
        for _ in 0..200 {
            let x = vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)];
            rolling.push(&x);
            seen.push(x);
            let inc = rolling.estimate();
            let batch = batch_estimate(&seen, 16, 1e-3, &reference);
            if batch.is_nan() {
                assert!(inc.is_nan());
            } else {
                assert!(
                    (inc - batch).abs() < 1e-8,
                    "incremental {inc} vs batch {batch} after {} pushes",
                    seen.len()
                );
            }
        }
    }

    #[test]
    fn rebuild_keeps_the_estimate_exact() {
        // Push past the rebuild interval; the periodic exact recompute
        // must leave the estimate agreeing with the batch fit.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let reference = reference_2d();
        let mut rolling = RollingFid::new(reference.clone(), 8, 1e-3);
        let mut seen: Vec<Vec<f64>> = Vec::new();
        for _ in 0..(REBUILD_INTERVAL + 32) {
            let x = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            rolling.push(&x);
            seen.push(x);
        }
        let inc = rolling.estimate();
        let batch = batch_estimate(&seen, 8, 1e-3, &reference);
        assert!((inc - batch).abs() < 1e-8, "{inc} vs {batch}");
    }

    /// The `VecDeque`-of-rows estimator the flat ring replaced, kept as a
    /// reference model: same push, eviction and rebuild order, per-element
    /// `Mat` updates.
    struct DequeModel {
        window: usize,
        buf: std::collections::VecDeque<Vec<f64>>,
        sum: Vec<f64>,
        scatter: Mat,
        pushes_since_rebuild: usize,
    }

    impl DequeModel {
        fn new(window: usize, d: usize) -> Self {
            DequeModel {
                window,
                buf: std::collections::VecDeque::new(),
                sum: vec![0.0; d],
                scatter: Mat::zeros(d, d),
                pushes_since_rebuild: 0,
            }
        }

        fn push(&mut self, x: &[f64]) {
            self.accumulate(x, 1.0);
            self.buf.push_back(x.to_vec());
            if self.buf.len() > self.window {
                let old = self.buf.pop_front().unwrap();
                self.accumulate(&old, -1.0);
            }
            self.pushes_since_rebuild += 1;
            if self.pushes_since_rebuild >= REBUILD_INTERVAL {
                self.sum.iter_mut().for_each(|s| *s = 0.0);
                self.scatter = Mat::zeros(self.sum.len(), self.sum.len());
                let samples: Vec<Vec<f64>> = self.buf.iter().cloned().collect();
                for x in &samples {
                    self.accumulate(x, 1.0);
                }
                self.pushes_since_rebuild = 0;
            }
        }

        fn accumulate(&mut self, x: &[f64], sign: f64) {
            for (s, &v) in self.sum.iter_mut().zip(x) {
                *s += sign * v;
            }
            for (a, &xa) in x.iter().enumerate() {
                for (b, &xb) in x.iter().enumerate().skip(a) {
                    self.scatter[(a, b)] += sign * xa * xb;
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The flat ring holds bit-identical moments to the reference model on
    /// every push, through window wraps and across two rebuilds, so its
    /// estimates are bit-identical too.
    #[test]
    fn ring_matches_deque_model_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let reference = GaussianStats::from_moments(vec![0.1, -0.2, 0.3], Mat::identity(3));
        let window = 7;
        let mut ring = RollingFid::new(reference.clone(), window, 1e-3);
        let mut model = DequeModel::new(window, 3);
        for i in 0..(2 * REBUILD_INTERVAL + 40) {
            let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect();
            ring.push(&x);
            model.push(&x);
            assert_eq!(ring.len(), model.buf.len());
            assert_eq!(bits(&ring.sum), bits(&model.sum), "sum after push {i}");
            assert_eq!(
                bits(ring.scatter.as_slice()),
                bits(model.scatter.as_slice()),
                "scatter after push {i}"
            );
            let retained: Vec<f64> = model.buf.iter().flatten().copied().collect();
            let (newer, older) = ring.ring.split_at(ring.head * 3);
            let ring_order: Vec<f64> = older.iter().chain(newer).copied().collect();
            assert_eq!(bits(&ring_order), bits(&retained), "samples after push {i}");
        }
        assert!(ring.estimate().is_finite());
    }

    #[test]
    #[should_panic(expected = "window of at least 2")]
    fn window_of_one_rejected() {
        let _ = RollingFid::new(reference_2d(), 1, 1e-3);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let mut r = RollingFid::new(reference_2d(), 4, 1e-3);
        r.push(&[1.0, 2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Incremental and batch estimates agree for random streams,
        /// window sizes, and ridges — including streams shorter than the
        /// window and streams that wrap it several times.
        #[test]
        fn incremental_matches_batch(
            seed in 0u64..1000,
            window in 2usize..24,
            n in 0usize..80,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let reference = reference_2d();
            let mut rolling = RollingFid::new(reference.clone(), window, 1e-3);
            let mut seen: Vec<Vec<f64>> = Vec::new();
            for _ in 0..n {
                let x = vec![rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)];
                rolling.push(&x);
                seen.push(x);
            }
            let inc = rolling.estimate();
            let batch = batch_estimate(&seen, window, 1e-3, &reference);
            if batch.is_nan() {
                prop_assert!(inc.is_nan());
            } else {
                prop_assert!((inc - batch).abs() < 1e-7, "{} vs {}", inc, batch);
            }
        }
    }
}
