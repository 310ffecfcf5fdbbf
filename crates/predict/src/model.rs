//! The linear cost model: normalized-LMS regression in log-cost space.

use crate::feature::{FeatureVec, FEATURE_DIM};

/// Learning rate for the normalized-LMS update. NLMS divides each step by
/// the feature vector's squared norm, so rates near 1 are stable; 0.5
/// converges within a handful of samples per region without oscillating.
const LEARNING_RATE: f64 = 0.5;

/// Clamp on the raw (log-space) activation before exponentiating, so a
/// half-trained model can never predict `inf` or `0`.
const RAW_CLAMP: f64 = 80.0;

/// Half-width (in nats) of the calibration window around the observed
/// target range: predictions may extrapolate at most `e³ ≈ 20x` beyond
/// the cheapest/costliest measurement the model has seen.
const CALIBRATION_SLACK: f64 = 3.0;

/// An online linear regressor over hashed plan features, predicting the
/// *logarithm* of a candidate's cost in nanoseconds.
///
/// Log space matters twice: region times span orders of magnitude (a
/// fused GEMM block vs. a whole-placement mini-batch), and ranking — the
/// only thing the pruning policy needs — is preserved exactly by the
/// monotone exp. Updates are normalized LMS (`w += lr·err·x / ‖x‖²`),
/// which is scale-free in the features and deterministic: the driver
/// applies updates sequentially in commit (candidate) order, which is
/// pinned by the property suite.
#[derive(Debug, Clone)]
pub struct CostModel {
    weights: [f64; FEATURE_DIM],
    bias: f64,
    updates: u64,
    /// Observed log-target range, for the calibration clamp: a linear
    /// model extrapolates unboundedly on unseen feature combinations, but
    /// a region's cost can't plausibly leave the measured envelope by
    /// orders of magnitude.
    t_min: f64,
    t_max: f64,
}

/// A [`CostModel`]'s learned state as plain owned data, produced by
/// [`CostModel::to_state`] so its bits can be compared.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModelState {
    /// Feature weights (length [`FEATURE_DIM`]).
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
    /// Online updates applied so far.
    pub updates: u64,
    /// Calibration envelope, low edge (log-ns).
    pub t_min: f64,
    /// Calibration envelope, high edge (log-ns).
    pub t_max: f64,
}

impl CostModel {
    /// A fresh, untrained model (predicts `e⁰ = 1 ns` everywhere).
    pub fn new() -> Self {
        CostModel {
            weights: [0.0; FEATURE_DIM],
            bias: 0.0,
            updates: 0,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
        }
    }

    /// The weights' dot product with `f`.
    ///
    /// Scoring and training visit only `f`'s touched buckets, in ascending
    /// order, and give the same bits as a pass over all [`FEATURE_DIM`]
    /// buckets whenever weights, features and costs are finite (as the
    /// driver's always are). An untouched bucket holds `+0.0`, so the full
    /// pass only adds `w·0 = ±0` terms: those leave a nonzero running sum
    /// unchanged, a zero sum's sign cannot survive adding the bias (which
    /// is never `-0.0`), `x·x` terms add `+0.0` to a norm that starts at 1,
    /// and adding `±0` to a weight changes it only if it is `-0.0`, which
    /// no weight starting at `+0.0` ever becomes.
    fn dot(&self, f: &FeatureVec) -> f64 {
        f.touched().map(|(b, x)| self.weights[b] * x).sum()
    }

    /// The unclamped linear activation (training target space) at `dot`.
    fn linear(&self, dot: f64) -> f64 {
        (self.bias + dot).clamp(-RAW_CLAMP, RAW_CLAMP)
    }

    fn raw(&self, dot: f64) -> f64 {
        let r = self.linear(dot);
        if self.updates == 0 {
            r
        } else {
            r.clamp(self.t_min - CALIBRATION_SLACK, self.t_max + CALIBRATION_SLACK)
        }
    }

    /// Predicted cost in nanoseconds (always finite and positive).
    pub fn predict_ns(&self, f: &FeatureVec) -> f64 {
        self.raw(self.dot(f)).exp()
    }

    /// Snapshots the model's full learned state.
    pub fn to_state(&self) -> CostModelState {
        CostModelState {
            weights: self.weights.to_vec(),
            bias: self.bias,
            updates: self.updates,
            t_min: self.t_min,
            t_max: self.t_max,
        }
    }

    /// Trains on one committed measurement. Returns the absolute
    /// prediction error in nanoseconds *before* the update.
    pub fn observe(&mut self, f: &FeatureVec, measured_ns: f64) -> f64 {
        // The weights stay put until the update below, so one dot product
        // serves both the prediction and the training error.
        let dot = self.dot(f);
        let before = self.raw(dot).exp();
        let target = measured_ns.max(1.0).ln();
        if self.updates == 0 {
            // Seed the bias at the first sample's magnitude: NLMS steps are
            // damped by the feature norm, so climbing from 0 to a realistic
            // log-cost would otherwise take hundreds of updates.
            self.bias = target;
        }
        self.t_min = self.t_min.min(target);
        self.t_max = self.t_max.max(target);
        // Train against the *unclamped* activation: the calibration clamp
        // is an inference-time guard, and folding it into the gradient
        // would stall weight corrections outside the window.
        let err = target - self.linear(dot);
        let norm: f64 = 1.0 + f.touched().map(|(_, x)| x * x).sum::<f64>();
        let step = LEARNING_RATE * err / norm;
        self.bias += step;
        for (b, x) in f.touched() {
            self.weights[b] += step * x;
        }
        self.updates += 1;
        (before - measured_ns).abs()
    }

    /// Number of observations applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(rc: f64, flops: f64) -> FeatureVec {
        let mut f = FeatureVec::new();
        f.push("row_chunk", rc);
        f.push_log("flops", flops);
        f
    }

    #[test]
    fn learns_a_monotone_cost_surface() {
        // Cost grows with flops and shrinks with chunking; after a few
        // passes the model must rank candidates correctly.
        let mut m = CostModel::new();
        for _ in 0..64 {
            for (rc, flops, ns) in
                [(1.0, 1e6, 4000.0), (2.0, 1e6, 2600.0), (4.0, 1e6, 2000.0), (1.0, 4e6, 16000.0)]
            {
                m.observe(&feat(rc, flops), ns);
            }
        }
        let p1 = m.predict_ns(&feat(1.0, 1e6));
        let p4 = m.predict_ns(&feat(4.0, 1e6));
        assert!(p4 < p1, "chunked {p4} should be predicted cheaper than unfused {p1}");
        assert!(m.predict_ns(&feat(1.0, 4e6)) > p1);
        assert_eq!(m.updates(), 256);
    }

    #[test]
    fn predictions_stay_finite_under_extreme_targets() {
        let mut m = CostModel::new();
        for _ in 0..100 {
            m.observe(&feat(1.0, 1e18), 1e18);
            m.observe(&feat(8.0, 1.0), 0.0);
        }
        let p = m.predict_ns(&feat(4.0, 1e9));
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut m = CostModel::new();
            for i in 0..50u32 {
                m.observe(&feat(f64::from(i % 5), 1e6 * f64::from(i + 1)), 1e3 * f64::from(i + 7));
            }
            m.predict_ns(&feat(3.0, 5e6)).to_bits()
        };
        assert_eq!(run(), run());
    }
}
