//! Driver-side glue for the learned cost predictor.
//!
//! [`Pruner`] owns the [`CostModel`], the pruning policy, the fixed-seed
//! epsilon RNG, and the counters the [`crate::Report`] surfaces. All of
//! its methods run on the driver thread, in candidate order — selection,
//! training, and the epsilon draws are therefore pure functions of the
//! committed measurement sequence, which is worker-count invariant.

use std::collections::BTreeMap;

use astra_predict::{select_trials, CostModel, FeatureVec, PredEntry, PrunePolicy};
use astra_util::Rng64;

/// Fixed seed for the exploration-epsilon tail. A constant (not an option)
/// so that two optimizers with the same inputs always draw the same tail.
const EPSILON_SEED: u64 = 0x00A5_7A0C_0DE1_u64;

/// Probability that an otherwise-pruned trial is simulated anyway: the
/// exploration-epsilon tail that keeps the model seeing choices it ranks
/// badly.
const EPSILON: f64 = 0.1;

/// The driver's pruning state: per-phase models, policy, epsilon RNG,
/// counters.
#[derive(Debug)]
pub(crate) struct Pruner {
    /// One model per phase kind ("fuse", "kern", "epoch", "place"). The
    /// kinds predict different region metrics whose scales differ by
    /// orders of magnitude; separate weight vectors keep one kind's
    /// gradient from dragging another's predictions around.
    models: BTreeMap<&'static str, CostModel>,
    policy: PrunePolicy,
    rng: Rng64,
    enabled: bool,
    /// Cumulative |predicted − measured| over simulated candidates that
    /// carried a prediction, and the sample count, for the MAE report.
    pub abs_err_ns: f64,
    pub err_samples: u64,
}

impl Pruner {
    pub fn new(enabled: bool, top_k: usize) -> Self {
        Pruner {
            models: BTreeMap::new(),
            policy: PrunePolicy { top_k: top_k.max(1), epsilon: EPSILON, ..PrunePolicy::default() },
            rng: Rng64::new(EPSILON_SEED),
            enabled,
            abs_err_ns: 0.0,
            err_samples: 0,
        }
    }

    /// Whether batches of `kind` may be pruned: the predictor is on and
    /// the kind's model is warm enough on its metric scale.
    pub fn active(&self, kind: &'static str) -> bool {
        self.enabled
            && self.models.get(kind).map_or(0, CostModel::updates) >= self.policy.min_updates
    }

    pub fn predict_ns(&self, kind: &'static str, f: &FeatureVec) -> f64 {
        self.models.get(kind).map_or(1.0, |m| m.predict_ns(f))
    }

    /// Trains the kind's model on one committed (feature, measurement)
    /// pair; also folds the pre-update prediction error into the MAE when
    /// the candidate carried a selection-time prediction (`pred > 0`).
    pub fn observe(&mut self, kind: &'static str, f: &FeatureVec, pred: f64, measured_ns: f64) {
        if !self.enabled {
            return;
        }
        if pred > 0.0 {
            self.abs_err_ns += (pred - measured_ns).abs();
            self.err_samples += 1;
        }
        self.models.entry(kind).or_default().observe(f, measured_ns);
    }

    pub fn updates(&self) -> u64 {
        self.models.values().map(CostModel::updates).sum()
    }

    pub fn margin(&self) -> f64 {
        self.policy.margin
    }

    /// Selects the trials of one batch to simulate (see
    /// [`astra_predict::select_trials`]); draws the epsilon tail from the
    /// fixed-seed RNG in trial order.
    pub fn select(&mut self, preds: &[Option<Vec<PredEntry>>]) -> Vec<bool> {
        select_trials(&self.policy, preds, &mut self.rng)
    }
}
