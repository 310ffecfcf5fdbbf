//! The cost model scores and trains over a feature vector's touched
//! buckets only. This property suite keeps the dense arithmetic it
//! replaces as a reference model and requires the same bits from both on
//! generated feature vectors: every prediction, and the full learned state
//! after every update.

use astra_predict::{CostModel, CostModelState, FeatureVec, FEATURE_DIM};
use astra_util::Rng64;

const LEARNING_RATE: f64 = 0.5;
const RAW_CLAMP: f64 = 80.0;
const CALIBRATION_SLACK: f64 = 3.0;

/// The dense reference: every score and update passes over all
/// [`FEATURE_DIM`] buckets.
struct DenseModel {
    weights: [f64; FEATURE_DIM],
    bias: f64,
    updates: u64,
    t_min: f64,
    t_max: f64,
}

impl DenseModel {
    fn new() -> Self {
        DenseModel {
            weights: [0.0; FEATURE_DIM],
            bias: 0.0,
            updates: 0,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
        }
    }

    fn linear(&self, f: &FeatureVec) -> f64 {
        let dot: f64 = self.weights.iter().zip(f.values()).map(|(w, x)| w * x).sum();
        (self.bias + dot).clamp(-RAW_CLAMP, RAW_CLAMP)
    }

    fn predict_ns(&self, f: &FeatureVec) -> f64 {
        let r = self.linear(f);
        let r = if self.updates == 0 {
            r
        } else {
            r.clamp(self.t_min - CALIBRATION_SLACK, self.t_max + CALIBRATION_SLACK)
        };
        r.exp()
    }

    fn observe(&mut self, f: &FeatureVec, measured_ns: f64) -> f64 {
        let before = self.predict_ns(f);
        let target = measured_ns.max(1.0).ln();
        if self.updates == 0 {
            self.bias = target;
        }
        self.t_min = self.t_min.min(target);
        self.t_max = self.t_max.max(target);
        let err = target - self.linear(f);
        let norm: f64 = 1.0 + f.values().iter().map(|x| x * x).sum::<f64>();
        let step = LEARNING_RATE * err / norm;
        self.bias += step;
        for (w, x) in self.weights.iter_mut().zip(f.values()) {
            *w += step * x;
        }
        self.updates += 1;
        (before - measured_ns).abs()
    }
}

fn state_bits(s: &CostModelState) -> (Vec<u64>, [u64; 3], u64) {
    (
        s.weights.iter().map(|w| w.to_bits()).collect(),
        [s.bias.to_bits(), s.t_min.to_bits(), s.t_max.to_bits()],
        s.updates,
    )
}

fn assert_same_state(sparse: &CostModel, dense: &DenseModel, what: &str) {
    let want = CostModelState {
        weights: dense.weights.to_vec(),
        bias: dense.bias,
        updates: dense.updates,
        t_min: dense.t_min,
        t_max: dense.t_max,
    };
    assert_eq!(state_bits(&sparse.to_state()), state_bits(&want), "{what}: learned state");
}

/// A feature name that lands in the same bucket as `name`, and the sign
/// product of the two (`1.0` when they share a sign, `-1.0` otherwise).
fn collider(name: &str) -> (String, f64) {
    let probe = |n: &str| {
        let mut f = FeatureVec::new();
        f.push(n, 1.0);
        let touched = f.touched().next();
        touched.expect("a push touches one bucket")
    };
    let (bucket, sign) = probe(name);
    (0..)
        .map(|i| format!("{name}~{i}"))
        .find_map(|other| {
            let (b, s) = probe(&other);
            (b == bucket).then_some((other, sign * s))
        })
        .expect("some name collides")
}

/// A generated feature vector: random numeric pushes (negative values and
/// zeros included), tags, notes, and pairs of colliding pushes of distinct
/// names that cancel to exactly zero.
fn random_vec(
    rng: &mut Rng64,
    names: &[String],
    colliders: &[(String, String, f64)],
) -> FeatureVec {
    let mut f = FeatureVec::new();
    for _ in 0..rng.gen_range_usize(0, 12) {
        let name = &names[rng.gen_range_usize(0, names.len() - 1)];
        match rng.gen_range_u32(0, 7) {
            0 => f.push(name, 0.0),
            1 => f.push(name, -0.0),
            2 => f.push_log(name, rng.gen_range_f64(0.0, 1e12)),
            3 => f.tag(name, &format!("id{}", rng.gen_range_u32(0, 5))),
            4 => f.note(name, "identity"),
            5 => {
                let (a, b, sign) = &colliders[rng.gen_range_usize(0, colliders.len() - 1)];
                let v = rng.gen_range_f64(-50.0, 50.0);
                f.push(a, v);
                f.push(b, -v * sign);
            }
            _ => f.push(name, rng.gen_range_f64(-100.0, 100.0)),
        }
    }
    f
}

#[test]
fn colliding_pushes_cancel_to_a_touched_zero() {
    let (other, sign) = collider("row_chunk");
    let mut f = FeatureVec::new();
    f.push("row_chunk", 2.5);
    f.push(&other, -2.5 * sign);
    let touched: Vec<(usize, f64)> = f.touched().collect();
    assert_eq!(touched.len(), 1, "both names land in one bucket");
    assert_eq!(touched[0].1.to_bits(), 0.0f64.to_bits(), "the pushes cancel to +0.0");
    assert!(f.values().iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    assert_eq!(FeatureVec::new().touched().count(), 0, "the empty vector touches nothing");
}

#[test]
fn sparse_model_matches_dense_reference() {
    let names: Vec<String> = (0..40).map(|i| format!("feat{i}")).collect();
    let colliders: Vec<(String, String, f64)> = names
        .iter()
        .take(6)
        .map(|n| {
            let (other, sign) = collider(n);
            (n.clone(), other, sign)
        })
        .collect();
    for seed in 0..24u64 {
        let mut rng = Rng64::new(0x5EED_0000 + seed);
        let probes: Vec<FeatureVec> = std::iter::once(FeatureVec::new())
            .chain((0..6).map(|_| random_vec(&mut rng, &names, &colliders)))
            .collect();
        let mut sparse = CostModel::new();
        let mut dense = DenseModel::new();
        for step in 0..150 {
            let f = if rng.gen_range_u32(0, 9) == 0 {
                FeatureVec::new()
            } else {
                random_vec(&mut rng, &names, &colliders)
            };
            let measured = match rng.gen_range_u32(0, 9) {
                0 => 0.0,
                1 => rng.gen_range_f64(0.0, 1.0),
                _ => rng.gen_range_f64(1.0, 1e9),
            };
            let what = format!("seed {seed} step {step}");
            assert_eq!(
                sparse.predict_ns(&f).to_bits(),
                dense.predict_ns(&f).to_bits(),
                "{what}: prediction before the update"
            );
            assert_eq!(
                sparse.observe(&f, measured).to_bits(),
                dense.observe(&f, measured).to_bits(),
                "{what}: reported error"
            );
            assert_same_state(&sparse, &dense, &what);
            for (i, p) in probes.iter().enumerate() {
                assert_eq!(
                    sparse.predict_ns(p).to_bits(),
                    dense.predict_ns(p).to_bits(),
                    "{what}: probe {i}"
                );
            }
        }
    }
}
