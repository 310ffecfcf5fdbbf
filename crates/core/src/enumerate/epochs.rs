//! Super-epochs, epochs, and equivalence classes (paper §4.5.3-§4.5.5).
//!
//! Stream scheduling is history-sensitive: the best stream for a kernel
//! depends on everything scheduled before it. Astra bounds the blast radius
//! of this history three ways:
//!
//! * **Super-epochs** — the unit DAG is cut into chunks of roughly a few
//!   milliseconds of estimated GPU time (static FLOP count). A device-wide
//!   barrier at each boundary resets stream history, so super-epochs explore
//!   *in parallel*.
//! * **Epochs** — dependency levels within a super-epoch, explored
//!   *prefix*-wise: earlier epochs freeze their best stream mapping before
//!   later ones explore.
//! * **Equivalence classes** — kernels in an epoch with the same kernel
//!   signature are interchangeable; only *how many* go to each stream
//!   matters, collapsing `2^n` assignments to `O(n)` split counts.

use std::collections::BTreeMap;

use crate::plan::Unit;

/// Kernels in one epoch that are interchangeable for scheduling.
#[derive(Debug, Clone)]
pub struct EquivClass {
    /// Signature (kernel kind + shape).
    pub key: String,
    /// Unit indices (into the unit vector), in topological order.
    pub units: Vec<usize>,
}

/// One dependency level within a super-epoch.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// All unit indices in this epoch.
    pub units: Vec<usize>,
    /// Equivalence classes partitioning [`Epoch::units`].
    pub classes: Vec<EquivClass>,
}

/// A barrier-delimited chunk of the unit DAG.
#[derive(Debug, Clone)]
pub struct SuperEpoch {
    /// Epochs in dependency order.
    pub epochs: Vec<Epoch>,
}

/// The full stream-exploration structure.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Super-epochs in topological order.
    pub super_epochs: Vec<SuperEpoch>,
}

impl Partition {
    /// Total number of epochs.
    pub fn num_epochs(&self) -> usize {
        self.super_epochs.iter().map(|se| se.epochs.len()).sum()
    }
}

/// Signature under which kernels are interchangeable.
fn class_key(u: &Unit) -> String {
    u.kernel.label()
}

/// Partitions topologically-sorted `units` into super-epochs of roughly
/// `flops_budget` FLOPs, then into dependency-level epochs with equivalence
/// classes.
pub fn partition_units(units: &[Unit], flops_budget: f64) -> Partition {
    // ---- Cut into super-epochs along the topological order. ----
    let mut boundaries = Vec::new(); // exclusive end indices
    let mut acc = 0.0;
    for (i, u) in units.iter().enumerate() {
        acc += u.flops;
        if acc >= flops_budget && i + 1 < units.len() {
            boundaries.push(i + 1);
            acc = 0.0;
        }
    }
    boundaries.push(units.len());

    let mut super_epochs = Vec::new();
    let mut start = 0;
    for end in boundaries {
        if end <= start {
            continue;
        }
        super_epochs.push(build_super_epoch(units, start, end));
        start = end;
    }
    Partition { super_epochs }
}

fn build_super_epoch(units: &[Unit], start: usize, end: usize) -> SuperEpoch {
    // Dependency levels *within* the super-epoch: deps outside count as
    // level 0 (they are behind the barrier).
    let mut level: BTreeMap<usize, u32> = BTreeMap::new();
    for (i, u) in units.iter().enumerate().take(end).skip(start) {
        let lvl = u
            .deps
            .iter()
            .filter(|&&d| d >= start)
            .map(|&d| level.get(&d).copied().unwrap_or(0) + 1)
            .max()
            .unwrap_or(0);
        level.insert(i, lvl);
    }
    let max_level = level.values().copied().max().unwrap_or(0);
    let mut epochs = Vec::new();
    for l in 0..=max_level {
        let members: Vec<usize> =
            (start..end).filter(|i| level[i] == l).collect();
        if members.is_empty() {
            continue;
        }
        let mut classes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for &m in &members {
            classes.entry(class_key(&units[m])).or_default().push(m);
        }
        let classes = classes
            .into_iter()
            .map(|(key, units)| EquivClass { key, units })
            .collect();
        epochs.push(Epoch { units: members, classes });
    }
    SuperEpoch { epochs }
}

/// One stream-mapping option for an epoch: `(unit index, stream)` for each
/// of its units, the index into the unit vector the partition was built
/// over.
pub type EpochAssignment = Vec<(usize, usize)>;

/// Writes each `(unit index, stream)` pair into the per-unit stream vector
/// `streams`, in order: a later write to the same unit wins.
pub fn write_streams<'a>(
    streams: &mut [usize],
    pairs: impl IntoIterator<Item = &'a (usize, usize)>,
) {
    for &(i, s) in pairs {
        streams[i] = s;
    }
}

/// Maximum split options explored for the adapted class (paper's example
/// uses 5 for a 10-kernel class).
const MAX_SPLITS: usize = 5;

/// Enumerates the stream-mapping choices of one epoch on `num_streams`
/// streams (§4.5.5): the largest equivalence class varies its per-stream
/// counts; all other units are balanced by FLOPs (the §4.8 static policy).
///
/// Always returns at least one choice (the balanced default).
pub fn epoch_choices(units: &[Unit], epoch: &Epoch, num_streams: usize) -> Vec<EpochAssignment> {
    if num_streams <= 1 || epoch.units.len() < 2 {
        return vec![epoch.units.iter().map(|&u| (u, 0)).collect()];
    }

    // The class with the most members adapts; everything else is balanced.
    let adapted = epoch
        .classes
        .iter()
        .max_by_key(|c| c.units.len())
        .expect("epoch has at least one class");

    let mut choices = Vec::new();
    let n = adapted.units.len();
    // Split counts for the adapted class: first stream takes `a`, the rest
    // round-robin over the remaining streams.
    let min_a = n.div_ceil(num_streams);
    let mut splits: Vec<usize> = (min_a..=n).collect();
    if splits.len() > MAX_SPLITS {
        // Evenly sample MAX_SPLITS options including both extremes.
        let k = splits.len();
        splits = (0..MAX_SPLITS)
            .map(|i| splits[i * (k - 1) / (MAX_SPLITS - 1)])
            .collect();
        splits.dedup();
    }

    for &a in &splits {
        let mut asg: EpochAssignment = Vec::with_capacity(epoch.units.len());
        // Adapted class: first `a` on stream 0, rest round-robin on 1..S.
        for (i, &u) in adapted.units.iter().enumerate() {
            let s = if i < a { 0 } else { 1 + (i - a) % (num_streams - 1) };
            asg.push((u, s));
        }
        // Other units: greedy flops balancing across streams, seeded with
        // the adapted class's load.
        let mut load = vec![0.0f64; num_streams];
        for (i, &u) in adapted.units.iter().enumerate() {
            let s = if i < a { 0 } else { 1 + (i - a) % (num_streams - 1) };
            load[s] += units[u].flops;
        }
        for class in &epoch.classes {
            if std::ptr::eq(class, adapted) {
                continue;
            }
            for &u in &class.units {
                let (s, _) = load
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .expect("streams non-empty");
                load[s] += units[u].flops;
                asg.push((u, s));
            }
        }
        choices.push(asg);
    }
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::UnitId;
    use astra_gpu::{GemmShape, KernelDesc};

    fn unit(i: u32, deps: Vec<usize>, flops: f64, shape_n: u64) -> Unit {
        let shape = GemmShape::new(8, 64, shape_n);
        Unit {
            id: UnitId::Node(i),
            kernel: KernelDesc::Gemm { shape, lib: astra_gpu::GemmLibrary::CublasLike },
            deps,
            gemm_shape: Some(shape),
            pre_copy_bytes: 0.0,
            set_idx: None,
            flops,
            out_bytes: 4.0 * 8.0 * shape_n as f64,
            pass: astra_ir::Pass::Forward,
            step: Some(i),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    #[test]
    fn budget_splits_super_epochs() {
        let units: Vec<Unit> = (0..10).map(|i| unit(i, vec![], 100.0, 64)).collect();
        let p = partition_units(&units, 250.0);
        assert!(p.super_epochs.len() >= 3, "{}", p.super_epochs.len());
        let total: usize = p
            .super_epochs
            .iter()
            .flat_map(|se| se.epochs.iter())
            .map(|e| e.units.len())
            .sum();
        assert_eq!(total, 10, "every unit in exactly one epoch");
    }

    #[test]
    fn huge_budget_yields_one_super_epoch() {
        let units: Vec<Unit> = (0..5).map(|i| unit(i, vec![], 1.0, 64)).collect();
        let p = partition_units(&units, 1e18);
        assert_eq!(p.super_epochs.len(), 1);
    }

    #[test]
    fn epochs_follow_dependency_levels() {
        // 0,1 independent; 2 depends on 0; 3 depends on 2.
        let units = vec![
            unit(0, vec![], 1.0, 64),
            unit(1, vec![], 1.0, 64),
            unit(2, vec![0], 1.0, 64),
            unit(3, vec![2], 1.0, 64),
        ];
        let p = partition_units(&units, 1e18);
        let se = &p.super_epochs[0];
        assert_eq!(se.epochs.len(), 3);
        assert_eq!(se.epochs[0].units, vec![0, 1]);
        assert_eq!(se.epochs[1].units, vec![2]);
        assert_eq!(se.epochs[2].units, vec![3]);
    }

    #[test]
    fn equivalence_collapses_same_shape_kernels() {
        // 10 identical kernels on 2 streams: choices ~ MAX_SPLITS, not 2^10
        // (the paper's §4.5.5 example).
        let units: Vec<Unit> = (0..10).map(|i| unit(i, vec![], 1.0, 64)).collect();
        let p = partition_units(&units, 1e18);
        let epoch = &p.super_epochs[0].epochs[0];
        assert_eq!(epoch.classes.len(), 1);
        let choices = epoch_choices(&units, epoch, 2);
        assert!(choices.len() <= MAX_SPLITS, "{} choices", choices.len());
        assert!(choices.len() >= 2);
        // Every choice assigns all 10 units.
        for c in &choices {
            assert_eq!(c.len(), 10);
        }
    }

    #[test]
    fn different_shapes_form_different_classes() {
        let units = vec![
            unit(0, vec![], 1.0, 64),
            unit(1, vec![], 1.0, 64),
            unit(2, vec![], 1.0, 128),
        ];
        let p = partition_units(&units, 1e18);
        let epoch = &p.super_epochs[0].epochs[0];
        assert_eq!(epoch.classes.len(), 2);
    }

    #[test]
    fn single_stream_gets_single_choice() {
        let units: Vec<Unit> = (0..4).map(|i| unit(i, vec![], 1.0, 64)).collect();
        let p = partition_units(&units, 1e18);
        let choices = epoch_choices(&units, &p.super_epochs[0].epochs[0], 1);
        assert_eq!(choices.len(), 1);
        assert!(choices[0].iter().all(|&(_, s)| s == 0));
    }

    #[test]
    fn non_adapted_units_are_flop_balanced() {
        // One big class of 4 + two heavy singles: the singles must land on
        // different streams under any choice.
        let mut units: Vec<Unit> = (0..4).map(|i| unit(i, vec![], 1.0, 64)).collect();
        units.push(unit(4, vec![], 1000.0, 256));
        units.push(unit(5, vec![], 1000.0, 512));
        let p = partition_units(&units, 1e18);
        let epoch = &p.super_epochs[0].epochs[0];
        for choice in epoch_choices(&units, epoch, 2) {
            let s4 = choice.iter().find(|&&(i, _)| i == 4).unwrap().1;
            let s5 = choice.iter().find(|&&(i, _)| i == 5).unwrap().1;
            assert_ne!(s4, s5, "heavy kernels must balance");
        }
    }
}
