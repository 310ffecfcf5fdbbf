//! The cuDNN-like hand-optimized accelerator baseline (§2.4, §6.3).
//!
//! cuDNN ships compound kernels for *standard* layer structures only —
//! classic LSTM layers qualify; MI-LSTM, subLSTM, SC-RNN and attention do
//! not. This module (a) detects which layers of a graph match the standard
//! LSTM pattern, and (b) builds a schedule where each covered (layer, pass)
//! executes as a single high-efficiency [`KernelDesc::Compound`] launch,
//! while uncovered nodes dispatch natively around it.
//!
//! The coverage limitation is the paper's central motivation: the detection
//! here is structural (op histogram per timestep), exactly the kind of
//! rigid pattern-matching that makes hand-optimized accelerators useless for
//! long-tail research models.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use astra_gpu::{KernelDesc, Schedule, StreamId};
use astra_ir::{Graph, NodeId, Pass};

use crate::lowering::Lowering;

/// Fraction of member output bytes a compound kernel actually moves through
/// HBM (persistent kernels keep recurrent state on-chip).
const COMPOUND_TRAFFIC_FACTOR: f64 = 0.3;

/// Detects layers whose per-timestep op histogram matches a standard LSTM
/// cell (8 GEMMs, 3 sigmoids, 2 tanhs, 3 muls, no subtractions).
///
/// # Examples
///
/// ```
/// use astra_exec::detect_covered_layers;
/// use astra_models::{Model, ModelConfig};
///
/// let cfg = ModelConfig { seq_len: 2, hidden: 32, input: 32, vocab: 64,
///                         ..ModelConfig::ptb_large(4) };
/// let built = Model::StackedLstm.build(&cfg);
/// let covered = detect_covered_layers(&built.graph);
/// assert!(covered.contains("lstm0"));
///
/// let sub = Model::SubLstm.build(&ModelConfig { seq_len: 2, hidden: 32,
///     input: 32, vocab: 64, ..ModelConfig::ptb(4) });
/// assert!(detect_covered_layers(&sub.graph).is_empty());
/// ```
pub fn detect_covered_layers(graph: &Graph) -> BTreeSet<String> {
    // (layer, timestep) -> op histogram, forward pass only.
    let mut hist: BTreeMap<(String, u32), HashMap<&'static str, usize>> = BTreeMap::new();
    for node in graph.nodes() {
        if node.prov.pass != Pass::Forward {
            continue;
        }
        let Some(t) = node.prov.timestep else { continue };
        if node.prov.layer.is_empty() {
            continue;
        }
        *hist
            .entry((node.prov.layer.clone(), t))
            .or_default()
            .entry(node.op.mnemonic())
            .or_insert(0) += 1;
    }

    let mut per_layer: BTreeMap<String, Vec<HashMap<&'static str, usize>>> = BTreeMap::new();
    for ((layer, _), h) in hist {
        per_layer.entry(layer).or_default().push(h);
    }

    per_layer
        .into_iter()
        .filter(|(_, steps)| {
            steps.iter().all(|h| {
                h.get("mm").copied().unwrap_or(0) == 8
                    && h.get("sigmoid").copied().unwrap_or(0) == 3
                    && h.get("tanh").copied().unwrap_or(0) == 2
                    && h.get("mul").copied().unwrap_or(0) == 3
                    && h.get("sub").copied().unwrap_or(0) == 0
                    && h.get("embed").copied().unwrap_or(0) == 0
            })
        })
        .map(|(layer, _)| layer)
        .collect()
}

/// Group key during compound scheduling. Compound regions are per
/// (layer, pass, timestep) — one accelerator call per layer-step, which is
/// also what keeps the group graph acyclic when gradient-accumulation adds
/// mix contributions from different layers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum GroupKey {
    Compound(String, bool /* backward */, u32 /* timestep */),
    Single(u32),
}

/// Builds the cuDNN-accelerated schedule: covered (layer, pass) regions run
/// as single compound kernels; everything else dispatches natively. The
/// schedule respects all cross-group data dependencies.
pub fn cudnn_schedule(
    graph: &Graph,
    lowering: &Lowering,
    covered: &BTreeSet<String>,
) -> Schedule {
    let nodes = graph.nodes();
    // Assign each node to a group.
    let group_of: Vec<GroupKey> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| match n.prov.timestep {
            Some(t) if covered.contains(&n.prov.layer) => {
                GroupKey::Compound(n.prov.layer.clone(), n.prov.pass == Pass::Backward, t)
            }
            _ => GroupKey::Single(i as u32),
        })
        .collect();

    // Group membership and first-node order.
    let mut members: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
    let mut order: Vec<GroupKey> = Vec::new();
    for (i, key) in group_of.iter().enumerate() {
        let entry = members.entry(key.clone()).or_default();
        if entry.is_empty() {
            order.push(key.clone());
        }
        entry.push(i);
    }

    // Group-level dependency edges.
    let mut preds: HashMap<GroupKey, BTreeSet<GroupKey>> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        for &inp in &node.inputs {
            if let Some(p) = graph.producer(inp) {
                let pg = &group_of[p.0 as usize];
                let ng = &group_of[i];
                if pg != ng {
                    preds.entry(ng.clone()).or_default().insert(pg.clone());
                }
            }
        }
    }

    // Kahn topological sort, stable by first appearance.
    let mut emitted: BTreeSet<GroupKey> = BTreeSet::new();
    let mut sched = Schedule::new(1);
    let mut remaining: Vec<GroupKey> = order;
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut next_round = Vec::new();
        for key in remaining {
            let ready = preds
                .get(&key)
                .is_none_or(|ps| ps.iter().all(|p| emitted.contains(p)));
            if !ready {
                next_round.push(key);
                continue;
            }
            emit_group(graph, lowering, &key, &members[&key], &mut sched);
            emitted.insert(key);
        }
        assert!(
            next_round.len() < before,
            "cyclic group dependency in cudnn scheduling"
        );
        remaining = next_round;
    }
    sched
}

fn emit_group(
    graph: &Graph,
    lowering: &Lowering,
    key: &GroupKey,
    members: &[usize],
    sched: &mut Schedule,
) {
    match key {
        GroupKey::Single(i) => {
            if let Some(k) = &lowering.ops()[*i as usize].kernel {
                sched.launch(StreamId(0), *k);
            }
        }
        GroupKey::Compound(layer, backward, t) => {
            let mut flops = 0.0;
            let mut bytes = 0.0;
            for &m in members {
                if let Some(k) = &lowering.ops()[m].kernel {
                    flops += k.flops();
                }
                bytes += graph.shape(graph.node(NodeId(m as u32)).output).bytes() as f64;
            }
            let label = format!("cudnn[{layer}.{t}{}]", if *backward { ".bw" } else { "" });
            sched.launch_labeled(
                StreamId(0),
                KernelDesc::Compound { flops, bytes: bytes * COMPOUND_TRAFFIC_FACTOR },
                &[],
                label,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowering::lower;
    use crate::native::native_schedule;
    use astra_gpu::{DeviceSpec, Engine};
    use astra_models::{Model, ModelConfig};

    fn cfg(batch: u64) -> ModelConfig {
        ModelConfig { seq_len: 4, hidden: 256, input: 256, vocab: 1000, ..ModelConfig::ptb_large(batch) }
    }

    #[test]
    fn stacked_lstm_is_fully_covered() {
        let built = Model::StackedLstm.build(&cfg(8));
        let covered = detect_covered_layers(&built.graph);
        assert_eq!(covered.len(), 2);
        assert!(covered.contains("lstm0") && covered.contains("lstm1"));
    }

    #[test]
    fn gnmt_covered_except_attention() {
        let mut c = Model::Gnmt.default_config(4);
        c.hidden = 64;
        c.input = 64;
        c.vocab = 128;
        c.seq_len = 2;
        c.layers = 2;
        let built = Model::Gnmt.build(&c);
        let covered = detect_covered_layers(&built.graph);
        assert_eq!(covered.len(), 4, "enc0,enc1,dec0,dec1: {covered:?}");
        assert!(!covered.contains("attention"));
    }

    #[test]
    fn long_tail_models_are_uncovered() {
        for m in [Model::Scrnn, Model::MiLstm, Model::SubLstm] {
            let mut c = m.default_config(4);
            c.hidden = 64;
            c.input = 64;
            c.vocab = 128;
            c.seq_len = 2;
            let built = m.build(&c);
            assert!(
                detect_covered_layers(&built.graph).is_empty(),
                "{m} should not be cuDNN-covered"
            );
        }
    }

    #[test]
    fn cudnn_beats_native_on_covered_model() {
        let dev = DeviceSpec::p100();
        let built = Model::StackedLstm.build(&cfg(8));
        let lowering = lower(&built.graph);
        let covered = detect_covered_layers(&built.graph);
        let native = Engine::new(&dev).run(&native_schedule(&lowering)).unwrap().total_ns;
        let sched = cudnn_schedule(&built.graph, &lowering, &covered);
        let accel = Engine::new(&dev).run(&sched).unwrap().total_ns;
        assert!(accel < native, "cudnn {accel} should beat native {native}");
        // Far fewer launches.
        assert!(sched.num_launches() < lowering.num_kernels() / 4);
    }

    #[test]
    fn schedule_respects_dependencies() {
        // The compound for lstm1 must come after lstm0's compound; the
        // projection kernels after both.
        let built = Model::StackedLstm.build(&cfg(8));
        let lowering = lower(&built.graph);
        let covered = detect_covered_layers(&built.graph);
        let sched = cudnn_schedule(&built.graph, &lowering, &covered);
        let labels: Vec<String> =
            (0..sched.cmds().len()).filter_map(|i| sched.label(i).map(str::to_owned)).collect();
        // Per step t, layer 0 must precede layer 1 in the forward pass.
        let p0 = labels.iter().position(|l| l == "cudnn[lstm0.0]").unwrap();
        let p1 = labels.iter().position(|l| l == "cudnn[lstm1.0]").unwrap();
        assert!(p0 < p1);
        // Backward: layer 1 before layer 0 at the same step.
        let b1 = labels.iter().position(|l| l == "cudnn[lstm1.0.bw]").unwrap();
        let b0 = labels.iter().position(|l| l == "cudnn[lstm0.0.bw]").unwrap();
        assert!(b1 < b0, "backward runs layers in reverse");
        // Backward follows the whole forward pass.
        let last_fw = labels.iter().rposition(|l| l.starts_with("cudnn[") && !l.ends_with(".bw]")).unwrap();
        let first_bw = labels.iter().position(|l| l.ends_with(".bw]")).unwrap();
        assert!(first_bw > p1 && last_fw < labels.len());
    }
}
