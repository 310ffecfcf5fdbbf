//! Automatic differentiation: appends the backward pass to a forward graph.
//!
//! The user model specifies only the forward computation; the toolkit
//! generates the backward pass (paper §5.1), which accounts for roughly
//! two-thirds of the training compute. The generated nodes carry the same
//! provenance as their forward counterparts with [`Pass::Backward`], so the
//! Astra enumerator can group and fuse backward GEMMs exactly as it does
//! forward ones — including the mm/mm/add *fusion ladders* that gradient
//! accumulation naturally produces (§4.4.1).

use std::collections::{BTreeMap, HashMap};

use crate::graph::{Graph, Pass, Provenance};
use crate::op::OpKind;
use crate::tensor::{Shape, TensorId, TensorKind};

/// Output of [`append_backward`].
#[derive(Debug, Clone)]
pub struct BackwardResult {
    /// The gradient seed input (`d loss / d loss`, value 1).
    pub seed: TensorId,
    /// Gradient tensor for each forward tensor that received one.
    pub grads: HashMap<TensorId, TensorId>,
}

impl BackwardResult {
    /// The gradient of `t`, if it participates in the loss.
    pub fn grad(&self, t: TensorId) -> Option<TensorId> {
        self.grads.get(&t).copied()
    }
}

/// Appends backward-pass nodes computing `d loss / d t` for every tensor the
/// loss depends on.
///
/// `loss` must be a scalar (shape `[1]`). Returns the gradient map; parameter
/// gradients are the entries whose keys are `Param` tensors.
///
/// # Panics
///
/// Panics if `loss` is not scalar, or if the graph contains an op with no
/// differentiation rule (`Slice` in the forward pass is unsupported).
///
/// # Examples
///
/// ```
/// use astra_ir::{append_backward, Graph, Shape};
///
/// let mut g = Graph::new();
/// let x = g.input(Shape::matrix(4, 8), "x");
/// let w = g.param(Shape::matrix(8, 2), "w");
/// let y = g.mm(x, w);
/// let loss = g.reduce_sum(y);
/// let back = append_backward(&mut g, loss);
/// assert!(back.grad(w).is_some());
/// ```
pub fn append_backward(g: &mut Graph, loss: TensorId) -> BackwardResult {
    assert_eq!(g.shape(loss).elements(), 1, "loss must be scalar, got {}", g.shape(loss));
    let saved_ctx = g.context().clone();

    let mut bw_ctx = Provenance::layer("backward");
    bw_ctx.pass = Pass::Backward;
    g.set_context(bw_ctx);
    let seed = g.input(Shape::scalar(), "grad_seed");

    let mut grads: HashMap<TensorId, TensorId> = HashMap::new();
    grads.insert(loss, seed);
    // Per embedding table: (indices, upstream gradient) of every lookup.
    // Ordered by table, so the backward graph's node order is the same in
    // every process.
    let mut embed_contribs: BTreeMap<TensorId, Vec<(TensorId, TensorId)>> = BTreeMap::new();

    let n_forward = g.nodes().len();
    for idx in (0..n_forward).rev() {
        let node = g.nodes()[idx].clone();
        let Some(&dy) = grads.get(&node.output) else { continue };

        // Backward nodes inherit the forward node's provenance, in the
        // backward pass.
        let mut prov = node.prov.clone();
        prov.pass = Pass::Backward;
        g.set_context(prov);

        match node.op {
            OpKind::MatMul => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                let bt = g.apply_role(OpKind::Transpose, &[b], "t");
                let da = g.apply_role(OpKind::MatMul, &[dy, bt], "dA");
                accumulate(g, &mut grads, a, da);
                let at = g.apply_role(OpKind::Transpose, &[a], "t");
                let db = g.apply_role(OpKind::MatMul, &[at, dy], "dB");
                accumulate(g, &mut grads, b, db);
            }
            OpKind::Add => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                accumulate(g, &mut grads, a, dy);
                let db = reduce_if_broadcast(g, dy, b);
                accumulate(g, &mut grads, b, db);
            }
            OpKind::Sub => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                accumulate(g, &mut grads, a, dy);
                let neg = g.apply_role(OpKind::Neg, &[dy], "neg");
                let db = reduce_if_broadcast(g, neg, b);
                accumulate(g, &mut grads, b, db);
            }
            OpKind::Mul => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                let da = g.apply_role(OpKind::Mul, &[dy, b], "dA");
                accumulate(g, &mut grads, a, da);
                let db_full = g.apply_role(OpKind::Mul, &[dy, a], "dB");
                let db = reduce_if_broadcast(g, db_full, b);
                accumulate(g, &mut grads, b, db);
            }
            OpKind::Neg => {
                let dx = g.apply_role(OpKind::Neg, &[dy], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::Scale(c) => {
                let dx = g.apply_role(OpKind::Scale(c), &[dy], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::Sigmoid => {
                let dx = g.apply_role(OpKind::SigmoidGrad, &[dy, node.output], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::Tanh => {
                let dx = g.apply_role(OpKind::TanhGrad, &[dy, node.output], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::Relu => {
                let dx = g.apply_role(OpKind::ReluGrad, &[dy, node.output], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::Softmax => {
                let dx = g.apply_role(OpKind::SoftmaxGrad, &[dy, node.output], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::Concat { axis } => {
                let mut start = 0_u64;
                for &inp in &node.inputs {
                    let len = g.shape(inp).dims()[axis];
                    let slice =
                        g.apply_role(OpKind::Slice { axis, start, len }, &[dy], "dSlice");
                    accumulate(g, &mut grads, inp, slice);
                    start += len;
                }
            }
            OpKind::Transpose => {
                let dx = g.apply_role(OpKind::Transpose, &[dy], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::Embedding => {
                // Dense per-step `[vocab, width]` contributions would be a
                // memory explosion no real framework pays (scatter-add is
                // applied once). Contributions are stashed and a single
                // whole-sequence EmbeddingGrad is emitted after the loop.
                let (idx, table) = (node.inputs[0], node.inputs[1]);
                embed_contribs.entry(table).or_default().push((idx, dy));
                // No gradient flows to integer indices.
            }
            OpKind::ReduceSum => {
                let s = g.shape(node.inputs[0]).clone();
                assert_eq!(s.rank(), 2, "reduce_sum backward supports 2-D inputs");
                let dx = g.apply_role(
                    OpKind::BroadcastScalar { rows: s.dims()[0], cols: s.dims()[1] },
                    &[dy],
                    "dX",
                );
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::ReduceCols => {
                let cols = g.shape(node.inputs[0]).dims()[1];
                let dx = g.apply_role(OpKind::BroadcastCol { cols }, &[dy], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::BroadcastCol { .. } => {
                let dx = g.apply_role(OpKind::ReduceCols, &[dy], "dX");
                accumulate(g, &mut grads, node.inputs[0], dx);
            }
            OpKind::ReduceRows => {
                panic!("no differentiation rule for forward ReduceRows");
            }
            OpKind::Slice { .. } => {
                panic!("no differentiation rule for forward Slice");
            }
            OpKind::Conv2d(d) => {
                let (x, w) = (node.inputs[0], node.inputs[1]);
                let dx = g.apply_role(OpKind::Conv2dGradInput(d), &[dy, w], "dX");
                accumulate(g, &mut grads, x, dx);
                let dw = g.apply_role(OpKind::Conv2dGradWeight(d), &[x, dy], "dW");
                accumulate(g, &mut grads, w, dw);
            }
            OpKind::Conv2dGradInput(_) | OpKind::Conv2dGradWeight(_) => {
                panic!("gradient ops must not appear in the forward pass");
            }
            OpKind::BroadcastScalar { .. }
            | OpKind::SigmoidGrad
            | OpKind::TanhGrad
            | OpKind::ReluGrad
            | OpKind::SoftmaxGrad
            | OpKind::EmbeddingGrad { .. } => {
                panic!("gradient ops must not appear in the forward pass");
            }
        }
    }

    // One scatter-add per embedding table for the whole sequence: indices
    // and upstream gradients of all lookups concatenate along the batch
    // axis, then a single EmbeddingGrad materializes the table gradient.
    for (table, contribs) in embed_contribs {
        let mut bw_ctx = Provenance::layer("backward");
        bw_ctx.pass = Pass::Backward;
        g.set_context(bw_ctx);
        let vocab = g.shape(table).dims()[0];
        let (all_idx, all_dy) = if contribs.len() == 1 {
            contribs[0]
        } else {
            let idxs: Vec<TensorId> = contribs.iter().map(|&(i, _)| i).collect();
            let dys: Vec<TensorId> = contribs.iter().map(|&(_, d)| d).collect();
            let ci = g.apply_role(OpKind::Concat { axis: 0 }, &idxs, "embed.idx");
            let cd = g.apply_role(OpKind::Concat { axis: 0 }, &dys, "embed.dy");
            (ci, cd)
        };
        let dt = g.apply_role(OpKind::EmbeddingGrad { vocab }, &[all_dy, all_idx], "dTable");
        accumulate(g, &mut grads, table, dt);
    }

    g.set_context(saved_ctx);
    BackwardResult { seed, grads }
}

/// If `target` was broadcast against a `[m,n]` gradient, sum the gradient
/// back down to the target's shape; otherwise pass it through.
fn reduce_if_broadcast(g: &mut Graph, dy: TensorId, target: TensorId) -> TensorId {
    let need = g.shape(target).clone();
    if g.shape(dy) == &need {
        dy
    } else if need.dims()[0] == 1 {
        g.apply_role(OpKind::ReduceRows, &[dy], "dBias")
    } else {
        g.apply_role(OpKind::ReduceCols, &[dy], "dCol")
    }
}

/// Adds `new` into the accumulated gradient for `t` (creating the
/// mm/mm/add ladder pattern when several consumers contribute).
fn accumulate(g: &mut Graph, grads: &mut HashMap<TensorId, TensorId>, t: TensorId, new: TensorId) {
    match grads.get(&t) {
        None => {
            grads.insert(t, new);
        }
        Some(&old) => {
            let sum = g.apply_role(OpKind::Add, &[old, new], "grad_acc");
            grads.insert(t, sum);
        }
    }
}

/// Convenience: all parameter gradients, as `(param, grad)` pairs in
/// parameter declaration order.
pub fn param_grads(g: &Graph, back: &BackwardResult) -> Vec<(TensorId, TensorId)> {
    (0..g.num_tensors() as u32)
        .map(TensorId)
        .filter(|t| g.tensor(*t).kind == TensorKind::Param)
        .filter_map(|t| back.grad(t).map(|d| (t, d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_grads_have_right_shapes() {
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(4, 8), "x");
        let w = g.param(Shape::matrix(8, 2), "w");
        let y = g.mm(x, w);
        let loss = g.reduce_sum(y);
        let back = append_backward(&mut g, loss);
        assert_eq!(g.shape(back.grad(x).unwrap()), &Shape::matrix(4, 8));
        assert_eq!(g.shape(back.grad(w).unwrap()), &Shape::matrix(8, 2));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn shared_tensor_gradient_accumulates() {
        // y = sigmoid(x) * tanh(x): x has two consumers -> grad_acc add.
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(4, 4), "x");
        let a = g.sigmoid(x);
        let b = g.tanh(x);
        let y = g.mul(a, b);
        let loss = g.reduce_sum(y);
        let back = append_backward(&mut g, loss);
        assert!(back.grad(x).is_some());
        let acc_nodes = g
            .nodes()
            .iter()
            .filter(|n| n.prov.pass == Pass::Backward && n.prov.role.ends_with("grad_acc"))
            .count();
        assert!(acc_nodes >= 1, "expected a gradient accumulation add");
    }

    #[test]
    fn bias_broadcast_grad_reduces_rows() {
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(32, 100), "x");
        let b = g.param(Shape::matrix(1, 100), "b");
        let y = g.add(x, b);
        let loss = g.reduce_sum(y);
        let back = append_backward(&mut g, loss);
        assert_eq!(g.shape(back.grad(b).unwrap()), &Shape::matrix(1, 100));
    }

    #[test]
    fn embedding_grad_is_table_shaped() {
        let mut g = Graph::new();
        let idx = g.input(Shape::vector(16), "idx");
        let table = g.param(Shape::matrix(1000, 64), "emb");
        let e = g.embedding(idx, table);
        let loss = g.reduce_sum(e);
        let back = append_backward(&mut g, loss);
        assert_eq!(g.shape(back.grad(table).unwrap()), &Shape::matrix(1000, 64));
        assert!(back.grad(idx).is_none());
    }

    #[test]
    fn backward_nodes_inherit_provenance() {
        let mut g = Graph::new();
        g.set_context(Provenance::layer("cell").at_step(2).with_role("gate"));
        let x = g.input(Shape::matrix(4, 8), "x");
        let w = g.param(Shape::matrix(8, 8), "w");
        let y = g.mm(x, w);
        g.set_context(Provenance::default());
        let loss = g.reduce_sum(y);
        let back = append_backward(&mut g, loss);
        let dw = back.grad(w).unwrap();
        let n = g.node(g.producer(dw).unwrap());
        assert_eq!(n.prov.pass, Pass::Backward);
        assert_eq!(n.prov.layer, "cell");
        assert_eq!(n.prov.timestep, Some(2));
    }

    #[test]
    fn backward_is_majority_of_nodes_for_deep_graphs() {
        // Paper §5.1: ~2/3 of compute is the backward pass.
        let mut g = Graph::new();
        let mut h = g.input(Shape::matrix(16, 64), "x");
        for i in 0..6 {
            let w = g.param(Shape::matrix(64, 64), format!("w{i}"));
            let z = g.mm(h, w);
            h = g.tanh(z);
        }
        let loss = g.reduce_sum(h);
        let fw_nodes = g.nodes().len();
        append_backward(&mut g, loss);
        let bw_nodes = g.nodes().len() - fw_nodes;
        assert!(bw_nodes > fw_nodes, "backward {bw_nodes} !> forward {fw_nodes}");
    }

    #[test]
    fn concat_grads_are_slices() {
        let mut g = Graph::new();
        let a = g.input(Shape::matrix(4, 3), "a");
        let b = g.input(Shape::matrix(4, 5), "b");
        let c = g.apply(OpKind::Concat { axis: 1 }, &[a, b]);
        let loss = g.reduce_sum(c);
        let back = append_backward(&mut g, loss);
        assert_eq!(g.shape(back.grad(a).unwrap()), &Shape::matrix(4, 3));
        assert_eq!(g.shape(back.grad(b).unwrap()), &Shape::matrix(4, 5));
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn non_scalar_loss_panics() {
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(2, 2), "x");
        let y = g.sigmoid(x);
        append_backward(&mut g, y);
    }
}
