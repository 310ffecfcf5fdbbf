//! The data-flow graph (DFG) and its builder.
//!
//! Nodes are operators, edges are tensors (paper §2.2). The builder keeps
//! nodes in SSA/topological order and tracks *provenance* — which layer,
//! timestep, and pass each node came from — which the Astra enumerator uses
//! both to restrict fusion candidates ("same provenance", §4.4.1) and to form
//! equivalence classes for stream exploration (§4.5.5).

use std::collections::HashMap;


use crate::op::OpKind;
use crate::tensor::{Shape, TensorId, TensorInfo, TensorKind};

/// Identifier of a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which pass of training a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Feed-forward computation.
    Forward,
    /// Back-propagation (roughly two-thirds of the compute, §5.1).
    Backward,
}

/// Where a node came from in the model source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// Layer name (e.g. `"lstm2"`, `"attention"`).
    pub layer: String,
    /// Recurrent timestep, if inside an unrolled recurrence.
    pub timestep: Option<u32>,
    /// Role within the layer (e.g. `"gate_x"`, `"cand_h"`).
    pub role: String,
    /// Forward or backward pass.
    pub pass: Pass,
}

impl Default for Provenance {
    fn default() -> Self {
        Provenance { layer: String::new(), timestep: None, role: String::new(), pass: Pass::Forward }
    }
}

impl Provenance {
    /// Provenance for `layer` with no timestep/role.
    pub fn layer(layer: impl Into<String>) -> Self {
        Provenance { layer: layer.into(), ..Provenance::default() }
    }

    /// Returns this provenance at a given timestep.
    pub fn at_step(mut self, t: u32) -> Self {
        self.timestep = Some(t);
        self
    }

    /// Returns this provenance with a role label.
    pub fn with_role(mut self, role: impl Into<String>) -> Self {
        self.role = role.into();
        self
    }

    /// The structural identity ignoring timestep: nodes that differ only in
    /// timestep are "the same operation" for fusion/equivalence purposes.
    pub fn structural_key(&self) -> (String, String, Pass) {
        (self.layer.clone(), self.role.clone(), self.pass)
    }
}

/// One operator application.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operator.
    pub op: OpKind,
    /// Input tensors, in operator order.
    pub inputs: Vec<TensorId>,
    /// The produced tensor.
    pub output: TensorId,
    /// Source provenance.
    pub prov: Provenance,
}

/// A data-flow graph in SSA form; node order is a valid topological order.
///
/// # Examples
///
/// ```
/// use astra_ir::{Graph, Shape};
///
/// let mut g = Graph::new();
/// let x = g.input(Shape::matrix(8, 16), "x");
/// let w = g.param(Shape::matrix(16, 4), "w");
/// let y = g.mm(x, w);
/// assert_eq!(g.shape(y), &Shape::matrix(8, 4));
/// assert_eq!(g.nodes().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    tensors: Vec<TensorInfo>,
    nodes: Vec<Node>,
    /// Producer node of each tensor (None for inputs/params).
    producer: Vec<Option<NodeId>>,
    /// Consumer nodes of each tensor, in node order, each listed once
    /// however many of its operands read the tensor.
    consumers: Vec<Vec<NodeId>>,
    /// Ambient provenance applied to newly added nodes.
    ctx: Provenance,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Sets the ambient provenance for subsequently added nodes.
    pub fn set_context(&mut self, prov: Provenance) {
        self.ctx = prov;
    }

    /// Current ambient provenance.
    pub fn context(&self) -> &Provenance {
        &self.ctx
    }

    fn add_tensor(&mut self, shape: Shape, kind: TensorKind, name: Option<String>) -> TensorId {
        let id = TensorId(self.tensors.len() as u32);
        self.tensors.push(TensorInfo { shape, kind, name });
        self.producer.push(None);
        self.consumers.push(Vec::new());
        id
    }

    /// Declares a mini-batch input tensor.
    pub fn input(&mut self, shape: Shape, name: impl Into<String>) -> TensorId {
        self.add_tensor(shape, TensorKind::Input, Some(name.into()))
    }

    /// Declares a learned parameter tensor.
    pub fn param(&mut self, shape: Shape, name: impl Into<String>) -> TensorId {
        self.add_tensor(shape, TensorKind::Param, Some(name.into()))
    }

    /// Applies `op` to `inputs`, inferring the output shape. The new node
    /// takes the ambient provenance with `role` appended.
    ///
    /// # Panics
    ///
    /// Panics if shapes or arity are invalid for `op`, or an input id is out
    /// of range.
    pub fn apply_role(&mut self, op: OpKind, inputs: &[TensorId], role: &str) -> TensorId {
        for t in inputs {
            assert!((t.0 as usize) < self.tensors.len(), "unknown tensor {t}");
        }
        let shapes: Vec<&Shape> = inputs.iter().map(|t| &self.tensors[t.0 as usize].shape).collect();
        let out_shape = op.infer_shape(&shapes);
        let kind = if self.ctx.pass == Pass::Backward {
            TensorKind::Gradient
        } else {
            TensorKind::Intermediate
        };
        let output = self.add_tensor(out_shape, kind, None);
        let mut prov = self.ctx.clone();
        if !role.is_empty() {
            prov.role = if prov.role.is_empty() { role.to_owned() } else { format!("{}.{role}", prov.role) };
        }
        let node_id = NodeId(self.nodes.len() as u32);
        for t in inputs {
            let users = &mut self.consumers[t.0 as usize];
            if users.last() != Some(&node_id) {
                users.push(node_id);
            }
        }
        self.nodes.push(Node { op, inputs: inputs.to_vec(), output, prov });
        self.producer[output.0 as usize] = Some(node_id);
        output
    }

    /// Applies `op` with the ambient provenance unchanged.
    pub fn apply(&mut self, op: OpKind, inputs: &[TensorId]) -> TensorId {
        self.apply_role(op, inputs, "")
    }

    /// Matrix multiplication.
    pub fn mm(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::MatMul, &[a, b])
    }

    /// Element-wise (or bias-broadcast) addition.
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Add, &[a, b])
    }

    /// Element-wise subtraction.
    pub fn sub(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Sub, &[a, b])
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Mul, &[a, b])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Sigmoid, &[x])
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Tanh, &[x])
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Relu, &[x])
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Softmax, &[x])
    }

    /// Embedding lookup of `indices` into `table`.
    pub fn embedding(&mut self, indices: TensorId, table: TensorId) -> TensorId {
        self.apply(OpKind::Embedding, &[indices, table])
    }

    /// 2-D transpose.
    pub fn transpose(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Transpose, &[x])
    }

    /// 2-D convolution of `x` (encoded `[batch, c_in*h*w]`) with `weights`
    /// (`[c_out, c_in*kh*kw]`), valid padding, stride 1.
    pub fn conv2d(&mut self, x: TensorId, weights: TensorId, dims: crate::op::ConvDims) -> TensorId {
        self.apply(OpKind::Conv2d(dims), &[x, weights])
    }

    /// Scalar loss: sum of all elements.
    pub fn reduce_sum(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::ReduceSum, &[x])
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Tensor metadata.
    pub fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id.0 as usize]
    }

    /// A tensor's shape.
    pub fn shape(&self, id: TensorId) -> &Shape {
        &self.tensors[id.0 as usize].shape
    }

    /// The node producing `t`, if any (inputs/params have no producer).
    pub fn producer(&self, t: TensorId) -> Option<NodeId> {
        self.producer[t.0 as usize]
    }

    /// Ids of all nodes that consume `t`, in node order, each once.
    pub fn consumers(&self, t: TensorId) -> &[NodeId] {
        &self.consumers[t.0 as usize]
    }

    /// Whether node `b` (transitively) depends on node `a`'s output.
    ///
    /// Each call allocates a node-long bitset and walks the graph from `a`
    /// to `b`, O(N): it is meant for one-off queries. Questions about many
    /// pairs at once go to [`Graph::groups_independent`].
    pub fn depends_on(&self, b: NodeId, a: NodeId) -> bool {
        if a == b {
            return false;
        }
        // Nodes are topologically ordered; walk reachability with a bitset.
        let mut reach = vec![false; self.nodes.len()];
        reach[a.0 as usize] = true;
        for i in (a.0 as usize + 1)..=(b.0 as usize) {
            let depends = self.nodes[i].inputs.iter().any(|t| {
                self.producer[t.0 as usize].is_some_and(|p| reach[p.0 as usize])
            });
            reach[i] = depends;
        }
        reach[b.0 as usize]
    }

    /// Whether no node of one group (transitively) depends on a node of
    /// another group, in either direction: `!depends_on(b, a)` for every
    /// `a` and `b` in different groups. The groups must be node-disjoint.
    ///
    /// One forward sweep over the groups' node-id range answers every pair
    /// at once, in O(nodes + edges) of that range. The sweep carries, for
    /// each node, up to two distinct groups whose members reach it; a
    /// member reached from a group other than its own fails the check. Two
    /// groups suffice, since with two distinct groups at least one differs
    /// from any member's own.
    pub fn groups_independent(&self, groups: &[Vec<NodeId>]) -> bool {
        const NONE: u32 = u32::MAX;
        let ids = || groups.iter().flatten().map(|n| n.0 as usize);
        let (Some(lo), Some(hi)) = (ids().min(), ids().max()) else { return true };
        // `group[i - lo]`: the group of member `i`; `reach[i - lo]`: up to
        // two distinct groups of members that node `i` depends on.
        let mut group = vec![NONE; hi - lo + 1];
        for (g, members) in groups.iter().enumerate() {
            for n in members {
                group[n.0 as usize - lo] = g as u32;
            }
        }
        let mut reach = vec![[NONE; 2]; hi - lo + 1];
        for i in lo..=hi {
            let mut seen = [NONE; 2];
            for t in &self.nodes[i].inputs {
                // Nodes before `lo` depend on no member.
                let Some(p) = self.producer[t.0 as usize].map(|p| p.0 as usize) else { continue };
                if p < lo {
                    continue;
                }
                let [r0, r1] = reach[p - lo];
                for g in [group[p - lo], r0, r1] {
                    if g == NONE || seen.contains(&g) {
                        continue;
                    }
                    if let Some(slot) = seen.iter_mut().find(|s| **s == NONE) {
                        *slot = g;
                    }
                }
            }
            let own = group[i - lo];
            if own != NONE && seen.iter().any(|&g| g != NONE && g != own) {
                return false;
            }
            reach[i - lo] = seen;
        }
        true
    }

    /// Whether tensor `b` (transitively) depends on tensor `a`.
    pub fn tensor_depends_on(&self, b: TensorId, a: TensorId) -> bool {
        let Some(pb) = self.producer[b.0 as usize] else { return false };
        if a == b {
            return false;
        }
        let mut reach_t = vec![false; self.tensors.len()];
        reach_t[a.0 as usize] = true;
        for node in &self.nodes[..=(pb.0 as usize)] {
            if node.inputs.iter().any(|t| reach_t[t.0 as usize]) {
                reach_t[node.output.0 as usize] = true;
            }
        }
        reach_t[b.0 as usize]
    }

    /// Dependency level of each node: inputs/params are level 0 sources; a
    /// node's level is `1 + max(level of producing nodes of its inputs)`.
    /// Nodes on the same level are mutually independent *within* a level
    /// given prior levels complete — the epoch structure of §4.5.4.
    pub fn levels(&self) -> Vec<u32> {
        let mut tensor_level: HashMap<TensorId, u32> = HashMap::new();
        let mut node_level = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let lvl = node
                .inputs
                .iter()
                .map(|t| tensor_level.get(t).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            node_level.push(lvl);
            tensor_level.insert(node.output, lvl + 1);
        }
        node_level
    }

    /// Validates the SSA/topological invariants; used by property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut defined = vec![false; self.tensors.len()];
        for (i, info) in self.tensors.iter().enumerate() {
            if matches!(info.kind, TensorKind::Input | TensorKind::Param) {
                defined[i] = true;
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for t in &node.inputs {
                if !defined[t.0 as usize] {
                    return Err(format!("node n{i} uses undefined tensor {t}"));
                }
            }
            if defined[node.output.0 as usize] {
                return Err(format!("node n{i} redefines tensor {}", node.output));
            }
            defined[node.output.0 as usize] = true;
            if self.producer[node.output.0 as usize] != Some(NodeId(i as u32)) {
                return Err(format!("producer table wrong for {}", node.output));
            }
        }
        let mut users: Vec<Vec<NodeId>> = vec![Vec::new(); self.tensors.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for t in &node.inputs {
                let u = &mut users[t.0 as usize];
                if u.last() != Some(&NodeId(i as u32)) {
                    u.push(NodeId(i as u32));
                }
            }
        }
        if let Some(t) = (0..self.tensors.len()).find(|&t| users[t] != self.consumers[t]) {
            return Err(format!("consumer table wrong for {}", TensorId(t as u32)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, TensorId, TensorId, TensorId, TensorId) {
        // x -> a = sigmoid(x); b = tanh(x); c = a * b
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(4, 4), "x");
        let a = g.sigmoid(x);
        let b = g.tanh(x);
        let c = g.mul(a, b);
        (g, x, a, b, c)
    }

    #[test]
    fn builder_maintains_topo_order_and_validates() {
        let (g, ..) = diamond();
        assert!(g.validate().is_ok());
        let levels = g.levels();
        assert_eq!(levels, vec![0, 0, 1]);
    }

    #[test]
    fn dependency_queries() {
        let (g, x, a, b, c) = diamond();
        let pa = g.producer(a).unwrap();
        let pb = g.producer(b).unwrap();
        let pc = g.producer(c).unwrap();
        assert!(g.depends_on(pc, pa));
        assert!(g.depends_on(pc, pb));
        assert!(!g.depends_on(pb, pa));
        assert!(!g.depends_on(pa, pa));
        assert!(g.tensor_depends_on(c, x));
        assert!(!g.tensor_depends_on(a, b));
        assert!(g.groups_independent(&[vec![pa], vec![pb]]));
        assert!(g.groups_independent(&[vec![pa, pc], vec![]]));
        assert!(!g.groups_independent(&[vec![pa], vec![pc]]));
        assert!(!g.groups_independent(&[vec![pc], vec![pb]]));
        assert!(g.groups_independent(&[]));
    }

    #[test]
    fn consumers_found() {
        let (g, x, a, b, _c) = diamond();
        assert_eq!(g.consumers(x).len(), 2);
        assert_eq!(g.consumers(a).len(), 1);
        assert_eq!(g.consumers(b).len(), 1);
    }

    #[test]
    fn provenance_context_applied() {
        let mut g = Graph::new();
        g.set_context(Provenance::layer("lstm1").at_step(3));
        let x = g.input(Shape::matrix(2, 2), "x");
        let y = g.sigmoid(x);
        let node = g.node(g.producer(y).unwrap());
        assert_eq!(node.prov.layer, "lstm1");
        assert_eq!(node.prov.timestep, Some(3));
    }

    #[test]
    fn gradient_kind_in_backward_context() {
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(2, 2), "x");
        let mut ctx = Provenance::layer("l");
        ctx.pass = Pass::Backward;
        g.set_context(ctx);
        let y = g.sigmoid(x);
        assert_eq!(g.tensor(y).kind, TensorKind::Gradient);
    }

    #[test]
    fn structural_key_ignores_timestep() {
        let a = Provenance::layer("l").with_role("gate").at_step(1);
        let b = Provenance::layer("l").with_role("gate").at_step(7);
        assert_eq!(a.structural_key(), b.structural_key());
    }
}
