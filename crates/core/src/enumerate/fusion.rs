//! GEMM fusion enumeration (paper §4.4.1).
//!
//! The enumerator finds *maximal* fusion candidates by graph pattern
//! matching; the custom wirer later decides the actual fusion granularity by
//! chunking. Two patterns are detected:
//!
//! * **Shared-argument sets** — GEMMs with a common left argument and no
//!   dependency among them (the paper's `%10 = mm(%1, %5); %11 = mm(%1, %6)`
//!   example). Fused by stacking the right operands along N.
//! * **Fusion ladders** — GEMM-accumulator chains
//!   (`mm + mm + add`), fused along the reduction dimension K. Gradient
//!   accumulation in the generated backward pass produces these naturally.
//!
//! Both patterns extend along a second axis: instances of the same structural
//! operation at different timesteps can additionally be stacked along M
//! (a *2-D fusion set*), when no recurrent dependency links the rows. To
//! keep the state space small, only nodes with the same provenance are
//! grouped (§4.4.1), and membership is node-disjoint — conflicts between
//! sets arise through *tensors* (allocation), not shared nodes, and are
//! handled by `enumerate::alloc`.

use std::collections::{BTreeMap, HashMap, HashSet};

use astra_gpu::GemmShape;
use astra_ir::{Graph, NodeId, OpKind, TensorId};

/// How the columns of a fusion set combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// Columns share the left operand; fusion stacks right operands along N.
    SharedLeft,
    /// Columns form an accumulation ladder; fusion stacks along K.
    Ladder,
}

/// A (possibly 2-D) GEMM fusion candidate.
///
/// Columns need not be dimension-uniform: shared-left columns may have
/// different `n` (SC-RNN's context and hidden projections both read `x`),
/// and ladder columns may have different `k` (gradient contributions coming
/// through differently-sized weights). The stacked axis simply sums.
#[derive(Debug, Clone)]
pub struct FusionSet {
    /// Stable identifier (used as the adaptive variable / profile entity).
    pub id: String,
    /// `nodes[r][c]`: the GEMM node at row-instance `r`, column `c`.
    pub nodes: Vec<Vec<NodeId>>,
    /// Shape of the first column's members (`m` and the non-stacked
    /// dimension are uniform across columns).
    pub base_shape: GemmShape,
    /// Per-column size along the stacked dimension: `n` per column for
    /// [`ColKind::SharedLeft`], `k` per column for [`ColKind::Ladder`].
    pub col_dims: Vec<u64>,
    /// Column combination kind.
    pub col_kind: ColKind,
    /// Whether rows may be stacked along M (no cross-row dependencies).
    pub row_fusable: bool,
    /// For ladders: the absorbed accumulation `Add` nodes, per row.
    pub ladder_adds: Vec<Vec<NodeId>>,
}

impl FusionSet {
    /// Number of row instances.
    pub fn rows(&self) -> usize {
        self.nodes.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.nodes.first().map_or(0, |r| r.len())
    }

    /// Chunk-size choices along the row axis (powers of two up to the row
    /// count, plus the full count). `[1]` when rows cannot fuse.
    pub fn row_chunks(&self) -> Vec<usize> {
        if self.row_fusable {
            chunk_choices(self.rows())
        } else {
            vec![1]
        }
    }

    /// Chunk-size choices along the column axis.
    pub fn col_chunks(&self) -> Vec<usize> {
        chunk_choices(self.cols())
    }

    /// The fused GEMM shape of a block spanning `rc` rows and the columns
    /// `[col_start, col_start + cc)`.
    pub fn block_shape(&self, rc: usize, col_start: usize, cc: usize) -> GemmShape {
        let s = self.base_shape;
        let stacked: u64 = self.col_dims[col_start..(col_start + cc).min(self.col_dims.len())]
            .iter()
            .sum();
        match self.col_kind {
            ColKind::SharedLeft => GemmShape::new(s.m * rc as u64, s.k, stacked),
            ColKind::Ladder => GemmShape::new(s.m * rc as u64, stacked, s.n),
        }
    }

    /// Every member node, flattened.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().flatten().copied()
    }

    /// Tensor lists that must be allocated contiguously (in order) for
    /// zero-copy fusion at *any* chunking: per-column row stacks (left
    /// operands and outputs along M) and the per-row column stacks.
    pub fn adjacency_requirements(&self, graph: &Graph) -> Vec<Vec<TensorId>> {
        let mut reqs = Vec::new();
        // Column fusion requirements (per row).
        if self.cols() > 1 {
            match self.col_kind {
                ColKind::SharedLeft => {
                    // Right operands (identical across rows): one list.
                    let rights: Vec<TensorId> =
                        self.nodes[0].iter().map(|&n| graph.node(n).inputs[1]).collect();
                    reqs.push(rights);
                }
                ColKind::Ladder => {
                    for row in &self.nodes {
                        let lefts: Vec<TensorId> =
                            row.iter().map(|&n| graph.node(n).inputs[0]).collect();
                        reqs.push(lefts);
                        let rights: Vec<TensorId> =
                            row.iter().map(|&n| graph.node(n).inputs[1]).collect();
                        reqs.push(rights);
                    }
                }
            }
        }
        // Row fusion requirements (per column): left operands and outputs
        // stacked along M.
        if self.row_fusable && self.rows() > 1 {
            for c in 0..self.cols() {
                let lefts: Vec<TensorId> =
                    self.nodes.iter().map(|r| graph.node(r[c]).inputs[0]).collect();
                reqs.push(lefts);
            }
        }
        reqs.retain(|r| r.len() > 1);
        // Deduplicate identical requirement lists (ladder rows often repeat
        // the same right-operand params).
        let mut seen = HashSet::new();
        reqs.retain(|r| seen.insert(r.clone()));
        reqs
    }
}

/// Chunk choices: powers of two up to `n`, plus `n` itself.
fn chunk_choices(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut c = 1;
    while c < n {
        out.push(c);
        c *= 2;
    }
    out.push(n);
    out.dedup();
    out
}

/// Structural identity of a GEMM node: provenance modulo timestep.
fn structural_key(graph: &Graph, n: NodeId) -> (String, String, astra_ir::Pass) {
    graph.node(n).prov.structural_key()
}

/// Finds all fusion sets in `graph`. Sets are node-disjoint; shared-argument
/// sets take priority over ladders.
pub fn enumerate_fusion(graph: &Graph) -> Vec<FusionSet> {
    let mut used: HashSet<NodeId> = HashSet::new();
    let mut sets = Vec::new();
    sets.extend(shared_left_sets(graph, &mut used));
    sets.extend(ladder_sets(graph, &mut used));
    sets.sort_by(|a, b| a.id.cmp(&b.id));
    sets
}

/// Shape of a matmul node.
fn mm_shape(graph: &Graph, n: NodeId) -> GemmShape {
    let node = graph.node(n);
    let a = graph.shape(node.inputs[0]);
    let b = graph.shape(node.inputs[1]);
    GemmShape::new(a.dims()[0], a.dims()[1], b.dims()[1])
}

/// Detects shared-left-argument sets with timestep rows.
fn shared_left_sets(graph: &Graph, used: &mut HashSet<NodeId>) -> Vec<FusionSet> {
    // Structural column: key -> sorted (timestep, node).
    let mut columns: BTreeMap<(String, String, String), Vec<(u32, NodeId)>> = BTreeMap::new();
    for (i, node) in graph.nodes().iter().enumerate() {
        if !matches!(node.op, OpKind::MatMul) {
            continue;
        }
        let id = NodeId(i as u32);
        let (layer, role, pass) = structural_key(graph, id);
        let pass_s = format!("{pass:?}");
        let t = node.prov.timestep.unwrap_or(0);
        columns.entry((layer, role, pass_s)).or_default().push((t, id));
    }
    for v in columns.values_mut() {
        v.sort_unstable();
    }

    // Cluster columns by (pass, layer, m, k, left-operand sequence) —
    // columns may differ in n (they stack along N).
    #[allow(clippy::type_complexity)]
    let mut clusters: HashMap<(String, String, u64, u64, Vec<TensorId>), Vec<(String, Vec<NodeId>)>> =
        HashMap::new();
    for ((layer, role, pass), members) in &columns {
        // Uniform timesteps only: one node per timestep.
        let nodes: Vec<NodeId> = members.iter().map(|&(_, n)| n).collect();
        let ts: Vec<u32> = members.iter().map(|&(t, _)| t).collect();
        let mut uniq = ts.clone();
        uniq.dedup();
        if uniq.len() != ts.len() {
            continue;
        }
        let shape = mm_shape(graph, nodes[0]);
        if nodes.iter().any(|&n| mm_shape(graph, n) != shape) {
            continue;
        }
        let lefts: Vec<TensorId> = nodes.iter().map(|&n| graph.node(n).inputs[0]).collect();
        clusters
            .entry((pass.clone(), layer.clone(), shape.m, shape.k, lefts))
            .or_default()
            .push((role.clone(), nodes));
    }

    let mut sets = Vec::new();
    let mut keys: Vec<_> = clusters.keys().cloned().collect();
    keys.sort();
    for key in keys {
        let mut cols = clusters.remove(&key).expect("key exists");
        if cols.len() < 2 {
            continue;
        }
        cols.sort_by(|a, b| a.0.cmp(&b.0));
        let (pass, layer, _m, _k, _lefts) = &key;
        // Independence: no column member may depend on another column's
        // member in the same row (checked on row 0; rows are structurally
        // identical). Each column's row-0 member is its own group.
        let row0: Vec<Vec<NodeId>> = cols.iter().map(|(_, ns)| vec![ns[0]]).collect();
        if !graph.groups_independent(&row0) {
            continue;
        }
        let rows = cols[0].1.len();
        if cols.iter().any(|(_, ns)| ns.len() != rows) {
            continue;
        }
        let nodes: Vec<Vec<NodeId>> =
            (0..rows).map(|r| cols.iter().map(|(_, ns)| ns[r]).collect()).collect();
        if nodes.iter().flatten().any(|n| used.contains(n)) {
            continue;
        }
        let row_fusable = rows_independent(graph, &nodes);
        for n in nodes.iter().flatten() {
            used.insert(*n);
        }
        let roles: Vec<&str> = cols.iter().map(|(r, _)| r.as_str()).collect();
        let col_dims: Vec<u64> =
            cols.iter().map(|(_, ns)| mm_shape(graph, ns[0]).n).collect();
        let base_shape = mm_shape(graph, nodes[0][0]);
        sets.push(FusionSet {
            id: format!("F:{pass}:{layer}:{}", roles.join("+")),
            nodes,
            base_shape,
            col_dims,
            col_kind: ColKind::SharedLeft,
            row_fusable,
            ladder_adds: Vec::new(),
        });
    }
    sets
}

/// True when no member of any row depends on a member of another row in
/// *either* direction (stacking rows along M is then legal). Backward-pass
/// rows run in reverse timestep order, so both directions must be checked;
/// one sweep over the members' node range checks them all.
fn rows_independent(graph: &Graph, nodes: &[Vec<NodeId>]) -> bool {
    nodes.len() >= 2 && graph.groups_independent(nodes)
}

/// Detects GEMM-accumulator ladders: maximal add-trees over unused matmuls.
fn ladder_sets(graph: &Graph, used: &mut HashSet<NodeId>) -> Vec<FusionSet> {
    let nodes = graph.nodes();
    // An add qualifies when both inputs are single-consumer outputs of
    // (unused matmul | qualifying add). Find chain roots: qualifying adds
    // whose own output is NOT consumed by a further qualifying add.
    let mut qualifies: Vec<bool> = vec![false; nodes.len()];
    let is_mm_leaf = |graph: &Graph, t: TensorId, used: &HashSet<NodeId>| -> Option<NodeId> {
        let p = graph.producer(t)?;
        if matches!(graph.node(p).op, OpKind::MatMul)
            && !used.contains(&p)
            && graph.consumers(t).len() == 1
        {
            Some(p)
        } else {
            None
        }
    };
    for (i, node) in nodes.iter().enumerate() {
        if !matches!(node.op, OpKind::Add) {
            continue;
        }
        let ok = node.inputs.iter().all(|&inp| {
            if is_mm_leaf(graph, inp, used).is_some() {
                return true;
            }
            if let Some(p) = graph.producer(inp) {
                return qualifies[p.0 as usize] && graph.consumers(inp).len() == 1;
            }
            false
        });
        qualifies[i] = ok;
    }

    // Collect chains from roots.
    let mut instances: Vec<(Vec<NodeId>, Vec<NodeId>)> = Vec::new(); // (mms, adds)
    for (i, node) in nodes.iter().enumerate() {
        if !qualifies[i] {
            continue;
        }
        // Root: no qualifying-add consumer.
        let is_root = graph
            .consumers(node.output)
            .iter()
            .all(|c| !qualifies[c.0 as usize]);
        if !is_root {
            continue;
        }
        let mut mms = Vec::new();
        let mut adds = Vec::new();
        let mut stack = vec![NodeId(i as u32)];
        while let Some(cur) = stack.pop() {
            adds.push(cur);
            for &inp in &graph.node(cur).inputs {
                if let Some(mm) = is_mm_leaf(graph, inp, used) {
                    mms.push(mm);
                } else if let Some(p) = graph.producer(inp) {
                    stack.push(p);
                }
            }
        }
        mms.sort_unstable();
        // A self-add (`add(t, t)`) contributes the same leaf twice; a
        // one-leaf "ladder" is not a fusion candidate.
        mms.dedup();
        if mms.len() < 2 {
            continue;
        }
        // NodeId order is creation order, which is availability order in
        // both passes (the backward pass emits late timesteps first) — the
        // partial-sum combine chain therefore accumulates progressively
        // instead of holding every contribution alive.
        adds.sort_unstable();
        // K-stacking requires uniform (m, n); k may differ per member.
        let shape = mm_shape(graph, mms[0]);
        if mms.iter().any(|&m| {
            let s = mm_shape(graph, m);
            s.m != shape.m || s.n != shape.n
        }) {
            continue;
        }
        instances.push((mms, adds));
    }

    // Group instances by structural signature.
    type Instance = (u32, Vec<NodeId>, Vec<NodeId>);
    let mut by_sig: BTreeMap<String, Vec<Instance>> = BTreeMap::new();
    for (mms, adds) in instances {
        let mut sig_parts: Vec<String> = mms
            .iter()
            .map(|&m| {
                let (layer, role, pass) = structural_key(graph, m);
                format!("{layer}/{role}/{pass:?}")
            })
            .collect();
        let min_t = mms
            .iter()
            .filter_map(|&m| graph.node(m).prov.timestep)
            .min()
            .unwrap_or(0);
        sig_parts.sort();
        // Compact runs of identical structural keys ("part*count") — a
        // cross-timestep ladder otherwise repeats one key per step.
        let mut compact: Vec<String> = Vec::new();
        for part in sig_parts {
            match compact.last_mut() {
                Some(last) if last.split('*').next() == Some(part.as_str()) => {
                    let count: usize =
                        last.split('*').nth(1).and_then(|c| c.parse().ok()).unwrap_or(1);
                    *last = format!("{part}*{}", count + 1);
                }
                _ => compact.push(part),
            }
        }
        let sig = compact.join("+");
        by_sig.entry(sig).or_default().push((min_t, mms, adds));
    }

    let mut sets = Vec::new();
    for (sig, mut rows) in by_sig {
        rows.sort_by_key(|&(t, _, _)| t);
        let cols = rows[0].1.len();
        if rows.iter().any(|(_, mms, _)| mms.len() != cols) {
            // Ragged instances: emit each row as its own set.
            for (t, mms, adds) in rows {
                if mms.iter().any(|n| used.contains(n)) {
                    continue;
                }
                for &n in &mms {
                    used.insert(n);
                }
                let col_dims: Vec<u64> = mms.iter().map(|&m| mm_shape(graph, m).k).collect();
                sets.push(FusionSet {
                    id: format!("L:{sig}:t{t}"),
                    base_shape: mm_shape(graph, mms[0]),
                    col_dims,
                    nodes: vec![mms],
                    col_kind: ColKind::Ladder,
                    row_fusable: false,
                    ladder_adds: vec![adds],
                });
            }
            continue;
        }
        let node_matrix: Vec<Vec<NodeId>> = rows.iter().map(|(_, mms, _)| mms.clone()).collect();
        if node_matrix.iter().flatten().any(|n| used.contains(n)) {
            continue;
        }
        for n in node_matrix.iter().flatten() {
            used.insert(*n);
        }
        let row_fusable = rows_independent(graph, &node_matrix);
        let base_shape = mm_shape(graph, node_matrix[0][0]);
        let col_dims: Vec<u64> =
            node_matrix[0].iter().map(|&m| mm_shape(graph, m).k).collect();
        // Columns must be dimension-consistent across rows for 2-D blocks.
        let consistent = node_matrix.iter().all(|row| {
            row.iter().zip(&col_dims).all(|(&m, &k)| mm_shape(graph, m).k == k)
        });
        if !consistent {
            continue;
        }
        sets.push(FusionSet {
            id: format!("L:{sig}"),
            base_shape,
            col_dims,
            ladder_adds: rows.into_iter().map(|(_, _, adds)| adds).collect(),
            nodes: node_matrix,
            col_kind: ColKind::Ladder,
            row_fusable,
        });
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_ir::{append_backward, Provenance, Shape};

    /// Four gate-style GEMMs sharing x, at two timesteps.
    fn gate_graph() -> Graph {
        let mut g = Graph::new();
        let w: Vec<_> = (0..4)
            .map(|i| g.param(Shape::matrix(64, 128), format!("w{i}")))
            .collect();
        for t in 0..2 {
            let x = g.input(Shape::matrix(8, 64), format!("x{t}"));
            for (i, &wi) in w.iter().enumerate() {
                g.set_context(Provenance::layer("cell").at_step(t).with_role(format!("g{i}.x")));
                let _ = g.mm(x, wi);
            }
        }
        g
    }

    #[test]
    fn shared_left_set_detected_with_rows() {
        let g = gate_graph();
        let sets = enumerate_fusion(&g);
        assert_eq!(sets.len(), 1, "{sets:?}");
        let s = &sets[0];
        assert_eq!(s.col_kind, ColKind::SharedLeft);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.rows(), 2);
        assert!(s.row_fusable, "x_t are independent across steps");
        assert_eq!(s.block_shape(2, 0, 4), GemmShape::new(16, 64, 512));
    }

    #[test]
    fn recurrent_rows_are_not_fusable() {
        // h_{t+1} = mm(h_t, w): rows chained.
        let mut g = Graph::new();
        let w1 = g.param(Shape::matrix(32, 32), "w1");
        let w2 = g.param(Shape::matrix(32, 32), "w2");
        let mut h = g.input(Shape::matrix(4, 32), "h0");
        for t in 0..3 {
            g.set_context(Provenance::layer("rnn").at_step(t).with_role("a"));
            let a = g.mm(h, w1);
            g.set_context(Provenance::layer("rnn").at_step(t).with_role("b"));
            let b = g.mm(h, w2);
            g.set_context(Provenance::layer("rnn").at_step(t).with_role("act"));
            h = g.add(a, b);
        }
        let sets = enumerate_fusion(&g);
        let shared: Vec<_> = sets.iter().filter(|s| s.col_kind == ColKind::SharedLeft).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].cols(), 2);
        assert!(!shared[0].row_fusable, "recurrence forbids row fusion");
    }

    #[test]
    fn ladder_detected_from_paper_pattern() {
        // %12 = add(mm(%1,%5), mm(%2,%6)) — the §4.4.1 ladder.
        let mut g = Graph::new();
        let a1 = g.input(Shape::matrix(8, 32), "a1");
        let a2 = g.input(Shape::matrix(8, 32), "a2");
        let b1 = g.param(Shape::matrix(32, 16), "b1");
        let b2 = g.param(Shape::matrix(32, 16), "b2");
        g.set_context(Provenance::layer("l").with_role("p"));
        let m1 = g.mm(a1, b1);
        g.set_context(Provenance::layer("l").with_role("q"));
        let m2 = g.mm(a2, b2);
        g.set_context(Provenance::layer("l").with_role("acc"));
        let _ = g.add(m1, m2);
        let sets = enumerate_fusion(&g);
        assert_eq!(sets.len(), 1);
        let s = &sets[0];
        assert_eq!(s.col_kind, ColKind::Ladder);
        assert_eq!(s.cols(), 2);
        // K-stacking: (8 x 64) x (64 x 16).
        assert_eq!(s.block_shape(1, 0, 2), GemmShape::new(8, 64, 16));
        assert_eq!(s.ladder_adds[0].len(), 1);
    }

    #[test]
    fn backward_pass_produces_ladders() {
        // A weight used by two matmuls with different activations gets an
        // accumulated gradient: dw = mm(x1^T, ds) + mm(x2^T, ds) — a ladder
        // with distinct left operands (the §4.4.1 mm/mm/add pattern).
        let mut g = Graph::new();
        let x1 = g.input(Shape::matrix(8, 32), "x1");
        let x2 = g.input(Shape::matrix(8, 32), "x2");
        let w = g.param(Shape::matrix(32, 16), "w");
        g.set_context(Provenance::layer("l").with_role("m1"));
        let y1 = g.mm(x1, w);
        g.set_context(Provenance::layer("l").with_role("m2"));
        let y2 = g.mm(x2, w);
        g.set_context(Provenance::layer("l").with_role("join"));
        let s = g.add(y1, y2);
        let loss = g.reduce_sum(s);
        append_backward(&mut g, loss);
        let sets = enumerate_fusion(&g);
        assert!(
            sets.iter().any(|s| s.col_kind == ColKind::Ladder),
            "expected a backward ladder in {:?}",
            sets.iter().map(|s| &s.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sets_are_node_disjoint() {
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(8, 64), "x");
        for i in 0..4 {
            let w = g.param(Shape::matrix(64, 64), format!("w{i}"));
            g.set_context(Provenance::layer("l").with_role(format!("r{i}")));
            let _ = g.mm(x, w);
        }
        let sets = enumerate_fusion(&g);
        let mut seen = HashSet::new();
        for s in &sets {
            for n in s.all_nodes() {
                assert!(seen.insert(n), "node {n} in two sets");
            }
        }
    }

    #[test]
    fn hetero_n_columns_fuse_shared_left() {
        // SC-RNN forward: x feeds both a [64->16] and a [64->128] GEMM;
        // they fuse along N into [64 -> 144].
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(8, 64), "x");
        let b = g.param(Shape::matrix(64, 16), "B");
        let a = g.param(Shape::matrix(64, 128), "A");
        g.set_context(Provenance::layer("cell").at_step(0).with_role("ctx"));
        let _ = g.mm(x, b);
        g.set_context(Provenance::layer("cell").at_step(0).with_role("hid"));
        let _ = g.mm(x, a);
        let sets = enumerate_fusion(&g);
        assert_eq!(sets.len(), 1, "{sets:?}");
        assert_eq!(sets[0].col_dims, vec![16, 128]);
        assert_eq!(sets[0].block_shape(1, 0, 2), GemmShape::new(8, 64, 144));
    }

    #[test]
    fn hetero_k_ladder_fuses() {
        // ds = mm(p, P^T) + mm(q, V^T) with different inner dims.
        let mut g = Graph::new();
        let p1 = g.input(Shape::matrix(8, 32), "p");
        let q1 = g.input(Shape::matrix(8, 80), "q");
        let wp = g.param(Shape::matrix(32, 24), "wp");
        let wq = g.param(Shape::matrix(80, 24), "wq");
        g.set_context(Provenance::layer("l").with_role("a"));
        let m1 = g.mm(p1, wp);
        g.set_context(Provenance::layer("l").with_role("b"));
        let m2 = g.mm(q1, wq);
        g.set_context(Provenance::layer("l").with_role("acc"));
        let _ = g.add(m1, m2);
        let sets = enumerate_fusion(&g);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].col_kind, ColKind::Ladder);
        assert_eq!(sets[0].col_dims, vec![32, 80]);
        assert_eq!(sets[0].block_shape(1, 0, 2), GemmShape::new(8, 112, 24));
    }

    #[test]
    fn chunk_choices_cover_powers_and_full() {
        assert_eq!(chunk_choices(1), vec![1]);
        assert_eq!(chunk_choices(4), vec![1, 2, 4]);
        assert_eq!(chunk_choices(20), vec![1, 2, 4, 8, 16, 20]);
    }

    #[test]
    fn adjacency_requirements_for_shared_left() {
        let g = gate_graph();
        let sets = enumerate_fusion(&g);
        let reqs = sets[0].adjacency_requirements(&g);
        // Right operands (4 weights) + per-column left stacks (x0, x1) x4.
        assert!(reqs.iter().any(|r| r.len() == 4), "weight adjacency present");
        assert!(reqs.iter().filter(|r| r.len() == 2).count() >= 1, "row stacks present");
    }
}
