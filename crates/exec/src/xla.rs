//! The XLA-like static optimizer baseline (§3.5, §6.6).
//!
//! XLA compiles the graph once with fixed heuristics: element-wise clusters
//! are fused into single kernels, but there is no measurement and no
//! adaptation. Two properties from the paper are modelled:
//!
//! * **The win**: fused element-wise clusters remove launch overhead and HBM
//!   round trips, giving the 1.1-1.45x speedups of Table 9.
//! * **The pathology**: XLA "handles embeddings poorly, resulting in
//!   multiple transitions between CPU and GPU for lookups" — every embedding
//!   lookup costs a blocking host synchronization plus a PCIe round trip,
//!   which makes XLA *slower than native* on embedding-heavy models (3x
//!   worse for SCRNN in the paper). A static compiler cannot turn the
//!   mis-optimization off; Astra's measurement-driven approach would.

use astra_gpu::{KernelDesc, Schedule, StreamId};
use astra_ir::{Graph, OpKind};

use crate::fusion::fuse_elementwise_chains;
use crate::lowering::Lowering;

/// Builds the XLA-compiled schedule.
///
/// # Examples
///
/// ```
/// use astra_exec::{lower, xla_schedule};
/// use astra_ir::{Graph, Shape};
///
/// let mut g = Graph::new();
/// let x = g.input(Shape::matrix(8, 8), "x");
/// let a = g.sigmoid(x);
/// let _ = g.tanh(a);
/// let sched = xla_schedule(&g, &lower(&g));
/// assert_eq!(sched.num_launches(), 1); // one fused elementwise kernel
/// ```
pub fn xla_schedule(graph: &Graph, lowering: &Lowering) -> Schedule {
    let chains = fuse_elementwise_chains(graph, lowering);
    // node index -> (chain id, is_last_member)
    let mut chain_last = vec![false; graph.nodes().len()];
    let mut in_chain = vec![false; graph.nodes().len()];
    let mut chain_kernel_at: Vec<Option<KernelDesc>> = vec![None; graph.nodes().len()];
    for chain in &chains {
        for &m in &chain.nodes {
            in_chain[m.0 as usize] = true;
        }
        let last = chain.nodes.last().expect("chains are non-empty");
        chain_last[last.0 as usize] = true;
        chain_kernel_at[last.0 as usize] = Some(chain.kernel);
    }

    let mut sched = Schedule::new(1);
    for (i, op) in lowering.ops().iter().enumerate() {
        let node = graph.node(op.node);
        if matches!(node.op, OpKind::Embedding | OpKind::EmbeddingGrad { .. }) {
            // The pathology: lookup bounces through the host.
            sched.host_sync();
            let bytes = graph.shape(node.output).bytes() as f64;
            sched.launch_labeled(
                StreamId(0),
                KernelDesc::HostRoundtrip { bytes },
                &[],
                "xla-embedding-roundtrip",
            );
        }
        if in_chain[i] {
            if chain_last[i] {
                let kernel = chain_kernel_at[i].take().expect("last member has kernel");
                sched.launch_labeled(StreamId(0), kernel, &[], "xla-fused-ew");
            }
            continue;
        }
        if let Some(kernel) = &op.kernel {
            sched.launch(StreamId(0), *kernel);
        }
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowering::lower;
    use crate::native::native_schedule;
    use astra_gpu::{DeviceSpec, Engine};
    use astra_models::Model;

    fn small(m: Model, use_embedding: bool) -> (Graph, Lowering) {
        let mut c = m.default_config(16);
        c.hidden = 256;
        c.input = 256;
        c.vocab = 1000;
        c.seq_len = 4;
        c.use_embedding = use_embedding;
        let built = m.build(&c);
        let lowering = lower(&built.graph);
        (built.graph, lowering)
    }

    #[test]
    fn xla_beats_native_without_embeddings() {
        let dev = DeviceSpec::p100();
        for m in [Model::Scrnn, Model::SubLstm] {
            let (g, l) = small(m, false);
            let native = Engine::new(&dev).run(&native_schedule(&l)).unwrap().total_ns;
            let xla = Engine::new(&dev).run(&xla_schedule(&g, &l)).unwrap().total_ns;
            assert!(xla < native, "{m}: xla {xla} should beat native {native}");
        }
    }

    #[test]
    fn xla_loses_to_native_with_embeddings() {
        // The paper's robustness result: embeddings make XLA *worse* than
        // the unoptimized baseline.
        let dev = DeviceSpec::p100();
        let (g, l) = small(Model::Scrnn, true);
        let native = Engine::new(&dev).run(&native_schedule(&l)).unwrap().total_ns;
        let xla = Engine::new(&dev).run(&xla_schedule(&g, &l)).unwrap().total_ns;
        assert!(
            xla > native,
            "embedding pathology: xla {xla} should lose to native {native}"
        );
    }

    #[test]
    fn xla_launches_fewer_kernels() {
        let (g, l) = small(Model::MiLstm, false);
        let xla = xla_schedule(&g, &l);
        assert!(xla.num_launches() < l.num_kernels());
    }
}
