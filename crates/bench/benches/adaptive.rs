//! Microbenchmarks of the adaptation machinery: profile-index updates and
//! update-tree trial generation (both on the per-mini-batch critical path).

use std::hint::black_box;

use astra_core::{ExploreMode, ProfileIndex, ProfileKey, UpdateNode, UpdateTree};
use astra_util::report;

fn main() {
    report("profile_index_record_get", 10, 500, || {
        let mut idx = ProfileIndex::new();
        for i in 0..100 {
            let key = ProfileKey::entity(format!("gemm:{i}"), i % 3).in_context("alloc:1");
            idx.record(&key, i as f64);
        }
        for i in 0..100 {
            let key = ProfileKey::entity(format!("gemm:{i}"), i % 3).in_context("alloc:1");
            black_box(idx.get(&key));
        }
    });

    report("update_tree_parallel_100x6", 2, 50, || {
        let children: Vec<UpdateNode> =
            (0..100).map(|i| UpdateNode::var(format!("v{i}"), 6)).collect();
        let mut tree = UpdateTree::new(UpdateNode::group(ExploreMode::Parallel, children));
        let mut trials = 0;
        while tree.advance() {
            trials += 1;
            for (slot, choice) in tree.picks().into_iter().enumerate() {
                tree.record_at(slot, choice as f64);
            }
        }
        black_box(trials);
    });
}
