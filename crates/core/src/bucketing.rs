//! Bucketed profiling for dynamic graphs (paper §5.5, §6.5).
//!
//! With dynamic graphs the unrolled computation depends on the mini-batch's
//! maximum input length, breaking the "every mini-batch is identical"
//! assumption. Astra bucketizes lengths (5 PTB-calibrated buckets) and runs
//! the state-space exploration independently per bucket; mini-batches map to
//! the nearest larger bucket, paying a small amount of wasted compute in
//! exchange for profile validity. The bucket id prefixes every profile key
//! (the 5x state-space growth the paper reports).

use astra_exec::{native_schedule, LoweringCache};
use astra_gpu::{DeviceSpec, Engine};
use astra_ir::Graph;

use crate::astra::{Astra, AstraOptions, Report};
use crate::error::AstraError;
use crate::plan::PlanContext;

/// Maps a length to the smallest bucket covering it (lengths beyond the
/// last bucket clamp to it) — the paper's "nearest larger bucket" rule.
fn bucket_for(len: u32, buckets: &[u32]) -> u32 {
    assert!(!buckets.is_empty(), "need at least one bucket");
    buckets
        .iter()
        .copied()
        .find(|&b| len <= b)
        .unwrap_or(*buckets.last().expect("non-empty"))
}

/// Report of a bucketed optimization over a stream of mini-batch lengths.
#[derive(Debug, Clone)]
pub struct BucketedReport {
    /// Per bucket: (bucket length, optimization report).
    pub per_bucket: Vec<(u32, Report)>,
    /// Total time of the native dynamic-graph baseline over the workload
    /// (each mini-batch unrolled to its exact length, dispatched natively).
    pub dynamic_native_ns: f64,
    /// Total time under Astra with bucketed adaptation (each mini-batch
    /// mapped to its nearest larger bucket, run at that bucket's best
    /// configuration).
    pub bucketed_astra_ns: f64,
    /// Total configurations explored across buckets.
    pub configs_explored: usize,
}

impl BucketedReport {
    /// Workload-level speedup of bucketed Astra over the dynamic baseline
    /// (Table 8's metric).
    pub fn speedup(&self) -> f64 {
        self.dynamic_native_ns / self.bucketed_astra_ns
    }
}

/// Optimizes a dynamic-graph model with bucketed profiling.
///
/// `build` constructs the training graph for a given unrolled length;
/// `lengths` is the stream of mini-batch lengths (e.g. from
/// `astra_models::LengthSampler`); `buckets` are the bucket boundaries
/// (e.g. `astra_models::PTB_BUCKETS`).
///
/// # Errors
///
/// Propagates simulation failures from the per-bucket optimizations.
pub fn optimize_bucketed(
    build: impl Fn(u32) -> Graph,
    lengths: &[u32],
    buckets: &[u32],
    dev: &DeviceSpec,
    opts: &AstraOptions,
) -> Result<BucketedReport, AstraError> {
    assert!(!lengths.is_empty(), "need at least one mini-batch length");

    // Which buckets does the workload touch?
    let mut used_buckets: Vec<u32> = lengths.iter().map(|&l| bucket_for(l, buckets)).collect();
    used_buckets.sort_unstable();
    used_buckets.dedup();

    // The graph for a given unrolled length lowers identically every time
    // `build` is called with it, so one lowering cache (keyed by length)
    // serves both the per-bucket optimizations and the dynamic baseline:
    // a length that coincides with a bucket boundary lowers once, not
    // twice.
    let mut lowerings = LoweringCache::new();

    // Optimize once per bucket, threading a single profile index through
    // all buckets: structure-dependent keys (fusion, epochs) carry the
    // bucket prefix and re-explore per bucket (the 5x state-space growth of
    // §5.5), while kernel-shape measurements are bucket-independent and hit
    // across buckets.
    let mut per_bucket: Vec<(u32, Report)> = Vec::new();
    let mut configs = 0usize;
    let mut index = crate::profile::ProfileIndex::new();
    for &b in &used_buckets {
        let graph = build(b);
        let lowering = lowerings.lower(u64::from(b), &graph);
        let mut bucket_opts = opts.clone();
        bucket_opts.key_context = Some(format!("bucket:{b}"));
        let ctx = PlanContext::with_lowering(&graph, (*lowering).clone());
        let mut astra = Astra::with_context(ctx, dev, bucket_opts, index);
        let report = astra.optimize()?;
        index = astra.into_index();
        configs += report.configs_explored;
        per_bucket.push((b, report));
    }

    // Dynamic native baseline: exact-length graphs, native dispatch.
    let mut dynamic_native_ns = 0.0;
    let mut distinct: Vec<u32> = lengths.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut native_of = std::collections::BTreeMap::new();
    for &l in &distinct {
        let graph = build(l);
        let sched = native_schedule(&lowerings.lower(u64::from(l), &graph));
        let t = Engine::with_clock(dev, opts.clock).without_spans().run(&sched)?.total_ns;
        native_of.insert(l, t);
    }
    for &l in lengths {
        dynamic_native_ns += native_of[&l];
    }

    // Bucketed Astra: per mini-batch, steady time of its bucket.
    let steady_of = |b: u32| -> f64 {
        per_bucket
            .iter()
            .find(|(bb, _)| *bb == b)
            .map(|(_, r)| r.steady_ns)
            .expect("bucket optimized")
    };
    let bucketed_astra_ns: f64 =
        lengths.iter().map(|&l| steady_of(bucket_for(l, buckets))).sum();

    Ok(BucketedReport { per_bucket, dynamic_native_ns, bucketed_astra_ns, configs_explored: configs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astra::Dims;
    use astra_models::{Model, ModelConfig};

    #[test]
    fn bucketed_astra_beats_dynamic_native() {
        let dev = DeviceSpec::p100();
        let build = |seq: u32| {
            let cfg = ModelConfig {
                seq_len: seq,
                hidden: 64,
                input: 64,
                vocab: 128,
                ..ModelConfig::ptb(8)
            };
            Model::SubLstm.build(&cfg).graph
        };
        let lengths = [3, 5, 4, 6, 3];
        let buckets = [4, 6];
        let opts = AstraOptions { dims: Dims::fk(), ..Default::default() };
        let r = optimize_bucketed(build, &lengths, &buckets, &dev, &opts).unwrap();
        assert_eq!(r.per_bucket.len(), 2, "two buckets touched");
        assert!(
            r.speedup() > 1.0,
            "bucketed Astra should beat dynamic native despite padding: {}",
            r.speedup()
        );
    }

    #[test]
    fn bucket_contexts_mangle_structure_keys_only() {
        // §5.5: the bucket id prefixes structure-dependent profile keys
        // (fusion chunks re-explore per bucket), while kernel-shape keys
        // stay context-free and are shared across buckets through the one
        // threaded index. Trial *counts* do not shrink — parallel phases
        // run the same number of mini-batches — but no measurement is ever
        // redone for a shared key, and sharing must never cost extra.
        let dev = DeviceSpec::p100();
        let build = |seq: u32| {
            let cfg = ModelConfig {
                seq_len: seq,
                hidden: 64,
                input: 64,
                vocab: 128,
                ..ModelConfig::ptb(8)
            };
            Model::SubLstm.build(&cfg).graph
        };
        let opts = AstraOptions { dims: Dims::fk(), ..Default::default() };
        // Thread one index through two buckets manually to inspect it.
        let g3 = build(3);
        let mut o3 = opts.clone();
        o3.key_context = Some("bucket:3".into());
        let mut a3 = Astra::with_index(&g3, &dev, o3, crate::profile::ProfileIndex::new());
        let r3 = a3.optimize().unwrap();
        let index = a3.into_index();

        // Fusion keys are bucket-prefixed; kernel keys are not.
        let keyd = format!("{index:?}");
        assert!(keyd.contains("bucket:3/fuse:"), "fusion keys carry the bucket context");
        assert!(keyd.contains("\"kern:"), "kernel keys are context-free");
        assert!(!keyd.contains("bucket:3/kern:"), "kernel keys must not be bucket-mangled");

        let g6 = build(6);
        let mut o6 = opts.clone();
        o6.key_context = Some("bucket:6".into());
        let mut a6 = Astra::with_index(&g6, &dev, o6, index);
        let r6 = a6.optimize().unwrap();

        // Sharing never costs extra trials vs an independent bucket-6 run.
        let mut indep = Astra::new(&g6, &dev, opts.clone());
        let ri = indep.optimize().unwrap();
        assert!(r6.configs_explored <= ri.configs_explored);
        assert!(r3.configs_explored > 0);
    }

    #[test]
    fn state_space_scales_with_buckets() {
        let dev = DeviceSpec::p100();
        let build = |seq: u32| {
            let cfg = ModelConfig {
                seq_len: seq,
                hidden: 32,
                input: 32,
                vocab: 64,
                ..ModelConfig::ptb(4)
            };
            Model::Scrnn.build(&cfg).graph
        };
        let opts = AstraOptions { dims: Dims::f(), ..Default::default() };
        let one = optimize_bucketed(build, &[3, 3], &[3], &dev, &opts).unwrap();
        let two = optimize_bucketed(build, &[3, 5], &[3, 5], &dev, &opts).unwrap();
        assert!(two.configs_explored > one.configs_explored);
    }
}
