//! Recompute-for-memory adaptation (paper §3.4).
//!
//! The paper lists trading computation for memory as a natural further
//! dimension of the Astra state space: "saving part of the memory used for
//! forward-pass activations by redoing the computation ... a complex
//! dynamic that needs measurement." This module implements it:
//!
//! * [`peak_activation_bytes`] — a liveness analysis over the unit DAG:
//!   every unit's output is live from its production until its last
//!   consumer, and the peak of the running sum is the activation memory a
//!   mini-batch needs (the backward pass holds the whole forward alive).
//! * [`explore_recompute`] — checkpoint-segment adaptation: timesteps are
//!   grouped into segments of `k` steps; only activations crossing a
//!   segment boundary are kept (the checkpoints), everything else is freed
//!   after the forward pass and *recomputed* just before its segment's
//!   backward phase. Smaller segments mean less memory and more compute —
//!   and per the Astra recipe, each candidate is *measured* (the schedule
//!   with the real recompute kernels is executed on the simulator), not
//!   modelled.

use astra_gpu::{Engine, Schedule, StreamId};
use astra_ir::Pass;

use crate::error::AstraError;
use crate::plan::{build_units, ExecConfig, PlanContext, Unit};

/// Peak activation memory of a unit sequence executed in order, in bytes.
///
/// Inputs and parameters are not counted (they are resident for the whole
/// job); only unit outputs — activations and gradients — contribute.
pub fn peak_activation_bytes(units: &[Unit]) -> f64 {
    // Last consumer position of each unit's output.
    let mut last_use: Vec<usize> = (0..units.len()).collect();
    for (i, u) in units.iter().enumerate() {
        for &d in &u.deps {
            last_use[d] = last_use[d].max(i);
        }
    }
    let mut alive = 0.0_f64;
    let mut peak = 0.0_f64;
    // Free-list per position.
    let mut frees: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    for (i, &lu) in last_use.iter().enumerate() {
        frees[lu].push(i);
    }
    for (i, u) in units.iter().enumerate() {
        alive += u.out_bytes;
        peak = peak.max(alive);
        for &f in &frees[i] {
            alive -= units[f].out_bytes;
        }
    }
    peak
}

/// One measured recompute candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RecomputePoint {
    /// Checkpoint segment length in timesteps (`u32::MAX` = recompute off).
    pub segment_steps: u32,
    /// Measured mini-batch time including the recompute kernels (ns).
    pub time_ns: f64,
    /// Peak activation bytes under this checkpointing.
    pub peak_bytes: f64,
    /// Number of recompute kernel launches added.
    pub recompute_launches: usize,
}

/// Result of the recompute exploration.
#[derive(Debug, Clone)]
pub struct RecomputeReport {
    /// Measured candidates, in the order explored.
    pub points: Vec<RecomputePoint>,
}

impl RecomputeReport {
    /// The fastest candidate whose peak fits in `capacity_bytes`, if any.
    pub fn fastest_within(&self, capacity_bytes: f64) -> Option<&RecomputePoint> {
        self.points
            .iter()
            .filter(|p| p.peak_bytes <= capacity_bytes)
            .min_by(|a, b| a.time_ns.total_cmp(&b.time_ns))
    }

    /// The smallest peak across candidates.
    pub fn min_peak_bytes(&self) -> f64 {
        self.points.iter().map(|p| p.peak_bytes).fold(f64::INFINITY, f64::min)
    }
}

/// A timeline item: a unit execution, possibly a recompute clone.
#[derive(Debug, Clone, Copy)]
struct TimelineItem {
    unit: usize,
    clone: bool,
}

/// Builds the recompute timeline for segment length `k` and returns
/// `(timeline, checkpoint flags)`.
fn build_timeline(units: &[Unit], k: u32) -> (Vec<TimelineItem>, Vec<bool>) {
    let seg = |u: &Unit| -> u32 { u.step.unwrap_or(0) / k.max(1) };
    // Checkpoints: forward outputs consumed by a unit of a different
    // segment (they cross a boundary and must survive), or by nothing at
    // all. Stepless forward units are always checkpoints.
    let mut checkpoint: Vec<bool> = units
        .iter()
        .map(|u| u.pass == Pass::Forward && u.step.is_none())
        .collect();
    for u in units.iter() {
        for &d in &u.deps {
            if units[d].pass == Pass::Forward && seg(&units[d]) != seg(u) {
                checkpoint[d] = true;
            }
        }
    }

    let max_seg = units.iter().filter(|u| u.pass == Pass::Forward).map(&seg).max().unwrap_or(0);

    // Effective segment of a backward unit: a unit must run no earlier than
    // its backward dependencies (segments are processed from high to low),
    // so cross-segment backward consumers — e.g. a fully-fused weight
    // gradient that reads every timestep's contribution — sink to the
    // lowest segment among their inputs.
    let mut eff: Vec<u32> = units.iter().map(seg).collect();
    for (i, u) in units.iter().enumerate() {
        if u.pass != Pass::Backward {
            continue;
        }
        for &d in &u.deps {
            if units[d].pass == Pass::Backward {
                eff[i] = eff[i].min(eff[d]);
            }
        }
    }

    let mut timeline: Vec<TimelineItem> = Vec::with_capacity(units.len() * 2);
    for (i, u) in units.iter().enumerate() {
        if u.pass == Pass::Forward {
            timeline.push(TimelineItem { unit: i, clone: false });
        }
    }
    for s in (0..=max_seg).rev() {
        // Recompute clones: non-checkpointed forward units of the segment.
        // The *last* segment needs none — its forward phase ends where the
        // backward phase begins, so nothing was freed early (this is also
        // what makes one-segment checkpointing identical to recompute-off).
        if s < max_seg {
            for (i, u) in units.iter().enumerate() {
                if u.pass == Pass::Forward && !checkpoint[i] && seg(u) == s {
                    timeline.push(TimelineItem { unit: i, clone: true });
                }
            }
        }
        for (i, u) in units.iter().enumerate() {
            if u.pass == Pass::Backward && eff[i] == s {
                timeline.push(TimelineItem { unit: i, clone: false });
            }
        }
    }
    (timeline, checkpoint)
}

/// Peak activation bytes of a recompute timeline: non-checkpointed forward
/// outputs die at the end of their segment's forward phase and are reborn
/// as clones; everything else lives to its last consumer.
fn timeline_peak_bytes(units: &[Unit], timeline: &[TimelineItem], checkpoint: &[bool]) -> f64 {
    let n = timeline.len();
    // Position of the original and clone instance of each unit.
    let mut orig_pos = vec![usize::MAX; units.len()];
    let mut clone_pos = vec![usize::MAX; units.len()];
    for (p, item) in timeline.iter().enumerate() {
        if item.clone {
            clone_pos[item.unit] = p;
        } else {
            orig_pos[item.unit] = p;
        }
    }
    // For each timeline position, which value instances does it read?
    // A reader at position p reading unit d uses d's clone if the clone
    // exists and p > clone position; otherwise the original.
    let mut last_use_of_instance: Vec<usize> = (0..n).collect();
    for (p, item) in timeline.iter().enumerate() {
        for &d in &units[item.unit].deps {
            let dp = if clone_pos[d] != usize::MAX && p > clone_pos[d] {
                clone_pos[d]
            } else {
                orig_pos[d]
            };
            if dp != usize::MAX {
                last_use_of_instance[dp] = last_use_of_instance[dp].max(p);
            }
        }
    }
    // Originals of non-checkpointed forward units additionally die no later
    // than their clone's rebirth (they were freed at segment end).
    for (i, &cp) in clone_pos.iter().enumerate() {
        if cp != usize::MAX && !checkpoint[i] {
            let op = orig_pos[i];
            last_use_of_instance[op] = last_use_of_instance[op].min(cp.saturating_sub(1));
        }
    }
    let mut frees: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (p, &lu) in last_use_of_instance.iter().enumerate() {
        frees[lu.min(n - 1)].push(p);
    }
    let mut alive = 0.0;
    let mut peak = 0.0_f64;
    for p in 0..n {
        alive += units[timeline[p].unit].out_bytes;
        peak = peak.max(alive);
        for &f in &frees[p] {
            alive -= units[timeline[f].unit].out_bytes;
        }
    }
    peak
}

/// Explores checkpoint segment lengths for a configuration, measuring each
/// candidate's mini-batch time (with real recompute kernels) and peak
/// activation memory.
///
/// `segments` are the candidate lengths in timesteps; include `u32::MAX`
/// for the recompute-off baseline. Exploration runs single-stream (the
/// paper's prototype dimensions compose; this extension is measured in the
/// same work-conserving way).
///
/// # Errors
///
/// Propagates unit-building or simulation failures.
pub fn explore_recompute(
    ctx: &PlanContext<'_>,
    cfg: &ExecConfig,
    dev: &astra_gpu::DeviceSpec,
    segments: &[u32],
) -> Result<RecomputeReport, AstraError> {
    let units = build_units(ctx, cfg)?;
    let mut points = Vec::new();
    for &k in segments {
        let (timeline, checkpoint) = build_timeline(&units, k);
        let mut sched = Schedule::new(1);
        let mut recompute_launches = 0;
        for item in &timeline {
            let u = &units[item.unit];
            if u.pre_copy_bytes > 0.0 {
                sched.launch(
                    StreamId(0),
                    astra_gpu::KernelDesc::MemCopy { bytes: u.pre_copy_bytes },
                );
            }
            sched.launch(StreamId(0), u.kernel);
            if item.clone {
                recompute_launches += 1;
            }
        }
        let time_ns = Engine::new(dev).without_spans().run(&sched)?.total_ns;
        let peak_bytes = timeline_peak_bytes(&units, &timeline, &checkpoint);
        points.push(RecomputePoint { segment_steps: k, time_ns, peak_bytes, recompute_launches });
    }
    Ok(RecomputeReport { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_gpu::DeviceSpec;
    use astra_models::{Model, ModelConfig};

    fn small() -> astra_models::BuiltModel {
        // Recompute targets the activation-dominated regime: long unrolls
        // where forward activations dwarf the (sequence-independent) weight
        // gradients.
        let cfg = ModelConfig {
            seq_len: 32,
            hidden: 128,
            input: 128,
            vocab: 256,
            ..ModelConfig::ptb(16)
        };
        Model::SubLstm.build(&cfg)
    }

    #[test]
    fn liveness_peak_is_between_max_unit_and_total() {
        let built = small();
        let ctx = PlanContext::new(&built.graph);
        let units = build_units(&ctx, &ExecConfig::baseline()).unwrap();
        let peak = peak_activation_bytes(&units);
        let max_single = units.iter().map(|u| u.out_bytes).fold(0.0, f64::max);
        let total: f64 = units.iter().map(|u| u.out_bytes).sum();
        assert!(peak >= max_single);
        assert!(peak <= total);
        // Training holds the forward activations alive into the backward
        // pass: the peak must cover a large share of the forward outputs
        // (gradients are transient and free quickly; they may not all
        // stack).
        let fw_total: f64 = units
            .iter()
            .filter(|u| u.pass == astra_ir::Pass::Forward)
            .map(|u| u.out_bytes)
            .sum();
        assert!(peak > fw_total * 0.5, "peak {peak} vs forward total {fw_total}");
    }

    #[test]
    fn recompute_off_matches_baseline() {
        let built = small();
        let ctx = PlanContext::new(&built.graph);
        let dev = DeviceSpec::p100();
        let r = explore_recompute(&ctx, &ExecConfig::baseline(), &dev, &[u32::MAX]).unwrap();
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].recompute_launches, 0);
        let units = build_units(&ctx, &ExecConfig::baseline()).unwrap();
        let base_peak = peak_activation_bytes(&units);
        let ratio = r.points[0].peak_bytes / base_peak;
        assert!((0.9..=1.1).contains(&ratio), "off-peak {ratio} should match baseline");
    }

    #[test]
    fn smaller_segments_trade_time_for_memory() {
        let built = small();
        let ctx = PlanContext::new(&built.graph);
        let dev = DeviceSpec::p100();
        let r =
            explore_recompute(&ctx, &ExecConfig::baseline(), &dev, &[u32::MAX, 8, 4, 2]).unwrap();
        let off = &r.points[0];
        for p in &r.points[1..] {
            assert!(p.time_ns > off.time_ns, "recompute adds time: {} vs {}", p.time_ns, off.time_ns);
            assert!(
                p.peak_bytes < off.peak_bytes,
                "recompute saves memory: {} vs {}",
                p.peak_bytes,
                off.peak_bytes
            );
            assert!(p.recompute_launches > 0);
        }
        // Monotone-ish: k=2 uses no more memory than k=8.
        let k8 = r.points.iter().find(|p| p.segment_steps == 8).unwrap();
        let k2 = r.points.iter().find(|p| p.segment_steps == 2).unwrap();
        assert!(k2.peak_bytes <= k8.peak_bytes * 1.05);
    }

    #[test]
    fn fastest_within_respects_capacity() {
        let built = small();
        let ctx = PlanContext::new(&built.graph);
        let dev = DeviceSpec::p100();
        let r =
            explore_recompute(&ctx, &ExecConfig::baseline(), &dev, &[u32::MAX, 8, 2]).unwrap();
        // Unlimited capacity: recompute off wins (it is fastest).
        let best = r.fastest_within(f64::INFINITY).unwrap();
        assert_eq!(best.segment_steps, u32::MAX);
        // Capacity below the baseline peak forces checkpointing.
        let off_peak = r.points[0].peak_bytes;
        if let Some(tight) = r.fastest_within(off_peak * 0.6) {
            assert_ne!(tight.segment_steps, u32::MAX);
        }
        // Impossible capacity: no candidate.
        assert!(r.fastest_within(1.0).is_none());
    }

    #[test]
    fn recompute_enables_larger_batch_under_memory_cap() {
        // The paper's §3.4 scenario: with a fixed memory budget, recompute
        // admits a 2x mini-batch whose better utilization can win per
        // sample.
        let dev = DeviceSpec::p100();
        let build = |batch: u64| {
            let cfg = ModelConfig {
                seq_len: 32,
                hidden: 128,
                input: 128,
                vocab: 256,
                ..ModelConfig::ptb(batch)
            };
            Model::SubLstm.build(&cfg)
        };
        let small_b = build(16);
        let ctx_small = PlanContext::new(&small_b.graph);
        let r_small =
            explore_recompute(&ctx_small, &ExecConfig::baseline(), &dev, &[u32::MAX]).unwrap();
        let cap = r_small.points[0].peak_bytes * 1.2; // fits batch 8 plain

        let big_b = build(32);
        let ctx_big = PlanContext::new(&big_b.graph);
        let r_big =
            explore_recompute(&ctx_big, &ExecConfig::baseline(), &dev, &[u32::MAX, 4, 2]).unwrap();
        // Batch 16 without recompute must NOT fit the cap...
        assert!(r_big.points[0].peak_bytes > cap);
        // ...but some recompute candidate should come much closer (or fit).
        assert!(r_big.min_peak_bytes() < r_big.points[0].peak_bytes * 0.7);
    }
}
