//! Fine-grained profiling via cudaEvent-style pairs (paper §5.2).
//!
//! Astra wraps *regions of interest* — a single GEMM, a fusion group, an
//! epoch, a super-epoch — between pairs of events, instead of intercepting
//! every kernel the way CUPTI callbacks would. A [`ProfilePlan`] records the
//! (key, start event, end event) triples registered while a schedule is
//! built; after execution, [`ProfilePlan::harvest`] turns the engine's event
//! timestamps into per-key elapsed times keyed by the caller's strings —
//! which, in the Astra core, are mangled profile keys that embed the
//! exploration context (`astra-core`'s `ProfileKey`).

use std::collections::BTreeMap;

use crate::engine::RunResult;
use crate::schedule::{EventId, Schedule, StreamId};

/// A set of profiled regions registered against a schedule.
///
/// # Examples
///
/// ```
/// use astra_gpu::{DeviceSpec, Engine, KernelDesc, ProfilePlan, Schedule, StreamId};
///
/// let dev = DeviceSpec::p100();
/// let mut sched = Schedule::new(1);
/// let mut prof = ProfilePlan::new();
/// let start = sched.record(StreamId(0));
/// sched.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1_000_000.0 });
/// let end = sched.record(StreamId(0));
/// prof.add_region("copy", start, end);
/// let result = Engine::new(&dev).run(&sched).unwrap();
/// let times = prof.harvest(&result);
/// assert!(times["copy"] > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProfilePlan {
    regions: Vec<(String, EventId, EventId)>,
}

impl ProfilePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a region delimited by two already-recorded events.
    pub fn add_region(&mut self, key: impl Into<String>, start: EventId, end: EventId) {
        self.regions.push((key.into(), start, end));
    }

    /// Convenience: records a start event on `stream` now; the caller later
    /// closes the region with [`ProfilePlan::close_region`].
    pub fn open_region(&mut self, sched: &mut Schedule, stream: StreamId) -> EventId {
        sched.record(stream)
    }

    /// Closes a region opened with [`ProfilePlan::open_region`].
    pub fn close_region(
        &mut self,
        sched: &mut Schedule,
        stream: StreamId,
        key: impl Into<String>,
        start: EventId,
    ) {
        let end = sched.record(stream);
        self.add_region(key, start, end);
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Extracts elapsed ns per region from a run. Regions whose events did
    /// not fire are omitted; negative elapsed (end before start, possible
    /// across streams) is clamped to zero.
    pub fn harvest(&self, result: &RunResult) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (key, start, end) in &self.regions {
            if let Some(dt) = result.elapsed(*start, *end) {
                out.insert(key.clone(), dt.max(0.0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::engine::Engine;
    use crate::kernel::KernelDesc;

    #[test]
    fn harvest_skips_unfired_regions() {
        let plan = {
            let mut p = ProfilePlan::new();
            p.add_region("ghost", EventId(100), EventId(101));
            p
        };
        let result = RunResult::default();
        assert!(plan.harvest(&result).is_empty());
    }

    #[test]
    fn nested_regions_measure_hierarchically() {
        // Outer region spans two kernels; inner spans one. Inner < outer.
        let dev = DeviceSpec::p100();
        let mut sched = Schedule::new(1);
        let mut prof = ProfilePlan::new();
        let k = KernelDesc::MemCopy { bytes: 4_000_000.0 };
        let outer_start = prof.open_region(&mut sched, StreamId(0));
        sched.launch(StreamId(0), k);
        let inner_start = prof.open_region(&mut sched, StreamId(0));
        sched.launch(StreamId(0), k);
        prof.close_region(&mut sched, StreamId(0), "inner", inner_start);
        prof.close_region(&mut sched, StreamId(0), "outer", outer_start);
        let result = Engine::new(&dev).run(&sched).unwrap();
        let times = prof.harvest(&result);
        assert!(times["inner"] > 0.0);
        assert!(times["outer"] > times["inner"]);
    }

    #[test]
    fn overhead_stays_small_for_region_granularity() {
        // Profiling at region granularity (not per-kernel CUPTI callbacks)
        // must cost well under 0.5% of the run (paper §6.4).
        let dev = DeviceSpec::p100();
        let mut sched = Schedule::new(1);
        let mut prof = ProfilePlan::new();
        for i in 0..20 {
            let start = prof.open_region(&mut sched, StreamId(0));
            sched.launch(
                StreamId(0),
                KernelDesc::Gemm {
                    shape: crate::gemm::GemmShape::new(256, 1024, 1024),
                    lib: crate::gemm::GemmLibrary::CublasLike,
                },
            );
            prof.close_region(&mut sched, StreamId(0), format!("g{i}"), start);
        }
        let result = Engine::new(&dev).run(&sched).unwrap();
        assert!(result.profiling_overhead_ns / result.total_ns < 0.005);
    }
}
