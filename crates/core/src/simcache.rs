//! Full-run memo table for simulated trials.
//!
//! Exploration simulates the same schedule more than once: a candidate
//! that an earlier phase already ran, a playoff that repeats an explored
//! configuration, and every trial of a steady-state re-exploration (the
//! paper's repeated-mini-batch regime). [`SimCache`] memoizes each
//! finished run as the [`EngineCheckpoint`] the engine captures at the
//! schedule's final boundary (see [`Schedule::mark_boundary`]). A later
//! run of the same schedule under the same key resumes from that
//! checkpoint and replays the finished result without simulating a
//! command. Resumed runs are bit-identical to cold runs — the engine
//! guarantees it — so the memo changes wall-clock time only, never
//! results.
//!
//! Only the final boundary is ever probed or captured. Mid-run prefix
//! checkpoints would let near-identical candidates share their common
//! prefix, but capturing them costs more host time and memory than
//! resuming from them saves.
//!
//! ## What the key contains (and why)
//!
//! A memo is only valid for a run that would have reached the exact same
//! simulation state, so the key covers every input the engine's state
//! depends on:
//!
//! * **Schedule hash** — the prefix hash at the final boundary
//!   ([`Schedule::prefix_hash`]), which rolls up every command.
//! * **Device fingerprint** — every [`DeviceSpec`] parameter shapes the
//!   timeline.
//! * **Clock mode** — autoboost jitter draws are part of the engine state,
//!   and the seed lives in [`ClockMode::Autoboost`]. This deliberately
//!   stays *out* of the schedule's own hash: the same schedule is probed
//!   under different clocks without rebuilding it.
//! * **Fault fingerprint + run salt** — a faulted run's injector draws
//!   depend on the plan and the per-trial salt, so memos from different
//!   salts are never interchangeable. When the plan is
//!   [`FaultPlan::is_none`], both components normalize to zero: clean
//!   runs share memos across salts (no draw ever happens, so the salt
//!   cannot matter).
//!
//! The non-schedule components are hoisted into a [`KeyCtx`] built once
//! per probe.
//!
//! The table is bounded ([`SimCache::with_capacity`]) with FIFO eviction.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use astra_gpu::{ClockMode, DeviceSpec, EngineCheckpoint, FaultPlan, Schedule, Topology};

/// Default bound on memoized runs. The bound must cover a *full*
/// exploration pass, not just one phase: steady-state re-exploration
/// replays every trial from its memo, which only works if the first
/// pass's memos are still resident when the second pass begins.
const DEFAULT_CAPACITY: usize = 4096;

/// Identity of a checkpointed simulation state (see the module docs for
/// what each component pins down). Crate-visible so the persistence glue
/// can journal cache entries under exactly the key the cache uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SimKey {
    pub(crate) prefix_hash: u64,
    pub(crate) device: u64,
    pub(crate) clock: ClockMode,
    pub(crate) fault: u64,
    pub(crate) salt: u64,
}

/// Stable fingerprint of a device's timing-relevant parameters.
fn device_fingerprint(dev: &DeviceSpec) -> u64 {
    let mut h = 0xA57A_DE1Cu64;
    let mut fold = |v: u64| {
        h ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    };
    fold(dev.sm_count as u64);
    fold(dev.blocks_per_sm as u64);
    for v in [
        dev.peak_gflops,
        dev.hbm_gbps,
        dev.launch_overhead_ns,
        dev.dispatch_cost_ns,
        dev.event_record_cost_ns,
        dev.stream_sync_cost_ns,
        dev.barrier_sync_cost_ns,
        dev.host_roundtrip_ns,
    ] {
        fold(v.to_bits());
    }
    fold(dev.mem_bytes);
    h
}

/// The non-schedule components of a [`SimCache`] key — device and fault
/// fingerprints plus the clock — hashed once and reused for every probe
/// in a batch. Clean fault plans normalize here: their fingerprint is zero
/// and every salt maps to zero, so clean runs share memos across salts
/// without per-key branching.
#[derive(Debug, Clone, Copy)]
pub struct KeyCtx {
    device: u64,
    clock: ClockMode,
    fault: u64,
    clean: bool,
}

impl KeyCtx {
    /// Fingerprints `dev` and `faults` once for a run context.
    pub fn new(dev: &DeviceSpec, clock: ClockMode, faults: &FaultPlan) -> Self {
        let clean = faults.is_none();
        KeyCtx {
            device: device_fingerprint(dev),
            clock,
            fault: if clean { 0 } else { faults.fingerprint() },
            clean,
        }
    }

    /// Like [`KeyCtx::new`], but for runs on a multi-device [`Topology`]:
    /// the device component covers *every* device and the interconnect, so
    /// the same schedule simulated on two different device mixes (or links)
    /// can never share a memo — per-device clocks and link contention
    /// make their engine states incompatible. A single-device topology
    /// degenerates to exactly [`KeyCtx::new`] on its device, keeping
    /// memos interchangeable with plain single-device runs.
    pub fn with_topology(topo: &Topology, clock: ClockMode, faults: &FaultPlan) -> Self {
        let mut ctx = KeyCtx::new(topo.device(0), clock, faults);
        if topo.is_multi() {
            let t = topo.fingerprint();
            let mut h = ctx.device ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ctx.device = h ^ (h >> 31);
        }
        ctx
    }

    pub(crate) fn key(&self, prefix_hash: u64, salt: u64) -> SimKey {
        SimKey {
            prefix_hash,
            device: self.device,
            clock: self.clock,
            fault: self.fault,
            salt: if self.clean { 0 } else { salt },
        }
    }
}

/// Bounded FIFO map from simulation-state identity to full-run memos,
/// with hit/miss and resumed-work accounting.
///
/// The exploration driver owns one per [`crate::Astra`]; benchmarks can
/// drive one directly around [`astra_gpu::Engine::run_incremental`].
#[derive(Debug, Default)]
pub struct SimCache {
    map: HashMap<SimKey, Arc<EngineCheckpoint>>,
    order: VecDeque<SimKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
    resumed_cmds: u64,
    total_cmds: u64,
}

impl SimCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        SimCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` memos (FIFO eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        SimCache { capacity: capacity.max(1), ..SimCache::default() }
    }

    /// Looks up `sched`'s final boundary under `ctx` and `salt`. Returns
    /// `(resume, capture_at)` ready to hand to
    /// [`astra_gpu::Engine::run_incremental`]: the memo and no captures on
    /// a hit, no memo and a capture at the final boundary on a miss.
    ///
    /// Counts one hit or miss, and accrues the resumed-command fraction
    /// ([`SimCache::resumed_fraction`]). Schedules without boundaries are
    /// not cacheable and count nothing.
    pub fn probe_and_plan_ctx(
        &mut self,
        sched: &Schedule,
        ctx: &KeyCtx,
        salt: u64,
    ) -> (Option<Arc<EngineCheckpoint>>, Vec<usize>) {
        let Some(&(pos, hash)) = sched.boundaries().last() else {
            return (None, Vec::new());
        };
        self.total_cmds += sched.cmds().len() as u64;
        match self.map.get(&ctx.key(hash, salt)) {
            Some(ck) => {
                self.hits += 1;
                self.resumed_cmds += pos as u64;
                (Some(Arc::clone(ck)), Vec::new())
            }
            None => {
                self.misses += 1;
                (None, vec![pos])
            }
        }
    }

    /// Inserts the memos captured by one run, evicting the oldest entries
    /// past capacity. Checkpoints carry their own prefix hash; `ctx` and
    /// `salt` must describe the run that captured them. Already-cached
    /// states are left untouched.
    pub fn absorb_ctx(&mut self, ctx: &KeyCtx, salt: u64, captured: Vec<EngineCheckpoint>) {
        for ck in captured {
            self.insert(ctx.key(ck.prefix_hash(), salt), Arc::new(ck));
        }
    }

    /// Seeds one persisted memo under its exact stored key, without
    /// touching the hit/miss counters — warm-start loading is not probing.
    /// FIFO age follows seeding order, so a loaded store fills the cache
    /// exactly as the writing run's absorbs did.
    pub(crate) fn seed(&mut self, key: SimKey, ck: Arc<EngineCheckpoint>) {
        self.insert(key, ck);
    }

    fn insert(&mut self, key: SimKey, ck: Arc<EngineCheckpoint>) {
        if self.map.contains_key(&key) {
            return;
        }
        self.map.insert(key.clone(), ck);
        self.order.push_back(key);
        while self.map.len() > self.capacity {
            let oldest = self.order.pop_front().expect("map non-empty implies order");
            self.map.remove(&oldest);
        }
    }

    /// Probes answered with a memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that found no memo.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Commands covered by resumed memos, over all probes.
    pub fn resumed_cmds(&self) -> u64 {
        self.resumed_cmds
    }

    /// Commands probed runs contained in total.
    pub fn total_cmds(&self) -> u64 {
        self.total_cmds
    }

    /// Fraction of probed commands that resuming skipped (0 when nothing
    /// was probed).
    pub fn resumed_fraction(&self) -> f64 {
        if self.total_cmds == 0 {
            0.0
        } else {
            self.resumed_cmds as f64 / self.total_cmds as f64
        }
    }

    /// Memos currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no memos.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_gpu::{Engine, GemmLibrary, GemmShape, KernelDesc, StreamId};

    fn sched_with_boundaries(n: usize) -> Schedule {
        let mut s = Schedule::new(2);
        let g = GemmShape::new(64, 256, 256);
        for i in 0..n {
            s.launch(
                StreamId(i % 2),
                KernelDesc::Gemm { shape: g, lib: GemmLibrary::CublasLike },
            );
            s.mark_boundary();
        }
        s
    }

    fn probe(
        cache: &mut SimCache,
        sched: &Schedule,
        dev: &DeviceSpec,
        clock: ClockMode,
        plan: &FaultPlan,
        salt: u64,
    ) -> (Option<Arc<EngineCheckpoint>>, Vec<usize>) {
        cache.probe_and_plan_ctx(sched, &KeyCtx::new(dev, clock, plan), salt)
    }

    /// Probes `sched`, runs it cold with the planned captures, and absorbs
    /// them.
    fn memoize(
        cache: &mut SimCache,
        sched: &Schedule,
        dev: &DeviceSpec,
        plan: FaultPlan,
        salt: u64,
    ) {
        let (_, caps) = probe(cache, sched, dev, ClockMode::Fixed, &plan, salt);
        let (_, captured) = Engine::with_faults(dev, ClockMode::Fixed, plan, salt)
            .run_incremental(sched, None, &caps)
            .expect("cold run");
        cache.absorb_ctx(&KeyCtx::new(dev, ClockMode::Fixed, &plan), salt, captured);
    }

    #[test]
    fn cold_probe_misses_then_full_memo_hits() {
        let dev = DeviceSpec::p100();
        let sched = sched_with_boundaries(6);
        let mut cache = SimCache::new();
        let plan = FaultPlan::none();

        let (resume, caps) = probe(&mut cache, &sched, &dev, ClockMode::Fixed, &plan, 0);
        assert!(resume.is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(caps, vec![sched.cmds().len()], "a miss captures only the final boundary");

        let (r, captured) = Engine::new(&dev)
            .run_incremental(&sched, None, &caps)
            .expect("cold run");
        cache.absorb_ctx(&KeyCtx::new(&dev, ClockMode::Fixed, &plan), 0, captured);
        assert_eq!(cache.len(), 1);

        let (resume, caps2) = probe(&mut cache, &sched, &dev, ClockMode::Fixed, &plan, 7);
        let ck = resume.expect("full-run memo hits (clean runs share salts)");
        assert_eq!(ck.cmd_idx(), sched.cmds().len());
        assert!(caps2.is_empty(), "nothing left to capture");
        assert_eq!(cache.hits(), 1);
        let (r2, _) = Engine::new(&dev)
            .run_incremental(&sched, Some(&ck), &[])
            .expect("memo replay");
        assert_eq!(r.total_ns.to_bits(), r2.total_ns.to_bits());
        assert_eq!(cache.resumed_fraction(), 0.5, "one full replay out of two probes");
    }

    #[test]
    fn shared_prefix_misses_and_captures_only_its_final_boundary() {
        // `b` shares every command but its last with the memoized `a`,
        // and both mark a boundary after each command. The memo holds
        // `a`'s finished run only, so `b` misses and asks for its own
        // final boundary — never for the shared prefix.
        let dev = DeviceSpec::p100();
        let plan = FaultPlan::none();
        let a = sched_with_boundaries(6);
        let mut b = sched_with_boundaries(5);
        b.launch(
            StreamId(1),
            KernelDesc::Gemm { shape: GemmShape::new(32, 128, 128), lib: GemmLibrary::CublasLike },
        );
        b.mark_boundary();
        assert_eq!(a.boundaries()[..5], b.boundaries()[..5], "shared prefix");

        let mut cache = SimCache::new();
        memoize(&mut cache, &a, &dev, plan, 0);
        let (resume, caps) = probe(&mut cache, &b, &dev, ClockMode::Fixed, &plan, 0);
        assert!(resume.is_none(), "no prefix resume");
        assert_eq!(caps, vec![b.cmds().len()]);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.resumed_cmds(), 0);
    }

    #[test]
    fn key_separates_clock_device_and_fault_state() {
        let dev = DeviceSpec::p100();
        let sched = sched_with_boundaries(3);
        let mut cache = SimCache::new();
        let clean = FaultPlan::none();
        let chaos = FaultPlan::chaos(5);
        memoize(&mut cache, &sched, &dev, clean, 0);

        // Same schedule under a different clock, device, or fault plan
        // must miss; the same clean plan under another salt must hit.
        let boost = ClockMode::Autoboost { seed: 1 };
        assert!(probe(&mut cache, &sched, &dev, boost, &clean, 0).0.is_none());
        let v100 = DeviceSpec::v100();
        assert!(probe(&mut cache, &sched, &v100, ClockMode::Fixed, &clean, 0).0.is_none());
        assert!(probe(&mut cache, &sched, &dev, ClockMode::Fixed, &chaos, 0).0.is_none());
        assert!(probe(&mut cache, &sched, &dev, ClockMode::Fixed, &clean, 99).0.is_some());
    }

    #[test]
    fn faulted_checkpoints_are_salt_specific() {
        let dev = DeviceSpec::p100();
        let sched = sched_with_boundaries(3);
        let mut cache = SimCache::new();
        let plan = FaultPlan::chaos(5);
        memoize(&mut cache, &sched, &dev, plan, 4);

        assert!(probe(&mut cache, &sched, &dev, ClockMode::Fixed, &plan, 4).0.is_some());
        assert!(probe(&mut cache, &sched, &dev, ClockMode::Fixed, &plan, 5).0.is_none());
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let dev = DeviceSpec::p100();
        let mut cache = SimCache::with_capacity(4);
        let plan = FaultPlan::none();
        // Distinct single-boundary schedules (different GEMM shapes) give
        // distinct prefix hashes.
        let scheds: Vec<Schedule> = (0..8u64)
            .map(|i| {
                let mut s = Schedule::new(1);
                let g = GemmShape::new(32 + i, 128, 128);
                s.launch(StreamId(0), KernelDesc::Gemm { shape: g, lib: GemmLibrary::CublasLike });
                s.mark_boundary();
                s
            })
            .collect();
        for s in &scheds {
            memoize(&mut cache, s, &dev, plan, 0);
        }
        assert_eq!(cache.len(), 4, "bounded at capacity");
        // The first insertion was evicted first; the last is resident.
        assert!(probe(&mut cache, &scheds[0], &dev, ClockMode::Fixed, &plan, 0).0.is_none());
        assert!(probe(&mut cache, &scheds[7], &dev, ClockMode::Fixed, &plan, 0).0.is_some());
    }

    #[test]
    fn boundary_free_schedules_bypass_the_cache() {
        let dev = DeviceSpec::p100();
        let mut s = Schedule::new(1);
        s.launch(
            StreamId(0),
            KernelDesc::Gemm { shape: GemmShape::new(8, 8, 8), lib: GemmLibrary::CublasLike },
        );
        let mut cache = SimCache::new();
        let (resume, caps) = probe(&mut cache, &s, &dev, ClockMode::Fixed, &FaultPlan::none(), 0);
        assert!(resume.is_none() && caps.is_empty());
        assert_eq!((cache.hits(), cache.misses(), cache.total_cmds()), (0, 0, 0));
    }
}
