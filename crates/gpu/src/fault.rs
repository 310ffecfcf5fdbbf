//! Deterministic fault injection for the simulated device.
//!
//! Real GPUs misbehave in ways the paper's repeatability argument glosses
//! over: autoboost clocks drift (§7), kernels occasionally fail to launch
//! and are retried by the driver, `cudaMalloc` transiently fails under
//! memory pressure, and a stream can straggle behind its peers for a whole
//! mini-batch. This module injects all four — *deterministically*, from a
//! seed — so the exploration driver can be tested for robustness while
//! every run stays bit-reproducible and worker-count invariant.
//!
//! A [`FaultPlan`] describes *what* can go wrong and how often. Each
//! simulated run is identified by a `salt` (the driver hands out one salt
//! per candidate trial, in candidate order); all fault draws for that run
//! derive from `mix(plan.seed, salt)`, so the same (plan, salt) pair always
//! misbehaves identically, regardless of thread interleaving. Retries use
//! [`FaultPlan::attempt_salt`] to re-draw the fault state as if the trial
//! had been deferred — the "deterministic backoff" the driver relies on.
//!
//! Fault classes:
//!
//! * **Timing spikes** — heavy-tailed (Pareto) multipliers on a kernel's
//!   execution time, always ≥ [`SPIKE_MIN_FACTOR`] so a spike is cleanly
//!   separable from autoboost jitter (bounded at 1.12×).
//! * **Launch failures** — a kernel launch fails transiently and is
//!   re-issued after the driver burns [`LAUNCH_RETRY_OVERHEAD_FACTOR`]
//!   launch overheads of extra time.
//! * **Allocation failures** — one per-run draw; when it fires the arena
//!   grant is denied for some buffer groups (forcing scattered placement
//!   and gather copies) and the host stalls [`ALLOC_RETRY_STALL_NS`]
//!   retrying the allocation.
//! * **Stragglers** — a stream runs all of its kernels at a fixed slowdown
//!   for the whole run.
//!
//! Every injected fault is counted in a [`FaultSummary`] on the run's
//! `RunResult`, so callers can tell a poisoned measurement from a clean
//! one.

use astra_util::Rng64;

/// Minimum multiplier of a timing spike. Chosen well above the autoboost
/// jitter ceiling (1.12×), so a spike is never mistaken for clock variance
/// in a measurement; every spike is also counted in the run's
/// [`FaultSummary`], which is how the driver tells a poisoned run apart.
pub const SPIKE_MIN_FACTOR: f64 = 2.0;

/// Cap on the heavy-tailed spike multiplier (keeps totals finite and the
/// simulation's float error bounded).
pub const SPIKE_MAX_FACTOR: f64 = 20.0;

/// Pareto tail index of the spike distribution; smaller = heavier tail.
const SPIKE_TAIL_ALPHA: f64 = 1.6;

/// Extra launch overheads burned when a kernel launch fails transiently
/// and the driver re-issues it.
pub const LAUNCH_RETRY_OVERHEAD_FACTOR: f64 = 10.0;

/// Host-side stall charged when the arena allocation transiently fails and
/// the runtime retries it (one stall per affected run).
pub const ALLOC_RETRY_STALL_NS: f64 = 50_000.0;

/// Domain-separation tags so the per-run fault classes draw from
/// independent streams.
const TAG_ALLOC: u64 = 0xA110_CA7E;
const TAG_ENGINE: u64 = 0xE46E_14E5;
const TAG_RETRY: u64 = 0x4E7_4B0FF;

/// SplitMix64-style finalizer combining two words; the only hash this
/// module needs. Stateless, so fault draws can be replayed anywhere (the
/// engine and the exploration driver both consult the same plan).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded description of which faults a run may suffer.
///
/// All probabilities are per *draw*: spikes and launch failures are drawn
/// once per kernel activation, stragglers once per stream per run, and the
/// allocation failure once per run. `FaultPlan::none()` disables every
/// class and costs nothing at simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed all fault draws derive from (combined with the run salt).
    pub seed: u64,
    /// Probability a kernel activation suffers a timing spike.
    pub spike_prob: f64,
    /// Probability a kernel launch fails transiently and is re-issued.
    pub launch_fail_prob: f64,
    /// Probability (per run) that the arena allocation transiently fails.
    pub alloc_fail_prob: f64,
    /// Probability (per stream, per run) that a stream straggles.
    pub straggler_prob: f64,
    /// Execution-time multiplier applied to every kernel on a straggling
    /// stream.
    pub straggler_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults; the engine takes the unperturbed fast path.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            spike_prob: 0.0,
            launch_fail_prob: 0.0,
            alloc_fail_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
        }
    }

    /// Heavy-tailed timing spikes only.
    pub fn timing_spikes(seed: u64) -> Self {
        FaultPlan { seed, spike_prob: 0.001, ..FaultPlan::none() }
    }

    /// Transient kernel-launch failures only.
    pub fn launch_failures(seed: u64) -> Self {
        FaultPlan { seed, launch_fail_prob: 0.001, ..FaultPlan::none() }
    }

    /// Transient allocation failures only.
    pub fn alloc_failures(seed: u64) -> Self {
        FaultPlan { seed, alloc_fail_prob: 0.05, ..FaultPlan::none() }
    }

    /// Straggling streams only.
    pub fn stragglers(seed: u64) -> Self {
        FaultPlan {
            seed,
            straggler_prob: 0.04,
            straggler_factor: 1.6,
            ..FaultPlan::none()
        }
    }

    /// Everything at once.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            spike_prob: 0.001,
            launch_fail_prob: 0.001,
            alloc_fail_prob: 0.05,
            straggler_prob: 0.04,
            straggler_factor: 1.6,
        }
    }

    /// Whether every fault class is disabled.
    pub fn is_none(&self) -> bool {
        self.spike_prob == 0.0
            && self.launch_fail_prob == 0.0
            && self.alloc_fail_prob == 0.0
            && self.straggler_prob == 0.0
    }

    /// Stable fingerprint of the whole plan (seed + every probability and
    /// factor). Two plans with equal fingerprints inject identical faults
    /// for any salt, so checkpoint caches can key on this instead of the
    /// full struct.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(self.seed, 0xFA17_F1A6);
        for v in [
            self.spike_prob,
            self.launch_fail_prob,
            self.alloc_fail_prob,
            self.straggler_prob,
            self.straggler_factor,
        ] {
            h = mix(h, v.to_bits());
        }
        h
    }

    /// The per-run seed for a given run salt.
    fn run_seed(&self, salt: u64) -> u64 {
        mix(self.seed, salt)
    }

    /// The salt a retry of `salt` should run under: attempt 0 is the
    /// original trial, attempt `k` re-draws the fault state as if the trial
    /// had been deferred `k` mini-batches. Pure, so the re-measurement is
    /// just as reproducible as the original.
    pub fn attempt_salt(salt: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            salt
        } else {
            mix(salt, TAG_RETRY.wrapping_add(u64::from(attempt)))
        }
    }

    /// The allocation fault for this run, if any: `Some(word)` means the
    /// arena grant transiently failed and buffer group `g` must fall back
    /// to scattered placement when bit `g % 64` of `word` is set. Both the
    /// engine (which charges the retry stall) and the planner (which
    /// rebuilds the gather copies) consult this same pure function, so the
    /// two layers always agree on what happened.
    pub fn alloc_event(&self, salt: u64) -> Option<u64> {
        if self.alloc_fail_prob <= 0.0 {
            return None;
        }
        let mut rng = Rng64::new(mix(self.run_seed(salt), TAG_ALLOC));
        if rng.gen_f64() < self.alloc_fail_prob {
            // Ensure at least one group is actually denied.
            Some(rng.next_u64() | 1)
        } else {
            None
        }
    }

    /// The engine-side injector for one run of this plan.
    pub fn injector(&self, salt: u64) -> FaultInjector {
        FaultInjector {
            rng: Rng64::new(mix(self.run_seed(salt), TAG_ENGINE)),
            plan: *self,
        }
    }
}

/// Per-run fault draws for the engine: one injector per simulated run,
/// consumed in deterministic activation order.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng64,
    plan: FaultPlan,
}

impl FaultInjector {
    /// Draws the straggler slowdown for the next stream (call once per
    /// stream, in stream order, at run start). `None` means the stream is
    /// healthy.
    pub fn draw_straggler(&mut self) -> Option<f64> {
        if self.plan.straggler_prob <= 0.0 {
            return None;
        }
        (self.rng.gen_f64() < self.plan.straggler_prob).then_some(self.plan.straggler_factor)
    }

    /// Whether the next kernel launch fails transiently and is re-issued.
    pub fn draw_launch_retry(&mut self) -> bool {
        self.plan.launch_fail_prob > 0.0 && self.rng.gen_f64() < self.plan.launch_fail_prob
    }

    /// The timing-spike multiplier for the next kernel, if it spikes:
    /// Pareto-tailed, in `[SPIKE_MIN_FACTOR, SPIKE_MAX_FACTOR]`.
    pub fn draw_spike(&mut self) -> Option<f64> {
        if self.plan.spike_prob <= 0.0 || self.rng.gen_f64() >= self.plan.spike_prob {
            return None;
        }
        let u = self.rng.gen_f64();
        let factor = SPIKE_MIN_FACTOR * (1.0 - u).powf(-1.0 / SPIKE_TAIL_ALPHA);
        Some(factor.min(SPIKE_MAX_FACTOR))
    }
}

/// Counts of every fault injected into one run. All zeros on a clean run;
/// the driver treats any nonzero count as "this measurement is suspect".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Kernel activations that suffered a timing spike.
    pub timing_spikes: u32,
    /// Kernel launches that transiently failed and were re-issued.
    pub launch_retries: u32,
    /// Allocation retries (0 or 1 per run).
    pub alloc_retries: u32,
    /// Streams that straggled for the whole run.
    pub straggler_streams: u32,
}

impl FaultSummary {
    /// Whether any fault was injected.
    pub fn any(&self) -> bool {
        self.total() > 0
    }

    /// Total injected faults across all classes.
    pub fn total(&self) -> u32 {
        self.timing_spikes + self.launch_retries + self.alloc_retries + self.straggler_streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_plan_and_salt_draw_identically() {
        let plan = FaultPlan::chaos(7);
        for salt in [0u64, 1, 99] {
            let mut a = plan.injector(salt);
            let mut b = plan.injector(salt);
            for _ in 0..64 {
                assert_eq!(a.draw_launch_retry(), b.draw_launch_retry());
                assert_eq!(a.draw_spike(), b.draw_spike());
            }
            assert_eq!(plan.alloc_event(salt), plan.alloc_event(salt));
        }
    }

    #[test]
    fn different_salts_diverge() {
        let plan = FaultPlan::timing_spikes(7);
        let spikes = |salt: u64| {
            let mut inj = plan.injector(salt);
            (0..20_000).filter(|_| inj.draw_spike().is_some()).count()
        };
        // With p = 0.001 over 20k draws the expected count is 20; two salts
        // giving the exact same positions would be astronomically unlikely.
        let a: Vec<usize> = (0..4).map(spikes).collect();
        assert!(a.iter().sum::<usize>() > 0, "spikes fire at all: {a:?}");
    }

    #[test]
    fn spike_factors_are_heavy_tailed_and_bounded() {
        let plan = FaultPlan { spike_prob: 1.0, ..FaultPlan::timing_spikes(3) };
        let mut inj = plan.injector(0);
        let mut max_seen = 0.0_f64;
        for _ in 0..10_000 {
            let f = inj.draw_spike().expect("p=1 always spikes");
            assert!((SPIKE_MIN_FACTOR..=SPIKE_MAX_FACTOR).contains(&f), "factor {f} out of range");
            max_seen = max_seen.max(f);
        }
        // The tail actually reaches well past the minimum.
        assert!(max_seen > 2.0 * SPIKE_MIN_FACTOR, "tail too light: max {max_seen}");
    }

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert_eq!(plan.alloc_event(0), None);
        let mut inj = plan.injector(0);
        assert_eq!(inj.draw_straggler(), None);
        assert!(!inj.draw_launch_retry());
        assert_eq!(inj.draw_spike(), None);
    }

    #[test]
    fn alloc_event_fires_at_roughly_its_probability() {
        let plan = FaultPlan::alloc_failures(11);
        let fired = (0..10_000).filter(|&s| plan.alloc_event(s).is_some()).count();
        // p = 0.05 over 10k salts: expect ~500, allow a wide band.
        assert!((200..1200).contains(&fired), "alloc events: {fired}");
        // A fired event always denies at least one group.
        let word = (0..).find_map(|s| plan.alloc_event(s)).unwrap();
        assert_ne!(word & 1, 0);
    }

    #[test]
    fn attempt_salts_are_distinct_and_stable() {
        let s0 = FaultPlan::attempt_salt(42, 0);
        let s1 = FaultPlan::attempt_salt(42, 1);
        let s2 = FaultPlan::attempt_salt(42, 2);
        assert_eq!(s0, 42, "attempt 0 is the original trial");
        assert_ne!(s1, s2);
        assert_ne!(s1, s0);
        assert_eq!(s1, FaultPlan::attempt_salt(42, 1));
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let a = FaultPlan::chaos(7);
        assert_eq!(a.fingerprint(), FaultPlan::chaos(7).fingerprint());
        assert_ne!(a.fingerprint(), FaultPlan::chaos(8).fingerprint());
        assert_ne!(a.fingerprint(), FaultPlan::timing_spikes(7).fingerprint());
        assert_ne!(FaultPlan::none().fingerprint(), a.fingerprint());
    }

    #[test]
    fn summary_totals() {
        let mut s = FaultSummary::default();
        assert!(!s.any());
        s.timing_spikes = 2;
        s.alloc_retries = 1;
        assert!(s.any());
        assert_eq!(s.total(), 3);
    }
}
