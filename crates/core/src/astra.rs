//! The custom wirer: Astra's top-level optimization loop (paper §4.7).
//!
//! [`Astra::optimize`] performs the work-conserving online exploration: each
//! trial executes one (simulated) training mini-batch under one candidate
//! configuration, harvests the fine-grained profile events, updates the
//! profile index and the update tree, and moves on. Phases:
//!
//! 1. **F — fusion chunking**: all fusion sets explore their (row, col)
//!    chunk choices *in parallel* (one trial advances every set).
//! 2. **K — kernel selection**: every realized GEMM shape explores the
//!    kernel libraries in parallel (three trials for the whole model).
//! 3. **S — stream scheduling**: super-epochs explore in parallel (barriers
//!    make them independent); epochs within a super-epoch explore
//!    prefix-wise; equivalence classes collapse the per-epoch choices.
//! 4. **A — allocation strategies**: a high-level fork; conflicted fusion
//!    sets re-explore per strategy (their profile keys carry the strategy
//!    context), unaffected measurements are shared via profile-index hits.
//!
//! A final playoff runs the best configuration of each allocation context
//! and picks the overall winner (§4.5.2).
//!
//! Every phase runs through one trial pipeline, [`Astra::run_phase`]; the
//! [`phases`] module holds what each phase supplies to it.

mod phases;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use astra_exec::native_schedule;
use astra_gpu::{
    ClockMode, DeviceSpec, Engine, EngineCheckpoint, FaultPlan, GpuError, RunResult, Schedule,
    Topology,
};
use astra_ir::Graph;
use astra_predict::{FeatureVec, PredEntry};
use astra_store::{StoreOptions, VerdictKind};

use crate::error::AstraError;
use crate::parallel::{effective_workers, parallel_map};
use crate::persist::{DriverStore, WarmState};
use crate::plan::{
    build_units_fragmented, emit_schedule, unit_streams, DevicePlacement, ExecConfig, PlanCache,
    PlanContext, PlanKey, ProbeSpec, Probes, Unit, WiringTemplate,
};
use crate::predictor::Pruner;
use crate::profile::{ProfileIndex, ProfileKey};
use crate::simcache::{KeyCtx, SimCache};
use crate::verify::PlanFootprint;
use phases::{FusionPhase, KernelPhase, Phase, PlacementPhase, Space, StreamPhase};

/// Maximum fault-triggered re-measurements per candidate before it is
/// quarantined. Each retry is a real training mini-batch (work-conserving),
/// so the budget is deliberately small.
const MAX_FAULT_RETRIES: u32 = 3;

/// Trials peeled off the update tree per lookahead batch. Deliberately a
/// constant rather than a multiple of the worker count: every trial in a
/// batch probes the memo table as it stood before the batch, so the batch
/// partition determines every sim-cache counter, and fixing it makes them
/// bit-identical at any worker count. 32 trials keep the workers busy
/// while keeping the batch's emitted schedules bounded in memory. (Trial
/// *outcomes* never depend on the batch size at all —
/// [`crate::UpdateTree::lookahead`] batches replay the exact sequential
/// trial sequence.)
const LOOKAHEAD_TRIALS: usize = 32;

/// Synthetic [`ProfileKey`] naming one quarantined *trial*: the picked
/// key of every variable of the phase, one rendered key per context slot,
/// and the trial's base fault salt as the choice. Marks must identify the
/// whole trial, not its individual per-variable keys — per-variable marks
/// from two different quarantined candidates could otherwise combine to
/// falsely match a never-quarantined third combination — and the salt ties
/// a mark to the fault draws that earned it, so a candidate recurring at
/// another trial position (under other draws) is not poisoned by it.
fn quarantine_id<'k>(
    phase: &str,
    keys: impl IntoIterator<Item = &'k ProfileKey>,
    salt: u64,
) -> ProfileKey {
    let contexts: Vec<String> = keys.into_iter().map(ProfileKey::to_string).collect();
    ProfileKey::from_parts(contexts, format!("quarantine:{phase}"), salt as usize)
}

/// Running totals for one [`Astra::optimize`] call, reset at its start and
/// reported flat in its [`Report`].
#[derive(Debug, Default)]
struct ExploreStats {
    trials: usize,
    exploration_ns: f64,
    overhead_ns: f64,
    fault_events: usize,
    retries: usize,
    quarantined: usize,
    placements: usize,
    pruned: usize,
    /// Verifier executions (verdict-cache misses) and the plans rejected.
    plans_verified: u64,
    verify_rejects: u64,
    /// Plans the linter rejected (over capacity).
    lint_rejects: u64,
}

/// One prepared candidate simulation: its wiring and the fault salt it
/// runs under. Prepared sequentially in candidate order; the batch runner
/// ([`Astra::run_batch`]) probes the memo table for it.
struct Prepared {
    wiring: Wiring,
    salt: u64,
}

/// How a candidate is wired. A single-device candidate starts as a recipe
/// over its geometry's [`WiringTemplate`] and is built into a schedule
/// only when something needs the schedule: a memo miss, or an admission
/// check that neither the verdict cache nor the store answers. A
/// multi-device placement is emitted up front.
enum Wiring {
    /// Unit `i` of `units` on stream `streams[i]` of `num_streams`.
    Recipe {
        units: Arc<[Unit]>,
        template: Rc<WiringTemplate>,
        num_streams: usize,
        streams: Rc<[usize]>,
    },
    /// The emitted schedule and its probes.
    Built(Box<Schedule>, Probes),
}

/// A candidate's memo key: its final prefix hash, its command and
/// wait-list counts (the wait count only sizes a recipe's schedule, and
/// reads 0 for a built one), and its probes.
struct TrialKey {
    hash: u64,
    cmds: usize,
    waits: usize,
    probes: Probes,
}

impl Wiring {
    /// The candidate's memo key. A recipe folds it without building the
    /// schedule.
    fn key(&self) -> TrialKey {
        match self {
            Wiring::Recipe { units, template, num_streams, streams } => {
                let (key, probes) = template.key(units, *num_streams, streams);
                let (hash, cmds, waits) = (key.prefix_hash(), key.num_cmds(), key.num_waits());
                TrialKey { hash, cmds, waits, probes }
            }
            Wiring::Built(sched, probes) => TrialKey {
                hash: sched.prefix_hash(),
                cmds: sched.cmds().len(),
                waits: 0,
                probes: probes.clone(),
            },
        }
    }

    /// The schedule and its probes, built if not yet.
    fn into_built(mut self) -> (Schedule, Probes) {
        self.schedule();
        match self {
            Wiring::Built(sched, probes) => (*sched, probes),
            Wiring::Recipe { .. } => unreachable!("built above"),
        }
    }

    /// The schedule, built on first use.
    fn schedule(&mut self) -> &Schedule {
        if let Wiring::Recipe { units, template, num_streams, streams } = self {
            let (sched, probes) = template.emit(units, *num_streams, streams);
            *self = Wiring::Built(Box::new(sched), probes);
        }
        match self {
            Wiring::Built(sched, _) => sched,
            Wiring::Recipe { .. } => unreachable!("built above"),
        }
    }

    /// The schedule, built to the exact size `key` folded.
    fn into_schedule(self, key: &TrialKey) -> Schedule {
        match self {
            Wiring::Recipe { units, template, num_streams, streams } => {
                template.emit_sized(&units, num_streams, &streams, key.cmds, key.waits).0
            }
            Wiring::Built(sched, _) => *sched,
        }
    }
}

/// The wiring templates of one phase, one per unit allocation its
/// candidates share, found by the allocation's identity. Each entry holds
/// its allocation, so that identity cannot be reused while the entry
/// lives.
#[derive(Default)]
struct Templates(Vec<(Arc<[Unit]>, Rc<WiringTemplate>)>);

impl Templates {
    /// The template of `units` under `phase`'s partition and probes.
    fn get<P: Phase>(&mut self, phase: &P, units: &Arc<[Unit]>) -> Rc<WiringTemplate> {
        if let Some((_, t)) = self.0.iter().find(|(u, _)| Arc::ptr_eq(u, units)) {
            return Rc::clone(t);
        }
        let t = Rc::new(WiringTemplate::new(units, phase.partition(), phase.probe_spec()));
        self.0.push((Arc::clone(units), Rc::clone(&t)));
        t
    }

    /// Keeps only the templates of allocations in `batch`: the stream
    /// phase's one geometry is wired from one template, while a phase
    /// whose geometry changes every batch holds one batch's worth.
    fn retain_for(&mut self, batch: &[Option<Arc<[Unit]>>]) {
        self.0.retain(|(u, _)| batch.iter().flatten().any(|b| Arc::ptr_eq(u, b)));
    }
}

/// A batch trial's outcome: the simulated run plus the probes that decode
/// it (`None` for a trial that did not run).
type TrialOut = Option<(RunResult, Probes)>;

/// One trial's predictor features for one *active* adaptive variable: the
/// variable's update-tree slot, its variable index (its position in
/// [`Phase::vars`]), the choice this trial assigns, the extracted
/// features, and the selection-time prediction (0 until the batch is
/// scored, and forever in cold batches — a zero prediction is never
/// counted toward the MAE).
struct VarFeat {
    slot: usize,
    vidx: usize,
    choice: usize,
    feat: Rc<FeatureVec>,
    pred: f64,
}

/// Per-trial feature sets for a lookahead batch, parallel to the prepared
/// candidates (`None` exactly for the trials that were not prepared:
/// invalid or admission-rejected).
type BatchFeats = Vec<Option<Vec<VarFeat>>>;

/// Outcome of one trial of a lookahead batch (see
/// [`Astra::run_batch_predicted`]), committed by [`Astra::run_phase`].
enum BatchOutcome {
    /// Invalid or admission-rejected candidate: the phase poisons its
    /// choices.
    Invalid,
    /// Simulated, in whichever wave of the batch.
    Measured(RunResult, Probes),
    /// Skipped by the learned predictor: the phase records the
    /// predictions in [`VarFeat::pred`] in the update tree instead of
    /// measurements. The regret guard keeps each above its variable's
    /// measured best by more than the policy margin, so a recorded
    /// prediction can never decide a variable's final assignment.
    Pruned,
}

/// Folds one measured trial's decoded metrics into `best`, the running
/// per-variable measured minima (`vidx → metric`), for the variables
/// trial `i` carries features for.
fn fold_best(
    best: &mut BTreeMap<usize, f64>,
    feats: &BatchFeats,
    i: usize,
    metrics: &[(usize, f64)],
) {
    let Some(fs) = feats.get(i).and_then(Option::as_ref) else { return };
    for &(vidx, m) in metrics {
        if fs.iter().any(|vf| vf.vidx == vidx) {
            let e = best.entry(vidx).or_insert(f64::INFINITY);
            if m < *e {
                *e = m;
            }
        }
    }
}

/// The simulation substrate a trial runs on: the device (or the full node
/// topology when placement search is active), the clock mode, and the
/// fault plan.
struct SimTarget<'a> {
    dev: &'a DeviceSpec,
    topo: Option<&'a Topology>,
    clock: ClockMode,
    faults: FaultPlan,
}

impl<'a> SimTarget<'a> {
    /// A span-recording engine for one run under fault salt `salt`.
    fn engine(&self, salt: u64) -> Engine<'a> {
        match self.topo {
            Some(t) => Engine::with_topology(t, self.clock, self.faults, salt),
            None => Engine::with_faults(self.dev, self.clock, self.faults, salt),
        }
    }

    /// Simulates `sched` span-free and cold under fault salt `salt`,
    /// capturing checkpoints at `caps`. Every trial that goes through the
    /// memo table and misses comes through here: the driver reads only
    /// event times, totals and fault counts.
    fn run(
        &self,
        sched: &Schedule,
        salt: u64,
        caps: &[usize],
    ) -> Result<(RunResult, Vec<EngineCheckpoint>), GpuError> {
        self.engine(salt).without_spans().run_incremental(sched, None, caps)
    }
}

/// Which adaptation dimensions are enabled (the paper's ablation columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// GEMM fusion chunk adaptation (Astra_F).
    pub fusion: bool,
    /// Kernel library selection (the K in Astra_FK).
    pub kernel: bool,
    /// Multi-stream scheduling (the S in Astra_FKS).
    pub streams: bool,
    /// Memory-allocation strategy fork (Astra_all).
    pub alloc: bool,
}

impl Dims {
    /// `Astra_F`: fusion only.
    pub fn f() -> Self {
        Dims { fusion: true, kernel: false, streams: false, alloc: false }
    }

    /// `Astra_FK`: fusion + kernel selection.
    pub fn fk() -> Self {
        Dims { kernel: true, ..Dims::f() }
    }

    /// `Astra_FKS`: fusion + kernels + streams.
    pub fn fks() -> Self {
        Dims { streams: true, ..Dims::fk() }
    }

    /// `Astra_all`: everything, including allocation adaptation.
    pub fn all() -> Self {
        Dims { alloc: true, ..Dims::fks() }
    }
}

/// Tuning knobs for an optimization run.
#[derive(Debug, Clone)]
pub struct AstraOptions {
    /// Enabled adaptation dimensions.
    pub dims: Dims,
    /// Streams used when stream adaptation is on.
    pub num_streams: usize,
    /// Simulated clock mode (the paper pins the base clock, §7).
    pub clock: ClockMode,
    /// Outermost profile-key context for *structure-dependent* measurements
    /// (fusion chunks, epochs). Bucketed dynamic-graph adaptation sets this
    /// to the bucket id (§5.5); kernel-shape measurements stay context-free
    /// because a GEMM's time depends only on its shape and library, so
    /// buckets share them through profile-index hits.
    pub key_context: Option<String>,
    /// Worker threads for evaluating candidate trials. The exploration
    /// driver batches metric-independent trials from the update tree
    /// ([`crate::UpdateTree::lookahead`]), simulates them concurrently, and
    /// commits measurements in candidate order — so results are
    /// bit-identical at every setting. `0` = one worker per available CPU
    /// core; `1` = fully sequential evaluation.
    pub workers: usize,
    /// Fault injection applied to every simulated mini-batch (see
    /// [`FaultPlan`]). The driver re-measures candidates whose run reported
    /// a fault, with bounded retries and deterministic backoff; candidates
    /// still faulted after the budget are quarantined. A run that reports
    /// no fault is committed as measured. [`FaultPlan::none`] (the default)
    /// is zero-cost.
    pub faults: FaultPlan,
    /// Whether to replay memoized full runs when a trial repeats an
    /// already simulated schedule (see [`crate::SimCache`]). Replayed runs
    /// are bit-identical to cold runs, so this only changes wall-clock
    /// time; `false` forces every trial to simulate from `t = 0` and
    /// reports zero sim-cache counters.
    pub sim_cache: bool,
    /// Whether to statically verify every candidate plan before it runs
    /// (see [`crate::verify_plan`]): happens-before hazard analysis,
    /// event-liveness checks, and an allocation aliasing audit over the
    /// emitted schedule. Verdicts are cached per plan key, so repeated
    /// geometries cost nothing; rejected candidates are quarantined like
    /// persistently faulted ones instead of simulating. On by default.
    pub verify: bool,
    /// Whether to statically lint every candidate plan before it runs
    /// (see [`crate::lint_plan`]): liveness-based peak-memory accounting
    /// per device against [`DeviceSpec::mem_bytes`]. A plan whose peak
    /// live bytes exceed any device's capacity is rejected — quarantined
    /// like a
    /// verify-rejected plan — before a single simulated mini-batch is
    /// spent on it. Verdicts are cached per plan key and placement, so
    /// repeated geometries cost nothing. On by default.
    pub lint: bool,
    /// Whether the learned cost predictor prunes lookahead batches (see
    /// [`astra_predict`]): once warm, each batch simulates only the
    /// predicted top-k choices per variable plus an exploration-epsilon
    /// tail, and pruned candidates inherit predicted costs under a
    /// bounded-regret guard that re-measures near-misses. Selection and
    /// training run sequentially on the driver thread in candidate order,
    /// so results stay bit-identical at any worker count; `false` disables
    /// pruning entirely, reports zero predictor counters, and reproduces
    /// the unpruned exploration exactly.
    pub predictor: bool,
    /// Predicted-cheapest choices per adaptive variable that are always
    /// simulated when the predictor prunes a batch (minimum 1). An
    /// otherwise-pruned trial is still simulated with a fixed probability
    /// of 0.1, drawn from a fixed-seed deterministic RNG.
    pub predictor_top_k: usize,
    /// Directory of the crash-safe on-disk store for warm exploration
    /// state (see [`astra_store`]). When set, the optimizer loads
    /// persisted full-run memos, verify/lint verdicts, and fault-matched
    /// quarantine marks before `optimize` — all outcome-invariant, so an
    /// interrupted run resumed against the same store produces the
    /// bit-identical final plan — and journals new state during the run.
    /// `None` (the default) disables persistence entirely and reports
    /// zeroed store counters. A store that fails to *open* degrades to
    /// `None` behavior (see [`Astra::store_error`]); a store that fails
    /// mid-run stops journaling but never fails the optimization.
    pub store_dir: Option<std::path::PathBuf>,
    /// Write-fault injection for the store: after this many bytes of
    /// store writes, the store behaves as if the process was killed
    /// mid-write — the partial write is truncated at the boundary and
    /// everything after is dropped. This is the crash-recovery test
    /// harness ([`astra_store::StoreOptions::fail_after_bytes`]); when
    /// set it overrides the `ASTRA_STORE_CRASH_AFTER` environment hook
    /// the CLI gates use. The optimization itself always completes.
    pub store_crash_after: Option<u64>,
}

impl Default for AstraOptions {
    fn default() -> Self {
        AstraOptions {
            dims: Dims::all(),
            num_streams: 4,
            clock: ClockMode::Fixed,
            key_context: None,
            workers: 0,
            faults: FaultPlan::none(),
            sim_cache: true,
            verify: true,
            lint: true,
            predictor: true,
            predictor_top_k: 2,
            store_dir: None,
            store_crash_after: None,
        }
    }
}

/// Outcome of an optimization run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Native single-stream baseline mini-batch time.
    pub native_ns: f64,
    /// Mini-batch time under the best configuration found.
    pub steady_ns: f64,
    /// Configurations explored — each one ran as a real training mini-batch
    /// (Table 7's metric).
    pub configs_explored: usize,
    /// Total simulated time spent in exploration mini-batches.
    pub exploration_ns: f64,
    /// Average fraction of exploration mini-batch time spent on profiling
    /// events (the paper bounds this at 0.5%, §6.4).
    pub profiling_overhead_frac: f64,
    /// The winning configuration.
    pub best: ExecConfig,
    /// Number of allocation strategies explored.
    pub strategies_explored: usize,
    /// Number of fusion sets the enumerator found.
    pub fusion_sets: usize,
    /// Number of super-epochs in the stream partition (0 if streams off).
    pub super_epochs: usize,
    /// Schedule-cache requests this run answered with already-built units
    /// (see [`crate::PlanCache`]).
    pub plan_cache_hits: u64,
    /// Schedule-cache requests this run that had to build units.
    pub plan_cache_misses: u64,
    /// Exploration mini-batches that reported at least one injected fault.
    pub fault_events: usize,
    /// Fault-triggered re-measurements, each one a real mini-batch. An
    /// exploration or playoff re-run is counted in `configs_explored` too;
    /// a re-run of the native baseline is not.
    pub retries: usize,
    /// Candidates excluded from the profile index and recorded as unusable
    /// in the update tree: still faulted after the retry budget, or
    /// rejected by the static verifier before running.
    pub quarantined: usize,
    /// Distinct candidate plans the static verifier analyzed this run (see
    /// [`crate::verify_plan`]). Verdicts are cached per plan key, so this
    /// counts verifier executions, not trials; zero when
    /// [`AstraOptions::verify`] is off.
    pub plans_verified: u64,
    /// Distinct plans the verifier rejected; every trial of a rejected
    /// plan is quarantined without simulating.
    pub verify_rejects: u64,
    /// Distinct plans the static linter rejected for over-capacity peak
    /// memory (`lint-mem-capacity`): every trial of a rejected plan is
    /// quarantined before simulating. Zero with [`AstraOptions::lint`]
    /// off.
    pub lint_rejects: u64,
    /// Always 0: the optimizer no longer vetoes trials by static
    /// critical-path bounds, so the learned predictor is the only way a
    /// trial is skipped. The field stays only because the repository
    /// benchmark (`perfbench/`) still reads it.
    pub bound_pruned: usize,
    /// Simulated runs this call replayed from a memoized full run (see
    /// [`crate::SimCache`]). Zero when [`AstraOptions::sim_cache`] is off.
    pub sim_cache_hits: u64,
    /// Simulated runs this call had to start from `t = 0`.
    pub sim_cache_misses: u64,
    /// Fraction of simulated schedule commands skipped by replaying memos
    /// (0 with the cache off).
    pub resumed_fraction: f64,
    /// Always 0: the optimizer no longer groups trials by shared schedule
    /// prefix. The field stays only because the repository benchmark
    /// (`perfbench/`) still reads it.
    pub prefix_group_count: u64,
    /// SM busy fraction per device during the winning playoff run, indexed
    /// by device. Single-device runs report one entry; transfers and
    /// collectives occupy links, not SMs, so they never count as busy time.
    pub device_utilization: Vec<f64>,
    /// Steady-state mini-batch time weighted by the topology's total device
    /// cost (cheapest device = 1.0): lower is better, and a heterogeneous
    /// mix only wins over a cheaper subset if its speedup outpaces its
    /// added cost. Equals `steady_ns` on a single-device node.
    pub cost_per_throughput: f64,
    /// Candidate placements the placement phase considered (0 on a
    /// single-device node, where placement never varies).
    pub placements_explored: usize,
    /// Lookahead trials the learned predictor pruned instead of
    /// simulating: their update-tree entries are predicted costs, kept
    /// from ever winning a variable by the regret guard. Zero with
    /// [`AstraOptions::predictor`] off.
    pub trials_pruned: usize,
    /// Committed measurements the cost model trained on this run. Zero
    /// with the predictor off.
    pub predictor_updates: u64,
    /// Mean absolute error, in ns, between the predictor's selection-time
    /// score and the committed measurement over candidates that were both
    /// scored and simulated this run (0 when none were, or with the
    /// predictor off).
    pub predicted_vs_measured_mae: f64,
    /// Whether this optimizer started from a non-empty persistent store
    /// ([`AstraOptions::store_dir`] set and at least one record loaded).
    /// `false` with the store off or on a fresh (cold) store.
    pub warm_start: bool,
    /// Clean records loaded from the store at open. Zero with the store
    /// off.
    pub store_loaded_keys: u64,
    /// Records the store quarantined at open — torn tails, checksum or
    /// decode failures, version mismatches, plus records that decoded but
    /// failed domain validation. Each one degrades exactly its own key to
    /// a cold start; unaffected keys load normally. Zero with the store
    /// off.
    pub store_corrupt_records: u64,
    /// Records appended to the store's journal during this `optimize`
    /// call (admission verdicts, quarantine marks and full-run memos).
    /// Zero with the store off.
    pub store_journal_appends: u64,
    /// Snapshot compactions performed during this `optimize` call. Zero
    /// with the store off.
    pub store_compactions: u64,
}

impl Report {
    /// End-to-end speedup over the native baseline.
    pub fn speedup(&self) -> f64 {
        self.native_ns / self.steady_ns
    }
}

/// The Astra optimizer, bound to a training graph and a device.
#[derive(Debug)]
pub struct Astra<'g> {
    ctx: PlanContext<'g>,
    dev: &'g DeviceSpec,
    /// Multi-device node this optimizer targets, when built through
    /// [`Astra::with_topology`]; `dev` then aliases device 0. `None` keeps
    /// the classic single-device engine path.
    topo: Option<&'g Topology>,
    opts: AstraOptions,
    index: ProfileIndex,
    plan_cache: PlanCache,
    sim_cache: SimCache,
    /// Admission verdicts (see [`Astra::admit_candidate`]) keyed by plan
    /// geometry and device placement: a geometry's first emitted schedule
    /// under each placement is checked once and the verdict reused for
    /// every later candidate sharing both.
    admit_cache: HashMap<(PlanKey, DevicePlacement), bool>,
    /// The current `optimize` call's exploration counters.
    stats: ExploreStats,
    /// Monotonic fault-salt counter: every measured mini-batch gets the next
    /// salt, assigned in candidate order *before* a batch evaluates. Batch
    /// boundaries partition the same candidate sequence at every worker
    /// count, so the salt each candidate draws — and therefore every
    /// injected fault — is worker-count invariant.
    fault_seq: u64,
    /// The learned cost predictor: model, pruning policy, epsilon RNG, and
    /// cumulative counters. Persists across `optimize` calls like the
    /// profile index, so steady-state re-exploration prunes from the first
    /// batch.
    pruner: Pruner,
    /// The persistent warm-state store, when [`AstraOptions::store_dir`]
    /// is set and the directory opened cleanly. All journaling is a no-op
    /// when `None`.
    store: Option<DriverStore>,
    /// Why the configured store could not be opened, if it couldn't; the
    /// optimizer then runs exactly as if `store_dir` were `None`.
    store_error: Option<String>,
    /// Whether the store loaded at least one record at open.
    warm_start: bool,
    /// Clean records loaded at open.
    store_loaded: u64,
    /// Records quarantined at open (store-level corruption plus
    /// domain-validation drops).
    store_corrupt: u64,
    /// Persisted quarantine marks whose fault fingerprint matches this
    /// optimizer's fault plan: candidates measured under these keys are
    /// poisoned without re-probing (the fault plan is deterministic, so
    /// they would exhaust their retries again). Marks earned under other
    /// fault plans are ignored at load.
    warm_quarantine: HashSet<ProfileKey>,
}

impl<'g> Astra<'g> {
    /// Enumerates the optimization state space for `graph` on `dev`.
    pub fn new(graph: &'g Graph, dev: &'g DeviceSpec, opts: AstraOptions) -> Self {
        Astra::with_index(graph, dev, opts, ProfileIndex::new())
    }

    /// Enumerates the optimization state space for `graph` on a (possibly
    /// multi-device) `topo`. Device 0 doubles as the reference device for
    /// kernel cost lookups; on a multi-device node the placement dimension
    /// joins the exploration, and every simulated mini-batch runs on the
    /// topology engine (per-device clocks, link contention, collectives).
    /// A single-device topology behaves exactly like [`Astra::new`] on
    /// that device.
    pub fn with_topology(graph: &'g Graph, topo: &'g Topology, opts: AstraOptions) -> Self {
        let mut astra = Astra::with_index(graph, topo.device(0), opts, ProfileIndex::new());
        astra.topo = Some(topo);
        astra
    }

    /// Like [`Astra::new`], but seeded with an existing profile index —
    /// measurements from earlier runs (other buckets, earlier sessions) are
    /// reused through index hits instead of re-measured.
    pub fn with_index(
        graph: &'g Graph,
        dev: &'g DeviceSpec,
        opts: AstraOptions,
        index: ProfileIndex,
    ) -> Self {
        Astra::with_context(PlanContext::new(graph), dev, opts, index)
    }

    /// Like [`Astra::with_index`], but takes an already-enumerated
    /// [`PlanContext`] — callers that pre-lower graphs (e.g. bucketed
    /// dynamic-graph optimization sharing an `astra_exec::LoweringCache`)
    /// skip the redundant enumeration work.
    pub fn with_context(
        ctx: PlanContext<'g>,
        dev: &'g DeviceSpec,
        opts: AstraOptions,
        index: ProfileIndex,
    ) -> Self {
        let pruner = Pruner::new(opts.predictor, opts.predictor_top_k);
        let mut astra = Astra {
            ctx,
            dev,
            topo: None,
            opts,
            index,
            plan_cache: PlanCache::new(),
            sim_cache: SimCache::new(),
            admit_cache: HashMap::new(),
            stats: ExploreStats::default(),
            fault_seq: 0,
            pruner,
            store: None,
            store_error: None,
            warm_start: false,
            store_loaded: 0,
            store_corrupt: 0,
            warm_quarantine: HashSet::new(),
        };
        if let Some(dir) = astra.opts.store_dir.clone() {
            let mut sopts = StoreOptions::from_env();
            if astra.opts.store_crash_after.is_some() {
                sopts.fail_after_bytes = astra.opts.store_crash_after;
            }
            match DriverStore::open(&dir, &sopts) {
                Ok((store, warm)) => astra.install_warm(store, warm),
                Err(e) => astra.store_error = Some(format!("{}: {e}", dir.display())),
            }
        }
        astra
    }

    /// Applies a freshly opened store's warm state: memos and fault-matched
    /// quarantine marks (verdicts are read from the store itself, see
    /// [`Astra::verdict`]). All of it is outcome-invariant: it changes
    /// wall-clock, never the decision sequence.
    fn install_warm(&mut self, store: DriverStore, warm: WarmState) {
        self.store_loaded = warm.loaded_records;
        self.store_corrupt = warm.corrupt_records;
        self.warm_start = warm.loaded_records > 0;
        for (key, ck) in warm.memos {
            self.sim_cache.seed(key, ck);
        }
        let fault_fp = self.fault_fp();
        for (key, fp) in warm.quarantine {
            if fp == fault_fp {
                self.warm_quarantine.insert(key);
            }
        }
        self.store = Some(store);
    }

    /// This optimizer's fault-plan fingerprint as persisted in quarantine
    /// records (0 when fault injection is off, matching the sim-cache
    /// key normalization).
    fn fault_fp(&self) -> u64 {
        if self.opts.faults.is_none() {
            0
        } else {
            self.opts.faults.fingerprint()
        }
    }

    /// Why the store configured via [`AstraOptions::store_dir`] is not
    /// (or is no longer) persisting: the open failure if it never opened,
    /// or the first journaling error if it degraded mid-run. The
    /// optimizer still works — it simply runs cold / stops journaling —
    /// but callers that asked for persistence deserve to know they
    /// aren't getting it.
    pub fn store_error(&self) -> Option<&str> {
        self.store_error
            .as_deref()
            .or_else(|| self.store.as_ref().and_then(DriverStore::degraded))
    }

    /// Consumes the optimizer and returns its profile index (to thread into
    /// another run via [`Astra::with_index`]).
    pub fn into_index(self) -> ProfileIndex {
        self.index
    }

    /// The static enumeration (inspectable for diagnostics).
    pub fn context(&self) -> &PlanContext<'g> {
        &self.ctx
    }

    /// The profile index accumulated so far.
    pub fn profile_index(&self) -> &ProfileIndex {
        &self.index
    }

    /// Resolved worker count for candidate evaluation.
    fn workers(&self) -> usize {
        effective_workers(self.opts.workers)
    }

    /// The sim-cache key context for this optimizer's runs. Multi-device
    /// topologies fold their fingerprint into the key so a memo captured
    /// under one device mix can never replay a run on another;
    /// single-device topologies key exactly like the plain device path.
    fn key_ctx(&self) -> KeyCtx {
        match self.topo {
            Some(t) => KeyCtx::with_topology(t, self.opts.clock, &self.opts.faults),
            None => KeyCtx::new(self.dev, self.opts.clock, &self.opts.faults),
        }
    }

    /// The engine substrate every simulated mini-batch runs on.
    fn sim_target(&self) -> SimTarget<'g> {
        SimTarget {
            dev: self.dev,
            topo: self.topo,
            clock: self.opts.clock,
            faults: self.opts.faults,
        }
    }

    /// Commits the memo one run captured. Called in candidate order (the
    /// parallel stage only computes; all cache mutation is here).
    fn sim_absorb(&mut self, salt: u64, captured: Vec<EngineCheckpoint>) {
        if captured.is_empty() {
            return;
        }
        let ctx = self.key_ctx();
        if let Some(store) = self.store.as_mut() {
            // Journal under exactly the key the cache will file them by
            // (faulted memos export nothing).
            for ck in &captured {
                store.journal_memo(&ctx.key(ck.prefix_hash(), salt), ck);
            }
        }
        self.sim_cache.absorb_ctx(&ctx, salt, captured);
    }

    /// Persists a retry-exhaustion quarantine mark for `key` under this
    /// run's fault fingerprint, so a future run against the same store and
    /// fault plan poisons the candidate without burning the retry budget
    /// again. Deliberately does *not* touch `warm_quarantine`: within the
    /// writing run, behavior stays identical to a store-less run.
    fn journal_quarantine(&mut self, key: &ProfileKey) {
        let fault_fp = self.fault_fp();
        if let Some(store) = self.store.as_mut() {
            store.journal_quarantine(key, fault_fp);
        }
    }

    /// Runs one prepared lookahead batch and returns the outcomes in
    /// candidate order.
    ///
    /// Every trial probes the memo table on the driver thread, in
    /// candidate order, before anything in the batch runs. The probe
    /// folds the trial's memo key without building its schedule (see
    /// [`Wiring::key`]): a hit replays the memo's result right there, and
    /// only a miss builds the schedule, as one simulation job that
    /// captures its final boundary. The misses fan out over
    /// [`parallel_map`]'s scoped threads, and their memos are absorbed and
    /// journaled in candidate order once all of them finish. No trial can
    /// therefore see a memo captured inside its own batch, and every
    /// counter is a pure function of batch content: bit-identical at any
    /// worker count, and zero with the cache off (every trial is then
    /// built and simulated). A failed simulation fails the batch with the
    /// first error in candidate order, once every memo is absorbed.
    fn run_batch(&mut self, prepared: Vec<Option<Prepared>>) -> Result<Vec<TrialOut>, AstraError> {
        let sim = self.sim_target();
        let ctx = self.key_ctx();
        let mut results: Vec<Result<TrialOut, AstraError>> = Vec::with_capacity(prepared.len());
        // (candidate, schedule, probes, salt, capture index)
        let mut misses = Vec::new();
        for (i, p) in prepared.into_iter().enumerate() {
            let Some(Prepared { wiring, salt }) = p else {
                results.push(Ok(None));
                continue;
            };
            if !self.opts.sim_cache {
                let (sched, probes) = wiring.into_built();
                results.push(Ok(None));
                misses.push((i, sched, probes, salt, Vec::new()));
                continue;
            }
            let key = wiring.key();
            match self.sim_cache.probe_key(&ctx, key.hash, key.cmds, salt) {
                Some(ck) => results.push(
                    ck.finished_result(key.cmds).map(|r| Some((r, key.probes))).map_err(Into::into),
                ),
                None => {
                    results.push(Ok(None));
                    let sched = wiring.into_schedule(&key);
                    misses.push((i, sched, key.probes, salt, vec![key.cmds]));
                }
            }
        }

        let runs = parallel_map(self.workers(), &misses, |_, (_, sched, _, salt, caps)| {
            sim.run(sched, *salt, caps)
        });
        for ((i, _, probes, salt, _), res) in misses.into_iter().zip(runs) {
            results[i] = match res {
                Ok((r, captured)) => {
                    self.sim_absorb(salt, captured);
                    Ok(Some((r, probes)))
                }
                Err(e) => Err(e.into()),
            };
        }
        results.into_iter().collect()
    }

    /// The topology fingerprint folded into predictor features (0 on the
    /// plain single-device path).
    fn topo_fp(&self) -> u64 {
        self.topo.map_or(0, Topology::fingerprint)
    }

    /// Runs one prepared lookahead batch of `phase` and returns its
    /// outcomes in candidate order, simulating only the trials that can
    /// still matter. `feats` holds each trial's per-variable features and
    /// `prior_best` the phase's committed per-variable measured minima.
    ///
    /// The batch runs as waves through [`Astra::run_batch`]:
    ///
    /// * **Cold** — the predictor is off or not yet warm on this phase, or
    ///   no pending trial has a variable whose choice varies: one wave of
    ///   the whole batch.
    /// * **Warm** — the model scores every pending trial (filling
    ///   [`VarFeat::pred`]), and the first wave is the policy's selection:
    ///   the top-k predicted-cheapest choices per variable plus an
    ///   epsilon-probability tail from the fixed-seed RNG. The second wave
    ///   is the regret guard's: it re-admits every pending trial predicted,
    ///   for some variable, within `(1 + margin)` of the running best, or
    ///   for a variable with no measurement at all. What stays pruned is
    ///   predicted to lose by more than the margin, so recording its
    ///   prediction can never steal a variable from a measured candidate.
    ///
    /// The first wave's measurements are decoded and folded into the
    /// running best before the guard reads it. Selection, the epsilon draws
    /// and both waves run on the driver thread in candidate order, so the
    /// outcomes are identical at any worker count.
    fn run_batch_predicted<P: Phase>(
        &mut self,
        phase: &P,
        mut slots: Vec<Option<Prepared>>,
        feats: &mut BatchFeats,
        prior_best: &BTreeMap<usize, f64>,
    ) -> Result<Vec<BatchOutcome>, AstraError> {
        let n = slots.len();
        let mut results: Vec<TrialOut> = (0..n).map(|_| None).collect();
        let warm = self.pruner.active(P::KIND)
            && slots
                .iter()
                .zip(feats.iter())
                .any(|(s, fs)| s.is_some() && fs.as_ref().is_some_and(|fs| !fs.is_empty()));

        let mut wave = if warm {
            let preds: Vec<Option<Vec<PredEntry>>> = feats
                .iter_mut()
                .zip(&slots)
                .map(|(fs, s)| {
                    let fs = fs.as_mut().filter(|_| s.is_some())?;
                    let score = |vf: &mut VarFeat| {
                        vf.pred = self.pruner.predict_ns(P::KIND, &vf.feat);
                        PredEntry { var: vf.vidx, choice: vf.choice, predicted_ns: vf.pred }
                    };
                    Some(fs.iter_mut().map(score).collect())
                })
                .collect();
            self.pruner.select(&preds)
        } else {
            vec![true; n]
        };
        for w in 0..=usize::from(warm) {
            if w > 0 {
                // Fault-spiked metrics only inflate values and the fold
                // takes minima, so noise can only cause extra
                // re-admissions, never hide one.
                let mut best = prior_best.clone();
                for i in (0..n).filter(|&i| wave[i]) {
                    if let Some((run, probes)) = &results[i] {
                        fold_best(&mut best, feats, i, &phase.decode(probes, run));
                    }
                }
                let margin = self.pruner.margin();
                let near = |vf: &VarFeat| {
                    best.get(&vf.vidx).is_none_or(|&b| vf.pred <= b * (1.0 + margin))
                };
                let pending = slots.iter().zip(feats.iter());
                wave =
                    pending.map(|(s, fs)| s.is_some() && fs.iter().flatten().any(near)).collect();
            }
            let taken =
                slots.iter_mut().zip(&wave).map(|(s, &go)| if go { s.take() } else { None });
            for (res, out) in results.iter_mut().zip(self.run_batch(taken.collect())?) {
                if out.is_some() {
                    *res = out;
                }
            }
        }

        // A trial with features was prepared, so if it never ran, the
        // predictor left it pending.
        let outcomes = slots.into_iter().zip(results).zip(feats.iter());
        Ok(outcomes
            .map(|((slot, res), fs)| match res {
                Some((run, probes)) => BatchOutcome::Measured(run, probes),
                None if fs.is_none() => BatchOutcome::Invalid,
                None => {
                    self.stats.pruned += usize::from(slot.is_some());
                    BatchOutcome::Pruned
                }
            })
            .collect())
    }

    /// Admission control for one prepared candidate: the static verifier
    /// ([`crate::verify_plan`]: hazards), then, for a clean plan, the
    /// static linter's peak-memory analysis ([`astra_lint::lint_memory`]:
    /// `lint-mem-capacity`, the only lint rule that rejects, so the
    /// verdict is [`crate::lint_plan`]'s without its advisory scans). Both
    /// checks share one allocation plan and access table. A rejection
    /// quarantines the candidate before it
    /// simulates. The verdict is cached per plan key and device placement:
    /// libs and stream maps share the key, since they reshuffle a geometry
    /// already cleared or condemned, while a placement changes the wiring
    /// (replicas, transfers, collectives) without changing the geometry.
    /// A switched-off check ([`AstraOptions::verify`],
    /// [`AstraOptions::lint`]) always passes, for free.
    fn admit_candidate(&mut self, cfg: &ExecConfig, units: &[Unit], wiring: &mut Wiring) -> bool {
        if !self.opts.verify && !self.opts.lint {
            return true;
        }
        let key = (PlanCache::key(&self.ctx, cfg), cfg.placement.clone());
        if let Some(&admit) = self.admit_cache.get(&key) {
            return admit;
        }
        let fp = key.0.fingerprint(&key.1);
        // Built by whichever check runs first (a stored verdict runs none).
        let mut footprint: Option<PlanFootprint> = None;
        let admit = (!self.opts.verify
            || self.verdict(VerdictKind::Verify, fp, |astra| {
                let workers = astra.workers();
                let sched = wiring.schedule();
                let report = footprint
                    .get_or_insert_with(|| PlanFootprint::new(&astra.ctx, cfg, units, sched))
                    .verify(sched, workers);
                let clean = report.is_clean();
                astra.stats.plans_verified += 1;
                astra.stats.verify_rejects += u64::from(!clean);
                clean
            }))
            && (!self.opts.lint
                || self.verdict(VerdictKind::Lint, fp, |astra| {
                    let topo = astra.lint_topology();
                    let sched = wiring.schedule();
                    let clean = footprint
                        .get_or_insert_with(|| PlanFootprint::new(&astra.ctx, cfg, units, sched))
                        .lint_admits(sched, &topo);
                    astra.stats.lint_rejects += u64::from(!clean);
                    clean
                }));
        self.admit_cache.insert(key, admit);
        admit
    }

    /// One static check's verdict on the plan fingerprinted `fp`: the
    /// store's persisted verdict when it holds one, else `check`'s, which
    /// is then journaled. The analyses are pure functions of the plan, so a
    /// stored verdict is as good as a fresh one; the counters track check
    /// executions, so a stored verdict moves none of them.
    fn verdict(
        &mut self,
        kind: VerdictKind,
        fp: u64,
        check: impl FnOnce(&mut Self) -> bool,
    ) -> bool {
        if let Some(clean) = self.store.as_ref().and_then(|s| s.verdict(kind, fp)) {
            return clean;
        }
        let clean = check(self);
        if let Some(store) = self.store.as_mut() {
            store.journal_verdict(kind, fp, clean);
        }
        clean
    }

    /// The topology candidate lints evaluate against: the real
    /// node topology when placement search is active, else the plain
    /// device wrapped as a single-device node.
    fn lint_topology(&self) -> Topology {
        match self.topo {
            Some(t) => t.clone(),
            None => Topology::single(self.dev.clone()),
        }
    }

    /// Runs `sched`, re-running under deterministic retry salts while the
    /// run reports an injected fault (bounded by [`MAX_FAULT_RETRIES`]).
    /// Every attempt is a real mini-batch; the caller decides whether the
    /// attempts count as exploration trials. Returns the fastest attempt,
    /// the number of mini-batches run, and their summed simulated time.
    /// With [`FaultPlan::none`] this is exactly one clean run.
    ///
    /// Each attempt simulates cold on `engine(attempt_salt)`, outside the
    /// memo table: it neither probes nor fills it. The caller's engine
    /// decides whether the attempts record spans.
    fn measured_run(
        &mut self,
        sched: &Schedule,
        salt: u64,
        engine: impl Fn(u64) -> Engine<'g>,
    ) -> Result<(RunResult, usize, f64), AstraError> {
        let mut runs = 0usize;
        let mut spent = 0.0;
        let mut best: Option<RunResult> = None;
        for attempt in 0..=MAX_FAULT_RETRIES {
            let asalt = FaultPlan::attempt_salt(salt, attempt);
            let r = engine(asalt).run(sched)?;
            runs += 1;
            spent += r.total_ns;
            let faulted = r.faults.any();
            if faulted {
                self.stats.fault_events += 1;
            }
            if best.as_ref().is_none_or(|b| r.total_ns < b.total_ns) {
                best = Some(r);
            }
            if !faulted {
                break;
            }
            if attempt < MAX_FAULT_RETRIES {
                self.stats.retries += 1;
            }
        }
        Ok((best.expect("at least one attempt ran"), runs, spent))
    }

    /// Runs the full work-conserving exploration and returns the report.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying simulation fails; invalid fusion
    /// configurations (cyclic unit graphs) are skipped, not fatal.
    pub fn optimize(&mut self) -> Result<Report, AstraError> {
        self.stats = ExploreStats::default();
        let native_salt = self.fault_seq;
        self.fault_seq += 1;
        let native_sched = native_schedule(&self.ctx.lowering);
        let target = self.sim_target();
        let (native, _, _) =
            self.measured_run(&native_sched, native_salt, |s| target.engine(s).without_spans())?;
        let native_ns = native.total_ns;
        let cache_hits0 = self.plan_cache.hits();
        let cache_misses0 = self.plan_cache.misses();
        let sim_hits0 = self.sim_cache.hits();
        let sim_misses0 = self.sim_cache.misses();
        let sim_resumed0 = self.sim_cache.resumed_cmds();
        let sim_total0 = self.sim_cache.total_cmds();
        let pred_upd0 = self.pruner.updates();
        let pred_err0 = self.pruner.abs_err_ns;
        let pred_errn0 = self.pruner.err_samples;
        let journal0 = self.store.as_ref().map_or(0, DriverStore::journal_appends);
        let compact0 = self.store.as_ref().map_or(0, DriverStore::compactions);

        let dims = self.opts.dims;
        let strategies = if dims.alloc { self.ctx.alloc.strategies.len() } else { 1 };

        let mut best_overall: Option<(f64, ExecConfig, usize, Vec<f64>)> = None;

        for strategy in 0..strategies {
            let mut cfg = ExecConfig::baseline();
            cfg.strategy = strategy;
            let strat_ctx = (strategies > 1).then(|| format!("alloc:{strategy}"));
            let strat_ctx = strat_ctx.as_deref();

            if dims.fusion {
                let phase = FusionPhase::new(self, &mut cfg, strat_ctx);
                self.run_phase(phase, &mut cfg)?;
            }
            if dims.kernel {
                let phase = KernelPhase::new(self, &mut cfg)?;
                self.run_phase(phase, &mut cfg)?;
            }
            let mut partition = None;
            if dims.streams {
                let (p, phase) = StreamPhase::new(self, &mut cfg, strat_ctx)?;
                partition = Some(p);
                self.run_phase(phase, &mut cfg)?;
            }
            // Placement across the node's devices (nothing to explore
            // without a multi-device topology).
            let phase = PlacementPhase::new(self, &mut cfg, strat_ctx)?;
            self.run_phase(phase, &mut cfg)?;

            // Context playoff run: best configuration end-to-end (§4.7).
            // Bounded fault retries keep the strategy comparison honest — a
            // spiked playoff would otherwise disqualify a good context.
            // Super-epoch partitions only shape single-device schedules:
            // multi-device placements emit their own wiring.
            let units = self.plan_cache.units_for(&self.ctx, &cfg)?;
            let playoff_partition =
                if cfg.placement.is_single() { partition.as_ref() } else { None };
            let (sched, probes) =
                emit_schedule(&self.ctx, &cfg, &units, playoff_partition, &ProbeSpec::none());
            let mut wiring = Wiring::Built(Box::new(sched), probes);
            if !self.admit_candidate(&cfg, &units, &mut wiring) {
                self.stats.quarantined += 1;
                continue;
            }
            let (sched, _) = wiring.into_built();
            let salt = self.fault_seq;
            self.fault_seq += 1;
            // The playoff's spans feed `device_utilization`: it is the one
            // span-recording run.
            let (r, runs, spent) = self.measured_run(&sched, salt, |s| target.engine(s))?;
            self.stats.trials += runs;
            self.stats.exploration_ns += spent;
            let se_count = playoff_partition.map_or(0, |p| p.super_epochs.len());
            if best_overall.as_ref().is_none_or(|(b, ..)| r.total_ns < *b) {
                // Utilization covers every device in the node, including
                // ones the winning placement leaves idle.
                let mut util = r.device_utilization(&sched);
                util.resize(self.topo.map_or(1, Topology::num_devices), 0.0);
                best_overall = Some((r.total_ns, cfg, se_count, util));
            }
        }

        let Some((steady_ns, best, super_epochs, device_utilization)) = best_overall else {
            return Err(AstraError::AllPlansRejected(format!(
                "{} verify reject(s), {} lint reject(s) across {strategies} strategies",
                self.stats.verify_rejects, self.stats.lint_rejects,
            )));
        };
        let cost_per_throughput = match self.topo {
            Some(t) => t.total_cost() * steady_ns,
            None => steady_ns,
        };
        // Seal the run: sync the journal and compact when it has grown
        // past the auto-compaction threshold. Store trouble degrades to a
        // cold cache, never to a failed optimize.
        if let Some(store) = self.store.as_mut() {
            store.finish_run();
        }
        let stats = &self.stats;
        Ok(Report {
            native_ns,
            steady_ns,
            configs_explored: stats.trials,
            exploration_ns: stats.exploration_ns,
            profiling_overhead_frac: if stats.exploration_ns > 0.0 {
                stats.overhead_ns / stats.exploration_ns
            } else {
                0.0
            },
            best,
            strategies_explored: strategies,
            fusion_sets: self.ctx.sets.len(),
            super_epochs,
            plan_cache_hits: self.plan_cache.hits() - cache_hits0,
            plan_cache_misses: self.plan_cache.misses() - cache_misses0,
            fault_events: stats.fault_events,
            retries: stats.retries,
            quarantined: stats.quarantined,
            plans_verified: stats.plans_verified,
            verify_rejects: stats.verify_rejects,
            lint_rejects: stats.lint_rejects,
            bound_pruned: 0,
            sim_cache_hits: self.sim_cache.hits() - sim_hits0,
            sim_cache_misses: self.sim_cache.misses() - sim_misses0,
            resumed_fraction: {
                let total = self.sim_cache.total_cmds() - sim_total0;
                if total == 0 {
                    0.0
                } else {
                    (self.sim_cache.resumed_cmds() - sim_resumed0) as f64 / total as f64
                }
            },
            prefix_group_count: 0,
            device_utilization,
            cost_per_throughput,
            placements_explored: stats.placements,
            trials_pruned: stats.pruned,
            predictor_updates: self.pruner.updates() - pred_upd0,
            predicted_vs_measured_mae: {
                let n = self.pruner.err_samples - pred_errn0;
                if n == 0 {
                    0.0
                } else {
                    (self.pruner.abs_err_ns - pred_err0) / n as f64
                }
            },
            warm_start: self.warm_start,
            store_loaded_keys: self.store_loaded,
            store_corrupt_records: self.store_corrupt,
            store_journal_appends: self
                .store
                .as_ref()
                .map_or(0, DriverStore::journal_appends)
                .saturating_sub(journal0),
            store_compactions: self
                .store
                .as_ref()
                .map_or(0, DriverStore::compactions)
                .saturating_sub(compact0),
        })
    }

    /// Wires candidate `c` for the attempt salted `salt`: on a fragmented
    /// build of its geometry when the salt draws a transient allocation
    /// failure (built outside the plan cache, so the clean geometry stays
    /// cached), else on its `clean` units. A fragmented build has the clean
    /// build's unit set, ids, dependencies and order — so partitions, probe
    /// specs and the trial's stream vector `streams` (see
    /// [`Phase::prepare`]) stay valid — and fails only where the clean
    /// build does. Without a vector, `c.streams` places the units. A
    /// single-device candidate becomes a recipe over its geometry's
    /// template from `templates`; a multi-device placement is emitted.
    fn wire_attempt<P: Phase>(
        &self,
        phase: &P,
        c: &ExecConfig,
        streams: Option<&Rc<[usize]>>,
        clean: &Arc<[Unit]>,
        salt: u64,
        templates: &mut Templates,
    ) -> Option<(Arc<[Unit]>, Wiring)> {
        let units = match self.opts.faults.alloc_event(salt) {
            Some(word) => Arc::from(build_units_fragmented(&self.ctx, c, word).ok()?),
            None => Arc::clone(clean),
        };
        if !c.placement.is_single() {
            debug_assert!(streams.is_none(), "stream vectors place one device");
            let (partition, probe) = (phase.partition(), phase.probe_spec());
            let (sched, probes) = emit_schedule(&self.ctx, c, &units, partition, probe);
            return Some((units, Wiring::Built(Box::new(sched), probes)));
        }
        let num_streams = c.num_streams.max(1);
        let streams = match streams {
            Some(v) => Rc::clone(v),
            None => unit_streams(c, &units, num_streams).into(),
        };
        let template = templates.get(phase, &units);
        Some((Arc::clone(&units), Wiring::Recipe { units, template, num_streams, streams }))
    }

    /// Runs one exploration phase to completion — the custom wirer of
    /// §4.7, shared by every phase — and applies the best assignment to
    /// `cfg`. Each lookahead batch is:
    ///
    /// 1. prepared into candidate configurations and, for the stream phase,
    ///    per-unit stream vectors (see [`Phase::prepare`]), with one fault
    ///    salt per candidate assigned in candidate order before the batch
    ///    evaluates (so injected faults are worker-count invariant);
    /// 2. prepared sequentially in candidate order: wired (see
    ///    [`Astra::wire_attempt`]; candidates sharing a unit allocation
    ///    share one [`WiringTemplate`]) and admitted (see
    ///    [`Astra::admit_candidate`]) — fault-fragmented geometries skip
    ///    admission, since their placements differ from the clean plan a
    ///    cached verdict is keyed on;
    /// 3. run through [`Astra::run_batch_predicted`] with the phase's
    ///    features, which maps each trial to one
    ///    [`BatchOutcome`];
    /// 4. committed in candidate order, so the update tree, the profile
    ///    index and the predictor see exactly a sequential driver's
    ///    updates: an invalid candidate poisons its choices, a pruned one
    ///    records its [`VarFeat::pred`] values, and a measured one commits
    ///    the decoded metrics of its fault-free run. A measured candidate
    ///    is re-measured under the next attempt salt, as a one-trial
    ///    [`Astra::run_batch`], while its run reports a fault, up to
    ///    [`MAX_FAULT_RETRIES`] times; still faulted, it is quarantined —
    ///    every variable's choice poisoned, no sample indexed, a mark
    ///    naming the trial (see `quarantine_id`) journaled. A persisted
    ///    mark under this fault plan poisons the same trial after its
    ///    first run, counted like any first run, without spending the
    ///    retries.
    fn run_phase<P: Phase>(
        &mut self,
        space: Space<P>,
        cfg: &mut ExecConfig,
    ) -> Result<(), AstraError> {
        let Some((phase, mut tree)) = space else { return Ok(()) };
        let phase = &phase;
        let vars = phase.vars();
        // Committed per-variable measured minima, for the regret guard.
        let mut best_measured: BTreeMap<usize, f64> = BTreeMap::new();
        let mut templates = Templates::default();

        loop {
            let batch = tree.lookahead(LOOKAHEAD_TRIALS);
            if batch.is_empty() {
                break;
            }
            // The tree picks one choice per slot; phases index by variable.
            let picks: Vec<Vec<usize>> =
                batch.iter().map(|slots| vars.iter().map(|v| slots[v.slot]).collect()).collect();
            let (cfgs, streams): (Vec<ExecConfig>, Vec<_>) = picks
                .iter()
                .map(|pick| {
                    let (c, s) = phase.prepare(cfg, pick);
                    (c, s.map(Rc::<[usize]>::from))
                })
                .unzip();
            let clean = phase.units(self, &cfgs)?;

            let salt0 = self.fault_seq;
            self.fault_seq += batch.len() as u64;
            templates.retain_for(&clean);
            let mut prepared: Vec<Option<Prepared>> = Vec::with_capacity(cfgs.len());
            for (i, ((c, s), units)) in cfgs.iter().zip(&streams).zip(&clean).enumerate() {
                let salt = salt0 + i as u64;
                let wired = units
                    .as_ref()
                    .and_then(|u| self.wire_attempt(phase, c, s.as_ref(), u, salt, &mut templates));
                prepared.push(wired.and_then(|(units, mut wiring)| {
                    let fragmented = self.opts.faults.alloc_event(salt).is_some();
                    if !fragmented && !self.admit_candidate(c, &units, &mut wiring) {
                        self.stats.quarantined += 1;
                        return None;
                    }
                    Some(Prepared { wiring, salt })
                }));
            }

            let active = phase.active(&picks);
            let mut feats: BatchFeats = Vec::with_capacity(cfgs.len());
            for ((p, c), pick) in prepared.iter().zip(&cfgs).zip(&picks) {
                feats.push(p.as_ref().map(|_| {
                    active
                        .iter()
                        .map(|&v| VarFeat {
                            slot: vars[v].slot,
                            vidx: v,
                            choice: pick[v],
                            feat: phase.features(&self.ctx, c, v, pick[v]),
                            pred: 0.0,
                        })
                        .collect()
                }));
            }

            let outcomes = self.run_batch_predicted(phase, prepared, &mut feats, &best_measured)?;

            for (bi, outcome) in outcomes.into_iter().enumerate() {
                let advanced = tree.advance();
                assert!(advanced, "lookahead bounds the batch");
                debug_assert_eq!(tree.picks(), batch[bi]);
                let (mut run, mut probes) = match outcome {
                    // Invalid or admission-rejected candidate.
                    BatchOutcome::Invalid => {
                        tree.poison_all();
                        continue;
                    }
                    // Predicted metrics, each above its variable's measured
                    // best by more than the regret guard's margin.
                    BatchOutcome::Pruned => {
                        for vf in feats[bi].iter().flatten() {
                            tree.record_at(vf.slot, vf.pred);
                        }
                        continue;
                    }
                    BatchOutcome::Measured(r, p) => (r, p),
                };
                let pick = &picks[bi];
                let salt = salt0 + bi as u64;
                let qid = || {
                    quarantine_id(P::KIND, vars.iter().zip(pick).map(|(v, &c)| &v.keys[c]), salt)
                };
                let marked =
                    !self.warm_quarantine.is_empty() && self.warm_quarantine.contains(&qid());
                let mut attempt = 0u32;
                let clean_run = loop {
                    self.stats.trials += 1;
                    self.stats.exploration_ns += run.total_ns;
                    self.stats.overhead_ns +=
                        probes.probe_records as f64 * self.dev.event_record_cost_ns;
                    if !run.faults.any() {
                        // A marked trial is poisoned even if this run
                        // came back clean.
                        break !marked;
                    }
                    self.stats.fault_events += 1;
                    if marked || attempt >= MAX_FAULT_RETRIES {
                        break false;
                    }
                    // Deterministic backoff: re-measure under the
                    // candidate's salt at the next attempt index, as a
                    // one-trial batch through the sim cache.
                    attempt += 1;
                    self.stats.retries += 1;
                    let salt = FaultPlan::attempt_salt(salt, attempt);
                    let clean = clean[bi].as_ref().expect("measured candidates have units");
                    let streams = streams[bi].as_ref();
                    let Some((_, wiring)) =
                        self.wire_attempt(phase, &cfgs[bi], streams, clean, salt, &mut templates)
                    else {
                        break false;
                    };
                    let retry = self.run_batch(vec![Some(Prepared { wiring, salt })])?;
                    (run, probes) =
                        retry.into_iter().flatten().next().expect("a prepared trial runs");
                };
                if !clean_run {
                    // The update tree sees +inf for these choices (so the
                    // best known configuration wins); the profile index
                    // keeps no sample, leaving the candidate re-measurable.
                    self.stats.quarantined += 1;
                    tree.poison_all();
                    self.journal_quarantine(&qid());
                    continue;
                }
                let metrics = phase.decode(&probes, &run);
                let fs = feats[bi].as_deref().unwrap_or_default();
                for &(v, m) in &metrics {
                    tree.record_at(vars[v].slot, m);
                    self.index.record(&vars[v].keys[pick[v]], m);
                    match fs.binary_search_by_key(&v, |vf| vf.vidx) {
                        Ok(i) => self.pruner.observe(P::KIND, &fs[i].feat, fs[i].pred, m),
                        Err(_) => {
                            if let Some(f) = phase.frozen_feature(v, pick[v]) {
                                self.pruner.observe(P::KIND, f, 0.0, m);
                            }
                        }
                    }
                }
                fold_best(&mut best_measured, &feats, bi, &metrics);
            }
        }

        let best = tree.best_assignment();
        let pick: Vec<usize> = vars.iter().map(|v| best[&v.id]).collect();
        phase.materialize(cfg, &pick);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_models::Model;

    fn tiny(model: Model) -> astra_models::BuiltModel {
        let mut c = model.default_config(8);
        c.hidden = 64;
        c.input = 64;
        c.vocab = 128;
        c.seq_len = 3;
        c.layers = c.layers.min(2);
        model.build(&c)
    }

    fn optimize(model: Model, dims: Dims) -> Report {
        let built = tiny(model);
        let dev = DeviceSpec::p100();
        let mut astra = Astra::new(&built.graph, &dev, AstraOptions { dims, ..Default::default() });
        astra.optimize().expect("optimization succeeds")
    }

    #[test]
    fn fusion_speeds_up_sublstm() {
        let r = optimize(Model::SubLstm, Dims::f());
        assert!(r.speedup() > 1.0, "Astra_F speedup {} <= 1", r.speedup());
        assert!(r.configs_explored > 1);
        assert!(r.fusion_sets > 0);
    }

    #[test]
    fn dims_are_cumulative_on_average() {
        // FKS must not be worse than F alone (it includes F's space and the
        // playoff picks the best measured config).
        let f = optimize(Model::Scrnn, Dims::f());
        let fks = optimize(Model::Scrnn, Dims::fks());
        assert!(
            fks.steady_ns <= f.steady_ns * 1.01,
            "FKS {} should not lose to F {}",
            fks.steady_ns,
            f.steady_ns
        );
        assert!(fks.configs_explored > f.configs_explored);
    }

    #[test]
    fn profiling_overhead_is_small() {
        // The <0.5% bound (§6.4) holds at realistic model sizes, where a
        // mini-batch is milliseconds long. (Toy graphs with near-empty
        // kernels inflate the ratio, so this test uses a wider model.)
        let mut c = Model::SubLstm.default_config(16);
        c.hidden = 768;
        c.input = 768;
        c.vocab = 2000;
        c.seq_len = 6;
        let built = Model::SubLstm.build(&c);
        let dev = DeviceSpec::p100();
        let mut astra =
            Astra::new(&built.graph, &dev, AstraOptions { dims: Dims::fks(), ..Default::default() });
        let r = astra.optimize().expect("optimization succeeds");
        assert!(
            r.profiling_overhead_frac < 0.005,
            "profiling overhead {} >= 0.5%",
            r.profiling_overhead_frac
        );
    }

    #[test]
    fn exploration_is_work_conserving() {
        // Exploration time is bounded: no trial costs more than a few
        // native mini-batches (every mini-batch makes training progress).
        let r = optimize(Model::MiLstm, Dims::fk());
        let avg_trial = r.exploration_ns / r.configs_explored as f64;
        assert!(
            avg_trial < 3.0 * r.native_ns,
            "avg trial {} vs native {}",
            avg_trial,
            r.native_ns
        );
    }

    #[test]
    fn all_dims_run_on_all_models() {
        for m in Model::all() {
            let r = optimize(m, Dims::all());
            assert!(r.steady_ns > 0.0);
            assert!(
                r.steady_ns <= r.native_ns * 1.05,
                "{m}: Astra_all {} much worse than native {}",
                r.steady_ns,
                r.native_ns
            );
        }
    }

    #[test]
    fn second_optimize_reuses_the_index() {
        // Re-optimizing with the accumulated index: every measurement hits,
        // so the second run needs only the playoff trial(s).
        let built = tiny(Model::SubLstm);
        let dev = DeviceSpec::p100();
        let mut astra = Astra::new(
            &built.graph,
            &dev,
            AstraOptions { dims: Dims::fk(), ..Default::default() },
        );
        let first = astra.optimize().expect("first run");
        let second = astra.optimize().expect("second run");
        assert!(
            second.configs_explored < first.configs_explored / 2,
            "second run {} should mostly hit the index (first {})",
            second.configs_explored,
            first.configs_explored
        );
        assert!((second.steady_ns - first.steady_ns).abs() < first.steady_ns * 0.01);
    }

    #[test]
    fn stream_exploration_reports_super_epochs() {
        let r = optimize(Model::StackedLstm, Dims::fks());
        assert!(r.super_epochs >= 1);
    }

    #[test]
    fn clean_runs_report_zero_fault_counters() {
        // Fault injection must be zero-cost when disabled: no event, retry,
        // or quarantine ever shows up without a fault plan — including under
        // autoboost clock jitter, which varies measurements but is no fault.
        for clock in [ClockMode::Fixed, ClockMode::Autoboost { seed: 3 }] {
            let built = tiny(Model::SubLstm);
            let dev = DeviceSpec::p100();
            let mut astra = Astra::new(
                &built.graph,
                &dev,
                AstraOptions { dims: Dims::fks(), clock, ..Default::default() },
            );
            let r = astra.optimize().expect("clean optimization");
            assert_eq!(
                (r.fault_events, r.retries, r.quarantined),
                (0, 0, 0),
                "clean run must report zero fault counters under {clock:?}"
            );
        }
    }

    #[test]
    fn candidate_plans_verify_clean_and_cache() {
        let built = tiny(Model::SubLstm);
        let dev = DeviceSpec::p100();
        let mut astra = Astra::new(&built.graph, &dev, AstraOptions::default());
        let r = astra.optimize().expect("optimization succeeds");
        assert!(r.plans_verified > 0, "default options verify candidate plans");
        assert_eq!(r.verify_rejects, 0, "generated schedules must verify clean");
        assert_eq!(r.quarantined, 0);
        assert!(
            (r.plans_verified as usize) < r.configs_explored,
            "verdicts are cached per plan key ({} verified, {} trials)",
            r.plans_verified,
            r.configs_explored
        );

        // Verification off: zero counters, identical exploration outcome.
        let mut off = Astra::new(
            &built.graph,
            &dev,
            AstraOptions { verify: false, ..Default::default() },
        );
        let r_off = off.optimize().expect("optimization succeeds");
        assert_eq!((r_off.plans_verified, r_off.verify_rejects), (0, 0));
        assert_eq!(r_off.steady_ns, r.steady_ns, "verification must not change the outcome");
        assert_eq!(r_off.configs_explored, r.configs_explored);
    }

    #[test]
    fn over_capacity_plans_are_lint_rejected() {
        let built = tiny(Model::SubLstm);
        let mut dev = DeviceSpec::p100();
        dev.mem_bytes = 1024; // nothing fits in 1 KiB
        let mut astra = Astra::new(
            &built.graph,
            &dev,
            AstraOptions { dims: Dims::f(), ..Default::default() },
        );
        let err = astra.optimize().expect_err("over-capacity plans must be rejected");
        assert!(
            matches!(err, AstraError::AllPlansRejected(_)),
            "expected AllPlansRejected, got {err:?}"
        );

        // Lint off: the driver happily simulates the oversized plan (the
        // simulator itself has no capacity model) and reports zero lint
        // counters.
        let mut off = Astra::new(
            &built.graph,
            &dev,
            AstraOptions { dims: Dims::f(), lint: false, ..Default::default() },
        );
        let r = off.optimize().expect("lint off admits everything");
        assert_eq!(r.lint_rejects, 0);
    }

    #[test]
    fn lint_counters_are_zero_on_clean_defaults() {
        let built = tiny(Model::SubLstm);
        let dev = DeviceSpec::p100();
        let mut astra = Astra::new(&built.graph, &dev, AstraOptions::default());
        let r = astra.optimize().expect("optimization succeeds");
        assert_eq!(r.lint_rejects, 0, "zoo-sized plans fit comfortably");
    }

    #[test]
    fn stored_optimize_keeps_memos_and_memo_records_span_free() {
        let built = tiny(Model::SubLstm);
        let dev = DeviceSpec::p100();
        let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
        let dir = std::env::temp_dir().join(format!("astra-spanfree-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let opts =
            AstraOptions { dims: Dims::all(), store_dir: Some(dir.clone()), ..Default::default() };
        let mut astra = Astra::new(&built.graph, &dev, opts.clone());
        let cold = astra.optimize().expect("stored optimization succeeds");
        assert!(cold.sim_cache_misses > 0 && !astra.sim_cache.is_empty());
        assert!(
            astra.sim_cache.memos().all(|ck| !ck.records_spans() && ck.span_count() == 0),
            "no memo in the sim cache carries a span"
        );
        assert!(
            cold.device_utilization.iter().any(|&u| u > 0.0),
            "the playoff still records the spans utilization reads"
        );
        drop(astra);

        let (_, records) = astra_store::Store::open(&dir, &StoreOptions::default()).unwrap();
        let memos: Vec<&astra_store::MemoRec> = records
            .iter()
            .filter_map(|r| match r {
                astra_store::Record::Memo(m) => Some(&**m),
                _ => None,
            })
            .collect();
        assert!(!memos.is_empty(), "the run journaled its memos");
        assert!(
            memos.iter().all(|m| m.labels.is_empty() && m.spans.is_empty()),
            "no memo record in the store carries a span"
        );

        // A warm rerun replays them to the same plan and utilization.
        let warm = Astra::new(&built.graph, &dev, opts).optimize().expect("warm rerun");
        assert!(warm.warm_start && warm.sim_cache_hits > 0);
        assert_eq!(warm.steady_ns.to_bits(), cold.steady_ns.to_bits());
        assert_eq!(warm.best, cold.best);
        assert_eq!(warm.device_utilization, cold.device_utilization);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_exploration_reports_events_and_converges() {
        let built = tiny(Model::SubLstm);
        let dev = DeviceSpec::p100();
        let mut astra = Astra::new(
            &built.graph,
            &dev,
            AstraOptions { dims: Dims::fk(), faults: FaultPlan::chaos(7), ..Default::default() },
        );
        let r = astra.optimize().expect("faulted optimization still completes");
        assert!(r.fault_events > 0, "chaos plan should trip at least one fault");
        assert!(r.retries > 0, "a faulted measurement must be retried");
        assert!(r.steady_ns > 0.0 && r.steady_ns.is_finite());
    }
}
