//! Discrete-event simulation engine.
//!
//! The engine models the CUDA execution pipeline the paper's dispatcher
//! interposes on (§5.1):
//!
//! * a CPU dispatch thread issues commands in order, paying a fixed
//!   per-launch cost, and never blocks except at [`Cmd::HostSync`];
//! * each stream executes its items strictly FIFO;
//! * kernels from different streams run *concurrently*, sharing the device's
//!   thread-block slots — a processor-sharing model in which concurrent
//!   grids jointly achieve the wave-aware utilization of one merged grid
//!   (small kernels genuinely overlap; saturating kernels split the device
//!   with no free bonus);
//! * each kernel pays a fixed launch overhead before occupying slots;
//! * events fire when a stream drains past their record point; kernels may
//!   wait on events (cross-stream synchronization costs extra);
//! * a barrier releases only when every stream has drained to it.
//!
//! The simulation is fully deterministic under [`ClockMode::Fixed`]; under
//! autoboost, kernel durations receive seeded multiplicative jitter, which is
//! exactly the repeatability hazard the paper's §7 discusses.
//!
//! The hot path is allocation-free per command: queue items borrow their
//! wait lists as slices of the schedule's one wait pool
//! ([`Schedule::waits`]), execution rates are cached and recomputed
//! only when the set of running kernels changes, and the span and queue
//! buffers and the event table are pre-sized from the schedule's counters.
//!
//! # Span-free runs
//!
//! By default a run records one [`KernelSpan`] per executed kernel, transfer
//! and all-reduce, rendering each span's label from the schedule as it
//! completes. [`Engine::without_spans`] turns that off: the run returns
//! `RunResult::spans` empty and is otherwise bit-identical (makespan, event
//! times, fault counts, record count and profiling overhead). Exploration
//! trials run span-free, since they read only event times and totals.
//!
//! # Incremental simulation
//!
//! [`Engine::run_incremental`] can capture an [`EngineCheckpoint`] at any
//! [`Schedule::mark_boundary`] point and later resume a *different* schedule
//! from it, provided the two schedules share the exact command prefix (the
//! boundary's rolling hash is the witness). Resumed runs are **bit-identical**
//! to cold runs: the engine only ever advances the event loop through work
//! that the prefix fully determines (see [`Sim::advance_prefix`]), so the
//! sequence of floating-point operations and RNG draws — clock jitter and
//! fault draws included — is exactly the one a cold run performs.

use std::collections::{HashMap, VecDeque};
use crate::clock::{Clock, ClockMode};
use crate::device::DeviceSpec;
use crate::error::GpuError;
use crate::fault::{
    FaultInjector, FaultPlan, FaultSummary, ALLOC_RETRY_STALL_NS, LAUNCH_RETRY_OVERHEAD_FACTOR,
};
use crate::schedule::{Cmd, EventId, Schedule, StreamId};
use crate::topology::Topology;

/// Time comparison slack, in nanoseconds.
const EPS: f64 = 1e-6;

/// Completion slack that scales with the simulation timestamp: once `now`
/// is large, an f64 cannot represent sub-ulp increments, so remainders
/// smaller than a few ulps must count as finished or the event loop could
/// stall on a kernel whose completion time rounds back to `now`.
fn done_eps(now: f64) -> f64 {
    EPS + now.abs() * 1e-12
}

/// Timing of one executed kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpan {
    /// The command's label ([`Schedule::span_label`]): the explicit launch
    /// label or the kernel's default, rendered when the span completes.
    pub label: String,
    /// Stream the kernel ran on.
    pub stream: StreamId,
    /// Start of the launch overhead phase, ns.
    pub start_ns: f64,
    /// Completion time, ns.
    pub end_ns: f64,
    /// Index of the originating command in the schedule.
    pub cmd_idx: usize,
}

/// Result of executing a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Wall-clock makespan: all commands issued and the device idle.
    pub total_ns: f64,
    /// Fire time of each recorded event, indexed by event id. The engine's
    /// own event table: it resolves the run's waits and is returned as is.
    /// A finished run fires every event the schedule records.
    pub event_ns: EventTimes,
    /// Per-kernel spans, in completion order. Empty for a run made
    /// [`Engine::without_spans`].
    pub spans: Vec<KernelSpan>,
    /// Number of kernels launched.
    pub num_launches: usize,
    /// Number of events recorded (profiling instrumentation density).
    pub num_records: usize,
    /// Total stream-time consumed by event records — the profiling overhead
    /// the paper bounds at <0.5% (§6.4).
    pub profiling_overhead_ns: f64,
    /// Faults injected into this run (all zeros when faults are disabled).
    pub faults: FaultSummary,
}

impl RunResult {
    /// A copy of everything but the spans (which it never clones).
    fn without_spans(&self) -> RunResult {
        RunResult {
            total_ns: self.total_ns,
            event_ns: self.event_ns.clone(),
            spans: Vec::new(),
            num_launches: self.num_launches,
            num_records: self.num_records,
            profiling_overhead_ns: self.profiling_overhead_ns,
            faults: self.faults,
        }
    }

    /// Elapsed nanoseconds between two recorded events, if both fired.
    ///
    /// Returns `None` if either event is unknown; the result is negative if
    /// `end` fired before `start` (callers decide how to treat that).
    pub fn elapsed(&self, start: EventId, end: EventId) -> Option<f64> {
        Some(self.event_ns.get(end)? - self.event_ns.get(start)?)
    }

    /// Per-device compute utilization: the fraction of the makespan during
    /// which each device had at least one *kernel* in flight. Transfers and
    /// all-reduce rendezvous occupy links, not SMs, and are excluded — a
    /// device stalled on communication reads as idle, which is exactly the
    /// signal placement exploration needs. Indexed by device id; length is
    /// `sched.num_devices()`.
    pub fn device_utilization(&self, sched: &Schedule) -> Vec<f64> {
        let ndev = sched.num_devices();
        let devs = sched.stream_devices();
        let mut per: Vec<Vec<(f64, f64)>> = vec![Vec::new(); ndev];
        for sp in &self.spans {
            if !matches!(sched.cmds()[sp.cmd_idx], Cmd::Launch { .. }) {
                continue;
            }
            per[devs[sp.stream.0]].push((sp.start_ns, sp.end_ns));
        }
        per.into_iter()
            .map(|mut spans| {
                if self.total_ns <= 0.0 {
                    return 0.0;
                }
                spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                let mut busy = 0.0;
                let mut cur: Option<(f64, f64)> = None;
                for (s, e) in spans {
                    match &mut cur {
                        Some((_, ce)) if s <= *ce => *ce = ce.max(e),
                        _ => {
                            if let Some((cs, ce)) = cur {
                                busy += ce - cs;
                            }
                            cur = Some((s, e));
                        }
                    }
                }
                if let Some((cs, ce)) = cur {
                    busy += ce - cs;
                }
                (busy / self.total_ns).min(1.0)
            })
            .collect()
    }
}

/// Fire times of a run's events, one slot per event id.
///
/// [`Schedule::record`] numbers events `0..n`, so a run sizes one table
/// from [`Schedule::num_events`] and fires into it; the same table
/// resolves waits, comes back as [`RunResult::event_ns`] and rides in
/// every checkpoint and memo. A slot reads NaN until its event fires.
/// Fire times are simulation timestamps, which are always finite (the
/// device clock starts at zero and only advances to finite candidate
/// times), so NaN can never be a fire time, and every comparison with an
/// unfired slot is false. An id past the end of the table — a wait on an
/// event the schedule never records — reads as not fired.
#[derive(Debug, Clone, Default)]
pub struct EventTimes(Vec<f64>);

impl EventTimes {
    /// A table of `n` events, none fired.
    fn unfired(n: usize) -> EventTimes {
        EventTimes(vec![f64::NAN; n])
    }

    /// A table in which event `i` fired at `times[i]`, for every `i`.
    /// `None` if any time is not finite: no run fires at such a time.
    pub fn from_fired(times: Vec<f64>) -> Option<EventTimes> {
        times.iter().all(|t| t.is_finite()).then_some(EventTimes(times))
    }

    /// When `event` fired, or `None` if it has not (or is not in the table).
    pub fn get(&self, event: EventId) -> Option<f64> {
        self.0.get(event.0 as usize).copied().filter(|t| !t.is_nan())
    }

    /// Whether `event` fired at or before `t`.
    fn fired_by(&self, event: EventId, t: f64) -> bool {
        // An unfired slot is NaN, and NaN <= t is false.
        self.0.get(event.0 as usize).is_some_and(|&f| f <= t)
    }

    /// Fired events and their times, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, f64)> + '_ {
        (0u32..)
            .zip(&self.0)
            .filter(|(_, t)| !t.is_nan())
            .map(|(e, &t)| (EventId(e), t))
    }

    /// Number of event ids the table covers, fired or not: the recorded
    /// events of the schedule it was sized for.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the table covers no event id.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Fires `event` at `t`. Every recorded id has a slot: the table is
    /// sized from the schedule that numbered the events.
    fn fire(&mut self, event: EventId, t: f64) {
        self.0[event.0 as usize] = t;
    }

    /// Re-sizes the table for a schedule with `n` recorded events. Events
    /// past `n` are dropped and new ones start unfired.
    fn resize(&mut self, n: usize) {
        self.0.resize(n, f64::NAN);
    }
}

/// Tables are equal when they cover the same ids and agree on which fired
/// and when.
impl PartialEq for EventTimes {
    fn eq(&self, other: &EventTimes) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| a == b || (a.is_nan() && b.is_nan()))
    }
}

#[derive(Debug, Clone)]
enum ItemKind {
    Kernel {
        exec_ns: f64,
        demand: u32,
        cmd_idx: usize,
    },
    Record { event: EventId },
    Barrier { id: usize },
    /// Cross-device copy: `bytes` over link pool `link`.
    Transfer { bytes: f64, link: u32, cmd_idx: usize },
    /// All-reduce rendezvous participant for group `id`.
    AllReduce { id: u32, bytes: u64, cmd_idx: usize },
}

#[derive(Debug, Clone)]
struct Item<'s> {
    kind: ItemKind,
    issue_ns: f64,
    waits: &'s [EventId],
}

/// The in-flight item of one stream. Owns no schedule borrows — labels are
/// rendered from the schedule by `cmd_idx` — so checkpoints can store these
/// verbatim.
#[derive(Debug, Clone)]
enum Active {
    /// Launch-overhead phase: fixed duration, does not occupy slots.
    Overhead {
        until: f64,
        exec_ns: f64,
        demand: u32,
        cmd_idx: usize,
        start: f64,
    },
    /// Executing phase: `remaining` ns of work at unit rate, slot-sharing.
    Work {
        remaining: f64,
        demand: u32,
        cmd_idx: usize,
        start: f64,
    },
    /// Fixed-duration item (event record).
    Fixed { until: f64, event: Option<EventId> },
    /// Arrived at a barrier; waiting for the rest of the device.
    AtBarrier { id: usize },
    /// Link-latency phase of a cross-device transfer (does not consume
    /// bandwidth yet).
    XferLat { until: f64, bytes: f64, link: u32, cmd_idx: usize, start: f64 },
    /// Bandwidth phase of a transfer: `remaining` bytes at the link rate,
    /// shared with other in-flight transfers on the same link pool.
    Xfer { remaining: f64, link: u32, cmd_idx: usize, start: f64 },
    /// Arrived at an all-reduce rendezvous; waiting for the other
    /// participants of the group.
    AtAllReduce { id: u32 },
    /// Executing the ring all-reduce after the rendezvous released.
    ArBusy { until: f64, cmd_idx: usize, start: f64 },
}

#[derive(Debug, Default)]
struct StreamState<'s> {
    queue: VecDeque<Item<'s>>,
    active: Option<Active>,
}

/// One all-reduce rendezvous arrival: stream, arrival time, payload bytes,
/// originating command index.
pub type ArArrival = (usize, f64, u64, usize);

/// One stream's state inside an [`EngineCheckpoint`]: the queued items
/// (schedule borrows replaced by command indices) and the in-flight item.
#[derive(Debug, Clone)]
struct StreamCkpt {
    queue: Vec<(ItemKind, f64)>,
    active: Option<Active>,
}

/// A snapshot of the engine mid-run, captured at a schedule boundary.
///
/// Checkpoints own everything they need — per-stream queues and in-flight
/// items (by command index, re-borrowed from the resuming schedule), barrier
/// arrivals, cached execution rates, the dispatch clock (`cpu_ns`), the
/// jitter clock, the fault injector, and the partial [`RunResult`] (spans
/// completed so far, fault counts, and the run's one event table).
///
/// A checkpoint remembers whether its run recorded spans. A span-free run
/// may resume from either kind (it simply drops the spans), but a
/// span-recording run refuses a span-free checkpoint: the spans before the
/// capture point were never recorded.
///
/// A checkpoint taken at command index `i` with prefix hash `h` may seed any
/// schedule that has a marked boundary `(i, h)` — i.e. shares the exact
/// command prefix. The resumed run is bit-identical to a cold run of the
/// full schedule under the same device, clock state, fault plan, and salt;
/// keying caches on those inputs is the caller's job (see `astra-core`'s
/// `SimCache`).
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    cmd_idx: usize,
    prefix_hash: u64,
    num_streams: usize,
    cpu_ns: f64,
    now: f64,
    barrier_arrivals: Vec<Vec<(usize, f64)>>,
    ar_arrivals: Vec<(u32, Vec<ArArrival>)>,
    streams: Vec<StreamCkpt>,
    rates: Vec<f64>,
    rates_dirty: bool,
    clock: Clock,
    chaos: Option<Chaos>,
    /// Whether the capturing run recorded spans (`result.spans` holds every
    /// span completed by capture time).
    spans: bool,
    result: RunResult,
}

impl EngineCheckpoint {
    /// Index of the first command *not* covered by this checkpoint. Equal to
    /// the schedule length for a full-run memo.
    pub fn cmd_idx(&self) -> usize {
        self.cmd_idx
    }

    /// The schedule prefix hash this checkpoint was captured at.
    pub fn prefix_hash(&self) -> u64 {
        self.prefix_hash
    }

    /// Number of kernel spans already completed at capture time (0 for a
    /// span-free run's checkpoint).
    pub fn span_count(&self) -> usize {
        self.result.spans.len()
    }

    /// Whether the capturing run recorded spans.
    pub fn records_spans(&self) -> bool {
        self.spans
    }

    /// The finished run this full-run memo holds, span-free, for a
    /// schedule of `num_cmds` commands whose prefix hash is this
    /// checkpoint's: exactly what a span-free
    /// [`Engine::run_incremental`] resuming from it returns, without the
    /// schedule. A caller that keyed the memo by a schedule's hash
    /// replays it with this and never builds the schedule.
    ///
    /// # Errors
    ///
    /// [`GpuError::InvalidSchedule`] if the memo does not cover exactly
    /// `num_cmds` commands (it was captured mid-run, or on another
    /// schedule).
    pub fn finished_result(&self, num_cmds: usize) -> Result<RunResult, GpuError> {
        if self.cmd_idx != num_cmds {
            return Err(GpuError::InvalidSchedule(format!(
                "memo covers {} commands, the schedule has {num_cmds}",
                self.cmd_idx
            )));
        }
        Ok(self.result_so_far(false))
    }

    /// The partial result at capture time, for a resume that does or does
    /// not record spans.
    fn result_so_far(&self, spans: bool) -> RunResult {
        if spans {
            self.result.clone()
        } else {
            self.result.without_spans()
        }
    }

    /// Exports a *full-run memo* checkpoint as plain persistable data.
    ///
    /// Only checkpoints with every stream drained (no queued or in-flight
    /// items) and no live fault injector qualify (fault state is mid-stream
    /// RNG position plus straggler assignments, which are cheap to rebuild
    /// but meaningless across fault-plan changes — faulted memos are simply
    /// not persisted). Returns `None` for anything else, so a caller can
    /// feed every checkpoint through and persist what sticks.
    ///
    /// The export is span-free: a span-recording checkpoint's spans are
    /// dropped, and [`EngineCheckpoint::from_memo`] rebuilds a span-free
    /// checkpoint.
    pub fn export_memo(&self) -> Option<MemoParts> {
        let drained = self
            .streams
            .iter()
            .all(|s| s.queue.is_empty() && s.active.is_none());
        if !drained || self.chaos.is_some() {
            return None;
        }
        Some(MemoParts {
            cmd_idx: self.cmd_idx,
            prefix_hash: self.prefix_hash,
            num_streams: self.num_streams,
            cpu_ns: self.cpu_ns,
            now: self.now,
            barrier_arrivals: self.barrier_arrivals.clone(),
            ar_arrivals: self.ar_arrivals.clone(),
            rates: self.rates.clone(),
            rates_dirty: self.rates_dirty,
            clock_mode: self.clock.mode(),
            clock_rng_state: self.clock.rng_state(),
            result: self.result.without_spans(),
        })
    }

    /// Rebuilds a checkpoint from persisted [`MemoParts`]. The inverse of
    /// [`EngineCheckpoint::export_memo`]: the reconstructed checkpoint is
    /// behaviorally identical to the original — resuming any schedule from
    /// it (including the full-run short-circuit) produces bit-identical
    /// results, because every field a resume reads is restored exactly and
    /// the fields a memo cannot carry (queues, in-flight items, fault
    /// state) were empty by construction.
    ///
    /// The rebuilt checkpoint is span-free: any spans in `parts.result` are
    /// dropped, and only a run made [`Engine::without_spans`] can resume
    /// from it.
    pub fn from_memo(parts: MemoParts) -> EngineCheckpoint {
        let mut result = parts.result;
        result.spans = Vec::new();
        EngineCheckpoint {
            cmd_idx: parts.cmd_idx,
            prefix_hash: parts.prefix_hash,
            num_streams: parts.num_streams,
            cpu_ns: parts.cpu_ns,
            now: parts.now,
            barrier_arrivals: parts.barrier_arrivals,
            ar_arrivals: parts.ar_arrivals,
            streams: (0..parts.num_streams)
                .map(|_| StreamCkpt { queue: Vec::new(), active: None })
                .collect(),
            rates: parts.rates,
            rates_dirty: parts.rates_dirty,
            clock: Clock::from_parts(parts.clock_mode, parts.clock_rng_state),
            chaos: None,
            spans: false,
            result,
        }
    }
}

/// The persistable payload of a finished-run [`EngineCheckpoint`]: every
/// field a resume can read, as plain owned data with public fields, so a
/// storage layer can encode it without this crate knowing the codec.
///
/// Produced by [`EngineCheckpoint::export_memo`] (which refuses mid-run or
/// faulted checkpoints) and consumed by [`EngineCheckpoint::from_memo`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemoParts {
    /// Command index of the capture boundary (the schedule length).
    pub cmd_idx: usize,
    /// Prefix hash of the capture boundary.
    pub prefix_hash: u64,
    /// Stream count of the capturing schedule.
    pub num_streams: usize,
    /// Dispatcher clock at capture time.
    pub cpu_ns: f64,
    /// Device clock at capture time.
    pub now: f64,
    /// Arrivals (stream, time) at each barrier dispatched so far, indexed
    /// by barrier id: barriers are numbered in dispatch order, so the
    /// length is the barrier count. Drained barriers are included — the
    /// engine never prunes them, and a faithful memo doesn't either. Every
    /// stream arrives at a barrier, and it releases once all have.
    pub barrier_arrivals: Vec<Vec<(usize, f64)>>,
    /// All-reduce rendezvous arrivals ([`ArArrival`]), group-sorted.
    pub ar_arrivals: Vec<(u32, Vec<ArArrival>)>,
    /// Cached per-stream execution rates.
    pub rates: Vec<f64>,
    /// Whether the rate cache needs recomputing on resume.
    pub rates_dirty: bool,
    /// Clock mode of the capturing engine.
    pub clock_mode: ClockMode,
    /// Jitter RNG position at capture, `None` under a fixed clock.
    pub clock_rng_state: Option<u64>,
    /// The complete run result, without spans. Its `event_ns` is the
    /// engine's event table; a memo carries no other copy.
    pub result: RunResult,
}

/// Executes [`Schedule`]s against a [`DeviceSpec`] under a [`ClockMode`].
///
/// # Examples
///
/// ```
/// use astra_gpu::{DeviceSpec, Engine, KernelDesc, Schedule, StreamId};
///
/// let dev = DeviceSpec::p100();
/// let mut s = Schedule::new(1);
/// s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1_000_000.0 });
/// let result = Engine::new(&dev).run(&s).unwrap();
/// assert!(result.total_ns > 0.0);
/// ```
#[derive(Debug)]
pub struct Engine<'a> {
    dev: &'a DeviceSpec,
    topo: Option<&'a Topology>,
    clock: Clock,
    faults: FaultPlan,
    fault_salt: u64,
    spans: bool,
}

impl<'a> Engine<'a> {
    /// Creates an engine with a pinned base clock (the paper's setting).
    pub fn new(dev: &'a DeviceSpec) -> Self {
        Engine::with_clock(dev, ClockMode::Fixed)
    }

    /// Creates an engine with an explicit clock mode.
    pub fn with_clock(dev: &'a DeviceSpec, mode: ClockMode) -> Self {
        Engine::with_faults(dev, mode, FaultPlan::none(), 0)
    }

    /// Creates an engine that injects faults per `faults`, with all draws
    /// derived from `(faults.seed, fault_salt)`. With [`FaultPlan::none`]
    /// this is exactly [`Engine::with_clock`].
    pub fn with_faults(
        dev: &'a DeviceSpec,
        mode: ClockMode,
        faults: FaultPlan,
        fault_salt: u64,
    ) -> Self {
        Engine { dev, topo: None, clock: Clock::new(mode), faults, fault_salt, spans: true }
    }

    /// Creates an engine over a multi-device [`Topology`]: each stream of a
    /// schedule built with [`Schedule::with_devices`] runs on its mapped
    /// device's own slot pool, and `Transfer`/`AllReduce` commands are
    /// priced against the topology's link. For a single-device topology
    /// this behaves exactly like [`Engine::with_faults`] on device 0.
    pub fn with_topology(
        topo: &'a Topology,
        mode: ClockMode,
        faults: FaultPlan,
        fault_salt: u64,
    ) -> Self {
        Engine {
            dev: topo.device(0),
            topo: Some(topo),
            clock: Clock::new(mode),
            faults,
            fault_salt,
            spans: true,
        }
    }

    /// Makes every later run span-free: `RunResult::spans` comes back
    /// empty and no span label is rendered. Everything else a run returns
    /// — `total_ns`, `event_ns`, the fault summary, `num_records`,
    /// `profiling_overhead_ns` — is bit-identical to a span-recording run,
    /// and so are the checkpoints it captures, except that a
    /// span-recording run cannot resume from them.
    pub fn without_spans(mut self) -> Self {
        self.spans = false;
        self
    }

    /// Re-salts the fault draws for the next run (each simulated mini-batch
    /// should misbehave independently).
    pub fn set_fault_salt(&mut self, salt: u64) {
        self.fault_salt = salt;
    }

    /// Executes `schedule` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::Deadlock`] if the schedule waits on an event that
    /// can never fire (e.g. a wait that precedes its record in program order
    /// on a blocked stream).
    pub fn run(&mut self, schedule: &Schedule) -> Result<RunResult, GpuError> {
        self.run_incremental(schedule, None, &[]).map(|(result, _)| result)
    }

    /// Executes `schedule`, optionally resuming from a checkpoint and
    /// optionally capturing checkpoints at marked boundaries.
    ///
    /// * `resume` — a checkpoint whose `(cmd_idx, prefix_hash)` matches one
    ///   of the schedule's boundaries. Dispatch starts at `cmd_idx` with the
    ///   entire prefix state (queues, event table, clock, fault injector)
    ///   restored; the result is bit-identical to a cold run. A checkpoint at
    ///   `cmds().len()` is a full-run memo: its stored result is returned
    ///   without simulating anything.
    /// * `capture_at` — command indices (each a marked boundary) at which to
    ///   snapshot the engine. Before each snapshot the event loop is advanced
    ///   through all work the prefix fully determines, so the checkpoint
    ///   carries real simulation progress, not just queued commands.
    ///
    /// With `resume = None` and empty `capture_at` this is exactly
    /// [`Engine::run`].
    ///
    /// # Errors
    ///
    /// [`GpuError::InvalidSchedule`] if the resume checkpoint does not match
    /// a boundary of `schedule` (or disagrees on the stream count, or is
    /// span-free while this engine records spans), or if a capture index is
    /// not a marked boundary. [`GpuError::Deadlock`] as in
    /// [`Engine::run`].
    pub fn run_incremental(
        &mut self,
        schedule: &Schedule,
        resume: Option<&EngineCheckpoint>,
        capture_at: &[usize],
    ) -> Result<(RunResult, Vec<EngineCheckpoint>), GpuError> {
        let dev = self.dev;
        let topo = self.topo;
        let cmds = schedule.cmds();
        let available = topo.map_or(1, Topology::num_devices);
        if schedule.num_devices() > available {
            return Err(GpuError::InvalidSchedule(format!(
                "schedule spans {} devices but the engine has {available}",
                schedule.num_devices()
            )));
        }
        if let Some(ck) = resume {
            if ck.num_streams != schedule.num_streams() {
                return Err(GpuError::InvalidSchedule(format!(
                    "checkpoint has {} streams, schedule has {}",
                    ck.num_streams,
                    schedule.num_streams()
                )));
            }
            if schedule.boundary_hash(ck.cmd_idx) != Some(ck.prefix_hash) {
                return Err(GpuError::InvalidSchedule(format!(
                    "checkpoint at cmd {} does not match any boundary of this schedule",
                    ck.cmd_idx
                )));
            }
            if self.spans && !ck.spans {
                return Err(GpuError::InvalidSchedule(format!(
                    "checkpoint at cmd {} recorded no spans; \
                     a span-recording run cannot resume from it",
                    ck.cmd_idx
                )));
            }
            if ck.cmd_idx == cmds.len() {
                // Full-run memo: the stored result IS the run.
                return Ok((ck.result_so_far(self.spans), Vec::new()));
            }
        }
        let start_idx = resume.map_or(0, |ck| ck.cmd_idx);
        let mut caps: Vec<(usize, u64)> = Vec::with_capacity(capture_at.len());
        for &i in capture_at {
            if i <= start_idx && resume.is_some() {
                continue; // the cache already has everything up to the resume point
            }
            match schedule.boundary_hash(i) {
                Some(h) => caps.push((i, h)),
                None => {
                    return Err(GpuError::InvalidSchedule(format!(
                        "capture index {i} is not a marked boundary"
                    )))
                }
            }
        }
        caps.sort_unstable();
        caps.dedup();

        if let Some(ck) = resume {
            // The checkpoint's clock replaces the engine's: a resumed run
            // replays the cold run, jitter draws included.
            self.clock = ck.clock.clone();
        }
        let mut sim;
        let mut cpu_ns;
        match resume {
            Some(ck) => {
                sim = Sim::restore(dev, topo, schedule, &mut self.clock, ck, self.spans);
                cpu_ns = ck.cpu_ns;
            }
            None => {
                let chaos = Chaos::for_run(&self.faults, self.fault_salt, schedule.num_streams());
                sim = Sim::new(dev, topo, schedule, &mut self.clock, chaos, self.spans);
                cpu_ns = 0.0_f64;
                if self.faults.alloc_event(self.fault_salt).is_some() {
                    // The arena grant transiently failed: the runtime stalls
                    // retrying the allocation before any dispatch happens.
                    // (The planner-side consequence — scattered placement and
                    // extra gather copies — is applied by whoever built the
                    // schedule, from the same draw.)
                    cpu_ns += ALLOC_RETRY_STALL_NS;
                    sim.result.faults.alloc_retries += 1;
                }
            }
        }
        let mut captured: Vec<EngineCheckpoint> = Vec::new();
        let mut cap_j = 0;
        while cap_j < caps.len() && caps[cap_j].0 < start_idx {
            cap_j += 1;
        }

        for (idx, cmd) in cmds.iter().enumerate().skip(start_idx) {
            while cap_j < caps.len() && caps[cap_j].0 == idx {
                sim.advance_prefix();
                captured.push(sim.checkpoint(idx, caps[cap_j].1, cpu_ns));
                cap_j += 1;
            }
            match *cmd {
                Cmd::Launch { stream, kernel, waits } => {
                    cpu_ns += dev.dispatch_cost_ns;
                    // Cost the kernel on the device its stream dispatches
                    // onto (device 0 — i.e. `dev` — for single-device runs).
                    let kdev = topo.map_or(dev, |t| {
                        t.device(schedule.stream_device(stream))
                    });
                    let cost = kernel.cost(kdev);
                    sim.streams[stream.0].queue.push_back(Item {
                        kind: ItemKind::Kernel {
                            exec_ns: cost.exec_ns,
                            demand: cost.demand_blocks,
                            cmd_idx: idx,
                        },
                        issue_ns: cpu_ns,
                        waits: schedule.waits(waits),
                    });
                }
                Cmd::Transfer { stream, bytes, src, dst, waits } => {
                    cpu_ns += dev.dispatch_cost_ns;
                    let t = topo.expect("multi-device schedules need a topology");
                    let link = if t.link().shared {
                        0
                    } else {
                        (src * t.num_devices() + dst) as u32 + 1
                    };
                    sim.streams[stream.0].queue.push_back(Item {
                        kind: ItemKind::Transfer { bytes: bytes as f64, link, cmd_idx: idx },
                        issue_ns: cpu_ns,
                        waits: schedule.waits(waits),
                    });
                }
                Cmd::AllReduce { stream, bytes, group } => {
                    cpu_ns += dev.dispatch_cost_ns;
                    sim.streams[stream.0].queue.push_back(Item {
                        kind: ItemKind::AllReduce { id: group, bytes, cmd_idx: idx },
                        issue_ns: cpu_ns,
                        waits: &[],
                    });
                }
                Cmd::Record { stream, event } => {
                    cpu_ns += dev.dispatch_cost_ns * 0.25;
                    sim.streams[stream.0].queue.push_back(Item {
                        kind: ItemKind::Record { event },
                        issue_ns: cpu_ns,
                        waits: &[],
                    });
                    sim.result.num_records += 1;
                }
                Cmd::Barrier => {
                    cpu_ns += dev.dispatch_cost_ns;
                    // Barriers are numbered in dispatch order.
                    let id = sim.barrier_arrivals.len();
                    sim.barrier_arrivals.push(Vec::with_capacity(sim.num_streams));
                    for s in &mut sim.streams {
                        s.queue.push_back(Item {
                            kind: ItemKind::Barrier { id },
                            issue_ns: cpu_ns,
                            waits: &[],
                        });
                    }
                }
                Cmd::HostSync => {
                    let idle = sim.drain()?;
                    cpu_ns = cpu_ns.max(idle) + dev.host_roundtrip_ns;
                }
            }
        }
        let idle = sim.drain()?;
        sim.result.total_ns = cpu_ns.max(idle);
        sim.result.num_launches = schedule.num_launches();
        sim.result.profiling_overhead_ns =
            sim.result.num_records as f64 * dev.event_record_cost_ns;
        // A boundary at the end of the command list memoizes the whole run.
        while cap_j < caps.len() {
            captured.push(sim.checkpoint(cmds.len(), caps[cap_j].1, cpu_ns));
            cap_j += 1;
        }
        Ok((sim.result, captured))
    }
}

/// Engine-side fault state for one run: the per-run injector plus the
/// straggler slowdown of every stream (1.0 = healthy). Absent entirely when
/// the plan is [`FaultPlan::none`], keeping the clean path allocation- and
/// branch-free apart from one `Option` check per kernel activation.
/// Cloneable so checkpoints can freeze the injector mid-stream.
#[derive(Debug, Clone)]
struct Chaos {
    injector: FaultInjector,
    straggle: Vec<f64>,
    straggler_count: u32,
}

impl Chaos {
    fn for_run(plan: &FaultPlan, salt: u64, num_streams: usize) -> Option<Chaos> {
        if plan.is_none() {
            return None;
        }
        let mut injector = plan.injector(salt);
        let mut straggler_count = 0;
        let straggle = (0..num_streams)
            .map(|_| match injector.draw_straggler() {
                Some(f) => {
                    straggler_count += 1;
                    f
                }
                None => 1.0,
            })
            .collect();
        Some(Chaos { injector, straggle, straggler_count })
    }
}

struct Sim<'s, 'd, 'c> {
    dev: &'d DeviceSpec,
    topo: Option<&'d Topology>,
    /// Device index of each stream (all zeros without a topology).
    stream_dev: &'s [usize],
    /// Number of distinct device slot pools in play.
    num_devices: usize,
    clock: &'c mut Clock,
    chaos: Option<Chaos>,
    streams: Vec<StreamState<'s>>,
    num_streams: usize,
    /// The schedule, for rendering span labels and stall diagnostics.
    schedule: &'s Schedule,
    /// Whether completed kernels append a span to `result.spans`.
    record_spans: bool,
    now: f64,
    /// Arrivals (stream, time) at each dispatched barrier, indexed by
    /// barrier id. A barrier releases once every stream has arrived.
    barrier_arrivals: Vec<Vec<(usize, f64)>>,
    /// All-reduce rendezvous arrivals: stream, arrival time, payload bytes,
    /// originating command.
    ar_arrivals: HashMap<u32, Vec<ArArrival>>,
    /// Expected participant count per all-reduce group (from the schedule).
    ar_expect: HashMap<u32, usize>,
    /// Cached per-stream execution rate, valid while `rates_dirty` is false.
    /// Streams not in the work phase hold the don't-care value 1.0.
    rates: Vec<f64>,
    /// Set whenever the set of work-phase kernels changes (a kernel enters
    /// the work phase or completes); cleared by [`Sim::ensure_rates`].
    rates_dirty: bool,
    /// The run so far: completed spans accumulate in `result.spans`, and
    /// `result.event_ns` is the event table waits resolve against.
    result: RunResult,
}

impl<'s, 'd, 'c> Sim<'s, 'd, 'c> {
    fn new(
        dev: &'d DeviceSpec,
        topo: Option<&'d Topology>,
        schedule: &'s Schedule,
        clock: &'c mut Clock,
        chaos: Option<Chaos>,
        record_spans: bool,
    ) -> Self {
        let num_streams = schedule.num_streams();
        let mut result = RunResult {
            event_ns: EventTimes::unfired(schedule.num_events()),
            ..RunResult::default()
        };
        result.faults.straggler_streams = chaos.as_ref().map_or(0, |c| c.straggler_count);
        if record_spans {
            result.spans.reserve_exact(schedule.num_launches());
        }
        Sim {
            dev,
            topo,
            stream_dev: schedule.stream_devices(),
            num_devices: schedule.num_devices(),
            clock,
            chaos,
            streams: schedule
                .stream_cmd_counts()
                .iter()
                .map(|&n| StreamState { queue: VecDeque::with_capacity(n), active: None })
                .collect(),
            num_streams,
            schedule,
            record_spans,
            now: 0.0,
            barrier_arrivals: Vec::new(),
            ar_arrivals: HashMap::new(),
            ar_expect: schedule.allreduce_groups().iter().copied().collect(),
            rates: vec![1.0; num_streams],
            rates_dirty: true,
            result,
        }
    }

    /// Rebuilds the simulation exactly as it was when `ck` was captured,
    /// re-borrowing wait lists from `schedule` (sound: the matching boundary
    /// hash guarantees the command prefix is identical). The event table is
    /// re-sized for `schedule`: the shared prefix numbers the same events,
    /// and only those can have fired. A span-free resume drops the
    /// checkpoint's spans; a span-recording resume needs a span-recording
    /// checkpoint (checked by the caller).
    fn restore(
        dev: &'d DeviceSpec,
        topo: Option<&'d Topology>,
        schedule: &'s Schedule,
        clock: &'c mut Clock,
        ck: &EngineCheckpoint,
        record_spans: bool,
    ) -> Self {
        let counts = schedule.stream_cmd_counts();
        let streams: Vec<StreamState<'s>> = ck
            .streams
            .iter()
            .enumerate()
            .map(|(si, st)| {
                let mut queue = VecDeque::with_capacity(counts[si]);
                for (kind, issue_ns) in &st.queue {
                    let waits: &'s [EventId] = match *kind {
                        ItemKind::Kernel { cmd_idx, .. } | ItemKind::Transfer { cmd_idx, .. } => {
                            schedule.cmd_waits(cmd_idx)
                        }
                        _ => &[],
                    };
                    queue.push_back(Item { kind: kind.clone(), issue_ns: *issue_ns, waits });
                }
                StreamState { queue, active: st.active.clone() }
            })
            .collect();
        let mut result = ck.result_so_far(record_spans);
        result.event_ns.resize(schedule.num_events());
        Sim {
            dev,
            topo,
            stream_dev: schedule.stream_devices(),
            num_devices: schedule.num_devices(),
            clock,
            chaos: ck.chaos.clone(),
            streams,
            num_streams: ck.num_streams,
            schedule,
            record_spans,
            now: ck.now,
            barrier_arrivals: ck.barrier_arrivals.clone(),
            ar_arrivals: ck.ar_arrivals.iter().cloned().collect(),
            ar_expect: schedule.allreduce_groups().iter().copied().collect(),
            rates: ck.rates.clone(),
            rates_dirty: ck.rates_dirty,
            result,
        }
    }

    /// Snapshots the full simulation state (plus the dispatcher's `cpu_ns`)
    /// into an owned checkpoint. The all-reduce map is stored as a
    /// key-sorted vector so the snapshot is deterministic. A span-recording
    /// run's checkpoint clones the spans completed so far.
    fn checkpoint(&self, cmd_idx: usize, prefix_hash: u64, cpu_ns: f64) -> EngineCheckpoint {
        let mut ar_arrivals: Vec<(u32, Vec<ArArrival>)> =
            self.ar_arrivals.iter().map(|(&id, v)| (id, v.clone())).collect();
        ar_arrivals.sort_unstable_by_key(|&(id, _)| id);
        EngineCheckpoint {
            cmd_idx,
            prefix_hash,
            num_streams: self.num_streams,
            cpu_ns,
            now: self.now,
            barrier_arrivals: self.barrier_arrivals.clone(),
            ar_arrivals,
            streams: self
                .streams
                .iter()
                .map(|s| StreamCkpt {
                    queue: s.queue.iter().map(|it| (it.kind.clone(), it.issue_ns)).collect(),
                    active: s.active.clone(),
                })
                .collect(),
            rates: self.rates.clone(),
            rates_dirty: self.rates_dirty,
            clock: self.clock.clone(),
            chaos: self.chaos.clone(),
            spans: self.record_spans,
            result: self.result.clone(),
        }
    }

    /// Advances the event loop through everything the dispatched prefix
    /// fully determines, stopping exactly where a cold run's event chain
    /// could first depend on commands the prefix has not seen.
    ///
    /// The stop rule: as long as *every* stream is busy, future items cannot
    /// activate — they sit behind the prefix items in their FIFO — and
    /// cannot appear as `next_event_time` candidates, so the processed chain
    /// is a verbatim prefix of the cold run's chain (same floating-point
    /// operations, same jitter/fault draw order). The moment any stream
    /// drains idle, a cold run's next steps may involve a future item on it
    /// (activation, or an advance to its issue time), so we stop *before*
    /// activating anything further.
    ///
    /// The rule must not look at this schedule's own suffix (e.g. to keep
    /// advancing past streams the suffix never touches): a checkpoint is
    /// resumable by *any* schedule sharing the prefix, and a different
    /// suffix may use exactly the streams this one leaves idle. Stopping on
    /// any idle stream keeps the captured state a pure function of the
    /// prefix. A `None` next-event here is normal (a prefix kernel waiting
    /// on an event a future command records), not a deadlock — the final
    /// drain still reports real deadlocks.
    fn advance_prefix(&mut self) {
        loop {
            let any_idle =
                self.streams.iter().any(|s| s.active.is_none() && s.queue.is_empty());
            if any_idle {
                return;
            }
            self.activate_ready();
            if self.all_idle() {
                return;
            }
            self.ensure_rates();
            let Some(t_next) = self.next_event_time() else { return };
            self.advance_to(t_next);
            self.complete_finished();
        }
    }

    /// Runs the device until every queue is empty and every stream idle.
    /// Returns the idle time.
    fn drain(&mut self) -> Result<f64, GpuError> {
        loop {
            self.activate_ready();
            if self.all_idle() {
                return Ok(self.now);
            }
            self.ensure_rates();
            let t_next = self.next_event_time();
            let Some(t_next) = t_next else {
                return Err(GpuError::Deadlock(self.describe_stall()));
            };
            self.advance_to(t_next);
            self.complete_finished();
        }
    }

    fn all_idle(&self) -> bool {
        self.streams.iter().all(|s| s.active.is_none() && s.queue.is_empty())
    }

    /// Starts every stream-head item whose preconditions hold at `now`.
    /// Loops to a fixed point because one activation can release another.
    fn activate_ready(&mut self) {
        loop {
            let mut changed = false;
            for si in 0..self.streams.len() {
                if self.streams[si].active.is_some() {
                    continue;
                }
                let Some(head) = self.streams[si].queue.front() else { continue };
                if head.issue_ns > self.now + EPS {
                    continue;
                }
                let fired = self.now + EPS;
                let waits_ok = head.waits.iter().all(|&e| self.result.event_ns.fired_by(e, fired));
                if !waits_ok {
                    continue;
                }
                let item = self.streams[si].queue.pop_front().expect("head exists");
                let sync_penalty = if item.waits.is_empty() {
                    0.0
                } else {
                    self.dev.stream_sync_cost_ns
                };
                match item.kind {
                    ItemKind::Kernel { exec_ns, demand, cmd_idx } => {
                        let jitter = self.clock.jitter_factor();
                        let mut exec_ns = exec_ns * jitter;
                        let mut overhead_ns = self.dev.launch_overhead_ns + sync_penalty;
                        if let Some(chaos) = &mut self.chaos {
                            if chaos.injector.draw_launch_retry() {
                                overhead_ns +=
                                    LAUNCH_RETRY_OVERHEAD_FACTOR * self.dev.launch_overhead_ns;
                                self.result.faults.launch_retries += 1;
                            }
                            if let Some(f) = chaos.injector.draw_spike() {
                                exec_ns *= f;
                                self.result.faults.timing_spikes += 1;
                            }
                            exec_ns *= chaos.straggle[si];
                        }
                        let start = self.now;
                        self.streams[si].active = Some(Active::Overhead {
                            until: self.now + overhead_ns,
                            exec_ns,
                            demand,
                            cmd_idx,
                            start,
                        });
                    }
                    ItemKind::Record { event } => {
                        self.streams[si].active = Some(Active::Fixed {
                            until: self.now + self.dev.event_record_cost_ns,
                            event: Some(event),
                        });
                    }
                    ItemKind::Barrier { id } => {
                        self.barrier_arrivals[id].push((si, self.now));
                        self.streams[si].active = Some(Active::AtBarrier { id });
                        self.try_release_barrier(id);
                    }
                    ItemKind::Transfer { bytes, link, cmd_idx } => {
                        let latency = self
                            .topo
                            .expect("transfers need a topology")
                            .link()
                            .latency_ns;
                        let start = self.now;
                        self.streams[si].active = Some(Active::XferLat {
                            until: self.now + latency + sync_penalty,
                            bytes,
                            link,
                            cmd_idx,
                            start,
                        });
                    }
                    ItemKind::AllReduce { id, bytes, cmd_idx } => {
                        self.ar_arrivals
                            .entry(id)
                            .or_default()
                            .push((si, self.now, bytes, cmd_idx));
                        self.streams[si].active = Some(Active::AtAllReduce { id });
                        self.try_release_allreduce(id);
                    }
                }
                changed = true;
            }
            if !changed {
                return;
            }
        }
    }

    /// If every stream has arrived at barrier `id`, convert the arrivals into
    /// fixed items finishing at `max(arrivals) + barrier cost`.
    fn try_release_barrier(&mut self, id: usize) {
        let arrivals = &self.barrier_arrivals[id];
        if arrivals.len() < self.num_streams {
            return;
        }
        let release = arrivals.iter().map(|&(_, t)| t).fold(0.0_f64, f64::max)
            + self.dev.barrier_sync_cost_ns;
        let members: Vec<usize> = arrivals.iter().map(|&(s, _)| s).collect();
        for si in members {
            if let Some(Active::AtBarrier { id: bid }) = self.streams[si].active {
                if bid == id {
                    self.streams[si].active = Some(Active::Fixed { until: release, event: None });
                }
            }
        }
    }

    /// If every expected participant has arrived at all-reduce `id`, release
    /// the rendezvous: every participant becomes busy until the ring
    /// all-reduce over the topology link completes, measured from the last
    /// arrival. Participant count for the ring cost is the number of
    /// *distinct devices* involved (two streams of one device reduce
    /// locally for free).
    fn try_release_allreduce(&mut self, id: u32) {
        let expect = *self.ar_expect.get(&id).unwrap_or(&usize::MAX);
        let Some(arrivals) = self.ar_arrivals.get(&id) else { return };
        if arrivals.len() < expect {
            return;
        }
        let link = self.topo.expect("all-reduces need a topology").link();
        let last = arrivals.iter().map(|&(_, t, _, _)| t).fold(0.0_f64, f64::max);
        let bytes = arrivals.iter().map(|&(_, _, b, _)| b).max().unwrap_or(0);
        let mut devs: Vec<usize> =
            arrivals.iter().map(|&(s, _, _, _)| self.stream_dev[s]).collect();
        devs.sort_unstable();
        devs.dedup();
        let until = last + link.ring_allreduce_ns(bytes as f64, devs.len());
        let members: Vec<(usize, f64, usize)> =
            arrivals.iter().map(|&(s, t, _, c)| (s, t, c)).collect();
        for (si, start, cmd_idx) in members {
            if let Some(Active::AtAllReduce { id: aid }) = self.streams[si].active {
                if aid == id {
                    self.streams[si].active = Some(Active::ArBusy { until, cmd_idx, start });
                }
            }
        }
    }

    /// Refreshes the cached per-stream execution rates if the set of
    /// work-phase kernels changed since the last computation.
    ///
    /// Concurrent kernels share the device proportionally to their grid
    /// sizes, but the *combined* grid achieves the utilization of one merged
    /// grid: small kernels overlap into genuinely higher throughput, and
    /// concurrent grids pack each other's tail waves (the mechanism behind
    /// the paper's §3.2 "two streams beat the fused GEMM" measurement). Two
    /// already-saturating kernels split the device with no free bonus.
    ///
    /// `rate_i = (d_i / D) * U(D) / U(d_i)`, with `U` the same wave-aware
    /// utilization the solo cost model uses. A single kernel gets rate 1.
    fn ensure_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        for r in &mut self.rates {
            *r = 1.0;
        }
        // Processor sharing is per device: each device's work-phase kernels
        // share that device's slot pool. With one device this is exactly the
        // historical single-pool computation (same operations in the same
        // order, so cached results stay bit-identical).
        for dev_idx in 0..self.num_devices {
            let spec = match self.topo {
                Some(t) => t.device(dev_idx),
                None => self.dev,
            };
            let slots = f64::from(spec.total_slots());
            let util = |blocks: f64| -> f64 {
                if blocks <= 0.0 {
                    return 1.0;
                }
                let waves = (blocks / slots).ceil().max(1.0);
                (blocks / (waves * slots)).sqrt()
            };
            let mut total = 0.0_f64;
            for (si, s) in self.streams.iter().enumerate() {
                if self.stream_dev[si] != dev_idx {
                    continue;
                }
                if let Some(Active::Work { demand, .. }) = &s.active {
                    total += f64::from(*demand);
                }
            }
            if total <= 0.0 {
                continue;
            }
            let joint = util(total);
            for (si, s) in self.streams.iter().enumerate() {
                if self.stream_dev[si] != dev_idx {
                    continue;
                }
                if let Some(Active::Work { demand, .. }) = &s.active {
                    let d = f64::from(*demand);
                    if d > 0.0 {
                        self.rates[si] = (d / total) * joint / util(d);
                    }
                }
            }
        }
        // In-flight transfers split their link pool's bandwidth evenly: one
        // pool for a shared bus, one per ordered device pair on a
        // point-to-point fabric. The cached "rate" is in bytes/ns.
        if let Some(t) = self.topo {
            let bw = t.link().bytes_per_ns();
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for s in &self.streams {
                if let Some(Active::Xfer { link, .. }) = &s.active {
                    *counts.entry(*link).or_insert(0) += 1;
                }
            }
            for (si, s) in self.streams.iter().enumerate() {
                if let Some(Active::Xfer { link, .. }) = &s.active {
                    self.rates[si] = bw / f64::from(counts[link]);
                }
            }
        }
    }

    /// The next simulation timestamp at which anything changes. Relies on
    /// [`Sim::ensure_rates`] having been called since the last work-set
    /// change.
    fn next_event_time(&self) -> Option<f64> {
        let mut t: Option<f64> = None;
        let mut consider = |cand: f64| {
            if cand.is_finite() && cand > self.now - EPS {
                t = Some(match t {
                    Some(cur) => cur.min(cand),
                    None => cand,
                });
            }
        };
        for (si, s) in self.streams.iter().enumerate() {
            match &s.active {
                Some(Active::Overhead { until, .. }) => consider(*until),
                Some(Active::Work { remaining, .. }) => {
                    let rate = self.rates[si];
                    consider(self.now + remaining / rate.max(1e-12));
                }
                Some(Active::Fixed { until, .. }) => consider(*until),
                Some(Active::XferLat { until, .. }) => consider(*until),
                Some(Active::Xfer { remaining, .. }) => {
                    let rate = self.rates[si];
                    consider(self.now + remaining / rate.max(1e-12));
                }
                Some(Active::ArBusy { until, .. }) => consider(*until),
                Some(Active::AtBarrier { .. }) | Some(Active::AtAllReduce { .. }) => {}
                None => {
                    // A head stalled purely on its issue time is a future event.
                    if let Some(head) = s.queue.front() {
                        if head.issue_ns > self.now + EPS {
                            let waits_known = head
                                .waits
                                .iter()
                                .all(|&e| self.result.event_ns.get(e).is_some());
                            if waits_known {
                                consider(head.issue_ns);
                            }
                        }
                    }
                }
            }
        }
        t
    }

    /// Advances time to `t`, burning work according to the cached rates.
    fn advance_to(&mut self, t: f64) {
        let dt = (t - self.now).max(0.0);
        if dt > 0.0 {
            for (si, s) in self.streams.iter_mut().enumerate() {
                match &mut s.active {
                    Some(Active::Work { remaining, .. })
                    | Some(Active::Xfer { remaining, .. }) => {
                        *remaining -= self.rates[si] * dt;
                    }
                    _ => {}
                }
            }
        }
        self.now = t;
    }

    /// Retires finished items and phase-transitions kernels out of their
    /// launch-overhead phase.
    fn complete_finished(&mut self) {
        let slack = done_eps(self.now);
        for si in 0..self.streams.len() {
            let finished = match &self.streams[si].active {
                Some(Active::Overhead { until, .. }) => *until <= self.now + slack,
                Some(Active::Work { remaining, .. }) => *remaining <= slack,
                Some(Active::Fixed { until, .. }) => *until <= self.now + slack,
                Some(Active::XferLat { until, .. }) => *until <= self.now + slack,
                Some(Active::Xfer { remaining, .. }) => *remaining <= slack,
                Some(Active::ArBusy { until, .. }) => *until <= self.now + slack,
                _ => false,
            };
            if !finished {
                continue;
            }
            match self.streams[si].active.take().expect("checked above") {
                Active::Overhead { exec_ns, demand, cmd_idx, start, .. } => {
                    self.streams[si].active = Some(Active::Work {
                        remaining: exec_ns,
                        demand,
                        cmd_idx,
                        start,
                    });
                    self.rates_dirty = true;
                }
                Active::Work { cmd_idx, start, .. } => {
                    self.push_span(si, cmd_idx, start);
                    self.rates_dirty = true;
                }
                Active::Fixed { event, .. } => {
                    if let Some(ev) = event {
                        self.result.event_ns.fire(ev, self.now);
                    }
                }
                Active::XferLat { bytes, link, cmd_idx, start, .. } => {
                    self.streams[si].active =
                        Some(Active::Xfer { remaining: bytes, link, cmd_idx, start });
                    self.rates_dirty = true;
                }
                Active::Xfer { cmd_idx, start, .. } => {
                    self.push_span(si, cmd_idx, start);
                    self.rates_dirty = true;
                }
                Active::ArBusy { cmd_idx, start, .. } => {
                    self.push_span(si, cmd_idx, start);
                }
                Active::AtBarrier { .. } | Active::AtAllReduce { .. } => {
                    unreachable!("rendezvous items finish as Fixed/ArBusy")
                }
            }
        }
    }

    /// Records the span of the item at `cmd_idx` that just finished on
    /// stream `si` (nothing on a span-free run).
    fn push_span(&mut self, si: usize, cmd_idx: usize, start: f64) {
        if !self.record_spans {
            return;
        }
        self.result.spans.push(KernelSpan {
            label: self.span_label(cmd_idx),
            stream: StreamId(si),
            start_ns: start,
            end_ns: self.now,
            cmd_idx,
        });
    }

    /// Label of the launch, transfer or all-reduce at `cmd_idx`.
    fn span_label(&self, cmd_idx: usize) -> String {
        self.schedule.span_label(cmd_idx).expect("spans only come from launches")
    }

    fn describe_stall(&self) -> String {
        let mut parts = Vec::new();
        for (si, s) in self.streams.iter().enumerate() {
            match &s.active {
                Some(Active::AtBarrier { id }) => {
                    parts.push(format!("stream {si} stuck at barrier {id}"));
                }
                Some(Active::Work { remaining, demand, cmd_idx, .. }) => {
                    let label = self.span_label(*cmd_idx);
                    parts.push(format!(
                        "stream {si} running '{label}' with remaining {remaining} (demand {demand}) that never completes"
                    ));
                }
                Some(Active::Overhead { until, cmd_idx, .. }) => {
                    let label = self.span_label(*cmd_idx);
                    parts.push(format!(
                        "stream {si} in launch overhead of '{label}' until {until}"
                    ));
                }
                Some(Active::Fixed { until, .. }) => {
                    parts.push(format!("stream {si} in fixed item until {until}"));
                }
                Some(Active::AtAllReduce { id }) => {
                    parts.push(format!(
                        "stream {si} stuck at all-reduce group {id} waiting for peers"
                    ));
                }
                Some(Active::XferLat { until, cmd_idx, .. }) => {
                    let label = self.span_label(*cmd_idx);
                    parts.push(format!("stream {si} in transfer latency of '{label}' until {until}"));
                }
                Some(Active::Xfer { remaining, cmd_idx, .. }) => {
                    let label = self.span_label(*cmd_idx);
                    parts.push(format!(
                        "stream {si} transferring '{label}' with {remaining} bytes left"
                    ));
                }
                Some(Active::ArBusy { until, .. }) => {
                    parts.push(format!("stream {si} in all-reduce until {until}"));
                }
                None => {
                    if let Some(head) = s.queue.front() {
                        let missing: Vec<String> = head
                            .waits
                            .iter()
                            .filter(|&&e| self.result.event_ns.get(e).is_none())
                            .map(|e| format!("{e:?}"))
                            .collect();
                        if !missing.is_empty() {
                            parts.push(format!("stream {si} waits on unfired {missing:?}"));
                        } else {
                            parts.push(format!(
                                "stream {si} head not startable at t={} (issue {})",
                                self.now, head.issue_ns
                            ));
                        }
                    }
                }
            }
        }
        if parts.is_empty() {
            parts.push("no runnable work but queues non-empty".to_owned());
        }
        format!("at t={}: {}", self.now, parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{GemmLibrary, GemmShape};
    use crate::kernel::KernelDesc;

    fn gemm(shape: GemmShape) -> KernelDesc {
        KernelDesc::Gemm { shape, lib: GemmLibrary::CublasLike }
    }

    #[test]
    fn single_kernel_time_is_cost_plus_overheads() {
        let dev = DeviceSpec::p100();
        let k = gemm(GemmShape::new(256, 1024, 1024));
        let cost = k.cost(&dev);
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), k);
        let r = Engine::new(&dev).run(&s).unwrap();
        let expected = dev.dispatch_cost_ns + dev.launch_overhead_ns + cost.exec_ns;
        assert!((r.total_ns - expected).abs() < 1.0, "{} vs {}", r.total_ns, expected);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.num_launches, 1);
    }

    #[test]
    fn same_stream_is_sequential() {
        let dev = DeviceSpec::p100();
        let k = gemm(GemmShape::new(256, 1024, 1024));
        let solo = {
            let mut s = Schedule::new(1);
            s.launch(StreamId(0), k);
            Engine::new(&dev).run(&s).unwrap().total_ns
        };
        let double = {
            let mut s = Schedule::new(1);
            s.launch(StreamId(0), k);
            s.launch(StreamId(0), k);
            Engine::new(&dev).run(&s).unwrap().total_ns
        };
        // Two sequential kernels take nearly twice as long (minus the
        // overlapped dispatch).
        assert!(double > 1.8 * solo, "{double} vs {solo}");
    }

    #[test]
    fn two_streams_overlap() {
        let dev = DeviceSpec::p100();
        let k = gemm(GemmShape::new(256, 1024, 1024));
        let sequential = {
            let mut s = Schedule::new(1);
            s.launch(StreamId(0), k);
            s.launch(StreamId(0), k);
            Engine::new(&dev).run(&s).unwrap().total_ns
        };
        let parallel = {
            let mut s = Schedule::new(2);
            s.launch(StreamId(0), k);
            s.launch(StreamId(1), k);
            Engine::new(&dev).run(&s).unwrap().total_ns
        };
        assert!(parallel < sequential, "parallel {parallel} !< sequential {sequential}");
    }

    /// The paper's §3.2 observation: fusing two (256x1024)x(1024x1024)
    /// GEMMs into one (512x1024)x(1024x1024) kernel is *not* better than
    /// running the halves concurrently on two streams (on the authors'
    /// P100 the fused version was in fact slower, 211us vs 172us). In this
    /// simulator's wave model the two choices land at parity — concurrent
    /// grids pack each other's tail waves just as well as the fused grid —
    /// which preserves the paper's point: bigger fusion is not a statically
    /// safe bet, so the choice must be measured.
    #[test]
    fn parallel_streams_match_fused_at_the_cliff() {
        let dev = DeviceSpec::p100();
        let half = GemmShape::new(256, 1024, 1024);
        let fused = GemmShape::new(512, 1024, 1024);
        let parallel = {
            let mut s = Schedule::new(2);
            s.launch(StreamId(0), gemm(half));
            s.launch(StreamId(1), gemm(half));
            Engine::new(&dev).run(&s).unwrap().total_ns
        };
        let fused_t = {
            let mut s = Schedule::new(1);
            s.launch(StreamId(0), gemm(fused));
            Engine::new(&dev).run(&s).unwrap().total_ns
        };
        let sequential = {
            let mut s = Schedule::new(1);
            s.launch(StreamId(0), gemm(half));
            s.launch(StreamId(0), gemm(half));
            Engine::new(&dev).run(&s).unwrap().total_ns
        };
        assert!(
            parallel < fused_t * 1.02,
            "two-stream {parallel} should at least match fused {fused_t}"
        );
        assert!(
            parallel < 0.95 * sequential,
            "two-stream {parallel} must beat sequential {sequential}"
        );
    }

    #[test]
    fn event_wait_orders_cross_stream_work() {
        let dev = DeviceSpec::p100();
        let k = gemm(GemmShape::new(256, 1024, 1024));
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), k);
        let ev = s.record(StreamId(0));
        s.launch_after(StreamId(1), k, &[ev]);
        let r = Engine::new(&dev).run(&s).unwrap();
        let fire = r.event_ns.get(ev).unwrap();
        let dependent = r.spans.iter().find(|sp| sp.stream == StreamId(1)).unwrap();
        assert!(dependent.start_ns >= fire - 1.0);
    }

    #[test]
    fn waiting_on_never_recorded_event_deadlocks() {
        let dev = DeviceSpec::p100();
        // Neither id is ever recorded; u32::MAX lies far past the end of
        // the event table and reads as not fired, like any other.
        for never in [EventId(99), EventId(u32::MAX)] {
            let mut s = Schedule::new(1);
            s.record(StreamId(0));
            s.launch_after(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 }, &[never]);
            let err = Engine::new(&dev).run(&s).unwrap_err();
            assert!(matches!(err, GpuError::Deadlock(_)), "{never:?}: {err:?}");
        }
    }

    #[test]
    fn event_table_covers_every_recorded_id_in_order() {
        let dev = DeviceSpec::p100();
        let mut s = Schedule::new(2);
        let a = s.record(StreamId(1));
        s.launch(StreamId(0), gemm(GemmShape::new(64, 256, 256)));
        let b = s.record(StreamId(0));
        let c = s.record(StreamId(1));
        assert_eq!((a, b, c), (EventId(0), EventId(1), EventId(2)));
        assert_eq!(s.num_events(), 3);
        let r = Engine::new(&dev).run(&s).unwrap();
        assert_eq!(r.event_ns.len(), 3);
        let ids: Vec<EventId> = r.event_ns.iter().map(|(e, _)| e).collect();
        assert_eq!(ids, [a, b, c], "fired events come back in id order");
        assert!(r.event_ns.get(b).unwrap() > r.event_ns.get(c).unwrap());
        assert_eq!(r.event_ns.get(EventId(3)), None);
        assert_eq!(r.event_ns.get(EventId(u32::MAX)), None);
        assert!(EventTimes::from_fired(vec![1.0, f64::NAN]).is_none());
        assert!(EventTimes::from_fired(vec![1.0, f64::INFINITY]).is_none());
        assert_eq!(
            EventTimes::from_fired(vec![0.5, 2.0]).unwrap().iter().collect::<Vec<_>>(),
            [(EventId(0), 0.5), (EventId(1), 2.0)]
        );
    }

    #[test]
    fn barrier_synchronizes_streams() {
        let dev = DeviceSpec::p100();
        let big = gemm(GemmShape::new(1024, 1024, 1024));
        let small = KernelDesc::MemCopy { bytes: 64.0 };
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), big);
        s.barrier();
        s.launch(StreamId(1), small);
        let r = Engine::new(&dev).run(&s).unwrap();
        let big_end = r.spans.iter().find(|sp| sp.stream == StreamId(0)).unwrap().end_ns;
        let small_start = r.spans.iter().find(|sp| sp.stream == StreamId(1)).unwrap().start_ns;
        assert!(
            small_start >= big_end,
            "post-barrier kernel started at {small_start} before barrier released at {big_end}"
        );
    }

    #[test]
    fn host_sync_blocks_cpu() {
        let dev = DeviceSpec::p100();
        let k = gemm(GemmShape::new(512, 1024, 1024));
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), k);
        s.host_sync();
        s.launch(StreamId(0), k);
        let r = Engine::new(&dev).run(&s).unwrap();
        let mut nosync = Schedule::new(1);
        nosync.launch(StreamId(0), k);
        nosync.launch(StreamId(0), k);
        let r2 = Engine::new(&dev).run(&nosync).unwrap();
        assert!(r.total_ns > r2.total_ns + dev.host_roundtrip_ns * 0.9);
    }

    #[test]
    fn fixed_clock_runs_are_identical() {
        let dev = DeviceSpec::p100();
        let mut s = Schedule::new(2);
        for i in 0..8 {
            s.launch(StreamId(i % 2), gemm(GemmShape::new(64, 256, 256)));
        }
        let a = Engine::new(&dev).run(&s).unwrap();
        let b = Engine::new(&dev).run(&s).unwrap();
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.spans.len(), b.spans.len());
    }

    #[test]
    fn autoboost_runs_vary() {
        let dev = DeviceSpec::p100();
        let mut s = Schedule::new(1);
        for _ in 0..4 {
            s.launch(StreamId(0), gemm(GemmShape::new(64, 256, 256)));
        }
        // Same engine, two runs: jitter stream advances, so totals differ.
        let mut engine = Engine::with_clock(&dev, ClockMode::Autoboost { seed: 3 });
        let a = engine.run(&s).unwrap();
        let b = engine.run(&s).unwrap();
        assert_ne!(a.total_ns, b.total_ns);
    }

    #[test]
    fn profiling_overhead_accounted() {
        let dev = DeviceSpec::p100();
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), gemm(GemmShape::new(256, 1024, 1024)));
        s.record(StreamId(0));
        s.record(StreamId(0));
        let r = Engine::new(&dev).run(&s).unwrap();
        assert_eq!(r.num_records, 2);
        assert!((r.profiling_overhead_ns - 2.0 * dev.event_record_cost_ns).abs() < 1e-9);
    }

    #[test]
    fn elapsed_between_events_measures_kernel() {
        let dev = DeviceSpec::p100();
        let k = gemm(GemmShape::new(256, 1024, 1024));
        let cost = k.cost(&dev);
        let mut s = Schedule::new(1);
        let start = s.record(StreamId(0));
        s.launch(StreamId(0), k);
        let end = s.record(StreamId(0));
        let r = Engine::new(&dev).run(&s).unwrap();
        let elapsed = r.elapsed(start, end).unwrap();
        // Elapsed covers launch overhead + exec + dispatch latency + records.
        assert!(elapsed >= cost.exec_ns);
        let slack = dev.launch_overhead_ns
            + 2.0 * dev.dispatch_cost_ns
            + 3.0 * dev.event_record_cost_ns;
        assert!(elapsed <= cost.exec_ns + slack);
    }

    #[test]
    fn explicit_labels_survive_to_spans() {
        let dev = DeviceSpec::p100();
        let mut s = Schedule::new(1);
        s.launch_labeled(StreamId(0), gemm(GemmShape::new(64, 256, 256)), &[], "mine");
        s.launch(StreamId(0), gemm(GemmShape::new(64, 256, 256)));
        let r = Engine::new(&dev).run(&s).unwrap();
        let labels: Vec<&str> = r.spans.iter().map(|sp| &*sp.label).collect();
        assert!(labels.contains(&"mine"));
        assert!(labels.iter().any(|l| l.starts_with("gemm[")));
    }

    /// A few kernels across two streams — enough surface for every fault
    /// class to land on.
    fn faultable_schedule() -> Schedule {
        let mut s = Schedule::new(2);
        for i in 0..8 {
            s.launch(StreamId(i % 2), gemm(GemmShape::new(64, 256, 256)));
        }
        s
    }

    #[test]
    fn none_plan_matches_plain_engine_bitwise() {
        let dev = DeviceSpec::p100();
        let s = faultable_schedule();
        let plain = Engine::with_clock(&dev, ClockMode::Autoboost { seed: 5 }).run(&s).unwrap();
        let faulted =
            Engine::with_faults(&dev, ClockMode::Autoboost { seed: 5 }, FaultPlan::none(), 77)
                .run(&s)
                .unwrap();
        assert_eq!(plain, faulted, "FaultPlan::none must be a perfect no-op");
        assert!(!faulted.faults.any());
    }

    #[test]
    fn faulted_runs_are_deterministic_per_salt() {
        let dev = DeviceSpec::p100();
        let s = faultable_schedule();
        let plan = FaultPlan { spike_prob: 0.5, launch_fail_prob: 0.5, ..FaultPlan::chaos(9) };
        let run = |salt| Engine::with_faults(&dev, ClockMode::Fixed, plan, salt).run(&s).unwrap();
        let a = run(3);
        assert_eq!(a, run(3), "same salt must reproduce bitwise");
        assert!(a.faults.any(), "aggressive plan must inject something");
        // Some salt diverges (faults are per-run, not global).
        assert!((0..32).any(|salt| run(salt).total_ns.to_bits() != a.total_ns.to_bits()));
    }

    #[test]
    fn spikes_and_launch_retries_only_slow_things_down() {
        let dev = DeviceSpec::p100();
        let s = faultable_schedule();
        let clean = Engine::new(&dev).run(&s).unwrap();
        let plan = FaultPlan { spike_prob: 0.5, launch_fail_prob: 0.5, ..FaultPlan::chaos(9) };
        for salt in 0..16 {
            let r = Engine::with_faults(&dev, ClockMode::Fixed, plan, salt).run(&s).unwrap();
            assert!(
                r.total_ns >= clean.total_ns - 1.0,
                "faults must never speed a run up: {} < {}",
                r.total_ns,
                clean.total_ns
            );
            assert_eq!(r.spans.len(), clean.spans.len(), "faults are transient, work completes");
        }
    }

    #[test]
    fn alloc_event_charges_the_stall_and_is_counted() {
        let dev = DeviceSpec::p100();
        let s = faultable_schedule();
        let plan = FaultPlan { alloc_fail_prob: 1.0, ..FaultPlan::alloc_failures(1) };
        let clean = Engine::new(&dev).run(&s).unwrap();
        let r = Engine::with_faults(&dev, ClockMode::Fixed, plan, 0).run(&s).unwrap();
        assert_eq!(r.faults.alloc_retries, 1);
        assert!(
            r.total_ns >= clean.total_ns + ALLOC_RETRY_STALL_NS - 1.0,
            "alloc retry must stall the host: {} vs clean {}",
            r.total_ns,
            clean.total_ns
        );
    }

    #[test]
    fn straggler_slows_exactly_its_stream() {
        let dev = DeviceSpec::p100();
        // Force stream 0 to straggle by drawing with p=1 while keeping every
        // per-kernel class off.
        let plan = FaultPlan {
            straggler_prob: 1.0,
            straggler_factor: 3.0,
            ..FaultPlan::stragglers(4)
        };
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), gemm(GemmShape::new(256, 1024, 1024)));
        let clean = Engine::new(&dev).run(&s).unwrap();
        let r = Engine::with_faults(&dev, ClockMode::Fixed, plan, 0).run(&s).unwrap();
        assert_eq!(r.faults.straggler_streams, 1);
        assert!(
            r.total_ns > clean.total_ns * 1.5,
            "3x straggler must dominate the single-stream makespan"
        );
    }

    /// A two-stream schedule with a boundary after every launch plus a final
    /// full-run boundary; waits and a barrier cross the segment marks.
    fn segmented_schedule() -> Schedule {
        let mut s = Schedule::new(2);
        for i in 0..10 {
            s.launch(StreamId(i % 2), gemm(GemmShape::new(64, 256, 256)));
            s.mark_boundary();
        }
        let ev = s.record(StreamId(0));
        s.launch_after(StreamId(1), gemm(GemmShape::new(64, 256, 256)), &[ev]);
        s.mark_boundary();
        s.barrier();
        for i in 0..4 {
            s.launch(StreamId(i % 2), gemm(GemmShape::new(128, 256, 256)));
            s.mark_boundary();
        }
        s
    }

    #[test]
    fn incremental_capture_and_resume_are_bit_identical() {
        let dev = DeviceSpec::p100();
        let s = segmented_schedule();
        let caps: Vec<usize> = s.boundaries().iter().map(|&(i, _)| i).collect();
        for mode in [ClockMode::Fixed, ClockMode::Autoboost { seed: 7 }] {
            for plan in [FaultPlan::none(), FaultPlan::chaos(11)] {
                let plain = Engine::with_faults(&dev, mode, plan, 5).run(&s).unwrap();
                let (inc, cks) = Engine::with_faults(&dev, mode, plan, 5)
                    .run_incremental(&s, None, &caps)
                    .unwrap();
                assert_eq!(plain, inc, "capturing must not disturb the run");
                assert_eq!(cks.len(), caps.len());
                for ck in &cks {
                    let (resumed, _) = Engine::with_faults(&dev, mode, plan, 5)
                        .run_incremental(&s, Some(ck), &[])
                        .unwrap();
                    assert_eq!(plain, resumed, "resume from cmd {} diverged", ck.cmd_idx());
                    assert_eq!(plain.total_ns.to_bits(), resumed.total_ns.to_bits());
                }
                // Checkpoints carry real simulation progress, not just queues.
                assert!(
                    cks.iter().any(|c| c.cmd_idx() < s.cmds().len() && c.span_count() > 0),
                    "some mid-run checkpoint should have completed spans"
                );
            }
        }
    }

    #[test]
    fn full_run_memo_replays_without_simulation() {
        let dev = DeviceSpec::p100();
        let s = segmented_schedule();
        let full = s.cmds().len();
        let (plain, cks) = Engine::new(&dev).run_incremental(&s, None, &[full]).unwrap();
        assert_eq!(cks.len(), 1);
        assert_eq!(cks[0].cmd_idx(), full);
        assert_eq!(cks[0].span_count(), plain.spans.len());
        let (replayed, again) =
            Engine::new(&dev).run_incremental(&s, Some(&cks[0]), &[full]).unwrap();
        assert_eq!(plain, replayed);
        assert!(again.is_empty(), "a memo replay captures nothing new");
    }

    #[test]
    fn memo_export_roundtrips_bit_identically() {
        let dev = DeviceSpec::p100();
        let s = segmented_schedule();
        let full = s.cmds().len();
        for mode in [ClockMode::Fixed, ClockMode::Autoboost { seed: 11 }] {
            // A span-recording memo exports span-free, like a span-free one.
            let (plain, cks) =
                Engine::with_clock(&dev, mode).run_incremental(&s, None, &[full]).unwrap();
            let parts = cks[0].export_memo().expect("finished clean memo exports");
            assert!(parts.result.spans.is_empty(), "exports carry no spans");
            let back = EngineCheckpoint::from_memo(parts.clone());
            assert!(!back.records_spans());
            assert_eq!(back.export_memo().as_ref(), Some(&parts), "export is stable");
            let (_, free) = Engine::with_clock(&dev, mode)
                .without_spans()
                .run_incremental(&s, None, &[full])
                .unwrap();
            assert_eq!(free[0].export_memo(), Some(parts), "both runs export one memo");
            let (replayed, _) = Engine::with_clock(&dev, mode)
                .without_spans()
                .run_incremental(&s, Some(&back), &[])
                .unwrap();
            assert_eq!(
                RunResult { spans: Vec::new(), ..plain },
                replayed,
                "reconstructed memo replays the run exactly"
            );
        }
    }

    #[test]
    fn span_free_runs_match_span_recording_runs_but_the_spans() {
        let dev = DeviceSpec::p100();
        let s = segmented_schedule();
        let caps: Vec<usize> = s.boundaries().iter().map(|&(i, _)| i).collect();
        for mode in [ClockMode::Fixed, ClockMode::Autoboost { seed: 7 }] {
            for plan in [FaultPlan::none(), FaultPlan::chaos(11)] {
                let spans = Engine::with_faults(&dev, mode, plan, 5).run(&s).unwrap();
                assert_eq!(spans.spans.len(), s.num_launches());
                let (free, cks) = Engine::with_faults(&dev, mode, plan, 5)
                    .without_spans()
                    .run_incremental(&s, None, &caps)
                    .unwrap();
                assert!(free.spans.is_empty());
                assert_eq!(RunResult { spans: Vec::new(), ..spans.clone() }, free);
                for ck in &cks {
                    assert!(!ck.records_spans() && ck.span_count() == 0);
                    // A span-free resume replays the same bits ...
                    let (resumed, _) = Engine::with_faults(&dev, mode, plan, 5)
                        .without_spans()
                        .run_incremental(&s, Some(ck), &[])
                        .unwrap();
                    assert_eq!(free, resumed, "resume from cmd {} diverged", ck.cmd_idx());
                    // ... and a span-recording one refuses the checkpoint.
                    let err = Engine::with_faults(&dev, mode, plan, 5)
                        .run_incremental(&s, Some(ck), &[])
                        .unwrap_err();
                    assert!(matches!(err, GpuError::InvalidSchedule(_)));
                }
            }
        }
    }

    #[test]
    fn span_free_resume_drops_a_span_recording_checkpoints_spans() {
        let dev = DeviceSpec::p100();
        let s = segmented_schedule();
        let caps: Vec<usize> = s.boundaries().iter().map(|&(i, _)| i).collect();
        let (plain, cks) = Engine::new(&dev).run_incremental(&s, None, &caps).unwrap();
        for ck in &cks {
            assert!(ck.records_spans());
            let (resumed, _) =
                Engine::new(&dev).without_spans().run_incremental(&s, Some(ck), &[]).unwrap();
            assert_eq!(RunResult { spans: Vec::new(), ..plain.clone() }, resumed);
        }
    }

    #[test]
    fn memo_export_refuses_midrun_and_faulted_checkpoints() {
        let dev = DeviceSpec::p100();
        let s = segmented_schedule();
        let full = s.cmds().len();
        let mid = s.boundaries().iter().map(|&(i, _)| i).find(|&i| i > 0 && i < full);
        if let Some(mid) = mid {
            let (_, cks) = Engine::new(&dev).run_incremental(&s, None, &[mid]).unwrap();
            assert!(cks[0].export_memo().is_none(), "mid-run checkpoints don't export");
        }
        let (_, cks) = Engine::with_faults(&dev, ClockMode::Fixed, FaultPlan::chaos(5), 1)
            .run_incremental(&s, None, &[full])
            .unwrap();
        assert!(cks[0].export_memo().is_none(), "faulted checkpoints don't export");
    }

    #[test]
    fn checkpoints_transfer_to_schedules_sharing_the_prefix() {
        let dev = DeviceSpec::p100();
        let build = |tail: GemmShape| {
            let mut s = Schedule::new(2);
            for i in 0..6 {
                s.launch(StreamId(i % 2), gemm(GemmShape::new(64, 256, 256)));
                s.mark_boundary();
            }
            for i in 0..4 {
                s.launch(StreamId(i % 2), gemm(tail));
            }
            s.mark_boundary();
            s
        };
        let a = build(GemmShape::new(128, 256, 256));
        let b = build(GemmShape::new(256, 256, 256));
        assert_eq!(a.boundary_hash(6), b.boundary_hash(6), "shared prefix, shared hash");
        for mode in [ClockMode::Fixed, ClockMode::Autoboost { seed: 3 }] {
            for plan in [FaultPlan::none(), FaultPlan::chaos(17)] {
                let caps: Vec<usize> = a.boundaries().iter().map(|&(i, _)| i).collect();
                let (_, cks) = Engine::with_faults(&dev, mode, plan, 9)
                    .run_incremental(&a, None, &caps)
                    .unwrap();
                let ck = cks.iter().find(|c| c.cmd_idx() == 6).expect("captured at 6");
                let cold = Engine::with_faults(&dev, mode, plan, 9).run(&b).unwrap();
                let (resumed, _) = Engine::with_faults(&dev, mode, plan, 9)
                    .run_incremental(&b, Some(ck), &[])
                    .unwrap();
                assert_eq!(cold, resumed, "a's prefix checkpoint must seed b bit-identically");
            }
        }
    }

    #[test]
    fn checkpoints_resize_the_event_table_for_the_resuming_schedule() {
        let dev = DeviceSpec::p100();
        // A shared prefix records one event; the suffixes record one and
        // three more, and wait on them.
        let build = |suffix_events: usize| {
            let mut s = Schedule::new(2);
            s.launch(StreamId(0), gemm(GemmShape::new(64, 256, 256)));
            let ev = s.record(StreamId(0));
            s.launch_after(StreamId(1), gemm(GemmShape::new(64, 256, 256)), &[ev]);
            s.mark_boundary();
            for i in 0..suffix_events {
                let ev = s.record(StreamId(i % 2));
                s.launch_after(StreamId((i + 1) % 2), gemm(GemmShape::new(32, 256, 256)), &[ev]);
            }
            s.mark_boundary();
            s
        };
        let (a, b) = (build(1), build(3));
        assert_eq!((a.num_events(), b.num_events()), (2, 4));
        let mid = a.boundaries()[0].0;
        assert_eq!(a.boundary_hash(mid), b.boundary_hash(mid));
        for (from, to) in [(&a, &b), (&b, &a)] {
            let (_, cks) = Engine::new(&dev).run_incremental(from, None, &[mid]).unwrap();
            let cold = Engine::new(&dev).run(to).unwrap();
            let (resumed, _) = Engine::new(&dev).run_incremental(to, Some(&cks[0]), &[]).unwrap();
            assert_eq!(resumed.event_ns.len(), to.num_events());
            assert_eq!(cold, resumed, "a checkpoint seeds a schedule with more or fewer events");
        }
    }

    #[test]
    fn resume_rejects_foreign_checkpoints_and_bad_captures() {
        let dev = DeviceSpec::p100();
        let s = segmented_schedule();
        let caps: Vec<usize> = s.boundaries().iter().map(|&(i, _)| i).collect();
        let (_, cks) = Engine::new(&dev).run_incremental(&s, None, &caps).unwrap();
        // Diverges from the very first command: no boundary hash can match.
        let mut other = Schedule::new(2);
        for i in 0..12 {
            other.launch(StreamId(i % 2), gemm(GemmShape::new(32, 128, 128)));
            other.mark_boundary();
        }
        let err = Engine::new(&dev).run_incremental(&other, Some(&cks[2]), &[]).unwrap_err();
        assert!(matches!(err, GpuError::InvalidSchedule(_)));
        // Capture indices must be marked boundaries (0 is not one here).
        let err = Engine::new(&dev).run_incremental(&s, None, &[0]).unwrap_err();
        assert!(matches!(err, GpuError::InvalidSchedule(_)));
    }

    #[test]
    fn heterogeneous_devices_run_kernels_at_their_own_rate() {
        use crate::topology::{LinkDesc, Topology};
        let topo = Topology::new(vec![DeviceSpec::p100(), DeviceSpec::v100()], LinkDesc::nvlink());
        let k = gemm(GemmShape::new(512, 1024, 1024));
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(0), k);
        s.launch(StreamId(1), k);
        let r = Engine::with_topology(&topo, ClockMode::Fixed, FaultPlan::none(), 0)
            .run(&s)
            .unwrap();
        let d0 = r.spans.iter().find(|sp| sp.stream == StreamId(0)).unwrap();
        let d1 = r.spans.iter().find(|sp| sp.stream == StreamId(1)).unwrap();
        let t0 = d0.end_ns - d0.start_ns;
        let t1 = d1.end_ns - d1.start_ns;
        assert!(t1 < t0 * 0.9, "v100 stream ({t1}) must beat p100 stream ({t0})");
        // And neither pool contends with the other: each matches its solo time.
        let solo_v = {
            let mut s1 = Schedule::new(1);
            s1.launch(StreamId(0), k);
            Engine::new(&DeviceSpec::v100()).run(&s1).unwrap()
        };
        let solo_span = &solo_v.spans[0];
        assert!(
            (t1 - (solo_span.end_ns - solo_span.start_ns)).abs() < 1.0,
            "separate slot pools must not slow each other down"
        );
    }

    #[test]
    fn single_device_topology_matches_plain_engine_bitwise() {
        use crate::topology::Topology;
        let dev = DeviceSpec::p100();
        let topo = Topology::single(dev.clone());
        let s = segmented_schedule();
        for mode in [ClockMode::Fixed, ClockMode::Autoboost { seed: 7 }] {
            for plan in [FaultPlan::none(), FaultPlan::chaos(11)] {
                let plain = Engine::with_faults(&dev, mode, plan, 5).run(&s).unwrap();
                let via_topo =
                    Engine::with_topology(&topo, mode, plan, 5).run(&s).unwrap();
                assert_eq!(plain, via_topo);
                assert_eq!(plain.total_ns.to_bits(), via_topo.total_ns.to_bits());
            }
        }
    }

    #[test]
    fn transfer_pays_latency_and_bandwidth_and_contends_when_shared() {
        use crate::topology::{LinkDesc, Topology};
        let topo = Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::pcie3());
        let bytes: u64 = 12_000_000; // 1 ms solo at 12 GB/s
        let solo = {
            let mut s = Schedule::with_devices(2, vec![0, 1]);
            s.transfer(StreamId(1), bytes, 0, 1, &[]);
            Engine::with_topology(&topo, ClockMode::Fixed, FaultPlan::none(), 0)
                .run(&s)
                .unwrap()
        };
        let link = topo.link().clone();
        let expected = topo.device(0).dispatch_cost_ns
            + link.latency_ns
            + bytes as f64 / link.bytes_per_ns();
        assert!(
            (solo.total_ns - expected).abs() < 1.0,
            "solo transfer {} vs expected {}",
            solo.total_ns,
            expected
        );
        // Two concurrent transfers on one shared bus split its bandwidth.
        let both = {
            let mut s = Schedule::with_devices(4, vec![0, 1, 0, 1]);
            s.transfer(StreamId(1), bytes, 0, 1, &[]);
            s.transfer(StreamId(3), bytes, 0, 1, &[]);
            Engine::with_topology(&topo, ClockMode::Fixed, FaultPlan::none(), 0)
                .run(&s)
                .unwrap()
        };
        let bw_ns = bytes as f64 / link.bytes_per_ns();
        assert!(
            both.total_ns > solo.total_ns + 0.9 * bw_ns,
            "shared-bus contention must roughly double the bandwidth phase: {} vs {}",
            both.total_ns,
            solo.total_ns
        );
        // On a point-to-point fabric the same pair shares, but opposite
        // directions would not; sanity-check the p2p pool key by running the
        // same two transfers over nvlink in opposite directions.
        let p2p = Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink());
        let opposite = {
            let mut s = Schedule::with_devices(4, vec![0, 1, 0, 1]);
            s.transfer(StreamId(1), bytes, 0, 1, &[]);
            s.transfer(StreamId(2), bytes, 1, 0, &[]);
            Engine::with_topology(&p2p, ClockMode::Fixed, FaultPlan::none(), 0)
                .run(&s)
                .unwrap()
        };
        let p2p_solo_ns = p2p.link().latency_ns + bytes as f64 / p2p.link().bytes_per_ns();
        assert!(
            opposite.total_ns < 2.0 * topo.device(0).dispatch_cost_ns + p2p_solo_ns + 1.0,
            "opposite directions own separate lanes: {}",
            opposite.total_ns
        );
    }

    #[test]
    fn allreduce_rendezvous_blocks_until_all_arrive_and_pays_ring_cost() {
        use crate::topology::{LinkDesc, Topology};
        let topo = Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink());
        let big = gemm(GemmShape::new(1024, 1024, 1024));
        let bytes: u64 = 1_000_000;
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(0), big);
        s.all_reduce(StreamId(0), bytes, 0);
        s.all_reduce(StreamId(1), bytes, 0);
        let r = Engine::with_topology(&topo, ClockMode::Fixed, FaultPlan::none(), 0)
            .run(&s)
            .unwrap();
        let kernel_end =
            r.spans.iter().find(|sp| sp.label.starts_with("gemm[")).unwrap().end_ns;
        let ring = topo.link().ring_allreduce_ns(bytes as f64, 2);
        assert!(
            (r.total_ns - (kernel_end + ring)).abs() < 1.0,
            "all-reduce must start at the last arrival and pay the ring cost: \
             total {} vs kernel_end {} + ring {}",
            r.total_ns,
            kernel_end,
            ring
        );
        let ar_spans: Vec<_> =
            r.spans.iter().filter(|sp| sp.label.starts_with("allreduce[")).collect();
        assert_eq!(ar_spans.len(), 2, "each participant logs a span");
    }

    #[test]
    fn multi_device_checkpoints_resume_bit_identically() {
        use crate::topology::{LinkDesc, Topology};
        let topo = Topology::new(vec![DeviceSpec::p100(), DeviceSpec::v100()], LinkDesc::pcie3());
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        for i in 0..6 {
            s.launch(StreamId(i % 2), gemm(GemmShape::new(64, 256, 256)));
            s.mark_boundary();
        }
        let ev = s.record(StreamId(0));
        s.transfer(StreamId(1), 500_000, 0, 1, &[ev]);
        s.mark_boundary();
        s.all_reduce(StreamId(0), 250_000, 0);
        s.all_reduce(StreamId(1), 250_000, 0);
        s.mark_boundary();
        s.launch(StreamId(0), gemm(GemmShape::new(128, 256, 256)));
        s.mark_boundary();
        let caps: Vec<usize> = s.boundaries().iter().map(|&(i, _)| i).collect();
        for mode in [ClockMode::Fixed, ClockMode::Autoboost { seed: 7 }] {
            for plan in [FaultPlan::none(), FaultPlan::chaos(11)] {
                let plain =
                    Engine::with_topology(&topo, mode, plan, 5).run(&s).unwrap();
                let (inc, cks) = Engine::with_topology(&topo, mode, plan, 5)
                    .run_incremental(&s, None, &caps)
                    .unwrap();
                assert_eq!(plain, inc);
                for ck in &cks {
                    let (resumed, _) = Engine::with_topology(&topo, mode, plan, 5)
                        .run_incremental(&s, Some(ck), &[])
                        .unwrap();
                    assert_eq!(plain, resumed, "resume from cmd {} diverged", ck.cmd_idx());
                    assert_eq!(plain.total_ns.to_bits(), resumed.total_ns.to_bits());
                }
            }
        }
    }

    #[test]
    fn schedule_spanning_more_devices_than_engine_errors() {
        let dev = DeviceSpec::p100();
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(1), gemm(GemmShape::new(64, 256, 256)));
        let err = Engine::new(&dev).run(&s).unwrap_err();
        assert!(matches!(err, GpuError::InvalidSchedule(_)));
    }

    #[test]
    fn unmatched_allreduce_deadlocks_with_a_useful_message() {
        use crate::topology::{LinkDesc, Topology};
        let topo = Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink());
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        // Only one participant in a schedule claiming group 0 has two: build
        // the mismatch by crossing group ids.
        s.all_reduce(StreamId(0), 64, 0);
        s.all_reduce(StreamId(1), 64, 1);
        s.all_reduce(StreamId(0), 64, 1);
        s.all_reduce(StreamId(1), 64, 0);
        let err = Engine::with_topology(&topo, ClockMode::Fixed, FaultPlan::none(), 0)
            .run(&s)
            .unwrap_err();
        match err {
            GpuError::Deadlock(msg) => {
                assert!(msg.contains("all-reduce"), "got: {msg}")
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn set_fault_salt_changes_the_draw() {
        let dev = DeviceSpec::p100();
        let s = faultable_schedule();
        let plan = FaultPlan { spike_prob: 0.5, ..FaultPlan::timing_spikes(2) };
        let mut eng = Engine::with_faults(&dev, ClockMode::Fixed, plan, 0);
        let first = eng.run(&s).unwrap();
        let mut any_differs = false;
        for salt in 1..16 {
            eng.set_fault_salt(salt);
            if eng.run(&s).unwrap() != first {
                any_differs = true;
                break;
            }
        }
        assert!(any_differs, "re-salting must eventually change fault draws");
    }
}
