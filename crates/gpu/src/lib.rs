//! # astra-gpu — deterministic GPU simulator substrate
//!
//! This crate stands in for the Tesla P100 + CUDA stack the Astra paper
//! (Sivathanu et al., ASPLOS '19) evaluates on. It provides everything the
//! Astra optimizer needs from hardware — and, per the paper's §7, exactly the
//! two properties new DNN hardware must offer to enable Astra-style
//! adaptation:
//!
//! 1. **Predictable execution** — under [`ClockMode::Fixed`] every kernel
//!    timing is exactly repeatable, so a single profiled mini-batch speaks
//!    for the whole training job. [`ClockMode::Autoboost`] demonstrates the
//!    variance that breaks this.
//! 2. **Lightweight profiling events** — cudaEvent-style records whose cost
//!    is charged to the stream timeline (so the <0.5% overhead claim of
//!    §6.4 is something the simulator *measures*, not assumes).
//!
//! The main entry points:
//!
//! * [`DeviceSpec`] — architectural parameters ([`DeviceSpec::p100`],
//!   [`DeviceSpec::v100`]).
//! * [`GemmShape`] / [`GemmLibrary`] / [`time_gemm`] — the analytic GEMM cost
//!   model with per-library shape-dependent crossovers (paper Table 1).
//! * [`KernelDesc`] — launchable work units (GEMM, element-wise, softmax,
//!   embedding gather, compound/cuDNN-like, copies, host round trips).
//! * [`Schedule`] — multi-stream command lists with events and barriers.
//! * [`Engine`] — the discrete-event simulator (processor-sharing streams,
//!   launch overheads, event/barrier semantics), with incremental
//!   checkpoint/resume at schedule boundaries ([`EngineCheckpoint`]).
//! * [`FaultPlan`] — seeded, deterministic fault injection (timing spikes,
//!   launch/allocation failures, stragglers) surfaced via
//!   [`FaultSummary`] on every [`RunResult`].
//! * [`AllocationPlan`] — arena placement + contiguity queries for fusion.
//! * [`trace_json`] — Chrome-tracing export of a run's kernel spans.
//!
//! ## Example
//!
//! ```
//! use astra_gpu::{DeviceSpec, Engine, GemmLibrary, GemmShape, KernelDesc, Schedule, StreamId};
//!
//! let dev = DeviceSpec::p100();
//! let mut sched = Schedule::new(2);
//! let g = GemmShape::new(256, 1024, 1024);
//! sched.launch(StreamId(0), KernelDesc::Gemm { shape: g, lib: GemmLibrary::CublasLike });
//! sched.launch(StreamId(1), KernelDesc::Gemm { shape: g, lib: GemmLibrary::OaiWide });
//! let result = Engine::new(&dev).run(&sched).unwrap();
//! assert_eq!(result.spans.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod device;
mod engine;
mod error;
mod fault;
mod gemm;
mod kernel;
mod memory;
mod schedule;
mod topology;
mod tracing;

pub use clock::{Clock, ClockMode};
pub use device::DeviceSpec;
pub use engine::{
    ArArrival, Engine, EngineCheckpoint, EventTimes, KernelSpan, MemoParts, RunResult,
};
pub use error::GpuError;
pub use fault::{
    FaultInjector, FaultPlan, FaultSummary, ALLOC_RETRY_STALL_NS, LAUNCH_RETRY_OVERHEAD_FACTOR,
    SPIKE_MAX_FACTOR, SPIKE_MIN_FACTOR,
};
pub use gemm::{best_library, time_gemm, GemmLibrary, GemmShape, GemmTiming};
pub use kernel::{KernelCost, KernelDesc};
pub use memory::{AllocationPlan, BufId, Placement};
pub use topology::{LinkDesc, Topology};
pub use tracing::trace_json;
pub use schedule::{Cmd, EventId, Schedule, ScheduleKey, StreamId, Waits};
