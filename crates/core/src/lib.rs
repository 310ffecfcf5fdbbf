//! # astra-core — the Astra adaptive optimizer
//!
//! A from-scratch Rust reproduction of *Astra: Exploiting Predictability to
//! Optimize Deep Learning* (Sivathanu, Chugh, Singapuram, Zhou — ASPLOS
//! 2019). Astra splits optimization between an **enumerator** (the compiler
//! half: finds fusion candidates, allocation strategies, and the stream
//! exploration structure using static knowledge) and a **custom wirer** (the
//! runtime half: explores the enumerated space online, one configuration per
//! training mini-batch, using fine-grained profiling) — no cost model
//! anywhere.
//!
//! * [`Astra`] / [`AstraOptions`] / [`Dims`] — the top-level optimizer and
//!   its ablation switches (`Astra_F`, `Astra_FK`, `Astra_FKS`,
//!   `Astra_all`).
//! * [`enumerate`] — fusion sets (shared-argument + ladders, 2-D),
//!   allocation conflicts/strategies, super-epochs/epochs/equivalence.
//! * [`AdaptiveVar`] / [`UpdateTree`] / [`ExploreMode`] — the paper's
//!   adaptive-variable interface and exploration modes.
//! * [`ProfileKey`] / [`ProfileIndex`] — context-mangled profile indexing.
//! * [`optimize_bucketed`] — dynamic-graph support via bucketed profiling.
//! * [`SimCache`] — a bounded memo table of finished runs: a trial that
//!   repeats an already simulated schedule (under the same [`KeyCtx`])
//!   replays the memoized result instead of re-simulating.
//! * [`explore_recompute`] — the §3.4 recompute-for-memory adaptation,
//!   backed by a liveness analysis ([`peak_activation_bytes`]).
//! * [`AstraOptions::store_dir`] / [`compact_store`] — crash-safe
//!   persistence of warm exploration state (profile samples, verdicts,
//!   quarantine marks, predictor weights, full-run memos) via
//!   `astra-store`; an interrupted `optimize` resumed against the same
//!   store produces the bit-identical final plan.
//! * [`candidate_features`] / [`fusion_features`] / [`kernel_features`] /
//!   [`epoch_features`] / [`placement_features`] — plan feature extraction
//!   for the in-tree learned cost model (`astra-predict`), which prunes
//!   each lookahead batch to its predicted top-k plus an epsilon tail under
//!   a bounded-regret guard (`AstraOptions::predictor`).
//!
//! ## Example
//!
//! ```
//! use astra_core::{Astra, AstraOptions, Dims};
//! use astra_gpu::DeviceSpec;
//! use astra_models::{Model, ModelConfig};
//!
//! let cfg = ModelConfig { seq_len: 2, hidden: 32, input: 32, vocab: 64,
//!                         ..ModelConfig::ptb(8) };
//! let built = Model::SubLstm.build(&cfg);
//! let dev = DeviceSpec::p100();
//! let mut astra = Astra::new(&built.graph, &dev, AstraOptions {
//!     dims: Dims::fk(),
//!     ..Default::default()
//! });
//! let report = astra.optimize().unwrap();
//! assert!(report.speedup() >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod astra;
mod bucketing;
pub mod enumerate;
mod error;
mod parallel;
mod persist;
mod plan;
mod predictor;
mod profile;
mod recompute;
mod simcache;
mod verify;

pub use adaptive::{AdaptiveVar, ExploreMode, UpdateNode, UpdateTree};
pub use astra::{Astra, AstraOptions, Dims, Report};
pub use bucketing::{optimize_bucketed, BucketedReport};
pub use error::AstraError;
pub use parallel::{effective_workers, parallel_map, WorkerPool};
pub use persist::compact_store;
pub use plan::{
    bind_libs, build_allocation_plan, build_units, build_units_fragmented, candidate_features,
    emit_schedule, epoch_features, flop_balanced_cuts, fusion_features, gradient_sync_bytes,
    kernel_features, placement_candidates, placement_features, DevicePlacement, ExecConfig,
    PlanCache, PlanContext, PlanKey, ProbeSpec, Probes, Unit, UnitId, SYNTHETIC_BUF_BASE,
};
pub use profile::{ProfileIndex, ProfileKey, SampleStats};
pub use recompute::{explore_recompute, peak_activation_bytes, RecomputePoint, RecomputeReport};
pub use simcache::{KeyCtx, SimCache};
pub use verify::{access_table, lint_plan, verify_plan, REPLICA_BUF_STRIDE};
