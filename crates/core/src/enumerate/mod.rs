//! The enumerator half of Astra's compiler-runtime split (paper §4.4).
//!
//! The enumerator uses static knowledge to produce the *state space* —
//! fusion candidates, allocation strategies, and the epoch structure for
//! stream exploration — but never ranks options; ranking is the custom
//! wirer's job, by measurement.

pub mod alloc;
pub mod epochs;
pub mod fusion;

pub use alloc::{enumerate_alloc, enumerate_alloc_from, AllocEnumeration, AllocStrategy};
pub use epochs::{
    epoch_choices, partition_units, write_streams, Epoch, EpochAssignment, EquivClass, Partition,
    SuperEpoch,
};
pub use fusion::{enumerate_fusion, ColKind, FusionSet};
