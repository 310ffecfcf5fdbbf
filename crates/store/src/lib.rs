//! # astra-store — crash-safe persistence for Astra's warm exploration state
//!
//! Astra's economics rest on measurements being *reusable*: full-run
//! simulation memos, verified-plan verdicts and quarantine marks are all
//! worth more than the mini-batches spent collecting them, and replaying
//! them changes no decision. This crate is the layer that lets that state
//! survive the process — a zero-dependency, hand-rolled binary store
//! with the durability properties a crash-resume driver needs:
//!
//! * **Checksummed framing** ([`codec`], [`record`]) — every record is
//!   `[len][fnv1a64][tag, version, body]`; torn writes and flipped bytes
//!   are detected, never silently decoded.
//! * **Append-only journal + atomic snapshot** ([`Store`]) — appends go
//!   to `journal.astra`; [`Store::compact`] folds state into
//!   `snapshot.astra` via write-temp → fsync → rename, so a `kill -9`
//!   at any byte boundary leaves a store that loads to a consistent
//!   prefix.
//! * **Corruption quarantine** — recovery rejects bad records into a
//!   `store.corrupt` sidecar with structured diagnostics and keeps every
//!   unaffected record; one flipped byte costs one record, not the
//!   store. [`fsck`] is the read-only integrity check.
//! * **Crash injection** ([`StoreOptions::fail_after_bytes`]) — a
//!   write-fault hook that drops everything past a byte budget, so the
//!   recovery tests can prove the above at every byte boundary.
//!
//! The crate is deliberately domain-blind: records carry plain strings,
//! integers, and floats ([`record::Record`]), and `astra-core` converts
//! its own types at the edge. That keeps the dependency arrow pointing
//! one way (core → store) and the on-disk format auditable in isolation.
//! The format still defines the profile-sample, profile-stats and
//! predictor records older builds wrote, so their stores decode;
//! `astra-core` no longer writes them and drops them at compaction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod record;
mod store;

pub use codec::{fnv1a64, CodecError, Decoder, Encoder};
pub use record::{
    ArArrivalRec, MemoKey, MemoRec, MemoSpan, PredictorRec, ProfileSampleRec,
    ProfileStatsRec, QuarantineRec, Record, VerdictKind, VerdictRec,
};
pub use store::{
    fsck, CorruptDiag, FsckReport, LoadSummary, Store, StoreOptions, CRASH_AFTER_ENV,
    MAGIC, MAX_RECORD_BYTES,
};
