//! Edge conversions between the driver's warm state and [`astra_store`]'s
//! plain-data records, plus [`DriverStore`] — the handle [`crate::Astra`]
//! loads from before `optimize` and journals through during it.
//!
//! `astra-store` deliberately knows nothing about Astra's domain types:
//! its records are strings, integers, and floats. Everything
//! domain-shaped — [`ProfileKey`]s, `SimCache` keys, engine memos —
//! crosses the boundary here, in both directions, so a codec change and a
//! domain change can never silently disagree (the conversions in this
//! module are the single meeting point).
//!
//! The store holds only outcome-invariant state: full-run memos,
//! verify/lint verdicts and quarantine marks. Each is appended as it is
//! produced, and a rerun replays them without changing a single decision.
//! Records of the retired kinds (profile samples, profile stats and
//! predictor snapshots) that older stores hold are clean: they count as
//! loaded, are applied to nothing, and are left out of the next
//! compaction.
//!
//! [`DriverStore`] also owns the *authoritative persisted state*: the
//! loaded records folded into typed structures, extended by everything
//! the run journals. Compaction snapshots that state rather than
//! re-reading the files, so a compacted store is exactly the fold of
//! everything written — loaded or journaled.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use astra_gpu::{
    ClockMode, EngineCheckpoint, EventId, EventTimes, FaultSummary, MemoParts, RunResult,
};
use astra_store::{
    MemoKey, MemoRec, QuarantineRec, Record, Store, StoreOptions, VerdictKind, VerdictRec,
};

use crate::profile::ProfileKey;
use crate::simcache::SimKey;

/// Auto-compaction threshold: when a run ends with the journal holding at
/// least this many records — the ones it was opened with plus this run's
/// appends, so the count spans sessions — the journal is folded into the
/// snapshot. High enough that short runs never pay the rewrite, low
/// enough that the journal cannot grow without bound across sessions.
const AUTO_COMPACT_APPENDS: u64 = 4096;

/// Quarantine identity as persisted: the profile key's structural triple
/// plus the fault-plan fingerprint the failures happened under.
type QuarantineId = (Vec<String>, String, u64, u64);

fn clock_parts(clock: ClockMode) -> (u8, u64) {
    match clock {
        ClockMode::Fixed => (0, 0),
        ClockMode::Autoboost { seed } => (1, seed),
    }
}

fn clock_from_parts(tag: u8, seed: u64) -> Option<ClockMode> {
    match tag {
        0 => Some(ClockMode::Fixed),
        1 => Some(ClockMode::Autoboost { seed }),
        _ => None,
    }
}

fn memo_key(key: &SimKey) -> MemoKey {
    let (clock_tag, clock_seed) = clock_parts(key.clock);
    MemoKey {
        prefix_hash: key.prefix_hash,
        device: key.device,
        clock_tag,
        clock_seed,
        fault_fp: key.fault,
        salt: key.salt,
    }
}

fn quarantine_record(key: &ProfileKey, fault_fp: u64) -> Record {
    Record::Quarantine(QuarantineRec {
        contexts: key.contexts().to_vec(),
        entity: key.entity_name().to_owned(),
        choice: key.choice() as u64,
        fault_fp,
    })
}

fn key_from_parts(contexts: Vec<String>, entity: String, choice: u64) -> Option<ProfileKey> {
    Some(ProfileKey::from_parts(contexts, entity, usize::try_from(choice).ok()?))
}

/// Converts a full-run engine memo into its persisted record. Memos are
/// span-free, so the record's label and span tables are written empty, and
/// they carry one event table, `event_ns`, so `events` is written empty too.
/// Barrier ids are written out in full (`0..n`, each expecting every
/// stream), as the record format has always carried them.
fn memo_record(key: &SimKey, parts: &MemoParts) -> Record {
    let barriers = parts.barrier_arrivals.len() as u64;
    Record::Memo(Box::new(MemoRec {
        key: memo_key(key),
        cmd_idx: parts.cmd_idx as u64,
        num_streams: parts.num_streams as u64,
        cpu_ns: parts.cpu_ns,
        barrier_seq: barriers,
        now: parts.now,
        events: Vec::new(),
        barrier_arrivals: (0..)
            .zip(&parts.barrier_arrivals)
            .map(|(id, arr)| (id, arr.iter().map(|&(s, t)| (s as u64, t)).collect()))
            .collect(),
        barrier_expect: (0..barriers).map(|id| (id, parts.num_streams as u64)).collect(),
        ar_arrivals: parts
            .ar_arrivals
            .iter()
            .map(|(id, arr)| {
                (
                    *id,
                    arr.iter().map(|&(s, t, b, c)| (s as u64, t, b, c as u64)).collect(),
                )
            })
            .collect(),
        rates: parts.rates.clone(),
        rates_dirty: parts.rates_dirty,
        clock_rng_state: parts.clock_rng_state,
        total_ns: parts.result.total_ns,
        event_ns: parts.result.event_ns.iter().map(|(EventId(e), t)| (e, t)).collect(),
        num_launches: parts.result.num_launches as u64,
        num_records: parts.result.num_records as u64,
        profiling_overhead_ns: parts.result.profiling_overhead_ns,
        faults: [
            parts.result.faults.timing_spikes,
            parts.result.faults.launch_retries,
            parts.result.faults.alloc_retries,
            parts.result.faults.straggler_streams,
        ],
        labels: Vec::new(),
        spans: Vec::new(),
    }))
}

/// Whether the ids of `entries` are exactly `0..entries.len()`, in order.
fn ids_are_dense<I: Copy + Into<u64>, T>(entries: &[(I, T)]) -> bool {
    entries.iter().map(|(id, _)| (*id).into()).eq(0..entries.len() as u64)
}

/// Rebuilds a cache-ready, span-free checkpoint from a persisted memo. The
/// record's label and span tables are ignored: stores written before memos
/// went span-free still carry them, and nothing reads them. `None` means
/// the record is domain-invalid — the caller drops it, degrading that key
/// to a cold start. Besides an unknown clock tag or counts that don't fit,
/// that covers every table the record's own ids would size:
///
/// * `event_ns` must hold ids exactly `0..n` with `n = num_records` and
///   finite times, since a clean finished run fires every event it
///   records. The engine's table is sized from that length, never from an
///   id.
/// * `events`, the second copy stores written before memos carried one
///   event table hold, must be empty or equal `event_ns` bit for bit.
/// * Barrier ids in `barrier_arrivals` and `barrier_expect` must be
///   exactly `0..barrier_seq`, each barrier expecting every stream.
fn memo_from_record(rec: &MemoRec) -> Option<(SimKey, EngineCheckpoint)> {
    let clock = clock_from_parts(rec.key.clock_tag, rec.key.clock_seed)?;
    let key = SimKey {
        prefix_hash: rec.key.prefix_hash,
        device: rec.key.device,
        clock,
        fault: rec.key.fault_fp,
        salt: rec.key.salt,
    };
    let bits = |t: &[(u32, f64)]| t.iter().map(|&(e, t)| (e, t.to_bits())).collect::<Vec<_>>();
    let events_ok = ids_are_dense(&rec.event_ns)
        && rec.event_ns.len() as u64 == rec.num_records
        && (rec.events.is_empty() || bits(&rec.events) == bits(&rec.event_ns));
    let barriers_ok = ids_are_dense(&rec.barrier_arrivals)
        && ids_are_dense(&rec.barrier_expect)
        && rec.barrier_expect.len() == rec.barrier_arrivals.len()
        && rec.barrier_arrivals.len() as u64 == rec.barrier_seq
        && rec.barrier_expect.iter().all(|&(_, n)| n == rec.num_streams);
    if !events_ok || !barriers_ok {
        return None;
    }
    let event_ns = EventTimes::from_fired(rec.event_ns.iter().map(|&(_, t)| t).collect())?;
    let mut barrier_arrivals = Vec::with_capacity(rec.barrier_arrivals.len());
    for (_, arr) in &rec.barrier_arrivals {
        let mut out = Vec::with_capacity(arr.len());
        for &(s, t) in arr {
            out.push((usize::try_from(s).ok()?, t));
        }
        barrier_arrivals.push(out);
    }
    let mut ar_arrivals = Vec::with_capacity(rec.ar_arrivals.len());
    for (id, arr) in &rec.ar_arrivals {
        let mut out = Vec::with_capacity(arr.len());
        for &(s, t, b, c) in arr {
            out.push((usize::try_from(s).ok()?, t, b, usize::try_from(c).ok()?));
        }
        ar_arrivals.push((*id, out));
    }
    let result = RunResult {
        total_ns: rec.total_ns,
        event_ns,
        spans: Vec::new(),
        num_launches: usize::try_from(rec.num_launches).ok()?,
        num_records: usize::try_from(rec.num_records).ok()?,
        profiling_overhead_ns: rec.profiling_overhead_ns,
        faults: FaultSummary {
            timing_spikes: rec.faults[0],
            launch_retries: rec.faults[1],
            alloc_retries: rec.faults[2],
            straggler_streams: rec.faults[3],
        },
    };
    let parts = MemoParts {
        cmd_idx: usize::try_from(rec.cmd_idx).ok()?,
        prefix_hash: rec.key.prefix_hash,
        num_streams: usize::try_from(rec.num_streams).ok()?,
        cpu_ns: rec.cpu_ns,
        now: rec.now,
        barrier_arrivals,
        ar_arrivals,
        rates: rec.rates.clone(),
        rates_dirty: rec.rates_dirty,
        clock_mode: clock,
        clock_rng_state: rec.clock_rng_state,
        result,
    };
    Some((key, EngineCheckpoint::from_memo(parts)))
}

/// Everything a warm store start hands the driver, already converted to
/// domain types. The driver seeds the memos into its sim cache and keeps
/// the marks earned under its own fault plan. Verdicts stay in the
/// [`DriverStore`] (see [`DriverStore::verdict`]).
pub(crate) struct WarmState {
    /// Persisted full-run memos under their exact cache keys.
    pub memos: Vec<(SimKey, Arc<EngineCheckpoint>)>,
    /// Quarantine marks with the fault fingerprint they were earned under.
    pub quarantine: Vec<(ProfileKey, u64)>,
    /// Clean records loaded, retired kinds included.
    pub loaded_records: u64,
    /// Records quarantined by the store (torn/corrupt/version-mismatch)
    /// plus records that decoded but failed domain validation.
    pub corrupt_records: u64,
}

/// The driver's handle on one on-disk store: the [`Store`] itself plus the
/// authoritative fold of everything in it.
#[derive(Debug)]
pub(crate) struct DriverStore {
    store: Store,
    /// Persisted verdicts keyed `(kind tag, plan fingerprint)`.
    verdicts: BTreeMap<(u8, u64), bool>,
    /// Persisted quarantine marks.
    quarantine: BTreeSet<QuarantineId>,
    /// Every persisted memo record, keyed for dedupe and kept whole so
    /// compaction never depends on what the in-memory cache has evicted.
    memos: BTreeMap<MemoKey, Record>,
    /// First journaling I/O error, if any: the store degrades to inert
    /// (appends become no-ops) rather than failing the optimization.
    degraded: Option<String>,
}

impl DriverStore {
    /// Opens (creating if absent) the store under `dir`, recovering from
    /// any crash artifacts, and folds the loaded records into a
    /// [`WarmState`].
    pub fn open(dir: &Path, opts: &StoreOptions) -> std::io::Result<(DriverStore, WarmState)> {
        let (store, records) = Store::open(dir, opts)?;
        let mut ds = DriverStore {
            store,
            verdicts: BTreeMap::new(),
            quarantine: BTreeSet::new(),
            memos: BTreeMap::new(),
            degraded: None,
        };
        let mut warm = WarmState {
            memos: Vec::new(),
            quarantine: Vec::new(),
            loaded_records: 0,
            corrupt_records: ds.store.load_summary().corrupt_records,
        };
        for rec in records {
            if ds.fold(rec, &mut warm) {
                warm.loaded_records += 1;
            } else {
                warm.corrupt_records += 1;
            }
        }
        Ok((ds, warm))
    }

    /// Folds one loaded record into the authoritative state and the
    /// warm-state view. Returns `false` for records that decode but fail
    /// domain validation. Retired kinds are clean and fold into nothing.
    fn fold(&mut self, rec: Record, warm: &mut WarmState) -> bool {
        match rec {
            Record::ProfileSample(_) | Record::ProfileStats(_) | Record::Predictor(_) => {}
            Record::Verdict(r) => {
                self.verdicts.insert((verdict_tag(r.kind), r.plan_fp), r.clean);
            }
            Record::Quarantine(r) => {
                let Some(key) =
                    key_from_parts(r.contexts.clone(), r.entity.clone(), r.choice)
                else {
                    return false;
                };
                self.quarantine.insert((r.contexts, r.entity, r.choice, r.fault_fp));
                warm.quarantine.push((key, r.fault_fp));
            }
            Record::Memo(mut r) => {
                let Some((key, ck)) = memo_from_record(&r) else {
                    return false;
                };
                // Keep the record span-free and single-table, as this build
                // writes it, so compaction rewrites older stores without
                // their spans or second event table.
                r.labels = Vec::new();
                r.spans = Vec::new();
                r.events = Vec::new();
                self.memos.insert(r.key.clone(), Record::Memo(r));
                warm.memos.push((key, Arc::new(ck)));
            }
        }
        true
    }

    fn append(&mut self, rec: &Record) {
        if self.degraded.is_some() {
            return;
        }
        if let Err(e) = self.store.append(rec) {
            self.degraded = Some(e.to_string());
        }
    }

    /// The persisted `kind` verdict on the plan fingerprinted `plan_fp`:
    /// loaded from the store, or journaled through this handle since.
    pub fn verdict(&self, kind: VerdictKind, plan_fp: u64) -> Option<bool> {
        self.verdicts.get(&(verdict_tag(kind), plan_fp)).copied()
    }

    /// Journals one fresh verify/lint verdict (deduped: re-deriving an
    /// already-persisted verdict appends nothing).
    pub fn journal_verdict(&mut self, kind: VerdictKind, plan_fp: u64, clean: bool) {
        let tag = verdict_tag(kind);
        if self.verdicts.insert((tag, plan_fp), clean) == Some(clean) {
            return;
        }
        self.append(&Record::Verdict(VerdictRec { kind, plan_fp, clean }));
    }

    /// Journals one quarantine mark (deduped per key and fault profile).
    pub fn journal_quarantine(&mut self, key: &ProfileKey, fault_fp: u64) {
        let id = (
            key.contexts().to_vec(),
            key.entity_name().to_owned(),
            key.choice() as u64,
            fault_fp,
        );
        if !self.quarantine.insert(id) {
            return;
        }
        self.append(&quarantine_record(key, fault_fp));
    }

    /// Journals a captured checkpoint if it exports as a full-run memo and
    /// its key isn't persisted yet. Mid-run and faulted checkpoints are
    /// silently skipped — callers feed every capture through.
    pub fn journal_memo(&mut self, key: &SimKey, ck: &EngineCheckpoint) {
        let mkey = memo_key(key);
        if self.memos.contains_key(&mkey) {
            return;
        }
        let Some(parts) = ck.export_memo() else { return };
        let rec = memo_record(key, &parts);
        self.append(&rec);
        self.memos.insert(mkey, rec);
    }

    /// End-of-run bookkeeping: flush the journal to disk, and fold it into
    /// the snapshot once it holds [`AUTO_COMPACT_APPENDS`] records.
    pub fn finish_run(&mut self) {
        if self.degraded.is_none() {
            if let Err(e) = self.store.sync() {
                self.degraded = Some(e.to_string());
            }
        }
        if self.store.journal_records() >= AUTO_COMPACT_APPENDS {
            self.compact();
        }
    }

    /// Rewrites the snapshot from the authoritative in-memory fold and
    /// truncates the journal (atomically — a crash leaves the old state).
    pub fn compact(&mut self) {
        if self.degraded.is_some() {
            return;
        }
        let records = self.snapshot_records();
        if let Err(e) = self.store.compact(&records) {
            self.degraded = Some(e.to_string());
        }
    }

    /// The compacted record set: verdicts, quarantine marks, memos — each
    /// group in its deterministic key order.
    pub fn snapshot_records(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for (&(tag, plan_fp), &clean) in &self.verdicts {
            let kind = if tag == 0 { VerdictKind::Verify } else { VerdictKind::Lint };
            out.push(Record::Verdict(VerdictRec { kind, plan_fp, clean }));
        }
        for (contexts, entity, choice, fault_fp) in &self.quarantine {
            out.push(Record::Quarantine(QuarantineRec {
                contexts: contexts.clone(),
                entity: entity.clone(),
                choice: *choice,
                fault_fp: *fault_fp,
            }));
        }
        out.extend(self.memos.values().cloned());
        out
    }

    /// Journal appends since open.
    pub fn journal_appends(&self) -> u64 {
        self.store.journal_appends()
    }

    /// Compactions performed through this handle.
    pub fn compactions(&self) -> u64 {
        self.store.compactions()
    }

    /// First journaling error, if the store has degraded to inert.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }
}

/// Opens the store at `dir`, recovers whatever survives, and compacts the
/// full fold into the snapshot — the `astra-cli store compact` entry
/// point. Returns `(records_loaded, records_in_snapshot)`: loaded counts
/// every clean record replayed, the snapshot count is smaller when
/// duplicate records collapse or records of the retired kinds drop.
///
/// # Errors
///
/// Real I/O failures opening or rewriting the store files.
pub fn compact_store(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut ds, warm) = DriverStore::open(dir, &StoreOptions::default())?;
    let snapshot_len = ds.snapshot_records().len() as u64;
    ds.compact();
    if let Some(e) = ds.degraded.as_deref() {
        return Err(std::io::Error::other(e.to_owned()));
    }
    Ok((warm.loaded_records, snapshot_len))
}

fn verdict_tag(kind: VerdictKind) -> u8 {
    match kind {
        VerdictKind::Verify => 0,
        VerdictKind::Lint => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_gpu::{
        DeviceSpec, Engine, FaultPlan, GemmLibrary, GemmShape, KernelDesc, Schedule, StreamId,
    };
    use astra_store::MemoSpan;

    fn two_stream_schedule() -> Schedule {
        let mut sched = Schedule::new(2);
        let g = GemmShape::new(64, 256, 256);
        sched.launch(StreamId(0), KernelDesc::Gemm { shape: g, lib: GemmLibrary::CublasLike });
        let ev = sched.record(StreamId(0));
        sched.launch_after(
            StreamId(1),
            KernelDesc::Gemm { shape: g, lib: GemmLibrary::OaiWide },
            &[ev],
        );
        sched.barrier();
        sched.record(StreamId(1));
        sched.mark_boundary();
        sched
    }

    /// A full-run memo as the driver captures it: span-free.
    fn finished_checkpoint(clock: ClockMode) -> EngineCheckpoint {
        let dev = DeviceSpec::v100();
        let sched = two_stream_schedule();
        let (_, mut cks) = Engine::with_faults(&dev, clock, FaultPlan::none(), 0)
            .without_spans()
            .run_incremental(&sched, None, &[sched.cmds().len()])
            .expect("clean run");
        cks.remove(0)
    }

    #[test]
    fn memo_roundtrips_through_the_record_form() {
        for clock in [ClockMode::Fixed, ClockMode::Autoboost { seed: 9 }] {
            let ck = finished_checkpoint(clock);
            let key = SimKey {
                prefix_hash: ck.prefix_hash(),
                device: 0xD1CE,
                clock,
                fault: 0,
                salt: 0,
            };
            let parts = ck.export_memo().expect("finished checkpoint exports");
            let rec = memo_record(&key, &parts);
            let Record::Memo(mrec) = &rec else { panic!("memo record") };
            let (key2, ck2) = memo_from_record(mrec).expect("valid memo loads");
            assert_eq!(key2, key);
            let parts2 = ck2.export_memo().expect("rebuilt checkpoint re-exports");
            assert_eq!(
                parts.result.total_ns.to_bits(),
                parts2.result.total_ns.to_bits(),
                "memoized result survives the record form bit-exactly"
            );
            assert!(parts2.result.spans.is_empty(), "memos carry no spans");
            assert!(mrec.events.is_empty(), "memos carry one event table");
            assert_eq!(mrec.event_ns.iter().map(|&(e, _)| e).collect::<Vec<_>>(), [0, 1]);
            assert_eq!((mrec.barrier_seq, mrec.barrier_expect.as_slice()), (1, &[(0, 2)][..]));
            assert_eq!(parts.result.event_ns, parts2.result.event_ns);
            assert_eq!(parts.barrier_arrivals, parts2.barrier_arrivals);
            assert_eq!(parts.clock_rng_state, parts2.clock_rng_state);
            // Encoding the rebuilt memo reproduces the identical record.
            assert_eq!(memo_record(&key2, &parts2), rec);
        }
    }

    #[test]
    fn invalid_memo_records_are_dropped_not_trusted() {
        let ck = finished_checkpoint(ClockMode::Fixed);
        let key = SimKey {
            prefix_hash: ck.prefix_hash(),
            device: 1,
            clock: ClockMode::Fixed,
            fault: 0,
            salt: 0,
        };
        let parts = ck.export_memo().unwrap();
        let Record::Memo(rec) = memo_record(&key, &parts) else { panic!() };
        assert!(memo_from_record(&rec).is_some(), "the untouched record loads");
        let broken = |what: &str, edit: &dyn Fn(&mut MemoRec)| {
            let mut bad = rec.clone();
            edit(&mut bad);
            assert!(memo_from_record(&bad).is_none(), "{what}");
        };
        broken("unknown clock tag", &|r| r.key.clock_tag = 7);
        // Event ids must be exactly 0..num_records: none of these may
        // panic or size a table from the id it carries.
        broken("event id u32::MAX", &|r| r.event_ns[1].0 = u32::MAX);
        broken("event id gap", &|r| r.event_ns[1].0 = 2);
        broken("duplicate event id", &|r| r.event_ns[1].0 = 0);
        broken("lone event id u32::MAX", &|r| {
            r.event_ns = vec![(u32::MAX, 1.0)];
            r.num_records = 1;
        });
        broken("an event never fired", &|r| r.num_records += 1);
        broken("a non-finite fire time", &|r| r.event_ns[0].1 = f64::NAN);
        broken("two event tables that differ", &|r| {
            r.events = r.event_ns.clone();
            r.events[0].1 += 1.0;
        });
        broken("barrier id u32::MAX", &|r| r.barrier_arrivals[0].0 = u64::from(u32::MAX));
        broken("barrier count mismatch", &|r| r.barrier_seq = 2);
        broken("barrier expecting a stream subset", &|r| r.barrier_expect[0].1 = 1);
    }

    #[test]
    fn memo_records_with_spans_load_span_free() {
        // A memo record as stores written before memos went span-free
        // hold it: the run's span labels and one span per kernel, one of
        // them with a label index nothing resolves, and the event table
        // twice, in `events` and `event_ns`.
        let dev = DeviceSpec::v100();
        let sched = two_stream_schedule();
        let full = sched.cmds().len();
        let (cold, cks) = Engine::new(&dev).run_incremental(&sched, None, &[full]).unwrap();
        assert_eq!(cold.spans.len(), 2);
        let key = SimKey {
            prefix_hash: sched.prefix_hash(),
            device: 3,
            clock: ClockMode::Fixed,
            fault: 0,
            salt: 0,
        };
        let Record::Memo(mut rec) = memo_record(&key, &cks[0].export_memo().unwrap()) else {
            panic!("memo record")
        };
        rec.labels = cold.spans.iter().map(|s| s.label.clone()).collect();
        rec.spans = cold
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| MemoSpan {
                label: i as u32,
                stream: s.stream.0 as u64,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                cmd_idx: s.cmd_idx as u64,
            })
            .collect();
        rec.spans[1].label = 99;
        rec.events = rec.event_ns.clone();
        // The same record under another key, its two event tables apart.
        let mut split = rec.clone();
        split.key.device = 4;
        split.events[1].1 += 0.5;

        let dir = scratch_dir("spans");
        let opts = StoreOptions::default();
        {
            let (mut store, _) = Store::open(&dir, &opts).unwrap();
            store.append(&Record::Memo(rec)).unwrap();
            store.append(&Record::Memo(split)).unwrap();
            store.sync().unwrap();
        }
        let (mut ds, warm) = DriverStore::open(&dir, &opts).unwrap();
        assert_eq!(
            (warm.loaded_records, warm.corrupt_records),
            (1, 1),
            "the two-table record loads; the one whose tables differ is dropped"
        );
        assert_eq!(warm.memos.len(), 1);
        let (wkey, memo) = &warm.memos[0];
        assert_eq!(wkey, &key);
        assert_eq!(memo.span_count(), 0, "no span reaches the cache");
        assert!(!memo.records_spans());
        let (replayed, _) =
            Engine::new(&dev).without_spans().run_incremental(&sched, Some(memo), &[]).unwrap();
        assert_eq!(replayed.total_ns.to_bits(), cold.total_ns.to_bits());
        let bits = |r: &RunResult| -> Vec<(EventId, u64)> {
            r.event_ns.iter().map(|(e, t)| (e, t.to_bits())).collect()
        };
        assert_eq!(bits(&replayed), bits(&cold));
        assert!(replayed.spans.is_empty());
        let span_free = |r: &Record| {
            matches!(r, Record::Memo(m)
                if m.labels.is_empty() && m.spans.is_empty() && m.events.is_empty())
        };
        assert!(
            ds.memos.values().all(span_free),
            "the record kept for compaction is span-free and single-table"
        );

        // Compaction rewrites the store span-free and single-table.
        ds.compact();
        drop(ds);
        let (_, records) = Store::open(&dir, &opts).unwrap();
        assert_eq!(records.len(), 1);
        assert!(span_free(&records[0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn driver_store_folds_loads_and_compacts_losslessly() {
        let dir = scratch_dir("fold");
        let opts = StoreOptions::default();

        let key_b = ProfileKey::entity("kern:gemm", 2);
        {
            let (mut ds, warm) = DriverStore::open(&dir, &opts).unwrap();
            assert_eq!(warm.loaded_records, 0);
            ds.journal_verdict(VerdictKind::Verify, 42, true);
            ds.journal_verdict(VerdictKind::Verify, 42, true); // deduped
            ds.journal_verdict(VerdictKind::Lint, 43, false);
            ds.journal_quarantine(&key_b, 7);
            ds.journal_quarantine(&key_b, 7); // deduped
            let ck = finished_checkpoint(ClockMode::Fixed);
            let skey = SimKey {
                prefix_hash: ck.prefix_hash(),
                device: 5,
                clock: ClockMode::Fixed,
                fault: 0,
                salt: 0,
            };
            ds.journal_memo(&skey, &ck);
            ds.journal_memo(&skey, &ck); // deduped
            // Verdicts, the mark and the memo are journaled as produced;
            // the end of the run adds nothing.
            assert_eq!(ds.journal_appends(), 4);
            ds.finish_run();
            assert_eq!(ds.journal_appends(), 4);
        }
        let (warm1, verdicts1) = {
            let (mut ds, warm) = DriverStore::open(&dir, &opts).unwrap();
            assert_eq!((warm.loaded_records, warm.corrupt_records), (4, 0));
            assert_eq!(ds.verdict(VerdictKind::Verify, 42), Some(true));
            assert_eq!(ds.verdict(VerdictKind::Lint, 43), Some(false));
            assert_eq!(ds.verdict(VerdictKind::Lint, 42), None);
            assert_eq!(warm.quarantine.len(), 1);
            assert_eq!(warm.memos.len(), 1);
            let verdicts = ds.verdicts.clone();
            ds.compact();
            (warm, verdicts)
        };
        // After compaction the fold is unchanged.
        let (ds2, warm2) = DriverStore::open(&dir, &opts).unwrap();
        assert_eq!(ds2.verdicts, verdicts1);
        assert_eq!(ds2.verdict(VerdictKind::Verify, 42), Some(true));
        assert_eq!(ds2.verdict(VerdictKind::Lint, 43), Some(false));
        assert_eq!(warm2.quarantine, warm1.quarantine);
        assert_eq!(warm2.memos.len(), warm1.memos.len());
        assert_eq!((warm2.loaded_records, warm2.corrupt_records), (4, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "astra-driverstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn auto_compaction_counts_the_journal_across_sessions() {
        let dir = scratch_dir("cadence");
        let opts = StoreOptions::default();
        // Each session journals its own fresh verdicts: below the
        // threshold on its own, so only a count that spans sessions ever
        // compacts.
        let per_session = 1500;
        let mut compacted_in = Vec::new();
        for session in 0..7 {
            let (mut ds, warm) = DriverStore::open(&dir, &opts).unwrap();
            let held = ds.store.journal_records();
            assert!(held < AUTO_COMPACT_APPENDS, "session {session} opened {held} journal records");
            assert_eq!(warm.loaded_records, session * per_session);
            for fp in 0..per_session {
                ds.journal_verdict(VerdictKind::Verify, session * per_session + fp, true);
            }
            ds.finish_run();
            assert_eq!(ds.journal_appends(), per_session);
            if ds.compactions() > 0 {
                assert_eq!(ds.store.journal_records(), 0);
                compacted_in.push(session);
            } else {
                assert_eq!(ds.store.journal_records(), held + per_session);
            }
        }
        // 1500, 3000, 4500 -> compact; again every third session.
        assert_eq!(compacted_in, [2, 5]);
        let (ds, warm) = DriverStore::open(&dir, &opts).unwrap();
        assert_eq!(warm.loaded_records, 7 * per_session, "every verdict survives compaction");
        assert_eq!(ds.verdict(VerdictKind::Verify, 0), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
