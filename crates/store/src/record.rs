//! Typed store records and their on-disk encoding.
//!
//! Each record is a self-describing payload: a one-byte type tag, a
//! one-byte version, then a type-specific body written with the [`codec`]
//! primitives. The store frames payloads with a length and an FNV-1a
//! checksum (see [`Store`]); this module only defines what is *inside*
//! a frame.
//!
//! The record vocabulary mirrors Astra's warm state — plan verdicts,
//! quarantine marks, full-run simulation memos — but deliberately uses
//! only plain data (strings, integers, floats), so this crate depends on
//! nothing and the domain crates convert at their edge. Three kinds are
//! retired: profile samples, profile stats and predictor snapshots are no
//! longer written, but still decode, so stores that hold them load.
//!
//! [`codec`]: crate::codec
//! [`Store`]: crate::Store

use crate::codec::{CodecError, Decoder, Encoder};

/// Largest sequence any record may carry; decode rejects bigger claims
/// before allocating.
const MAX_SEQ: usize = 1 << 24;

/// One warm-state record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Retired: one profiled sample for one `(context, entity, choice)`
    /// key.
    ProfileSample(ProfileSampleRec),
    /// Retired: a snapshotted running stat for one profile key — the
    /// compacted form of a run of [`Record::ProfileSample`]s.
    ProfileStats(ProfileStatsRec),
    /// A verifier or linter verdict for one plan fingerprint.
    Verdict(VerdictRec),
    /// A quarantine mark: this profile key repeatedly failed under the
    /// given fault profile and should not be re-probed.
    Quarantine(QuarantineRec),
    /// Retired: a learned cost-model snapshot for one phase kind.
    Predictor(PredictorRec),
    /// A full-run simulation memo: a finished engine checkpoint keyed the
    /// same way the in-memory SimCache keys it.
    Memo(Box<MemoRec>),
}

/// Journal form of one profile observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSampleRec {
    /// Mangled context strings, outermost first.
    pub contexts: Vec<String>,
    /// The adaptive variable's entity name.
    pub entity: String,
    /// Choice index within the variable.
    pub choice: u64,
    /// Measured value, nanoseconds.
    pub value_ns: f64,
}

/// Snapshot form of one profile key's running stats.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStatsRec {
    /// Mangled context strings, outermost first.
    pub contexts: Vec<String>,
    /// The adaptive variable's entity name.
    pub entity: String,
    /// Choice index within the variable.
    pub choice: u64,
    /// Welford sample count.
    pub count: u64,
    /// Welford running mean.
    pub mean: f64,
    /// Welford running sum of squared deviations.
    pub m2: f64,
    /// Minimum observed value (the decision statistic).
    pub min: f64,
}

/// Which analysis produced a [`VerdictRec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// The happens-before schedule verifier.
    Verify,
    /// The static plan linter.
    Lint,
}

/// A cached pass/fail verdict for one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRec {
    /// Which analysis ran.
    pub kind: VerdictKind,
    /// Fingerprint of the canonical `(plan, placement)` rendering.
    pub plan_fp: u64,
    /// `true` if the plan passed.
    pub clean: bool,
}

/// A persisted quarantine mark.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRec {
    /// Mangled context strings of the poisoned profile key.
    pub contexts: Vec<String>,
    /// The adaptive variable's entity name.
    pub entity: String,
    /// Choice index that kept failing.
    pub choice: u64,
    /// Fingerprint of the fault profile the failures happened under; the
    /// mark only applies to runs with a matching profile.
    pub fault_fp: u64,
}

/// A cost-model snapshot for one phase kind.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorRec {
    /// Phase kind the model predicts (`"fuse"`, `"kern"`, ...).
    pub kind: String,
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
    /// Online updates applied so far.
    pub updates: u64,
    /// Calibration envelope, low edge (ns).
    pub t_min: f64,
    /// Calibration envelope, high edge (ns).
    pub t_max: f64,
}

/// The cache key of a [`MemoRec`], mirroring the in-memory SimCache key.
/// Totally ordered so callers can keep memo sets in deterministic
/// (compaction-stable) order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemoKey {
    /// Schedule prefix hash at the capture boundary.
    pub prefix_hash: u64,
    /// Device/topology fingerprint.
    pub device: u64,
    /// Clock mode: 0 = fixed, 1 = autoboost.
    pub clock_tag: u8,
    /// Autoboost seed (0 under a fixed clock).
    pub clock_seed: u64,
    /// Fault plan fingerprint (0 when faults are off).
    pub fault_fp: u64,
    /// Fault salt (0-normalized for clean plans).
    pub salt: u64,
}

/// One kernel span inside a memo, labels interned in the record's string
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoSpan {
    /// Index into [`MemoRec::labels`].
    pub label: u32,
    /// Stream index.
    pub stream: u64,
    /// Span start, ns.
    pub start_ns: f64,
    /// Span end, ns.
    pub end_ns: f64,
    /// Originating command index.
    pub cmd_idx: u64,
}

/// One persisted all-reduce rendezvous arrival: stream, arrival time (ns),
/// payload bytes, originating command index.
pub type ArArrivalRec = (u64, f64, u64, u64);

/// A persisted full-run engine memo: everything a resume reads, as plain
/// data. Field meanings follow the engine checkpoint they serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoRec {
    /// Cache key.
    pub key: MemoKey,
    /// Capture boundary command index (the schedule length).
    pub cmd_idx: u64,
    /// Stream count.
    pub num_streams: u64,
    /// Dispatcher clock at capture.
    pub cpu_ns: f64,
    /// Barriers dispatched.
    pub barrier_seq: u64,
    /// Device clock at capture.
    pub now: f64,
    /// A second copy of the fired events. The engine keeps one event
    /// table, carried in `event_ns`, so the driver writes this empty;
    /// records from older builds hold the same table here twice.
    pub events: Vec<(u32, f64)>,
    /// Barrier arrivals, id-sorted (ids `0..barrier_seq`).
    pub barrier_arrivals: Vec<(u64, Vec<(u64, f64)>)>,
    /// Expected arrivals per barrier, id-sorted (ids `0..barrier_seq`).
    pub barrier_expect: Vec<(u64, u64)>,
    /// All-reduce arrivals ([`ArArrivalRec`]), group-sorted.
    pub ar_arrivals: Vec<(u32, Vec<ArArrivalRec>)>,
    /// Cached per-stream rates.
    pub rates: Vec<f64>,
    /// Whether the rate cache needs recomputing.
    pub rates_dirty: bool,
    /// Jitter RNG position, if the clock carries one.
    pub clock_rng_state: Option<u64>,
    /// Result: makespan, ns.
    pub total_ns: f64,
    /// Result: the run's event table, as `(event id, fire time)` in id
    /// order. A finished run fires every event it records, so the ids are
    /// `0..num_records`.
    pub event_ns: Vec<(u32, f64)>,
    /// Result: kernels launched.
    pub num_launches: u64,
    /// Result: events recorded.
    pub num_records: u64,
    /// Result: profiling overhead, ns.
    pub profiling_overhead_ns: f64,
    /// Result: fault counters (spikes, launch retries, alloc retries,
    /// straggler streams) — all zero for the clean runs memos cover.
    pub faults: [u32; 4],
    /// Interned span labels. Memos are span-free, so the driver writes
    /// this empty; records from older builds may still carry labels.
    pub labels: Vec<String>,
    /// Result: completed spans. Written empty, like `labels`.
    pub spans: Vec<MemoSpan>,
}

const TAG_PROFILE_SAMPLE: u8 = 1;
const TAG_PROFILE_STATS: u8 = 2;
const TAG_VERDICT: u8 = 3;
const TAG_QUARANTINE: u8 = 4;
const TAG_PREDICTOR: u8 = 5;
const TAG_MEMO: u8 = 6;

/// Current version of every record body. Bump per-tag when a body changes;
/// decode rejects unknown versions into quarantine rather than guessing.
const VERSION: u8 = 1;

fn enc_key(e: &mut Encoder, contexts: &[String], entity: &str, choice: u64) {
    e.seq(contexts.len());
    for c in contexts {
        e.str(c);
    }
    e.str(entity);
    e.u64(choice);
}

fn dec_key(d: &mut Decoder<'_>) -> Result<(Vec<String>, String, u64), CodecError> {
    let n = d.seq(4)?;
    let mut contexts = Vec::with_capacity(n);
    for _ in 0..n {
        contexts.push(d.str()?);
    }
    let entity = d.str()?;
    let choice = d.u64()?;
    Ok((contexts, entity, choice))
}

impl Record {
    /// A short stable name for stats/fsck reporting.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Record::ProfileSample(_) => "profile_sample",
            Record::ProfileStats(_) => "profile_stats",
            Record::Verdict(_) => "verdict",
            Record::Quarantine(_) => "quarantine",
            Record::Predictor(_) => "predictor",
            Record::Memo(_) => "memo",
        }
    }

    /// Encodes the record into a payload (tag, version, body). The caller
    /// frames it with a length and checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Record::ProfileSample(r) => {
                e.u8(TAG_PROFILE_SAMPLE);
                e.u8(VERSION);
                enc_key(&mut e, &r.contexts, &r.entity, r.choice);
                e.f64(r.value_ns);
            }
            Record::ProfileStats(r) => {
                e.u8(TAG_PROFILE_STATS);
                e.u8(VERSION);
                enc_key(&mut e, &r.contexts, &r.entity, r.choice);
                e.u64(r.count);
                e.f64(r.mean);
                e.f64(r.m2);
                e.f64(r.min);
            }
            Record::Verdict(r) => {
                e.u8(TAG_VERDICT);
                e.u8(VERSION);
                e.u8(match r.kind {
                    VerdictKind::Verify => 0,
                    VerdictKind::Lint => 1,
                });
                e.u64(r.plan_fp);
                e.bool(r.clean);
            }
            Record::Quarantine(r) => {
                e.u8(TAG_QUARANTINE);
                e.u8(VERSION);
                enc_key(&mut e, &r.contexts, &r.entity, r.choice);
                e.u64(r.fault_fp);
            }
            Record::Predictor(r) => {
                e.u8(TAG_PREDICTOR);
                e.u8(VERSION);
                e.str(&r.kind);
                e.seq(r.weights.len());
                for &w in &r.weights {
                    e.f64(w);
                }
                e.f64(r.bias);
                e.u64(r.updates);
                e.f64(r.t_min);
                e.f64(r.t_max);
            }
            Record::Memo(r) => {
                e.u8(TAG_MEMO);
                e.u8(VERSION);
                e.u64(r.key.prefix_hash);
                e.u64(r.key.device);
                e.u8(r.key.clock_tag);
                e.u64(r.key.clock_seed);
                e.u64(r.key.fault_fp);
                e.u64(r.key.salt);
                e.u64(r.cmd_idx);
                e.u64(r.num_streams);
                e.f64(r.cpu_ns);
                e.u64(r.barrier_seq);
                e.f64(r.now);
                e.seq(r.events.len());
                for &(ev, t) in &r.events {
                    e.u32(ev);
                    e.f64(t);
                }
                e.seq(r.barrier_arrivals.len());
                for (id, arr) in &r.barrier_arrivals {
                    e.u64(*id);
                    e.seq(arr.len());
                    for &(s, t) in arr {
                        e.u64(s);
                        e.f64(t);
                    }
                }
                e.seq(r.barrier_expect.len());
                for &(id, n) in &r.barrier_expect {
                    e.u64(id);
                    e.u64(n);
                }
                e.seq(r.ar_arrivals.len());
                for (id, arr) in &r.ar_arrivals {
                    e.u32(*id);
                    e.seq(arr.len());
                    for &(s, t, b, c) in arr {
                        e.u64(s);
                        e.f64(t);
                        e.u64(b);
                        e.u64(c);
                    }
                }
                e.seq(r.rates.len());
                for &x in &r.rates {
                    e.f64(x);
                }
                e.bool(r.rates_dirty);
                match r.clock_rng_state {
                    Some(s) => {
                        e.bool(true);
                        e.u64(s);
                    }
                    None => e.bool(false),
                }
                e.f64(r.total_ns);
                e.seq(r.event_ns.len());
                for &(ev, t) in &r.event_ns {
                    e.u32(ev);
                    e.f64(t);
                }
                e.u64(r.num_launches);
                e.u64(r.num_records);
                e.f64(r.profiling_overhead_ns);
                for f in r.faults {
                    e.u32(f);
                }
                e.seq(r.labels.len());
                for l in &r.labels {
                    e.str(l);
                }
                e.seq(r.spans.len());
                for s in &r.spans {
                    e.u32(s.label);
                    e.u64(s.stream);
                    e.f64(s.start_ns);
                    e.f64(s.end_ns);
                    e.u64(s.cmd_idx);
                }
            }
        }
        e.into_bytes()
    }

    /// Decodes a payload, checking the tag, version, and that the body
    /// consumes the payload exactly.
    pub fn decode(payload: &[u8]) -> Result<Record, CodecError> {
        let mut d = Decoder::new(payload);
        let tag = d.u8()?;
        let version = d.u8()?;
        if version != VERSION {
            return Err(CodecError::BadVersion { tag, version });
        }
        let rec = match tag {
            TAG_PROFILE_SAMPLE => {
                let (contexts, entity, choice) = dec_key(&mut d)?;
                let value_ns = d.f64()?;
                Record::ProfileSample(ProfileSampleRec { contexts, entity, choice, value_ns })
            }
            TAG_PROFILE_STATS => {
                let (contexts, entity, choice) = dec_key(&mut d)?;
                Record::ProfileStats(ProfileStatsRec {
                    contexts,
                    entity,
                    choice,
                    count: d.u64()?,
                    mean: d.f64()?,
                    m2: d.f64()?,
                    min: d.f64()?,
                })
            }
            TAG_VERDICT => {
                let kind = match d.u8()? {
                    0 => VerdictKind::Verify,
                    1 => VerdictKind::Lint,
                    k => return Err(CodecError::BadTag(k)),
                };
                Record::Verdict(VerdictRec { kind, plan_fp: d.u64()?, clean: d.bool()? })
            }
            TAG_QUARANTINE => {
                let (contexts, entity, choice) = dec_key(&mut d)?;
                Record::Quarantine(QuarantineRec {
                    contexts,
                    entity,
                    choice,
                    fault_fp: d.u64()?,
                })
            }
            TAG_PREDICTOR => {
                let kind = d.str()?;
                let n = d.seq(8)?;
                if n > MAX_SEQ {
                    return Err(CodecError::BadLength(n as u64));
                }
                let mut weights = Vec::with_capacity(n);
                for _ in 0..n {
                    weights.push(d.f64()?);
                }
                Record::Predictor(PredictorRec {
                    kind,
                    weights,
                    bias: d.f64()?,
                    updates: d.u64()?,
                    t_min: d.f64()?,
                    t_max: d.f64()?,
                })
            }
            TAG_MEMO => Record::Memo(Box::new(decode_memo(&mut d)?)),
            t => return Err(CodecError::BadTag(t)),
        };
        d.finish()?;
        Ok(rec)
    }
}

fn decode_memo(d: &mut Decoder<'_>) -> Result<MemoRec, CodecError> {
    let key = MemoKey {
        prefix_hash: d.u64()?,
        device: d.u64()?,
        clock_tag: d.u8()?,
        clock_seed: d.u64()?,
        fault_fp: d.u64()?,
        salt: d.u64()?,
    };
    let cmd_idx = d.u64()?;
    let num_streams = d.u64()?;
    let cpu_ns = d.f64()?;
    let barrier_seq = d.u64()?;
    let now = d.f64()?;
    let n = d.seq(12)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push((d.u32()?, d.f64()?));
    }
    let n = d.seq(12)?;
    let mut barrier_arrivals = Vec::with_capacity(n);
    for _ in 0..n {
        let id = d.u64()?;
        let m = d.seq(16)?;
        let mut arr = Vec::with_capacity(m);
        for _ in 0..m {
            arr.push((d.u64()?, d.f64()?));
        }
        barrier_arrivals.push((id, arr));
    }
    let n = d.seq(16)?;
    let mut barrier_expect = Vec::with_capacity(n);
    for _ in 0..n {
        barrier_expect.push((d.u64()?, d.u64()?));
    }
    let n = d.seq(8)?;
    let mut ar_arrivals = Vec::with_capacity(n);
    for _ in 0..n {
        let id = d.u32()?;
        let m = d.seq(32)?;
        let mut arr = Vec::with_capacity(m);
        for _ in 0..m {
            arr.push((d.u64()?, d.f64()?, d.u64()?, d.u64()?));
        }
        ar_arrivals.push((id, arr));
    }
    let n = d.seq(8)?;
    let mut rates = Vec::with_capacity(n);
    for _ in 0..n {
        rates.push(d.f64()?);
    }
    let rates_dirty = d.bool()?;
    let clock_rng_state = if d.bool()? { Some(d.u64()?) } else { None };
    let total_ns = d.f64()?;
    let n = d.seq(12)?;
    let mut event_ns = Vec::with_capacity(n);
    for _ in 0..n {
        event_ns.push((d.u32()?, d.f64()?));
    }
    let num_launches = d.u64()?;
    let num_records = d.u64()?;
    let profiling_overhead_ns = d.f64()?;
    let faults = [d.u32()?, d.u32()?, d.u32()?, d.u32()?];
    let n = d.seq(4)?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(d.str()?);
    }
    let n = d.seq(36)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push(MemoSpan {
            label: d.u32()?,
            stream: d.u64()?,
            start_ns: d.f64()?,
            end_ns: d.f64()?,
            cmd_idx: d.u64()?,
        });
    }
    Ok(MemoRec {
        key,
        cmd_idx,
        num_streams,
        cpu_ns,
        barrier_seq,
        now,
        events,
        barrier_arrivals,
        barrier_expect,
        ar_arrivals,
        rates,
        rates_dirty,
        clock_rng_state,
        total_ns,
        event_ns,
        num_launches,
        num_records,
        profiling_overhead_ns,
        faults,
        labels,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::ProfileSample(ProfileSampleRec {
                contexts: vec!["milstm[b8]".into(), "epoch3".into()],
                entity: "fuse:12".into(),
                choice: 2,
                value_ns: 1234.5,
            }),
            Record::ProfileStats(ProfileStatsRec {
                contexts: vec![],
                entity: "kern:gemm64".into(),
                choice: 0,
                count: 7,
                mean: 900.25,
                m2: 12.5,
                min: 881.0,
            }),
            Record::Verdict(VerdictRec {
                kind: VerdictKind::Verify,
                plan_fp: 0xABCD_EF01_2345_6789,
                clean: true,
            }),
            Record::Verdict(VerdictRec { kind: VerdictKind::Lint, plan_fp: 42, clean: false }),
            Record::Quarantine(QuarantineRec {
                contexts: vec!["ptb".into()],
                entity: "fuse:3".into(),
                choice: 1,
                fault_fp: 99,
            }),
            Record::Predictor(PredictorRec {
                kind: "fuse".into(),
                weights: (0..256).map(|i| i as f64 * 0.125).collect(),
                bias: -3.5,
                updates: 1000,
                t_min: 100.0,
                t_max: 1e6,
            }),
            Record::Memo(Box::new(MemoRec {
                key: MemoKey {
                    prefix_hash: 1,
                    device: 2,
                    clock_tag: 1,
                    clock_seed: 7,
                    fault_fp: 0,
                    salt: 0,
                },
                cmd_idx: 10,
                num_streams: 2,
                cpu_ns: 5.5,
                barrier_seq: 1,
                now: 99.875,
                events: vec![(0, 1.5), (3, 2.25)],
                barrier_arrivals: vec![(0, vec![(0, 1.0), (1, 2.0)])],
                barrier_expect: vec![(0, 2)],
                ar_arrivals: vec![(5, vec![(1, 3.0, 4096, 7)])],
                rates: vec![1.0, 0.5],
                rates_dirty: true,
                clock_rng_state: Some(0xFEED),
                total_ns: 123.0625,
                event_ns: vec![(0, 1.5), (3, 2.25)],
                num_launches: 6,
                num_records: 2,
                profiling_overhead_ns: 1.25,
                faults: [0, 0, 0, 0],
                labels: vec!["gemm".into(), "add".into()],
                spans: vec![
                    MemoSpan { label: 0, stream: 0, start_ns: 0.0, end_ns: 10.0, cmd_idx: 0 },
                    MemoSpan { label: 1, stream: 1, start_ns: 5.0, end_ns: 7.5, cmd_idx: 3 },
                ],
            })),
        ]
    }

    #[test]
    fn every_record_kind_roundtrips() {
        for rec in sample_records() {
            let payload = rec.encode();
            let back = Record::decode(&payload).unwrap();
            assert_eq!(rec, back, "{} roundtrips", rec.kind_name());
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut payload = sample_records()[0].encode();
        payload[1] = 99;
        assert!(matches!(
            Record::decode(&payload),
            Err(CodecError::BadVersion { version: 99, .. })
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut payload = sample_records()[0].encode();
        payload[0] = 200;
        assert!(matches!(Record::decode(&payload), Err(CodecError::BadTag(200))));
    }

    #[test]
    fn truncated_body_is_rejected() {
        let payload = sample_records()[5].encode();
        assert!(Record::decode(&payload[..payload.len() - 3]).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = sample_records()[2].encode();
        payload.push(0);
        assert!(matches!(Record::decode(&payload), Err(CodecError::Trailing(1))));
    }
}
