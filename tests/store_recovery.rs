//! Crash-safety of the persistent warm-state store (`--store`).
//!
//! The headline contract: an `optimize` run that dies at *any byte
//! boundary* of its store writes can be resumed against the surviving
//! files and produces the bit-identical final plan the uninterrupted run
//! produces — at any worker count. Corruption costs only the affected
//! records: a flipped journal byte is quarantined with diagnostics while
//! every unaffected key keeps warming the next run. With no store
//! configured, every store-related report field is exactly zero/false.
//!
//! Journaling contract: the store holds only memos, verdicts and
//! quarantine marks, each appended as it is produced, so a warm rerun
//! that replays them appends nothing. Records of the retired kinds
//! (profile samples, profile stats, predictor snapshots) that older
//! stores hold load clean and drop out at compaction.

use std::path::{Path, PathBuf};

use astra::core::{Astra, AstraOptions, Dims, Report};
use astra::gpu::{DeviceSpec, FaultPlan};
use astra::models::{Model, ModelConfig};
use astra::store;

/// A deliberately small workload: big enough to exercise fusion + kernel
/// exploration (verdicts and memos both get journaled), small enough
/// that the crash-point sweep stays fast in debug builds.
fn tiny() -> astra::models::BuiltModel {
    let cfg =
        ModelConfig { seq_len: 2, hidden: 32, input: 32, vocab: 64, ..ModelConfig::ptb(8) };
    Model::Scrnn.build(&cfg)
}

/// The report digests' tiny MI-LSTM: under chaos it quarantines trials in
/// several phases, so its journal holds marks as well as verdicts.
fn tiny_milstm() -> astra::models::BuiltModel {
    let mut cfg = Model::MiLstm.default_config(8);
    (cfg.hidden, cfg.input, cfg.vocab, cfg.seq_len) = (64, 64, 128, 3);
    cfg.layers = cfg.layers.min(2);
    Model::MiLstm.build(&cfg)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("astra-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

struct RunSpec {
    dir: Option<PathBuf>,
    crash_after: Option<u64>,
    workers: usize,
    faults: FaultPlan,
    dims: Dims,
}

impl RunSpec {
    fn cold(workers: usize) -> RunSpec {
        RunSpec {
            dir: None,
            crash_after: None,
            workers,
            faults: FaultPlan::none(),
            dims: Dims::fk(),
        }
    }

    fn stored(dir: &Path, workers: usize) -> RunSpec {
        RunSpec { dir: Some(dir.to_path_buf()), ..RunSpec::cold(workers) }
    }
}

fn run(built: &astra::models::BuiltModel, spec: &RunSpec) -> Report {
    let dev = DeviceSpec::p100();
    let mut astra = Astra::new(
        &built.graph,
        &dev,
        AstraOptions {
            dims: spec.dims,
            workers: spec.workers,
            faults: spec.faults,
            store_dir: spec.dir.clone(),
            store_crash_after: spec.crash_after,
            ..Default::default()
        },
    );
    let report = astra.optimize().expect("optimize completes regardless of store state");
    assert!(astra.store_error().is_none(), "store degraded: {:?}", astra.store_error());
    report
}

/// The crash-resume identity: every decision-relevant field of the two
/// reports is bit-equal (counters that only describe wall-clock work —
/// retries, cache hits, journal appends — are allowed to differ).
fn assert_same_plan(a: &Report, b: &Report, what: &str) {
    assert_eq!(a.native_ns.to_bits(), b.native_ns.to_bits(), "{what}: native_ns drifted");
    assert_eq!(a.steady_ns.to_bits(), b.steady_ns.to_bits(), "{what}: steady_ns drifted");
    assert_eq!(a.best.summary(), b.best.summary(), "{what}: chosen plan drifted");
}

#[test]
fn store_off_reports_all_zeroes() {
    let built = tiny();
    let r = run(&built, &RunSpec::cold(1));
    assert!(!r.warm_start, "no store, no warm start");
    assert_eq!(r.store_loaded_keys, 0);
    assert_eq!(r.store_corrupt_records, 0);
    assert_eq!(r.store_journal_appends, 0);
    assert_eq!(r.store_compactions, 0);
}

#[test]
fn cold_store_run_is_bit_identical_to_storeless_and_warms_the_next() {
    let built = tiny();
    let dir = tmpdir("warm");
    let reference = run(&built, &RunSpec::cold(1));

    let cold = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &cold, "cold store run vs storeless");
    assert!(!cold.warm_start, "first run against an empty store is cold");
    assert_eq!(cold.store_loaded_keys, 0);
    assert!(cold.store_journal_appends > 0, "a cold run must journal its discoveries");

    let warm = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &warm, "warm store run vs storeless");
    assert!(warm.warm_start);
    assert!(warm.store_loaded_keys > 0);
    assert_eq!(warm.store_corrupt_records, 0);
    assert_eq!(warm.store_loaded_keys, cold.store_journal_appends);
    // Persisted verdicts short-circuit the verifier: the warm run decides
    // identically without re-analyzing a single plan.
    assert_eq!(warm.plans_verified, 0, "warm verdicts must skip verifier executions");
    assert_eq!(warm.store_journal_appends, 0, "a warm rerun has nothing new to journal");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_crash_point_resumes_to_the_bit_identical_plan() {
    let built = tiny();
    let reference = run(&built, &RunSpec::cold(1));

    // Learn the total store footprint of an uninterrupted run, then cut
    // the write stream at boundaries spread across it (plus the edges:
    // nothing-written and one-byte-short).
    let probe = tmpdir("crash-probe");
    run(&built, &RunSpec::stored(&probe, 1));
    let total = std::fs::metadata(probe.join("journal.astra")).unwrap().len();
    std::fs::remove_dir_all(&probe).unwrap();
    assert!(total > 0);

    let cuts = [0, 1, total / 5, 2 * total / 5, 3 * total / 5, 4 * total / 5, total - 1];
    for (i, &cut) in cuts.iter().enumerate() {
        let dir = tmpdir(&format!("crash-{i}"));
        // The interrupted run: the store dies mid-write, the optimization
        // itself still completes and still finds the same plan.
        let crashed = run(
            &built,
            &RunSpec {
                crash_after: Some(cut),
                ..RunSpec::stored(&dir, if i % 2 == 0 { 1 } else { 4 })
            },
        );
        assert_same_plan(&reference, &crashed, &format!("crashed run, cut={cut}"));

        // Resume against whatever survived — at workers 1 and 4.
        for workers in [1, 4] {
            let resumed = run(&built, &RunSpec::stored(&dir, workers));
            assert_same_plan(
                &reference,
                &resumed,
                &format!("resumed run, cut={cut}, workers={workers}"),
            );
            // At most the one torn-tail record may be lost per recovery;
            // after it is scrubbed the store must load clean.
            assert!(resumed.store_corrupt_records <= 1, "cut={cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn flipped_journal_byte_is_quarantined_without_losing_unaffected_keys() {
    let built = tiny();
    let dir = tmpdir("flip");
    let reference = run(&built, &RunSpec::cold(1));
    let cold = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &cold, "cold run before corruption");

    // Flip one byte in the middle of the journal.
    let journal = dir.join("journal.astra");
    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&journal, &bytes).unwrap();

    // fsck sees exactly the corruption, read-only.
    let report = store::fsck(&dir).unwrap();
    assert_eq!(report.corrupt.len(), 1, "one flipped byte, one corrupt record");
    assert!(report.corrupt[0].reason.contains("checksum"), "{}", report.corrupt[0].reason);

    // The resumed run quarantines the record, reports it, keeps every
    // unaffected key, and still lands on the bit-identical plan.
    let resumed = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &resumed, "resumed run after corruption");
    assert!(resumed.warm_start);
    assert_eq!(resumed.store_corrupt_records, 1);
    assert!(resumed.store_loaded_keys > 0, "unaffected records keep warming the run");

    // Recovery scrubbed the journal and journaled the diagnostic: the
    // store is clean again and the sidecar remembers what was lost.
    let report = store::fsck(&dir).unwrap();
    assert!(report.corrupt.is_empty(), "recovery rewrote the corrupt journal");
    assert_eq!(report.quarantined_lines, 1);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_preserves_the_resumed_plan() {
    let built = tiny();
    let dir = tmpdir("compact");
    let reference = run(&built, &RunSpec::cold(1));
    run(&built, &RunSpec::stored(&dir, 1));

    let (loaded, kept) = astra::core::compact_store(&dir).unwrap();
    assert!(loaded > 0);
    assert!(kept > 0);
    assert!(kept <= loaded, "compaction never grows the store");
    assert_eq!(std::fs::metadata(dir.join("journal.astra")).unwrap().len(), 8, "journal reset to magic");

    let resumed = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &resumed, "resumed run after compaction");
    assert!(resumed.warm_start);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persisted_quarantine_marks_skip_the_retry_budget_under_the_same_faults() {
    let built = tiny();
    let dir = tmpdir("quarantine");
    // Seed 120 is one of the few whose chaos draws exhaust a retry budget
    // on this tiny workload (4 consecutive suspect measurements), so a
    // quarantine mark actually gets journaled.
    let faults = FaultPlan::chaos(120);
    let spec = |dir: Option<&Path>| RunSpec {
        dir: dir.map(Path::to_path_buf),
        faults,
        ..RunSpec::cold(1)
    };

    let reference = run(&built, &spec(None));
    let cold = run(&built, &spec(Some(&dir)));
    assert_same_plan(&reference, &cold, "faulted cold store run vs storeless");
    assert!(cold.quarantined > 0, "chaos must quarantine something or this test is vacuous");
    let fsck = store::fsck(&dir).unwrap();
    assert!(fsck.counts.get("quarantine").copied().unwrap_or(0) > 0, "marks persisted");

    // The returning job hits the persisted marks: same plan, bit-identical,
    // but the doomed candidates are poisoned without burning retries.
    let warm = run(&built, &spec(Some(&dir)));
    assert_same_plan(&reference, &warm, "faulted warm store run vs storeless");
    assert!(warm.quarantined >= cold.quarantined, "marks still counted as quarantined");
    assert!(
        warm.retries < cold.retries,
        "persisted marks must skip re-probing (warm {} vs cold {} retries)",
        warm.retries,
        cold.retries
    );

    // Marks are scoped to the fault plan that earned them: a clean run
    // against the same store ignores them and matches its own reference.
    let clean_ref = run(&built, &RunSpec::cold(1));
    let clean_warm = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&clean_ref, &clean_warm, "clean run over a faulted store");
    assert_eq!(clean_warm.quarantined, 0, "fault-scoped marks must not leak into clean runs");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_marks_poison_only_the_trials_that_earned_them() {
    // The tiny MI-LSTM over every phase, the stream phase included: under
    // chaos seed 1 its cold run quarantines trials in several phases. A
    // mark names the whole trial (every variable's picked key and the
    // trial's fault salt), so the warm rerun poisons exactly the trials
    // the cold run quarantined, skips their retries, and lands on the
    // storeless plan. A poisoned trial's first run is counted like the
    // cold run's, so only the skipped retries go missing from the trial
    // count.
    let built = tiny_milstm();
    let dev = DeviceSpec::p100();
    let dir = tmpdir("trial-marks");
    let run = |store_dir: Option<PathBuf>| {
        let opts = AstraOptions {
            dims: Dims::all(),
            workers: 1,
            faults: FaultPlan::chaos(1),
            store_dir,
            ..Default::default()
        };
        let mut astra = Astra::new(&built.graph, &dev, opts);
        let report = astra.optimize().expect("faulted optimize completes");
        assert!(astra.store_error().is_none(), "store degraded: {:?}", astra.store_error());
        report
    };

    let reference = run(None);
    let cold = run(Some(dir.clone()));
    let warm = run(Some(dir.clone()));
    assert_same_plan(&reference, &cold, "faulted cold store run vs storeless");
    assert_same_plan(&reference, &warm, "faulted warm store run vs storeless");
    assert!(cold.quarantined > 0, "chaos must quarantine something or this test is vacuous");
    assert!(warm.warm_start);
    assert_eq!(warm.quarantined, cold.quarantined, "warm marks poison exactly the cold run's");
    assert!(
        warm.retries < cold.retries,
        "persisted marks must skip re-probing (warm {} vs cold {} retries)",
        warm.retries,
        cold.retries
    );
    assert_eq!(warm.configs_explored, cold.configs_explored - (cold.retries - warm.retries));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The journal's records with the byte offset each frame ends at.
fn journal_frames(dir: &Path) -> Vec<(u64, store::Record)> {
    let bytes = std::fs::read(dir.join("journal.astra")).unwrap();
    assert_eq!(&bytes[..store::MAGIC.len()], store::MAGIC);
    let mut pos = store::MAGIC.len();
    let mut out = Vec::new();
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 12..pos + 12 + len];
        pos += 12 + len;
        out.push((pos as u64, store::Record::decode(payload).expect("clean journal frame")));
    }
    out
}

/// Every clean record the store at `dir` holds, snapshot first.
fn stored_records(dir: &Path) -> Vec<store::Record> {
    store::Store::open(dir, &store::StoreOptions::default()).unwrap().1
}

#[test]
fn a_crash_mid_phase_keeps_every_record_written_before_it() {
    let built = tiny_milstm();
    // Under chaos seed 1 the fusion phase journals verdicts and the later
    // phases quarantine trials, so marks follow them. Faulted runs export
    // no memos.
    let faults = FaultPlan::chaos(1);
    let spec = |dir: &Path, crash_after: Option<u64>| RunSpec {
        crash_after,
        faults,
        dims: Dims::fks(),
        ..RunSpec::stored(dir, 1)
    };
    let reference = run(&built, &RunSpec { dir: None, ..spec(Path::new(""), None) });
    let journal = |dims: Dims| {
        let probe = tmpdir("midphase-probe");
        run(&built, &RunSpec { dims, ..spec(&probe, None) });
        let frames = journal_frames(&probe);
        std::fs::remove_dir_all(&probe).unwrap();
        frames
    };
    let frames = journal(Dims::fks());
    // The fusion phase runs first and journals the same records with or
    // without the phases after it: its records are the prefix the
    // fusion-only run's journal shares with this one.
    let fusion_only = journal(Dims::f());
    let first_phase = frames.iter().zip(&fusion_only).take_while(|(a, b)| a == b).count();
    assert!(first_phase > 1, "the first phase journals verdicts");
    assert!(first_phase < frames.len(), "the later phases journal records of their own");
    let first_mark = frames
        .iter()
        .position(|(_, r)| matches!(r, store::Record::Quarantine(_)))
        .expect("chaos seed 1 journals a quarantine mark");
    assert!(first_mark + 1 < frames.len(), "a frame follows the first mark");
    // Cuts: early in the first phase, at its last record, right after the
    // first quarantine mark, and one byte into the frame after it.
    let cuts = [
        frames[first_phase / 2].0,
        frames[first_phase - 1].0,
        frames[first_mark].0,
        frames[first_mark].0 + 1,
    ];
    for (i, &cut) in cuts.iter().enumerate() {
        let dir = tmpdir(&format!("midphase-{i}"));
        let crashed = run(&built, &spec(&dir, Some(cut)));
        assert_same_plan(&reference, &crashed, &format!("crashed run, cut={cut}"));
        let len = std::fs::metadata(dir.join("journal.astra")).unwrap().len();
        assert_eq!(len, cut, "the crash hook fired at the cut");

        let kept: Vec<store::Record> =
            frames.iter().take_while(|(end, _)| *end <= cut).map(|(_, r)| r.clone()).collect();
        assert!(
            kept.iter().any(|r| matches!(r, store::Record::Verdict(_))),
            "cut={cut} keeps verdicts"
        );
        assert_eq!(stored_records(&dir), kept, "cut={cut}: every record before the crash survives");

        let resumed = run(&built, &spec(&dir, None));
        assert_same_plan(&reference, &resumed, &format!("resumed run, cut={cut}"));
        assert!(resumed.warm_start);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn retired_record_kinds_load_clean_and_compact_away() {
    let built = tiny();
    let dir = tmpdir("retired");
    let reference = run(&built, &RunSpec::cold(1));
    let cold = run(&built, &RunSpec::stored(&dir, 1));

    // Append one record of each kind older builds wrote after a real
    // run's records.
    let retired = [
        store::Record::ProfileSample(store::ProfileSampleRec {
            contexts: vec!["alloc:0".into()],
            entity: "fuse:0".into(),
            choice: 1,
            value_ns: 1.5e6,
        }),
        store::Record::ProfileStats(store::ProfileStatsRec {
            contexts: Vec::new(),
            entity: "kern:64x64x64".into(),
            choice: 2,
            count: 3,
            mean: 2.0e4,
            m2: 7.5,
            min: 1.9e4,
        }),
        store::Record::Predictor(store::PredictorRec {
            kind: "fuse".into(),
            weights: vec![0.25; 4],
            bias: 1.0,
            updates: 9,
            t_min: 10.0,
            t_max: 20.0,
        }),
    ];
    {
        let (mut st, _) = store::Store::open(&dir, &store::StoreOptions::default()).unwrap();
        for rec in &retired {
            st.append(rec).unwrap();
        }
        st.sync().unwrap();
    }
    let retired_kinds = ["profile_sample", "profile_stats", "predictor"];
    let counts = store::fsck(&dir).unwrap().counts;
    assert!(retired_kinds.iter().all(|k| counts.get(*k) == Some(&1)), "{counts:?}");

    let warm = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &warm, "warm run over retired records vs storeless");
    assert_eq!(warm.store_corrupt_records, 0, "retired records are clean");
    assert_eq!(warm.store_loaded_keys, cold.store_journal_appends + 3);
    assert_eq!(warm.store_journal_appends, 0);

    let (loaded, kept) = astra::core::compact_store(&dir).unwrap();
    assert_eq!((loaded, kept), (warm.store_loaded_keys, cold.store_journal_appends));
    let counts = store::fsck(&dir).unwrap().counts;
    assert!(retired_kinds.iter().all(|k| !counts.contains_key(*k)), "{counts:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store whose memos sit under keys this build never produces — as in a
/// store written before the prefix-hash fold changed — still works: it
/// loads with no corrupt record, its first warm run replays nothing from
/// those memos and so reaches the storeless plan with the storeless run's
/// sim-cache counters, and the run after that replays every trial from the
/// memos the first one journaled.
#[test]
fn memos_under_foreign_keys_load_clean_and_replay_after_one_cold_run() {
    let built = tiny();
    let dir = tmpdir("foreign-keys");
    let reference = run(&built, &RunSpec::cold(1));
    run(&built, &RunSpec::stored(&dir, 1));

    // Rewrite the store with every memo's prefix hash bit-inverted: no
    // schedule of this run hashes to those keys.
    let records = stored_records(&dir);
    let memos = records.iter().filter(|r| matches!(r, store::Record::Memo(_))).count();
    assert!(memos > 0, "the cold run journals memos");
    std::fs::remove_dir_all(&dir).unwrap();
    {
        let (mut st, _) = store::Store::open(&dir, &store::StoreOptions::default()).unwrap();
        for mut rec in records {
            if let store::Record::Memo(m) = &mut rec {
                m.key.prefix_hash = !m.key.prefix_hash;
            }
            st.append(&rec).unwrap();
        }
        st.sync().unwrap();
    }

    let first = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &first, "first run over foreign memo keys vs storeless");
    assert!(first.warm_start);
    assert_eq!(first.store_corrupt_records, 0, "foreign memo keys are clean records");
    assert_eq!(
        (first.sim_cache_hits, first.sim_cache_misses),
        (reference.sim_cache_hits, reference.sim_cache_misses),
        "no foreign memo replays"
    );
    assert_eq!(first.store_journal_appends as usize, memos, "it journals its own memos");

    let second = run(&built, &RunSpec::stored(&dir, 1));
    assert_same_plan(&reference, &second, "second run vs storeless");
    assert_eq!(second.store_corrupt_records, 0);
    assert_eq!(second.sim_cache_misses, 0, "every trial replays");
    assert!(second.sim_cache_hits > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
