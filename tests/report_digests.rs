//! Report digests: a differential oracle for driver refactors.
//!
//! A fixed corpus of tiny-model optimizations (every zoo model under each
//! ablation column, chaos fault injection, the predictor off, the verifier
//! off, an undersized device the linter partly rejects, multi-device
//! placement search, a warm store rerun that hits persisted quarantine
//! marks, and two fault runs that re-measure a kernel shape under a later
//! allocation strategy) runs at `workers = 1`. Each run is reduced to one
//! line:
//!
//! ```text
//! <label> steady=<steady_ns bits> trials=<configs_explored> plan=<fnv(best.summary())> report=<fnv(fields)> simcache=<fnv(sim-cache counters)>
//! ```
//!
//! where `report` folds every other deterministic `Report` field except
//! the sim-cache counters, and `simcache` folds those counters alone
//! (hits, misses, and the `resumed_fraction` bits). The split lets a
//! change to the sim cache's bookkeeping move only the last column while
//! the plan columns stay pinned. The zoo's `all/clean` and `all/chaos7`
//! runs also run at `workers = 4`, whose lines must equal the
//! `workers = 1` lines. The two store runs (`chaos120-store-cold` and
//! `-warm`) end with one more column, `store=<fnv(store directory bytes)>`:
//! the store files' names and bytes in name order, which pins the order the
//! profile stats are journaled in and the predictor snapshots' bits.
//! A refactor of the exploration driver either
//! leaves the checked-in file byte-identical or explains each changed
//! line; deliberate changes regenerate it with
//!
//! ```text
//! ASTRA_REGEN_GOLDEN=1 cargo test --test report_digests
//! ```

use std::path::PathBuf;

use astra::core::{Astra, AstraOptions, Dims, Report};
use astra::gpu::{DeviceSpec, FaultPlan, LinkDesc, Topology};
use astra::models::{BuiltModel, Model, ModelConfig};
use astra::store::fnv1a64;

const FIXTURE: &str = "tests/golden/report_digests.txt";

fn tiny(model: Model) -> BuiltModel {
    let mut c = model.default_config(8);
    c.hidden = 64;
    c.input = 64;
    c.vocab = 128;
    c.seq_len = 3;
    c.layers = c.layers.min(2);
    model.build(&c)
}

fn words_digest(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// FNV-1a hash of every deterministic report field except the three
/// printed on the line itself (`steady_ns`, `configs_explored`, `best`)
/// and the sim-cache counters ([`simcache_digest`]).
fn fields_digest(r: &Report) -> u64 {
    let f = f64::to_bits;
    let mut words = vec![f(r.native_ns), f(r.exploration_ns), f(r.profiling_overhead_frac)];
    words.extend([r.strategies_explored, r.fusion_sets, r.super_epochs].map(|v| v as u64));
    words.extend([r.plan_cache_hits, r.plan_cache_misses]);
    words.extend([r.fault_events, r.retries, r.quarantined].map(|v| v as u64));
    words.extend([r.plans_verified, r.verify_rejects, r.lint_rejects]);
    words.extend([r.bound_pruned as u64, r.device_utilization.len() as u64]);
    words.extend(r.device_utilization.iter().map(|&u| f(u)));
    words.extend([f(r.cost_per_throughput), r.placements_explored as u64]);
    words.extend([r.trials_pruned as u64, r.predictor_updates, f(r.predicted_vs_measured_mae)]);
    words.extend([u64::from(r.warm_start), r.store_loaded_keys, r.store_corrupt_records]);
    words.extend([r.store_journal_appends, r.store_compactions]);
    words_digest(&words)
}

/// FNV-1a hash of the sim-cache counters: hits, misses, and the
/// `resumed_fraction` bits.
fn simcache_digest(r: &Report) -> u64 {
    words_digest(&[r.sim_cache_hits, r.sim_cache_misses, r.resumed_fraction.to_bits()])
}

fn digest_line(label: &str, r: &Report) -> String {
    format!(
        "{label} steady={:016x} trials={} plan={:016x} report={:016x} simcache={:016x}",
        r.steady_ns.to_bits(),
        r.configs_explored,
        fnv1a64(r.best.summary().as_bytes()),
        fields_digest(r),
        simcache_digest(r),
    )
}

/// FNV-1a hash of a store directory: each file's name and bytes, in
/// name order.
fn store_digest(dir: &std::path::Path) -> u64 {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read the store directory")
        .map(|e| e.expect("store directory entry").path())
        .collect();
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        let name = f.file_name().expect("store file name").to_string_lossy().into_owned();
        let data = std::fs::read(&f).expect("read a store file");
        bytes.extend(name.as_bytes());
        bytes.extend((data.len() as u64).to_le_bytes());
        bytes.extend(data);
    }
    fnv1a64(&bytes)
}

fn opts(dims: Dims) -> AstraOptions {
    AstraOptions { dims, workers: 1, ..Default::default() }
}

fn run(built: &BuiltModel, opts: AstraOptions) -> Report {
    let dev = DeviceSpec::p100();
    Astra::new(&built.graph, &dev, opts).optimize().expect("optimize runs")
}

fn dims_named(name: &str) -> Dims {
    match name {
        "f" => Dims::f(),
        "fk" => Dims::fk(),
        "fks" => Dims::fks(),
        _ => Dims::all(),
    }
}

/// `m` under every ablation column, clean, then under chaos faults. The
/// `all` runs repeat at `workers = 4` and must reproduce their line.
fn zoo_lines(m: Model) -> Vec<String> {
    let built = tiny(m);
    let mut lines = Vec::new();
    for dims in ["f", "fk", "fks", "all"] {
        let r = run(&built, opts(dims_named(dims)));
        lines.push(digest_line(&format!("{m:?}/{dims}/clean"), &r));
    }
    let r = run(&built, AstraOptions { faults: FaultPlan::chaos(7), ..opts(Dims::all()) });
    lines.push(digest_line(&format!("{m:?}/all/chaos7"), &r));

    let clean = opts(Dims::all());
    let chaos = AstraOptions { faults: FaultPlan::chaos(7), ..clean.clone() };
    for (label, o) in [("clean", clean), ("chaos7", chaos)] {
        let label = format!("{m:?}/all/{label}");
        let r = run(&built, AstraOptions { workers: 4, ..o });
        let want = lines.iter().find(|l| l.split(' ').next() == Some(label.as_str()));
        assert_eq!(
            Some(&digest_line(&label, &r)),
            want,
            "{label}: workers = 4 drifted from workers = 1"
        );
    }
    lines
}

/// The whole corpus, one digest line per configuration, in a fixed order.
fn corpus() -> Vec<String> {
    // The zoo runs take most of the time: one thread per model, their
    // lines kept in model order.
    let mut lines: Vec<String> = std::thread::scope(|s| {
        let zoo = Model::all().map(|m| s.spawn(move || zoo_lines(m)));
        zoo.into_iter().flat_map(|h| h.join().expect("zoo runs complete")).collect()
    });

    let milstm = tiny(Model::MiLstm);
    for m in [Model::Scrnn, Model::SubLstm] {
        let r = run(&tiny(m), AstraOptions { predictor: false, ..opts(Dims::all()) });
        lines.push(digest_line(&format!("{m:?}/all/predictor-off"), &r));
    }
    let r = run(&tiny(Model::SubLstm), AstraOptions { verify: false, ..opts(Dims::all()) });
    lines.push(digest_line("SubLstm/all/verify-off", &r));

    // A device small enough that the linter rejects some plans (over
    // capacity) but not all of them.
    let mut small_dev = DeviceSpec::p100();
    small_dev.mem_bytes = 168 << 10;
    let r = Astra::new(&milstm.graph, &small_dev, opts(Dims::fk()))
        .optimize()
        .expect("some plans fit in 168 KiB");
    assert!(r.lint_rejects > 0, "168 KiB must lint-reject some plans");
    lines.push(digest_line("MiLstm/fk/mem168k", &r));

    // Multi-device nodes: the only configurations the placement phase runs on.
    let sublstm = tiny(Model::SubLstm);
    let topos = [
        ("2xp100", Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink())),
        (
            "p100+v100",
            Topology::new(vec![DeviceSpec::p100(), DeviceSpec::v100()], LinkDesc::nvlink()),
        ),
    ];
    for (name, topo) in &topos {
        let r = Astra::with_topology(&sublstm.graph, topo, opts(Dims::all()))
            .optimize()
            .expect("multi-device optimize runs");
        lines.push(digest_line(&format!("SubLstm/{name}/all/clean"), &r));
    }

    // A chaos run on a fresh store, then a warm rerun on the same store:
    // the rerun poisons the persisted quarantine marks without retrying.
    // (Seed 120 exhausts a retry budget on this workload.)
    let dir: PathBuf =
        std::env::temp_dir().join(format!("astra-report-digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let small = Model::Scrnn.build(&ModelConfig {
        seq_len: 2,
        hidden: 32,
        input: 32,
        vocab: 64,
        ..ModelConfig::ptb(8)
    });
    let stored = AstraOptions {
        faults: FaultPlan::chaos(120),
        store_dir: Some(dir.clone()),
        ..opts(Dims::fk())
    };
    let cold = run(&small, stored.clone());
    let cold_store = store_digest(&dir);
    let warm = run(&small, stored);
    let warm_store = store_digest(&dir);
    std::fs::remove_dir_all(&dir).expect("remove the temp store");
    assert!(cold.quarantined > 0 && warm.warm_start, "the store reruns must hit quarantine marks");
    assert!(warm.retries < cold.retries, "warm marks must skip the retry budget");
    let cold_line = digest_line("Scrnn/fk/chaos120-store-cold", &cold);
    let warm_line = digest_line("Scrnn/fk/chaos120-store-warm", &warm);
    lines.push(format!("{cold_line} store={cold_store:016x}"));
    lines.push(format!("{warm_line} store={warm_store:016x}"));

    // Fault runs whose trial sequence depends on which measurements are
    // treated as suspect: a kernel shape re-measured under a later
    // allocation strategy, after a fault quarantined one of its libraries.
    let faulted = [
        (Model::MiLstm, "chaos1", FaultPlan::chaos(1)),
        (Model::Gnmt, "spikes10", FaultPlan::timing_spikes(10)),
    ];
    for (m, name, faults) in faulted {
        let r = run(&tiny(m), AstraOptions { faults, ..opts(Dims::all()) });
        lines.push(digest_line(&format!("{m:?}/all/{name}"), &r));
    }
    lines
}

#[test]
fn report_digests_match_golden() {
    let got = corpus().join("\n") + "\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("ASTRA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the digest fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with \
             ASTRA_REGEN_GOLDEN=1 cargo test --test report_digests",
            path.display()
        )
    });
    let diffs: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.lines().count() == want.lines().count(),
        "report digests drifted ({} line(s)):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
