//! Per-layer numbers: the `Report` counters each layer owns, and timed
//! calls to every layer's public entry points on the workload's own inputs
//! (its best plan, a prefix-sharing sweep around that plan, its profile
//! index and its store).

use std::path::Path;

use astra_core::{
    build_units, emit_schedule, fusion_features, lint_plan, verify_plan, Astra, KeyCtx,
    PlanContext, ProbeSpec, Report, SimCache,
};
use astra_gpu::{ClockMode, DeviceSpec, Engine, FaultPlan, Schedule, Topology};
use astra_models::BuiltModel;
use astra_predict::CostModel;
use astra_store::{Store, StoreOptions};

use crate::files;
use crate::protocol::Out;
use crate::trace::Tracer;
use crate::workload::{best_schedule, playoff_partition, Spec};

/// Timed repetitions of each per-call measurement.
const REPS: usize = 5;
/// Store opens and compactions are whole-file operations: fewer reps.
const STORE_REPS: usize = 3;
/// Plans in the prefix-sharing sweep around the best plan.
const SWEEP_MAX: usize = 16;
/// Records appended one by one to a scratch store.
const APPEND_MAX: usize = 512;
/// Seed of the fault-path probe's chaos faults. Fixed, so the probe's
/// counts do not depend on the workload seed.
const FAULT_SEED: u64 = 1;

/// The counters `optimize()` reports, under the layer that owns them.
pub fn report_counts(r: &Report, built: &BuiltModel, out: &mut Out) {
    out.exact("ir.nodes", built.graph.nodes().len());
    out.exact("enumerate.fusion_sets", r.fusion_sets);
    out.exact("enumerate.super_epochs", r.super_epochs);
    out.exact("plan.cache_hits", r.plan_cache_hits);
    out.exact("plan.cache_misses", r.plan_cache_misses);
    out.exact("verify.plans", r.plans_verified);
    out.exact("verify.rejects", r.verify_rejects);
    out.exact("lint.rejects", r.lint_rejects);
    out.exact("lint.bound_pruned", r.bound_pruned);
    out.exact("predict.updates", r.predictor_updates);
    out.exact("predict.trials_pruned", r.trials_pruned);
    out.exact("predict.mae_ns", r.predicted_vs_measured_mae);
    out.exact("simcache.hits", r.sim_cache_hits);
    out.exact("simcache.misses", r.sim_cache_misses);
    out.exact("simcache.resumed_fraction", r.resumed_fraction);
    out.exact("simcache.prefix_groups", r.prefix_group_count);
    out.exact("faults.events", r.fault_events);
    out.exact("faults.retries", r.retries);
    out.exact("faults.quarantined", r.quarantined);
    out.exact("store.journal_appends", r.store_journal_appends);
    out.exact("store.loaded_keys", r.store_loaded_keys);
    out.exact("store.compactions", r.store_compactions);
    out.exact("store.corrupt_records", r.store_corrupt_records);
}

/// Where the store probe finds its inputs and does its work.
pub struct StoreDirs<'a> {
    /// The store this iteration's `optimize()` ran against.
    pub store: &'a Path,
    /// The store `milstm-restart` restores before every iteration.
    pub pristine: Option<&'a Path>,
    /// Scratch space for the probe's own stores.
    pub scratch: &'a Path,
}

/// Times every layer's public entry points, each inside its own span.
pub fn probe(
    tr: &mut Tracer,
    astra: &Astra<'_>,
    r: &Report,
    spec: &Spec,
    dev: &DeviceSpec,
    dirs: &StoreDirs<'_>,
    out: &mut Out,
) -> Result<(), String> {
    let ctx = astra.context();
    for _ in 0..REPS {
        tr.time("models.build", || spec.model.build(&spec.cfg));
        tr.time("enumerate.context", || PlanContext::new(ctx.graph));
        tr.time("plan.build_units", || build_units(ctx, &r.best)).map_err(|e| e.to_string())?;
    }
    let (units, sched) = best_schedule(ctx, &r.best, spec.dims.streams)?;
    out.exact("emit.cmds", sched.cmds().len());
    let partition = playoff_partition(&units, spec.dims.streams);
    let topo = Topology::single(dev.clone());
    for _ in 0..REPS {
        tr.time("emit.schedule", || {
            emit_schedule(ctx, &r.best, &units, partition.as_ref(), &ProbeSpec::none())
        });
        tr.time("verify.plan", || verify_plan(ctx, &r.best, &units, &sched, 1));
        tr.time("lint.plan", || lint_plan(ctx, &r.best, &units, &sched, &topo, 1));
        tr.time("lint.floor", || astra_lint::critical_path_floor(&sched, &topo, &|_, _| None));
    }
    probe_engine(tr, dev, &sched)?;
    probe_faults(tr, dev, &sched, out)?;
    probe_sweep(tr, ctx, r, dev, &topo)?;
    probe_store(tr, dirs, out)
}

/// A cold run of the best plan, and a resume from its middle boundary.
fn probe_engine(tr: &mut Tracer, dev: &DeviceSpec, sched: &Schedule) -> Result<(), String> {
    let err = |e: astra_gpu::GpuError| format!("engine: {e}");
    for _ in 0..REPS {
        tr.time("engine.run", || Engine::new(dev).run(sched)).map_err(err)?;
    }
    let bounds = sched.boundaries();
    let Some(&(mid, _)) = bounds.get(bounds.len() / 2) else {
        return Err("best schedule has no boundaries to resume from".to_owned());
    };
    let (_, mut caps) = Engine::new(dev).run_incremental(sched, None, &[mid]).map_err(err)?;
    let ck = caps.pop().ok_or("engine captured no checkpoint")?;
    for _ in 0..REPS {
        tr.time("engine.resume", || Engine::new(dev).run_incremental(sched, Some(&ck), &[]))
            .map_err(err)?;
    }
    Ok(())
}

/// The engine's fault-injection path: the best plan under chaos faults
/// with a fixed seed, one salt per run, as the optimizer draws them for
/// successive mini-batches.
fn probe_faults(
    tr: &mut Tracer,
    dev: &DeviceSpec,
    sched: &Schedule,
    out: &mut Out,
) -> Result<(), String> {
    let chaos = FaultPlan::chaos(FAULT_SEED);
    let mut injected = 0;
    for salt in 0..REPS as u64 {
        let run = tr
            .time("faults.run", || {
                Engine::with_faults(dev, ClockMode::Fixed, chaos, salt).run(sched)
            })
            .map_err(|e| format!("engine: {e}"))?;
        injected += run.faults.total();
    }
    out.exact("faults.injected", injected);
    Ok(())
}

/// Varies one fusion set's chunking at a time around the best plan, so
/// consecutive schedules share their prefix up to that set: each trial
/// probes the sim cache, simulates, and absorbs its captures, and the
/// cost model scores and then learns the trial.
fn probe_sweep(
    tr: &mut Tracer,
    ctx: &PlanContext<'_>,
    r: &Report,
    dev: &DeviceSpec,
    topo: &Topology,
) -> Result<(), String> {
    let key = KeyCtx::new(dev, ClockMode::Fixed, &FaultPlan::none());
    let mut cache = SimCache::new();
    let mut model = CostModel::new();
    let mut trials = 0;
    'sweep: for set in &ctx.sets {
        for rc in set.row_chunks() {
            for cc in set.col_chunks() {
                if trials == SWEEP_MAX {
                    break 'sweep;
                }
                let mut cfg = r.best.clone();
                cfg.chunks.insert(set.id.clone(), (rc, cc));
                // Chunkings that make the unit graph cyclic are skipped,
                // as the optimizer skips them.
                let Ok(units) = build_units(ctx, &cfg) else { continue };
                let (sched, _) = emit_schedule(ctx, &cfg, &units, None, &ProbeSpec::none());
                let (resume, caps) =
                    tr.time("simcache.probe", || cache.probe_and_plan_ctx(&sched, &key, 0));
                let (run, captured) = Engine::new(dev)
                    .run_incremental(&sched, resume.as_deref(), &caps)
                    .map_err(|e| format!("engine: {e}"))?;
                tr.time("simcache.absorb", || cache.absorb_ctx(&key, 0, captured));
                let f = fusion_features(&cfg, topo.fingerprint(), set, rc, cc);
                tr.time("predict.score", || model.predict_ns(&f));
                tr.time("predict.observe", || model.observe(&f, run.total_ns));
                trials += 1;
            }
        }
    }
    if trials == 0 {
        return Err("the sweep around the best plan built no plan".to_owned());
    }
    Ok(())
}

/// Opens the workload's store (the pristine store a restart reads, or the
/// store a journal run leaves), then appends its records to a scratch
/// store and compacts them there.
fn probe_store(tr: &mut Tracer, dirs: &StoreDirs<'_>, out: &mut Out) -> Result<(), String> {
    let err = |e: std::io::Error| format!("store probe: {e}");
    let source = dirs.pristine.unwrap_or(dirs.store);
    let open_dir = dirs.scratch.join("open");
    let mut records = Vec::new();
    for _ in 0..STORE_REPS {
        files::reset_dir(&open_dir)?;
        files::copy_dir(source, &open_dir)?;
        let (_, loaded) = tr
            .time("store.open", || Store::open(&open_dir, &StoreOptions::default()))
            .map_err(err)?;
        records = loaded;
    }
    if records.is_empty() {
        return Err("the workload's store holds no records".to_owned());
    }
    out.exact("store.probe_records", records.len());

    let append_dir = dirs.scratch.join("append");
    files::reset_dir(&append_dir)?;
    let (mut store, _) = Store::open(&append_dir, &StoreOptions::default()).map_err(err)?;
    for rec in records.iter().take(APPEND_MAX) {
        tr.time("store.append", || store.append(rec)).map_err(err)?;
    }
    for _ in 0..STORE_REPS {
        tr.time("store.compact", || store.compact(&records)).map_err(err)?;
    }
    files::remove_dir(dirs.scratch)
}
