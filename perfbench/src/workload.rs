//! The benchmark's workloads and one iteration of each: set up an
//! optimizer, run one `Astra::optimize()` call, and check its output.

use std::path::Path;
use std::time::Instant;

use astra_core::{
    build_units, emit_schedule,
    enumerate::{partition_units, Partition},
    lint_plan, verify_plan, Astra, AstraOptions, Dims, ExecConfig, PlanContext, ProbeSpec, Report,
    Unit,
};
use astra_gpu::{DeviceSpec, Schedule, Topology};
use astra_models::{BuiltModel, Model, ModelConfig};

use crate::layers::{self, StoreDirs};
use crate::protocol::Out;
use crate::trace::Tracer;

/// One benchmark workload. Neither depends on the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MI-LSTM, dims `all`, no faults, a fresh empty store.
    MilstmJournal,
    /// The same inputs against the store `MilstmJournal` leaves behind.
    MilstmRestart,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::MilstmJournal, Workload::MilstmRestart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MilstmJournal => "milstm-journal",
            Workload::MilstmRestart => "milstm-restart",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The inputs. `tiny` shrinks the model so the self-test runs every
    /// workload in well under a second.
    pub fn spec(self, tiny: bool) -> Spec {
        let mut cfg = ModelConfig::hutter(16).with_seq_len(8);
        if tiny {
            cfg = ModelConfig { batch: 8, seq_len: 2, hidden: 32, input: 32, vocab: 64, ..cfg };
        }
        Spec { model: Model::MiLstm, cfg, dims: Dims::all() }
    }
}

/// Everything `Astra::optimize()` receives for one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub model: Model,
    pub cfg: ModelConfig,
    pub dims: Dims,
}

impl Spec {
    /// Pinned options: one worker (the default `0` means every core), the
    /// workload's dims, no faults, and the store.
    pub fn options(&self, store: &Path) -> AstraOptions {
        AstraOptions {
            dims: self.dims,
            workers: 1,
            store_dir: Some(store.to_path_buf()),
            ..Default::default()
        }
    }
}

/// Stable digest of a plan's canonical rendering.
pub fn plan_digest(cfg: &ExecConfig) -> u64 {
    astra_store::fnv1a64(cfg.summary().as_bytes())
}

/// The best plan's schedule as the playoff emits it: super-epoch by
/// super-epoch when streams were explored.
pub fn best_schedule(
    ctx: &PlanContext<'_>,
    best: &ExecConfig,
    streams: bool,
) -> Result<(Vec<Unit>, Schedule), String> {
    let units = build_units(ctx, best).map_err(|e| format!("best plan does not build: {e}"))?;
    let partition = playoff_partition(&units, streams);
    let (sched, _) = emit_schedule(ctx, best, &units, partition.as_ref(), &ProbeSpec::none());
    Ok((units, sched))
}

/// The super-epoch partition the optimizer emits its playoff run with: the
/// default budget of 1/8 of the model's FLOPs per super-epoch.
pub fn playoff_partition(units: &[Unit], streams: bool) -> Option<Partition> {
    streams.then(|| {
        let total_flops: f64 = units.iter().map(|u| u.flops).sum();
        partition_units(units, (total_flops / 8.0).max(1.0))
    })
}

/// Checks that do not trust the optimizer's own report: the best plan
/// verifies and lints clean, and it is no slower than the native baseline.
fn check_output(
    astra: &Astra<'_>,
    dev: &DeviceSpec,
    spec: &Spec,
    r: &Report,
    out: &mut Out,
) -> Result<(), String> {
    let ctx = astra.context();
    let (units, sched) = best_schedule(ctx, &r.best, spec.dims.streams)?;
    let verified = verify_plan(ctx, &r.best, &units, &sched, 1);
    if !verified.is_clean() {
        out.error(&format!("best plan fails verify: {}", verified.render().trim()));
    }
    let linted = lint_plan(ctx, &r.best, &units, &sched, &Topology::single(dev.clone()), 1);
    if !linted.report.is_clean() {
        out.error(&format!("best plan fails lint: {}", linted.report.render().trim()));
    }
    if r.steady_ns > r.native_ns {
        out.error(&format!(
            "steady {} ns is slower than the native baseline {} ns",
            r.steady_ns, r.native_ns
        ));
    }
    if r.store_corrupt_records > 0 {
        out.error(&format!("store quarantined {} corrupt records", r.store_corrupt_records));
    }
    Ok(())
}

/// One iteration in this process: set up, optimize, check, and report.
/// With `traced` the iteration records spans and then times every layer's
/// entry points on this workload's inputs.
pub fn iterate(
    w: Workload,
    tiny: bool,
    dirs: &StoreDirs<'_>,
    traced: bool,
    out: &mut Out,
) -> Result<(), String> {
    let spec = w.spec(tiny);
    let dev = DeviceSpec::p100();
    let mut tr = Tracer::new(traced);
    let it = tr.enter("iteration");

    let setup = tr.enter("setup");
    let t0 = Instant::now();
    let s = tr.enter("models.build");
    let built: BuiltModel = spec.model.build(&spec.cfg);
    tr.exit(s);
    let s = tr.enter("astra.new");
    let mut astra = Astra::new(&built.graph, &dev, spec.options(dirs.store));
    tr.exit(s);
    let setup_s = t0.elapsed().as_secs_f64();
    tr.exit(setup);
    if let Some(e) = astra.store_error() {
        return Err(format!("store did not open: {e}"));
    }

    let s = tr.enter("optimize");
    let t0 = Instant::now();
    let result = astra.optimize();
    let optimize_s = t0.elapsed().as_secs_f64();
    tr.exit(s);
    let r = result.map_err(|e| format!("optimize failed: {e}"))?;
    let peak_rss_kb = peak_rss_kb()?;

    out.metric("setup_s", setup_s);
    out.metric("optimize_s", optimize_s);
    out.metric("peak_rss_kb", peak_rss_kb);
    out.exact("steady_bits", r.steady_ns.to_bits());
    out.exact("exploration_bits", r.exploration_ns.to_bits());
    out.exact("native_bits", r.native_ns.to_bits());
    out.exact("configs_explored", r.configs_explored as u64);
    out.exact("plan_digest", plan_digest(&r.best));
    out.exact("warm_start", u64::from(r.warm_start));
    layers::report_counts(&r, &built, out);

    if w == Workload::MilstmRestart && !r.warm_start {
        out.error("restart did not start warm from the restored store");
    }
    let s = tr.enter("check");
    check_output(&astra, &dev, &spec, &r, out)?;
    tr.exit(s);

    if traced {
        let s = tr.enter("layers");
        layers::probe(&mut tr, &astra, &r, &spec, &dev, dirs, out)?;
        tr.exit(s);
    }
    tr.exit(it);
    for span in tr.spans() {
        out.span(span);
    }
    Ok(())
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_kb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
