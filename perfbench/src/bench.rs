//! The orchestrator: runs iterations in child processes for the requested
//! time, checks them, and prints the metrics.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::check;
use crate::files;
use crate::protocol::Iteration;
use crate::trace;
use crate::workload::Workload;
use crate::Args;

/// Every run makes at least this many iterations, so the exact outputs
/// are always compared at least once.
const MIN_ITERATIONS: usize = 2;
/// Where runs keep scratch stores (removed when the run ends) and write
/// their spans, relative to the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// The run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one child iteration and waits for it.
fn spawn(
    args: &Args,
    w: Workload,
    traced: bool,
    store: &Path,
    pristine: Option<&Path>,
    scratch: &Path,
) -> Result<Iteration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", if traced { "trace" } else { "iterate" }, "--workload", w.name()]);
    cmd.arg("--scratch").arg(scratch);
    cmd.arg("--store").arg(store);
    if let Some(p) = pristine {
        cmd.arg("--pristine").arg(p);
    }
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("cannot run an iteration: {e}"))?;
    let mut it = if out.status.success() {
        Iteration::parse(&String::from_utf8_lossy(&out.stdout))?
    } else {
        let mut it = Iteration::default();
        let stderr = String::from_utf8_lossy(&out.stderr);
        it.errors.push(format!("iteration exited with {}: {}", out.status, stderr.trim()));
        it
    };
    it.traced = traced;
    Ok(it)
}

fn median(mut v: Vec<f64>) -> Result<f64, String> {
    if v.is_empty() {
        return Err("no iteration reported a value".to_owned());
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Ok(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The iteration whose deterministic outputs a result reports: the first
/// that passed its checks, else the first that reported outputs.
fn reference<'a>(its: &[&'a Iteration]) -> Result<&'a Iteration, String> {
    its.iter()
        .find(|it| it.errors.is_empty())
        .or_else(|| its.iter().find(|it| !it.exact.is_empty()))
        .copied()
        .ok_or_else(|| "no iteration completed".to_owned())
}

/// Median of a host measurement over `its`.
fn median_of(its: &[&Iteration], name: &str) -> Result<f64, String> {
    median(its.iter().filter_map(|it| it.metrics.get(name).copied()).collect())
}

/// The benchmark's result line.
struct Output {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn json(&self, attempted: usize, failed: usize) -> Result<String, String> {
        let mut m = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("{name} is not a finite number: {value}"));
            }
            m.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            m.join(", ")
        ))
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let work = WorkDir(Path::new(OUT_DIR).join("work").join(format!(
        "{}-{}",
        w.name(),
        std::process::id()
    )));
    files::reset_dir(&work.0)?;
    let scratch = work.0.join("layers");
    let store = work.0.join("store");

    // A restart reads the store a journal run leaves: build it once, and
    // keep that run's plan as the one every restart must reproduce.
    let pristine = (w == Workload::MilstmRestart).then(|| work.0.join("pristine"));
    let journal = match &pristine {
        Some(p) => {
            files::reset_dir(p)?;
            let it = spawn(args, Workload::MilstmJournal, false, p, None, &scratch)?;
            if !it.errors.is_empty() {
                return Err(format!("building the restart store failed: {}", it.errors.join("; ")));
            }
            Some(it)
        }
        None => None,
    };

    let mut iterations: Vec<Iteration> = Vec::new();
    let mut store_bytes = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    while iterations.len() < MIN_ITERATIONS || t0.elapsed() < budget {
        // A traced run alternates untraced and traced iterations, so the
        // two optimize times compare under the same conditions.
        let is_traced = args.trace && iterations.len() % 2 == 1;
        files::reset_dir(&store)?;
        if let Some(p) = &pristine {
            files::copy_dir(p, &store)?;
        }
        let it = spawn(args, w, is_traced, &store, pristine.as_deref(), &scratch)?;
        store_bytes.push(files::dir_bytes(&store)? as f64);
        iterations.push(it);
    }

    if args.inject_mismatch {
        if let Some(v) = iterations[1].exact.get_mut("steady_bits") {
            v.push('0');
        }
    }
    if let Some(it) = iterations.iter().find(|it| !it.exact.is_empty()) {
        let get = |k: &str| it.exact.get(k).map_or("-", String::as_str);
        eprintln!(
            "perfbench: {} seed {}: {} iterations; {} {} {}",
            w.name(),
            args.seed,
            iterations.len(),
            get("steady_bits"),
            get("configs_explored"),
            get("plan_digest"),
        );
    }
    check::check_iterations(w, args.tiny, &mut iterations, journal.as_ref())?;
    let failed = iterations.iter().filter(|it| !it.errors.is_empty()).count();
    for (i, it) in iterations.iter().enumerate() {
        for e in &it.errors {
            eprintln!("perfbench: {} iteration {i} failed: {e}", w.name());
        }
    }

    let mut out = Output { metrics: Vec::new() };
    let with_trace = |want: bool| -> Vec<&Iteration> {
        iterations.iter().filter(|it| it.traced == want).collect()
    };
    let (plain, with_spans) = (with_trace(false), with_trace(true));
    if args.trace {
        per_layer(&mut out, &plain, &with_spans, &store_bytes)?;
        let spans: Vec<(usize, Vec<trace::Span>)> = iterations
            .iter()
            .enumerate()
            .filter(|(_, it)| it.traced)
            .map(|(i, it)| (i, it.spans.clone()))
            .collect();
        let dir = Path::new(OUT_DIR).join("spans");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.json", w.name(), args.seed));
        std::fs::write(&path, trace::chrome_trace(w.name(), &spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        end_to_end(&mut out, &plain)?;
    }
    println!("{}", out.json(iterations.len(), failed)?);
    Ok(())
}

fn end_to_end(out: &mut Output, its: &[&Iteration]) -> Result<(), String> {
    let reference = reference(its)?;
    let steady = f64::from_bits(reference.exact_as::<u64>("steady_bits")?);
    let exploration = f64::from_bits(reference.exact_as::<u64>("exploration_bits")?);
    let configs = reference.exact_as::<f64>("configs_explored")?;
    out.add("setup_s", median_of(its, "setup_s")?, "s");
    out.add("optimize_s", median_of(its, "optimize_s")?, "s");
    out.add("peak_rss_mb", median_of(its, "peak_rss_kb")? / 1024.0, "MB");
    out.add("steady_ms", steady / 1e6, "sim_ms");
    out.add("explore_trials", configs, "count");
    out.add("explore_overhead_ms", (exploration - configs * steady) / 1e6, "sim_ms");
    Ok(())
}

fn per_layer(
    out: &mut Output,
    plain: &[&Iteration],
    traced: &[&Iteration],
    store_bytes: &[f64],
) -> Result<(), String> {
    // Traced iterations report every count, the probe's own included.
    let reference = reference(traced)?;
    let spans: Vec<Vec<trace::Span>> = traced.iter().map(|it| it.spans.clone()).collect();
    let own = trace::self_times_by_name(&spans);
    // Median self time of one call, in ns.
    let call_ns = |name: &str| -> Result<f64, String> {
        median(own.get(name).cloned().unwrap_or_default())
            .map_err(|_| format!("no traced iteration recorded a {name} span"))
    };
    let n = |name: &str| reference.exact_as::<f64>(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let cmds = n("emit.cmds")?;

    out.add("models.build_ms", call_ns("models.build")? / 1e6, "ms");
    out.add("ir.nodes", n("ir.nodes")?, "count");
    out.add("enumerate.context_ms", call_ns("enumerate.context")? / 1e6, "ms");
    out.add("enumerate.fusion_sets", n("enumerate.fusion_sets")?, "count");
    out.add("enumerate.super_epochs", n("enumerate.super_epochs")?, "count");
    out.add("plan.build_units_ms", call_ns("plan.build_units")? / 1e6, "ms");
    out.add("plan.cache_misses", n("plan.cache_misses")?, "count");
    let (hits, misses) = (n("plan.cache_hits")?, n("plan.cache_misses")?);
    out.add("plan.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    out.add("emit.schedule_ms", call_ns("emit.schedule")? / 1e6, "ms");
    out.add("emit.cmds", cmds, "count");
    out.add("verify.plan_ms", call_ns("verify.plan")? / 1e6, "ms");
    out.add("verify.plans", n("verify.plans")?, "count");
    out.add("verify.rejects", n("verify.rejects")?, "count");
    out.add("lint.plan_ms", call_ns("lint.plan")? / 1e6, "ms");
    out.add("lint.floor_ms", call_ns("lint.floor")? / 1e6, "ms");
    out.add("lint.rejects", n("lint.rejects")?, "count");
    out.add("lint.bound_pruned", n("lint.bound_pruned")?, "count");
    out.add("predict.score_us", call_ns("predict.score")? / 1e3, "us");
    out.add("predict.observe_us", call_ns("predict.observe")? / 1e3, "us");
    out.add("predict.updates", n("predict.updates")?, "count");
    let pruned = n("predict.trials_pruned")?;
    out.add("predict.trials_pruned", pruned, "count");
    out.add("predict.prune_ratio", ratio(pruned, pruned + n("configs_explored")?), "ratio");
    out.add("predict.mae_ms", n("predict.mae_ns")? / 1e6, "sim_ms");
    let (hits, misses) = (n("simcache.hits")?, n("simcache.misses")?);
    out.add("simcache.hits", hits, "count");
    out.add("simcache.misses", misses, "count");
    out.add("simcache.hit_ratio", ratio(hits, hits + misses), "ratio");
    out.add("simcache.resumed_fraction", n("simcache.resumed_fraction")?, "ratio");
    out.add("simcache.prefix_groups", n("simcache.prefix_groups")?, "count");
    out.add("simcache.probe_us", call_ns("simcache.probe")? / 1e3, "us");
    out.add("simcache.absorb_us", call_ns("simcache.absorb")? / 1e3, "us");
    let run_ns = call_ns("engine.run")?;
    out.add("engine.run_ms", run_ns / 1e6, "ms");
    out.add("engine.resume_ms", call_ns("engine.resume")? / 1e6, "ms");
    out.add("engine.cmds_per_s", cmds / (run_ns / 1e9), "1/s");
    out.add("faults.events", n("faults.events")?, "count");
    out.add("faults.retries", n("faults.retries")?, "count");
    out.add("faults.quarantined", n("faults.quarantined")?, "count");
    out.add("faults.run_ms", call_ns("faults.run")? / 1e6, "ms");
    out.add("faults.injected", n("faults.injected")?, "count");
    out.add("store.open_ms", call_ns("store.open")? / 1e6, "ms");
    out.add("store.append_us", call_ns("store.append")? / 1e3, "us");
    out.add("store.compact_ms", call_ns("store.compact")? / 1e6, "ms");
    out.add("store.journal_appends", n("store.journal_appends")?, "count");
    out.add("store.loaded_keys", n("store.loaded_keys")?, "count");
    out.add("store.compactions", n("store.compactions")?, "count");
    out.add("store.corrupt_records", n("store.corrupt_records")?, "count");
    out.add("store.dir_mb", median(store_bytes.to_vec())? / 1e6, "MB");
    let untraced = median_of(plain, "optimize_s")?;
    let with_trace = median_of(traced, "optimize_s")?;
    out.add("trace.overhead_frac", (with_trace - untraced) / untraced, "ratio");
    Ok(())
}
