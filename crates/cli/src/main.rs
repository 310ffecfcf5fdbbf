//! `astra-cli` — command-line front end for the Astra adaptive optimizer.
//!
//! ```text
//! astra-cli optimize --model sublstm --batch 16 --dims all [--streams 4] [--v100]
//! astra-cli compare  --model scrnn --batch 32        # native / XLA / cuDNN / Astra
//! astra-cli trace    --model milstm --batch 16 --out t.json
//! astra-cli scaling  --model sublstm --global-batch 256 --link nvlink
//! astra-cli verify   --model sublstm --streams 4      # static schedule verification
//! astra-cli verify   --fixtures tests/golden          # verify rendered fixtures
//! astra-cli lint     --model sublstm --streams 4      # static resource & perf lint
//! astra-cli lint     --fixtures tests/golden          # lint rendered fixtures
//! astra-cli store    stats --dir .astra-store         # persistent-store maintenance
//! astra-cli models                                    # list available models
//! ```
//!
//! Argument parsing is hand-rolled (no dependencies beyond the workspace).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use astra_core::{Astra, AstraOptions, Dims};
use astra_distrib::{explore_scaling, node_topology, LinkSpec};
use astra_exec::{cudnn_schedule, detect_covered_layers, lower, native_schedule, xla_schedule};
use astra_gpu::{trace_json, DeviceSpec, Engine, FaultPlan};
use astra_models::Model;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "optimize" => cmd_optimize(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "scaling" => cmd_scaling(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "store" => cmd_store(&args[1..]),
        "models" => {
            for m in Model::all() {
                println!(
                    "{:<12} {:<20} cuDNN-covered: {}",
                    flag_name(m),
                    m.name(),
                    m.cudnn_covered()
                );
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: astra-cli <command> [options]

commands:
  optimize  --model <name> --batch <n> [--dims f|fk|fks|all] [--streams <n>] [--v100] [--seq <n>]
            [--workers <n>]   candidate-evaluation threads (default 0 = all cores)
            [--fault none|spikes|launch|alloc|straggler|chaos] [--fault-seed <n>]
                              inject deterministic faults into every simulated mini-batch
                              (default none; seed defaults to 42)
            [--no-sim-cache]  simulate every trial from t=0 instead of replaying memoized
                              full runs (results are identical either way)
            [--predictor on|off] [--top-k <n>]
                              learned cost model that prunes each lookahead batch to the
                              predicted top-k choices per variable plus a fixed 10% tail of
                              random re-admissions (default on, k=2); pruned trials
                              inherit predicted costs under a bounded-regret guard, and
                              `off` reproduces the unpruned exploration exactly
            [--lint on|off]   static resource lint gate on candidate plans (default on):
                              plans whose peak live memory exceeds device capacity are
                              quarantined before simulation (lint-mem-capacity)
            [--json]          print the optimization report as JSON instead of text
            [--store <dir>]   persist full-run sim memos, verdicts, quarantine marks in a
                              crash-safe on-disk store; an interrupted run resumes from the
                              store and produces the bit-identical final plan
            [--devices <n|list>] [--topology nvlink|pcie3|ethernet]
                              explore placements on a simulated multi-device node: a count
                              (`--devices 4`) means that many copies of the base device, a
                              model list (`--devices p100,v100`) names each one; placement
                              (single, data-parallel splits, layer-wise model-parallel cuts)
                              becomes one more adaptive variable, and the report adds the
                              chosen placement, per-device utilization, and cost-per-throughput
  compare   --model <name> --batch <n> [--seq <n>] [--v100]
                              compare native / XLA / cuDNN / Astra
  trace     --model <name> --batch <n> --out <file> [--seq <n>] [--v100]
                              write Chrome-tracing JSON
  scaling   --model <name> --global-batch <n> [--link nvlink|pcie3|ethernet] [--v100]
  verify    --model <name> [--batch <n>] [--seq <n>] [--streams <n>] [--workers <n>] [--json]
                              statically verify the model's enumerated plans (happens-before
                              hazards, event liveness, allocation aliasing); exits nonzero
                              on any error-severity finding
            --model <name> --devices <n|list> [--topology <link>] [--v100]
                              verify every candidate placement on the given node instead
                              (cross-device transfer ordering, all-reduce deadlock, replica
                              coherence)
            --fixtures <dir> [--json] [--workers <n>]
                              parse rendered schedule fixtures (*.txt) and verify their
                              event structure (no footprints: liveness checks only)
  lint      --model <name> [--batch <n>] [--seq <n>] [--streams <n>] [--workers <n>] [--v100]
            [--json]
                              statically lint the model's enumerated plans: liveness peak
                              memory against device capacity (lint-mem-capacity error,
                              lint-mem-occupancy advisory), transitively-implied event
                              waits (lint-redundant-sync), and the critical-path lower
                              bound; exits nonzero on any error-severity finding
            [--mem-mib <n>]   override per-device memory capacity in MiB (default: the
                              device's real capacity — p100 16 GiB, v100 32 GiB)
            [--devices <n|list>] [--topology <link>]
                              lint candidate placements on a simulated node instead
            --fixtures <dir> [--json] [--workers <n>]
                              lint rendered schedule fixtures (no footprints: sync
                              redundancy and the critical-path floor only)
  store     stats   --dir <d> [--json]          record counts, file sizes, corruption history
            compact --dir <d> [--json]          fold the journal into the snapshot atomically
            fsck    --dir <d> [--json]          read-only integrity check; exits nonzero if
                                                any record is torn, corrupt, or undecodable
  models                                        list the model zoo

--workers <n> means the same for optimize, verify and lint: 0 = one thread per available
core, 1 = sequential; results are identical at every setting. optimize defaults to 0,
verify and lint to 1.

models: scrnn, milstm, sublstm, stackedlstm, gnmt, rhn

Every command rejects a flag it does not list above, and a flag given twice.";

fn flag_name(m: Model) -> &'static str {
    match m {
        Model::Scrnn => "scrnn",
        Model::MiLstm => "milstm",
        Model::SubLstm => "sublstm",
        Model::StackedLstm => "stackedlstm",
        Model::Gnmt => "gnmt",
        Model::Rhn => "rhn",
    }
}

/// One subcommand's flag table: the flags that take a value and the
/// switches that take none. Anything else on its command line is an error.
struct Flags {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

const OPTIMIZE_FLAGS: Flags = Flags {
    values: &[
        "--model",
        "--batch",
        "--seq",
        "--dims",
        "--streams",
        "--workers",
        "--fault",
        "--fault-seed",
        "--predictor",
        "--top-k",
        "--lint",
        "--store",
        "--devices",
        "--topology",
    ],
    switches: &["--v100", "--no-sim-cache", "--json"],
};

const COMPARE_FLAGS: Flags =
    Flags { values: &["--model", "--batch", "--seq"], switches: &["--v100"] };

const TRACE_FLAGS: Flags =
    Flags { values: &["--model", "--batch", "--seq", "--out"], switches: &["--v100"] };

const SCALING_FLAGS: Flags =
    Flags { values: &["--model", "--global-batch", "--link"], switches: &["--v100"] };

const VERIFY_FLAGS: Flags = Flags {
    values: &[
        "--model",
        "--batch",
        "--seq",
        "--streams",
        "--workers",
        "--devices",
        "--topology",
        "--fixtures",
    ],
    switches: &["--v100", "--json"],
};

const LINT_FLAGS: Flags = Flags {
    values: &[
        "--model",
        "--batch",
        "--seq",
        "--streams",
        "--workers",
        "--devices",
        "--topology",
        "--fixtures",
        "--mem-mib",
    ],
    switches: &["--v100", "--json"],
};

const STORE_FLAGS: Flags = Flags { values: &["--dir"], switches: &["--json"] };

/// Minimal `--key value` / `--flag` parser over a command line already
/// checked against its subcommand's [`Flags`] (see [`Opts::new`]).
struct Opts<'a>(&'a [String]);

impl<'a> Opts<'a> {
    /// Checks `args` against `flags`: every argument must be a listed
    /// flag given at most once, and every value flag must be followed by
    /// its value. The error names the offending flag.
    fn new(args: &'a [String], flags: &Flags) -> Result<Self, String> {
        let mut seen = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let arg = arg.as_str();
            if seen.contains(&arg) {
                return Err(format!("{arg} given more than once"));
            }
            seen.push(arg);
            if flags.values.contains(&arg) {
                if rest.next().is_none() {
                    return Err(format!("{arg} needs a value"));
                }
            } else if !flags.switches.contains(&arg) {
                return Err(format!("unknown flag '{arg}' (see `astra-cli help`)"));
            }
        }
        Ok(Opts(args))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for {key}: {v}")),
        }
    }

    /// `--workers`, resolved the same way for every subcommand: 0 means
    /// one thread per available core, any other value is taken as-is.
    fn workers(&self, default: usize) -> Result<usize, String> {
        self.parse("--workers", default).map(astra_core::effective_workers)
    }
}

fn parse_model(opts: &Opts<'_>) -> Result<Model, String> {
    let name = opts.get("--model").ok_or("--model is required (see `astra models`)")?;
    match name.to_ascii_lowercase().as_str() {
        "scrnn" => Ok(Model::Scrnn),
        "milstm" | "mi-lstm" => Ok(Model::MiLstm),
        "sublstm" => Ok(Model::SubLstm),
        "stackedlstm" | "stacked-lstm" | "lstm" => Ok(Model::StackedLstm),
        "gnmt" => Ok(Model::Gnmt),
        "rhn" => Ok(Model::Rhn),
        other => Err(format!("unknown model '{other}' (see `astra models`)")),
    }
}

fn parse_faults(opts: &Opts<'_>) -> Result<FaultPlan, String> {
    let seed: u64 = opts.parse("--fault-seed", 42)?;
    match opts.get("--fault").unwrap_or("none") {
        "none" => Ok(FaultPlan::none()),
        "spikes" => Ok(FaultPlan::timing_spikes(seed)),
        "launch" => Ok(FaultPlan::launch_failures(seed)),
        "alloc" => Ok(FaultPlan::alloc_failures(seed)),
        "straggler" => Ok(FaultPlan::stragglers(seed)),
        "chaos" => Ok(FaultPlan::chaos(seed)),
        other => {
            Err(format!("invalid --fault '{other}' (none|spikes|launch|alloc|straggler|chaos)"))
        }
    }
}

/// Predictor controls: `--predictor on|off` plus its `--top-k` knob
/// (defaults match [`AstraOptions::default`]).
fn parse_predictor(opts: &Opts<'_>) -> Result<(bool, usize), String> {
    let on = match opts.get("--predictor").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("invalid --predictor '{other}' (on|off)")),
    };
    let top_k: usize = opts.parse("--top-k", 2)?;
    Ok((on, top_k))
}

/// Parses an `on|off` switch with a default.
fn parse_on_off(opts: &Opts<'_>, key: &str, default: bool) -> Result<bool, String> {
    match opts.get(key) {
        None => Ok(default),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(format!("invalid {key} '{other}' (on|off)")),
    }
}

fn parse_dims(opts: &Opts<'_>) -> Result<Dims, String> {
    match opts.get("--dims").unwrap_or("all") {
        "f" => Ok(Dims::f()),
        "fk" => Ok(Dims::fk()),
        "fks" => Ok(Dims::fks()),
        "all" => Ok(Dims::all()),
        other => Err(format!("invalid --dims '{other}' (f|fk|fks|all)")),
    }
}

fn device(opts: &Opts<'_>) -> DeviceSpec {
    if opts.flag("--v100") {
        DeviceSpec::v100()
    } else {
        DeviceSpec::p100()
    }
}

/// The simulated node `--devices`/`--topology` describe, if requested.
/// `--topology` without `--devices` is rejected — a link with nothing on
/// it is almost certainly a mistyped invocation.
fn parse_node(opts: &Opts<'_>, dev: &DeviceSpec) -> Result<Option<astra_gpu::Topology>, String> {
    match opts.get("--devices") {
        Some(spec) => {
            let link = opts.get("--topology").unwrap_or("nvlink");
            node_topology(spec, link, dev).map(Some)
        }
        None if opts.get("--topology").is_some() => {
            Err("--topology requires --devices (see `astra-cli help`)".to_owned())
        }
        None => Ok(None),
    }
}

fn build(model: Model, opts: &Opts<'_>) -> Result<astra_models::BuiltModel, String> {
    let batch: u64 = opts.parse("--batch", 16)?;
    let mut cfg = model.default_config(batch);
    if let Some(seq) = opts.get("--seq") {
        cfg.seq_len = seq.parse().map_err(|_| format!("invalid --seq {seq}"))?;
    }
    Ok(model.build(&cfg))
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let opts = Opts::new(args, &OPTIMIZE_FLAGS)?;
    let model = parse_model(&opts)?;
    let dims = parse_dims(&opts)?;
    let dev = device(&opts);
    let num_streams: usize = opts.parse("--streams", 4)?;
    let workers = opts.workers(0)?;
    let faults = parse_faults(&opts)?;
    let built = build(model, &opts)?;

    let sim_cache = !opts.flag("--no-sim-cache");
    let (predictor, predictor_top_k) = parse_predictor(&opts)?;
    let lint = parse_on_off(&opts, "--lint", true)?;
    let node = parse_node(&opts, &dev)?;
    let store_dir = opts.get("--store").map(std::path::PathBuf::from);
    let store_on = store_dir.is_some();
    let options = AstraOptions {
        dims,
        num_streams,
        workers,
        faults,
        sim_cache,
        predictor,
        predictor_top_k,
        lint,
        store_dir,
        ..Default::default()
    };
    let mut astra = match &node {
        Some(topo) => Astra::with_topology(&built.graph, topo, options),
        None => Astra::new(&built.graph, &dev, options),
    };
    let json = opts.flag("--json");
    if !json {
        println!(
            "{} on {} — {} graph nodes, {} fusion sets, {} allocation strategies",
            model.name(),
            dev.name,
            built.graph.nodes().len(),
            astra.context().sets.len(),
            astra.context().alloc.strategies.len()
        );
        if let Some(topo) = &node {
            let names: Vec<&str> = topo.devices().iter().map(|d| d.name.as_str()).collect();
            println!(
                "node: {} device(s) [{}] over {}",
                topo.num_devices(),
                names.join(", "),
                topo.link().name
            );
        }
    }
    let r = astra.optimize().map_err(|e| e.to_string())?;
    if let Some(e) = astra.store_error() {
        eprintln!("warning: store not persisting ({e}); this run is cold");
    }
    if json {
        println!("{}", report_json(&r, node.as_ref()));
        return Ok(());
    }
    println!("native:   {:>10.2} ms/mini-batch", r.native_ns / 1e6);
    println!("Astra:    {:>10.2} ms/mini-batch", r.steady_ns / 1e6);
    println!("speedup:  {:>10.2}x", r.speedup());
    println!("explored: {:>10} configs ({} strategies, overhead {:.3}%)",
        r.configs_explored, r.strategies_explored, r.profiling_overhead_frac * 100.0);
    println!("schedule cache: {} hits / {} misses", r.plan_cache_hits, r.plan_cache_misses);
    println!(
        "sim cache: {} hits / {} misses, {:.1}% of commands resumed",
        r.sim_cache_hits,
        r.sim_cache_misses,
        r.resumed_fraction * 100.0
    );
    println!(
        "faults: {} events, {} retries, {} quarantined",
        r.fault_events, r.retries, r.quarantined
    );
    println!("verify: {} plans analyzed, {} rejected", r.plans_verified, r.verify_rejects);
    println!("lint: {} plans rejected", r.lint_rejects);
    println!(
        "predictor: {} trials pruned / {} simulated ({} model updates, MAE {:.2} us)",
        r.trials_pruned,
        r.configs_explored,
        r.predictor_updates,
        r.predicted_vs_measured_mae / 1e3
    );
    if store_on {
        println!(
            "store: warm start {} — {} record(s) loaded, {} corrupt; {} journal append(s), {} compaction(s)",
            r.warm_start,
            r.store_loaded_keys,
            r.store_corrupt_records,
            r.store_journal_appends,
            r.store_compactions
        );
    }
    if let Some(topo) = &node {
        println!(
            "placement: {} ({} candidate(s) explored)",
            r.best.placement.label(),
            r.placements_explored
        );
        let util: Vec<String> = r
            .device_utilization
            .iter()
            .enumerate()
            .map(|(i, u)| format!("d{i} {:.0}%", u * 100.0))
            .collect();
        println!("device utilization: {}", util.join(", "));
        println!(
            "cost-per-throughput: {:.3} cost*ms (node cost {:.2}, steady {:.2} ms)",
            r.cost_per_throughput / 1e6,
            topo.total_cost(),
            r.steady_ns / 1e6
        );
    }
    Ok(())
}

/// Renders the optimize report as a single JSON object (hand-rolled; the
/// workspace takes no serialization dependency). Fixed-precision numeric
/// formatting keeps reports diffable across runs.
fn report_json(r: &astra_core::Report, node: Option<&astra_gpu::Topology>) -> String {
    let mut f = vec![
        format!("\"native_ns\":{:.1}", r.native_ns),
        format!("\"steady_ns\":{:.1}", r.steady_ns),
        format!("\"speedup\":{:.4}", r.speedup()),
        format!("\"configs_explored\":{}", r.configs_explored),
        format!("\"trials_pruned\":{}", r.trials_pruned),
        format!("\"predictor_updates\":{}", r.predictor_updates),
        format!("\"predicted_vs_measured_mae_ns\":{:.1}", r.predicted_vs_measured_mae),
        format!("\"exploration_ns\":{:.1}", r.exploration_ns),
        format!("\"profiling_overhead_frac\":{:.6}", r.profiling_overhead_frac),
        format!("\"strategies_explored\":{}", r.strategies_explored),
        format!("\"fusion_sets\":{}", r.fusion_sets),
        format!("\"super_epochs\":{}", r.super_epochs),
        format!("\"plan_cache_hits\":{}", r.plan_cache_hits),
        format!("\"plan_cache_misses\":{}", r.plan_cache_misses),
        format!("\"sim_cache_hits\":{}", r.sim_cache_hits),
        format!("\"sim_cache_misses\":{}", r.sim_cache_misses),
        format!("\"resumed_fraction\":{:.6}", r.resumed_fraction),
        format!("\"fault_events\":{}", r.fault_events),
        format!("\"retries\":{}", r.retries),
        format!("\"quarantined\":{}", r.quarantined),
        format!("\"plans_verified\":{}", r.plans_verified),
        format!("\"verify_rejects\":{}", r.verify_rejects),
        format!("\"lint_rejects\":{}", r.lint_rejects),
        format!("\"warm_start\":{}", r.warm_start),
        format!("\"store_loaded_keys\":{}", r.store_loaded_keys),
        format!("\"store_corrupt_records\":{}", r.store_corrupt_records),
        format!("\"store_journal_appends\":{}", r.store_journal_appends),
        format!("\"store_compactions\":{}", r.store_compactions),
        format!("\"best_plan\":{}", json_string(&r.best.summary())),
    ];
    if let Some(topo) = node {
        f.push(format!("\"placement\":\"{}\"", r.best.placement.label()));
        f.push(format!("\"placements_explored\":{}", r.placements_explored));
        let util: Vec<String> = r.device_utilization.iter().map(|u| format!("{u:.4}")).collect();
        f.push(format!("\"device_utilization\":[{}]", util.join(",")));
        f.push(format!("\"cost_per_throughput\":{:.1}", r.cost_per_throughput));
        f.push(format!("\"num_devices\":{}", topo.num_devices()));
    }
    format!("{{{}}}", f.join(","))
}

/// Renders `s` as a JSON string literal (escaping quotes, backslashes,
/// and control characters — plan summaries are plain ASCII but the
/// escaper doesn't assume that).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `astra-cli store <stats|compact|fsck> --dir <d>` — maintenance commands
/// for the persistent warm-state store `optimize --store` writes.
fn cmd_store(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first().map(String::as_str) else {
        return Err("store needs an action: stats, compact, or fsck".to_owned());
    };
    let opts = Opts::new(&args[1..], &STORE_FLAGS)?;
    let json = opts.flag("--json");
    let dir = std::path::PathBuf::from(
        opts.get("--dir").ok_or("--dir is required (the --store directory)")?,
    );
    match action {
        "compact" => {
            let (loaded, kept) =
                astra_core::compact_store(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            if json {
                println!(
                    "{{\"records_loaded\":{loaded},\"records_in_snapshot\":{kept}}}"
                );
            } else {
                println!(
                    "compacted {}: {loaded} record(s) folded into {kept} snapshot record(s)",
                    dir.display()
                );
            }
            Ok(())
        }
        "stats" | "fsck" => {
            let report =
                astra_store::fsck(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            if json {
                let counts: Vec<String> = report
                    .counts
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                let corrupt: Vec<String> = report
                    .corrupt
                    .iter()
                    .map(|d| {
                        format!(
                            "{{\"file\":{},\"offset\":{},\"fatal\":{},\"reason\":{}}}",
                            json_string(&d.file),
                            d.offset,
                            d.fatal,
                            json_string(&d.reason)
                        )
                    })
                    .collect();
                println!(
                    "{{\"records\":{},\"bytes\":{},\"counts\":{{{}}},\"corrupt\":[{}],\"quarantined_lines\":{}}}",
                    report.total_records(),
                    report.bytes,
                    counts.join(","),
                    corrupt.join(","),
                    report.quarantined_lines
                );
            } else {
                println!(
                    "{}: {} record(s), {} byte(s)",
                    dir.display(),
                    report.total_records(),
                    report.bytes
                );
                for (kind, n) in &report.counts {
                    println!("  {kind:<16} {n}");
                }
                for d in &report.corrupt {
                    println!(
                        "  CORRUPT {} at offset {} ({}{})",
                        d.file,
                        d.offset,
                        d.reason,
                        if d.fatal { "; scan stopped here" } else { "" }
                    );
                }
                if report.quarantined_lines > 0 {
                    println!(
                        "  {} record(s) quarantined by past recoveries (store.corrupt)",
                        report.quarantined_lines
                    );
                }
            }
            if action == "fsck" && !report.corrupt.is_empty() {
                return Err(format!(
                    "{}: {} corrupt record(s) found",
                    dir.display(),
                    report.corrupt.len()
                ));
            }
            Ok(())
        }
        other => Err(format!("unknown store action '{other}' (stats|compact|fsck)")),
    }
}

/// One verified plan for the `verify` report: where it came from and what
/// the verifier said.
struct VerifiedPlan {
    label: String,
    report: astra_verify::VerifyReport,
}

fn print_verify_results(plans: &[VerifiedPlan], json: bool) -> Result<(), String> {
    let failed = plans.iter().filter(|p| !p.report.is_clean()).count();
    if json {
        let entries: Vec<String> = plans
            .iter()
            .map(|p| format!("{{\"plan\":\"{}\",\"report\":{}}}", p.label, p.report.to_json()))
            .collect();
        println!("[{}]", entries.join(","));
    } else {
        for p in plans {
            if p.report.is_clean() {
                let summary = p.report.render();
                let summary = summary.lines().next().unwrap_or_default();
                println!("{:<40} clean: {summary}", p.label);
            } else {
                println!("{:<40} FAILED", p.label);
                for line in p.report.render().lines() {
                    println!("  {line}");
                }
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} plan(s) failed verification", plans.len()));
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let opts = Opts::new(args, &VERIFY_FLAGS)?;
    let json = opts.flag("--json");
    let workers = opts.workers(1)?;
    if let Some(dir) = opts.get("--fixtures") {
        return verify_fixtures(dir, json, workers);
    }

    let model = parse_model(&opts)?;
    let streams: usize = opts.parse("--streams", 2)?;
    let built = build(model, &opts)?;
    let ctx = astra_core::PlanContext::new(&built.graph);

    // Multi-device mode: verify every candidate placement on the node —
    // the same generator–verifier gate exploration applies per trial.
    if let Some(topo) = parse_node(&opts, &device(&opts))? {
        let base = astra_core::ExecConfig::baseline();
        let units = astra_core::build_units(&ctx, &base).map_err(|e| e.to_string())?;
        let mut plans = Vec::new();
        for placement in astra_core::placement_candidates(&topo, &units) {
            let mut cfg = base.clone();
            cfg.placement = placement;
            let (sched, _) = astra_core::emit_schedule(
                &ctx,
                &cfg,
                &units,
                None,
                &astra_core::ProbeSpec::none(),
            );
            let report = astra_core::verify_plan(&ctx, &cfg, &units, &sched, workers);
            plans.push(VerifiedPlan {
                label: format!(
                    "{} {} on {} device(s)",
                    flag_name(model),
                    cfg.placement.label(),
                    topo.num_devices()
                ),
                report,
            });
        }
        return print_verify_results(&plans, json);
    }

    let strategies = ctx.alloc.strategies.len().max(1);

    let mut plans = Vec::new();
    let stream_counts: Vec<usize> = if streams > 1 { vec![1, streams] } else { vec![1] };
    for strategy in 0..strategies {
        for &n in &stream_counts {
            let mut cfg = astra_core::ExecConfig::baseline();
            cfg.strategy = strategy;
            let mut units = astra_core::build_units(&ctx, &cfg).map_err(|e| e.to_string())?;
            if n > 1 {
                // Round-robin stream assignment: a deliberately adversarial
                // mapping — emit_schedule must still thread every
                // cross-stream dependency through events.
                cfg.num_streams = n;
                for (i, u) in units.iter().enumerate() {
                    cfg.streams.insert(u.id, i % n);
                }
                units = astra_core::build_units(&ctx, &cfg).map_err(|e| e.to_string())?;
            }
            let (sched, _) = astra_core::emit_schedule(
                &ctx,
                &cfg,
                &units,
                None,
                &astra_core::ProbeSpec::none(),
            );
            let report = astra_core::verify_plan(&ctx, &cfg, &units, &sched, workers);
            plans.push(VerifiedPlan {
                label: format!("{} strategy {strategy} x {n} stream(s)", flag_name(model)),
                report,
            });
        }
    }
    print_verify_results(&plans, json)
}

/// The golden report digests share the fixture directory but are not a
/// rendered schedule.
const REPORT_DIGESTS: &str = "report_digests.txt";

/// Every rendered-schedule fixture (`*.txt`) in `dir`, parsed, with its
/// path, in path order.
fn schedule_fixtures(dir: &str) -> Result<Vec<(String, astra_gpu::Schedule)>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .filter(|p| p.file_name().is_none_or(|n| n != REPORT_DIGESTS))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .txt fixtures in {dir}"));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let sched = astra_verify::parse_rendered(&text)
                .map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p.display().to_string(), sched))
        })
        .collect()
}

/// Verifies every rendered-schedule fixture in `dir`. Fixtures carry no
/// unit footprints or allocation plan, so this audits the event structure
/// only (wait/record liveness, cycles, orphan barriers).
fn verify_fixtures(dir: &str, json: bool, workers: usize) -> Result<(), String> {
    let mut plans = Vec::new();
    for (label, sched) in schedule_fixtures(dir)? {
        let report =
            astra_verify::verify(&sched, None, None, &astra_verify::VerifyOptions { workers });
        plans.push(VerifiedPlan { label, report });
    }
    print_verify_results(&plans, json)
}

/// One linted plan for the `lint` report: where it came from and what the
/// linter said.
struct LintedPlan {
    label: String,
    report: astra_lint::LintReport,
}

fn print_lint_results(plans: &[LintedPlan], json: bool) -> Result<(), String> {
    let failed = plans.iter().filter(|p| p.report.errors() > 0).count();
    if json {
        let entries: Vec<String> = plans
            .iter()
            .map(|p| format!("{{\"plan\":\"{}\",\"report\":{}}}", p.label, p.report.to_json()))
            .collect();
        println!("[{}]", entries.join(","));
    } else {
        for p in plans {
            let rendered = p.report.render();
            if p.report.errors() == 0 {
                let summary = rendered.lines().next().unwrap_or_default();
                println!("{:<40} clean: {summary}", p.label);
            } else {
                println!("{:<40} FAILED", p.label);
                for line in rendered.lines() {
                    println!("  {line}");
                }
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} plan(s) failed lint", plans.len()));
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let opts = Opts::new(args, &LINT_FLAGS)?;
    let json = opts.flag("--json");
    let workers = opts.workers(1)?;
    let mut dev = device(&opts);
    if let Some(mib) = opts.get("--mem-mib") {
        let mib: u64 = mib.parse().map_err(|_| format!("invalid --mem-mib {mib}"))?;
        dev.mem_bytes = mib << 20;
    }
    if let Some(dir) = opts.get("--fixtures") {
        return lint_fixtures(dir, json, workers, &dev);
    }

    let model = parse_model(&opts)?;
    let streams: usize = opts.parse("--streams", 2)?;
    let built = build(model, &opts)?;
    let ctx = astra_core::PlanContext::new(&built.graph);

    // Multi-device mode: lint every candidate placement on the node.
    if let Some(topo) = parse_node(&opts, &dev)? {
        let base = astra_core::ExecConfig::baseline();
        let units = astra_core::build_units(&ctx, &base).map_err(|e| e.to_string())?;
        let mut plans = Vec::new();
        for placement in astra_core::placement_candidates(&topo, &units) {
            let mut cfg = base.clone();
            cfg.placement = placement;
            let (sched, _) = astra_core::emit_schedule(
                &ctx,
                &cfg,
                &units,
                None,
                &astra_core::ProbeSpec::none(),
            );
            let report = astra_core::lint_plan(&ctx, &cfg, &units, &sched, &topo, workers);
            plans.push(LintedPlan {
                label: format!(
                    "{} {} on {} device(s)",
                    flag_name(model),
                    cfg.placement.label(),
                    topo.num_devices()
                ),
                report,
            });
        }
        return print_lint_results(&plans, json);
    }

    let topo = astra_gpu::Topology::single(dev);
    let strategies = ctx.alloc.strategies.len().max(1);
    let mut plans = Vec::new();
    let stream_counts: Vec<usize> = if streams > 1 { vec![1, streams] } else { vec![1] };
    for strategy in 0..strategies {
        for &n in &stream_counts {
            let mut cfg = astra_core::ExecConfig::baseline();
            cfg.strategy = strategy;
            let mut units = astra_core::build_units(&ctx, &cfg).map_err(|e| e.to_string())?;
            if n > 1 {
                cfg.num_streams = n;
                for (i, u) in units.iter().enumerate() {
                    cfg.streams.insert(u.id, i % n);
                }
                units = astra_core::build_units(&ctx, &cfg).map_err(|e| e.to_string())?;
            }
            let (sched, _) = astra_core::emit_schedule(
                &ctx,
                &cfg,
                &units,
                None,
                &astra_core::ProbeSpec::none(),
            );
            let report = astra_core::lint_plan(&ctx, &cfg, &units, &sched, &topo, workers);
            plans.push(LintedPlan {
                label: format!("{} strategy {strategy} x {n} stream(s)", flag_name(model)),
                report,
            });
        }
    }
    print_lint_results(&plans, json)
}

/// Lints every rendered-schedule fixture in `dir`. Fixtures carry no unit
/// footprints or allocation plan, so the peak-memory analysis is skipped:
/// sync redundancy and the critical-path floor only.
fn lint_fixtures(dir: &str, json: bool, workers: usize, dev: &DeviceSpec) -> Result<(), String> {
    let mut plans = Vec::new();
    for (label, sched) in schedule_fixtures(dir)? {
        // Multi-device fixtures carry a device map; size a homogeneous
        // topology to it so per-device accounting has a slot for every
        // device the schedule names.
        let n = sched.stream_devices().iter().max().map_or(1, |&d| d + 1);
        let topo =
            astra_gpu::Topology::homogeneous(dev.clone(), n, astra_gpu::LinkDesc::nvlink());
        let report =
            astra_lint::lint(&sched, &topo, None, None, &astra_lint::LintOptions { workers });
        plans.push(LintedPlan { label, report });
    }
    print_lint_results(&plans, json)
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let opts = Opts::new(args, &COMPARE_FLAGS)?;
    let model = parse_model(&opts)?;
    let dev = device(&opts);
    let built = build(model, &opts)?;
    let lowering = lower(&built.graph);
    let run = |s: &astra_gpu::Schedule| -> Result<f64, String> {
        Ok(Engine::new(&dev).run(s).map_err(|e| e.to_string())?.total_ns)
    };
    let native = run(&native_schedule(&lowering))?;
    let xla = run(&xla_schedule(&built.graph, &lowering))?;
    let covered = detect_covered_layers(&built.graph);
    println!("native: {:>10.2} ms", native / 1e6);
    println!("XLA:    {:>10.2} ms ({:.2}x)", xla / 1e6, native / xla);
    if covered.is_empty() {
        println!("cuDNN:  not applicable (no covered layers)");
    } else {
        let cud = run(&cudnn_schedule(&built.graph, &lowering, &covered))?;
        println!("cuDNN:  {:>10.2} ms ({:.2}x)", cud / 1e6, native / cud);
    }
    let mut astra =
        Astra::new(&built.graph, &dev, AstraOptions { dims: Dims::all(), ..Default::default() });
    let r = astra.optimize().map_err(|e| e.to_string())?;
    println!("Astra:  {:>10.2} ms ({:.2}x)", r.steady_ns / 1e6, r.speedup());
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let opts = Opts::new(args, &TRACE_FLAGS)?;
    let model = parse_model(&opts)?;
    let dev = device(&opts);
    let out = opts.get("--out").unwrap_or("trace.json").to_owned();
    let built = build(model, &opts)?;
    let mut astra =
        Astra::new(&built.graph, &dev, AstraOptions { dims: Dims::all(), ..Default::default() });
    let r = astra.optimize().map_err(|e| e.to_string())?;
    let units = astra_core::build_units(astra.context(), &r.best).map_err(|e| e.to_string())?;
    let (sched, _) = astra_core::emit_schedule(
        astra.context(),
        &r.best,
        &units,
        None,
        &astra_core::ProbeSpec::none(),
    );
    let result = Engine::new(&dev).run(&sched).map_err(|e| e.to_string())?;
    std::fs::write(&out, trace_json(&result, model.name())).map_err(|e| e.to_string())?;
    println!("wrote {out} ({} spans, {:.2}x over native)", result.spans.len(), r.speedup());
    Ok(())
}

fn cmd_scaling(args: &[String]) -> Result<(), String> {
    let opts = Opts::new(args, &SCALING_FLAGS)?;
    let model = parse_model(&opts)?;
    let dev = device(&opts);
    let global: u64 = opts.parse("--global-batch", 256)?;
    let link = match opts.get("--link").unwrap_or("nvlink") {
        "nvlink" => LinkSpec::nvlink(),
        "pcie3" | "pcie" => LinkSpec::pcie3(),
        "ethernet" | "eth" => LinkSpec::ethernet(),
        other => return Err(format!("unknown --link '{other}'")),
    };
    let base = model.default_config(global);
    let build_fn = |b: u64| {
        let mut c = base.clone();
        c.batch = b;
        model.build(&c).graph
    };
    let opts_a = AstraOptions { dims: Dims::fk(), ..Default::default() };
    let report = explore_scaling(build_fn, global, &[1, 2, 4, 8], &dev, &link, &opts_a);
    println!("{} at global batch {global} over {}:", model.name(), link.name);
    for p in &report.points {
        println!(
            "  P={:<2} per-replica {:<4} compute {:>8.2}ms allreduce {:>7.2}ms -> {:>8.0} samples/s",
            p.replicas,
            p.per_replica_batch,
            p.compute_ns / 1e6,
            p.allreduce_ns / 1e6,
            p.samples_per_sec
        );
    }
    println!("measured best: P={}", report.best);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn opts_parser_reads_pairs_and_flags() {
        let a = opts(&["--model", "rhn", "--batch", "32", "--v100"]);
        let o = Opts(&a);
        assert_eq!(o.get("--model"), Some("rhn"));
        assert_eq!(o.parse::<u64>("--batch", 16).unwrap(), 32);
        assert!(o.flag("--v100"));
        assert!(!o.flag("--missing"));
        assert_eq!(o.parse::<u64>("--absent", 7).unwrap(), 7);
        assert!(o.parse::<u64>("--model", 0).is_err());
    }

    #[test]
    fn every_zoo_model_parses_by_its_flag_name() {
        for m in Model::all() {
            let a = opts(&["--model", flag_name(m)]);
            assert_eq!(parse_model(&Opts(&a)).unwrap(), m);
        }
        let bad = opts(&["--model", "resnet"]);
        assert!(parse_model(&Opts(&bad)).is_err());
        let none = opts(&[]);
        assert!(parse_model(&Opts(&none)).is_err());
    }

    #[test]
    fn dims_parse_all_levels() {
        for (flag, dims) in
            [("f", Dims::f()), ("fk", Dims::fk()), ("fks", Dims::fks()), ("all", Dims::all())]
        {
            let a = opts(&["--dims", flag]);
            assert_eq!(parse_dims(&Opts(&a)).unwrap(), dims);
        }
        let a = opts(&["--dims", "everything"]);
        assert!(parse_dims(&Opts(&a)).is_err());
        let empty = opts(&[]);
        assert_eq!(parse_dims(&Opts(&empty)).unwrap(), Dims::all());
    }

    #[test]
    fn fault_profiles_parse_with_seed() {
        let a = opts(&["--fault", "chaos", "--fault-seed", "9"]);
        assert_eq!(parse_faults(&Opts(&a)).unwrap(), FaultPlan::chaos(9));
        let b = opts(&["--fault", "spikes"]);
        assert_eq!(parse_faults(&Opts(&b)).unwrap(), FaultPlan::timing_spikes(42));
        let none = opts(&[]);
        assert_eq!(parse_faults(&Opts(&none)).unwrap(), FaultPlan::none());
        let bad = opts(&["--fault", "gamma-rays"]);
        assert!(parse_faults(&Opts(&bad)).is_err());
    }

    #[test]
    fn predictor_flags_parse_with_defaults() {
        let none = opts(&[]);
        assert_eq!(parse_predictor(&Opts(&none)).unwrap(), (true, 2));
        let a = opts(&["--predictor", "off", "--top-k", "3"]);
        assert_eq!(parse_predictor(&Opts(&a)).unwrap(), (false, 3));
        let bad = opts(&["--predictor", "maybe"]);
        assert!(parse_predictor(&Opts(&bad)).is_err());
    }

    #[test]
    fn unknown_and_valueless_flags_are_rejected() {
        let reject = |args: &[&str], flags: &Flags, named: &str| {
            let a = opts(args);
            let err = Opts::new(&a, flags).err().unwrap_or_else(|| panic!("{args:?} accepted"));
            assert!(err.contains(named), "{args:?}: error '{err}' does not name {named}");
        };
        let base = ["--model", "scrnn", "--batch", "4"];
        reject(&[&base[..], &["--bogus-flag", "3"]].concat(), &OPTIMIZE_FLAGS, "--bogus-flag");
        reject(&[&base[..], &["--bound-prun", "on"]].concat(), &OPTIMIZE_FLAGS, "--bound-prun");
        reject(&[&base[..], &["--bound-prune", "on"]].concat(), &OPTIMIZE_FLAGS, "--bound-prune");
        reject(&[&base[..], &["--epsilon", "0.1"]].concat(), &OPTIMIZE_FLAGS, "--epsilon");
        reject(&[&base[..], &["--warm-index"]].concat(), &OPTIMIZE_FLAGS, "--warm-index");
        reject(&[&base[..], &["--dims"]].concat(), &OPTIMIZE_FLAGS, "--dims");
        reject(&["--model", "milstm", "--out", "t.json"], &LINT_FLAGS, "--out");
        reject(&["--dir"], &STORE_FLAGS, "--dir");
        reject(&["stray"], &COMPARE_FLAGS, "stray");
        reject(&[&base[..], &["--batch", "32"]].concat(), &OPTIMIZE_FLAGS, "--batch");
        reject(&["--json", "--dir", "d", "--json"], &STORE_FLAGS, "--json");

        let accept = |line: &str, flags: &Flags| {
            let a: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            assert!(Opts::new(&a, flags).is_ok(), "'{line}' rejected");
        };
        accept("--model milstm --batch 16 --dims fk --top-k 1 --json", &OPTIMIZE_FLAGS);
        accept("--model scrnn --lint off --store d", &OPTIMIZE_FLAGS);
        accept("--model sublstm --batch 8 --devices p100,v100", &VERIFY_FLAGS);
        accept("--fixtures tests/golden --json", &LINT_FLAGS);
        accept("--model milstm --batch 16 --mem-mib 64", &LINT_FLAGS);
        accept("--model sublstm --global-batch 256 --link pcie3", &SCALING_FLAGS);
        accept("--model milstm --batch 16 --out t.json", &TRACE_FLAGS);
        accept("--dir .astra-store --json", &STORE_FLAGS);
    }

    #[test]
    fn device_flag_selects_v100() {
        let a = opts(&["--v100"]);
        assert_eq!(device(&Opts(&a)).name, "tesla-v100-sim");
        let b = opts(&[]);
        assert_eq!(device(&Opts(&b)).name, "tesla-p100-sim");
    }
}
