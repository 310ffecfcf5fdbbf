//! Wall-clock benchmarks for the exploration driver.
//!
//! **Driver scaling.** Runs the full `Astra_all` optimization at worker
//! counts 1, 4, and 8 (plus workers=1 with the sim cache disabled), each
//! setting twice on one `Astra` instance: a **cold** pass (first-ever
//! exploration) and a **warm** pass (steady-state re-exploration — the
//! paper's repeated-mini-batch regime, where every trial replays its
//! full-run memo from the sim cache). Results must be bit-identical
//! across all settings and across the two passes; the warm pass must
//! resume >= 70% of simulated commands and beat the cache-off wall-clock
//! outright. Each row reports the median and the quartiles of its cold
//! and warm wall-clock times over its interleaved reps, and
//! `speedup_vs_workers1` is the ratio of cold medians; a speedup inside
//! the two rows' quartile ranges is no speedup. Interpret it against
//! `host_cpus`: candidate evaluation is pure CPU-bound simulation, so on a
//! 1-CPU host extra workers can only time-slice.
//!
//! **Predictor pruning.** The full exploration with the learned cost
//! model on versus off, interleaved min-of-N, each mode timed over a cold
//! and a steady-state pass. Rows report the trials-saved fraction and the
//! prediction MAE; the MiLSTM gate row must save >= 30% of simulated
//! trials while selecting the unpruned baseline's plan bit-for-bit.
//!
//! Prints one JSON document (`ci.sh bench` redirects it to
//! `BENCH_explore_speed.json`).

use std::time::Instant;

use astra_core::{Astra, AstraOptions, Dims, Report};
use astra_distrib::node_topology;
use astra_gpu::{DeviceSpec, FaultPlan};
use astra_models::Model;

fn min_ms(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First quartile, median and third quartile of `samples` (linear
/// interpolation between the nearest ranks).
///
/// # Panics
///
/// Panics if `samples` is empty.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn run_driver(
    graph: &astra_ir::Graph,
    dev: &DeviceSpec,
    workers: usize,
    sim_cache: bool,
    verify: bool,
) -> (Report, f64) {
    // Explicitly fault-free: this benchmark doubles as the zero-cost check —
    // a disabled FaultPlan must leave the counters at exactly zero.
    let opts = AstraOptions {
        dims: Dims::all(),
        workers,
        faults: FaultPlan::none(),
        sim_cache,
        verify,
        ..Default::default()
    };
    let mut astra = Astra::new(graph, dev, opts);
    let t0 = Instant::now();
    let r = astra.optimize().expect("optimization succeeds");
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// One cold + one warm optimization pass on a single `Astra` instance,
/// individually timed. The warm pass re-explores with the sim cache still
/// holding the cold pass's captures — the steady-state regime.
fn run_driver_cold_warm(
    graph: &astra_ir::Graph,
    dev: &DeviceSpec,
    workers: usize,
    sim_cache: bool,
) -> (Report, f64, Report, f64) {
    let opts = AstraOptions {
        dims: Dims::all(),
        workers,
        faults: FaultPlan::none(),
        sim_cache,
        verify: true,
        // Off on purpose: this section benchmarks the sim cache's
        // steady-state regime, whose cold/warm bit-identity contract the
        // predictor's bounded-regret pruning intentionally relaxes (the
        // warm pass starts with a fully trained model and prunes from the
        // first batch). The predictor has its own section below.
        predictor: false,
        ..Default::default()
    };
    let mut astra = Astra::new(graph, dev, opts);
    let t0 = Instant::now();
    let cold = astra.optimize().expect("cold pass succeeds");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let warm = astra.optimize().expect("warm pass succeeds");
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    (cold, cold_ms, warm, warm_ms)
}

fn main() {
    let dev = DeviceSpec::p100();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let models = [("sc-rnn", Model::Scrnn), ("sublstm", Model::SubLstm)];

    let mut driver_rows = Vec::new();
    for (name, model) in models {
        let mut cfg = model.default_config(16);
        cfg.seq_len = 12;
        let built = model.build(&cfg);

        let reps = 7;
        let settings = [(1usize, true), (4, true), (8, true), (1, false)];
        // Rounds interleave the settings (like the sweep interleaves its
        // modes) so slow host phases hit every setting equally; each
        // setting reports its per-pass median and quartiles.
        let mut cold_samples = vec![Vec::with_capacity(reps); settings.len()];
        let mut warm_samples = vec![Vec::with_capacity(reps); settings.len()];
        let mut reports: Vec<Option<(Report, Report)>> = vec![None; settings.len()];
        for _ in 0..reps {
            for (si, &(workers, sim_cache)) in settings.iter().enumerate() {
                let (c, c_ms, w, w_ms) =
                    run_driver_cold_warm(&built.graph, &dev, workers, sim_cache);
                cold_samples[si].push(c_ms);
                warm_samples[si].push(w_ms);
                reports[si] = Some((c, w));
            }
        }

        let mut base: Option<(Report, Report, f64, f64)> = None;
        let mut off_warm_ms = f64::INFINITY;
        for (si, &(workers, sim_cache)) in settings.iter().enumerate() {
            let (cold, warm) = reports[si].take().expect("every setting ran");
            let [cold_q1, cold_ms, cold_q3] = quartiles(&cold_samples[si]);
            let [warm_q1, warm_ms, warm_q3] = quartiles(&warm_samples[si]);

            // Steady-state re-exploration must change nothing but time.
            assert_eq!(
                cold.steady_ns.to_bits(),
                warm.steady_ns.to_bits(),
                "{name}: warm pass drifted from cold pass"
            );
            assert_eq!(cold.best, warm.best, "{name}: warm winning config drifted");
            // The warm pass explores *fewer* mini-batches (the profile
            // index already answers some phases — adaptation reuse), but
            // never more.
            assert!(
                warm.configs_explored <= cold.configs_explored,
                "{name}: warm pass must not explore more than the cold pass"
            );
            if let Some((bc, bw, _, _)) = &base {
                assert_eq!(bc.steady_ns.to_bits(), cold.steady_ns.to_bits(), "results drifted");
                assert_eq!(bc.configs_explored, cold.configs_explored, "trial count drifted");
                assert_eq!(bc.best, cold.best, "winning config drifted");
                if sim_cache {
                    // Counters are a pure function of batch content: any
                    // worker count, same numbers.
                    for (b, r) in [(bc, &cold), (bw, &warm)] {
                        assert_eq!(b.sim_cache_hits, r.sim_cache_hits, "hits drifted");
                        assert_eq!(b.sim_cache_misses, r.sim_cache_misses, "misses drifted");
                        assert_eq!(
                            b.resumed_fraction.to_bits(),
                            r.resumed_fraction.to_bits(),
                            "resumed fraction drifted"
                        );
                    }
                }
            }
            for r in [&cold, &warm] {
                assert_eq!(
                    (r.fault_events, r.retries, r.quarantined),
                    (0, 0, 0),
                    "disabled fault plan must report zero fault counters"
                );
            }
            if sim_cache {
                assert!(
                    warm.resumed_fraction >= 0.7,
                    "{name} workers={workers}: steady-state re-exploration must resume \
                     >= 70% of simulated commands, got {:.3}",
                    warm.resumed_fraction
                );
            } else {
                for r in [&cold, &warm] {
                    assert_eq!(
                        (r.sim_cache_hits, r.sim_cache_misses),
                        (0, 0),
                        "disabled sim cache must report zero counters"
                    );
                }
                off_warm_ms = warm_ms;
            }

            let speedup = base.as_ref().map_or(1.0, |(_, _, w1, _)| w1 / cold_ms);
            driver_rows.push(format!(
                "{{\"model\":\"{name}\",\"workers\":{workers},\"sim_cache\":{sim_cache},\
                 \"cold_wall_ms\":{cold_ms:.1},\"cold_wall_q1_ms\":{cold_q1:.1},\
                 \"cold_wall_q3_ms\":{cold_q3:.1},\"warm_wall_ms\":{warm_ms:.1},\
                 \"warm_wall_q1_ms\":{warm_q1:.1},\"warm_wall_q3_ms\":{warm_q3:.1},\"reps\":{reps},\
                 \"speedup_vs_workers1\":{speedup:.2},\"configs_explored\":{},\
                 \"plan_cache_hits\":{},\"plan_cache_misses\":{},\
                 \"sim_cache_hits\":{},\"sim_cache_misses\":{},\
                 \"cold_resumed_fraction\":{:.3},\"warm_resumed_fraction\":{:.3},\
                 \"fault_events\":{},\"retries\":{},\"quarantined\":{},\"sim_speedup\":{:.2}}}",
                cold.configs_explored,
                cold.plan_cache_hits,
                cold.plan_cache_misses,
                cold.sim_cache_hits + warm.sim_cache_hits,
                cold.sim_cache_misses + warm.sim_cache_misses,
                cold.resumed_fraction,
                warm.resumed_fraction,
                cold.fault_events,
                cold.retries,
                cold.quarantined,
                cold.speedup(),
            ));
            if base.is_none() {
                base = Some((cold, warm, cold_ms, warm_ms));
            }
        }

        // The steady-state gate: with captures resident, re-exploration
        // must beat the cache-off driver outright at workers=1.
        let (_, _, _, on_warm_ms) = base.as_ref().expect("workers=1 row ran");
        assert!(
            on_warm_ms < &off_warm_ms,
            "{name}: steady-state cache-on must beat cache-off wall-clock \
             ({on_warm_ms:.1}ms on vs {off_warm_ms:.1}ms off)"
        );
    }

    // Verification overhead: the static verifier runs once per distinct
    // plan key, so a full exploration with it on must stay within 5% of
    // off — and be bit-identical, since rejects never fire on clean plans.
    let mut verify_rows = Vec::new();
    for (name, model) in models {
        let mut cfg = model.default_config(16);
        cfg.seq_len = 12;
        let built = model.build(&cfg);
        let reps = 7;
        let mut on = Vec::with_capacity(reps);
        let mut off = Vec::with_capacity(reps);
        let mut plans_verified = 0;
        for _ in 0..reps {
            let (r_on, w_on) = run_driver(&built.graph, &dev, 1, true, true);
            let (r_off, w_off) = run_driver(&built.graph, &dev, 1, true, false);
            assert_eq!(
                r_on.steady_ns.to_bits(),
                r_off.steady_ns.to_bits(),
                "{name}: verification must not change the outcome"
            );
            assert_eq!(r_on.configs_explored, r_off.configs_explored, "trial count drifted");
            assert_eq!(r_on.best, r_off.best, "winning config drifted");
            assert!(r_on.plans_verified > 0, "{name}: verification must actually run");
            assert_eq!(r_on.verify_rejects, 0, "{name}: clean plans must not be rejected");
            assert_eq!(
                (r_off.plans_verified, r_off.verify_rejects),
                (0, 0),
                "{name}: disabled verification must report zero counters"
            );
            on.push(w_on);
            off.push(w_off);
            plans_verified = r_on.plans_verified;
        }
        let on_ms = min_ms(&on);
        let off_ms = min_ms(&off);
        // Each rep times on and off back-to-back, so the per-rep ratio
        // cancels host-load drift that independent minima don't; the best
        // paired ratio is the honest overhead floor on a noisy host.
        let overhead = on
            .iter()
            .zip(&off)
            .map(|(a, b)| a / b - 1.0)
            .fold(f64::INFINITY, f64::min);
        assert!(
            overhead <= 0.05,
            "{name}: cached verification must cost < 5% \
             (best paired overhead {:.1}%, mins {on_ms:.1}ms on vs {off_ms:.1}ms off)",
            overhead * 100.0
        );
        verify_rows.push(format!(
            "{{\"model\":\"{name}\",\"reps\":{reps},\
             \"verify_on_ms\":{on_ms:.1},\"verify_off_ms\":{off_ms:.1},\
             \"overhead_frac\":{overhead:.4},\"plans_verified\":{plans_verified}}}"
        ));
    }

    // Predictor pruning: the full exploration with the learned cost model
    // scoring lookahead batches (top-1 per variable + epsilon tail
    // simulated, the rest inheriting predicted costs) versus the unpruned
    // driver. Each rep interleaves on and off, and each mode runs a cold
    // pass plus a steady-state (warm) pass on one `Astra` instance; every
    // mode keeps its per-pass minimum. The MiLSTM row is the gate: it must
    // save >= 30% of simulated trials while selecting a plan whose steady
    // state is bit-identical to the unpruned baseline's.
    let mut predictor_rows = Vec::new();
    for (name, model, seq, gate) in [
        ("sc-rnn", Model::Scrnn, Some(12), false),
        ("sublstm", Model::SubLstm, Some(12), false),
        ("milstm", Model::MiLstm, None, true),
    ] {
        let mut cfg = model.default_config(16);
        if let Some(s) = seq {
            cfg.seq_len = s;
        }
        let built = model.build(&cfg);
        let run_pred = |predictor: bool| {
            let opts = AstraOptions {
                dims: Dims::all(),
                faults: FaultPlan::none(),
                predictor,
                predictor_top_k: 1,
                ..Default::default()
            };
            let mut astra = Astra::new(&built.graph, &dev, opts);
            let t0 = Instant::now();
            let cold = astra.optimize().expect("predictor cold pass succeeds");
            let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let warm = astra.optimize().expect("predictor warm pass succeeds");
            (cold, cold_ms, warm, t0.elapsed().as_secs_f64() * 1e3)
        };

        let reps = if gate { 2 } else { 3 };
        let mut on_cold_ms = Vec::with_capacity(reps);
        let mut on_warm_ms = Vec::with_capacity(reps);
        let mut off_cold_ms = Vec::with_capacity(reps);
        let mut off_warm_ms = Vec::with_capacity(reps);
        let mut on_rep: Option<(Report, Report)> = None;
        let mut off_rep: Option<(Report, Report)> = None;
        for _ in 0..reps {
            let (c, c_ms, w, w_ms) = run_pred(true);
            on_cold_ms.push(c_ms);
            on_warm_ms.push(w_ms);
            if let Some((pc, pw)) = &on_rep {
                assert_eq!(pc.steady_ns.to_bits(), c.steady_ns.to_bits(), "{name}: on drifted");
                assert_eq!(pc.trials_pruned, c.trials_pruned, "{name}: pruning drifted");
                assert_eq!(pw.trials_pruned, w.trials_pruned, "{name}: warm pruning drifted");
            }
            on_rep = Some((c, w));
            let (c, c_ms, w, w_ms) = run_pred(false);
            off_cold_ms.push(c_ms);
            off_warm_ms.push(w_ms);
            if let Some((pc, _)) = &off_rep {
                assert_eq!(pc.steady_ns.to_bits(), c.steady_ns.to_bits(), "{name}: off drifted");
            }
            off_rep = Some((c, w));
        }
        let (on_cold, on_warm) = on_rep.expect("predictor-on reps ran");
        let (off_cold, off_warm) = off_rep.expect("predictor-off reps ran");

        // The off path is exactly the pre-predictor driver.
        for r in [&off_cold, &off_warm] {
            assert_eq!(
                (r.trials_pruned, r.predictor_updates),
                (0, 0),
                "{name}: predictor off must report zero counters"
            );
            assert_eq!(r.predicted_vs_measured_mae, 0.0, "{name}: off must report zero MAE");
        }
        assert!(on_cold.predictor_updates > 0, "{name}: committed trials must train the model");

        let total = off_cold.configs_explored as f64;
        let saved = on_cold.trials_pruned as f64 / total;
        let drift =
            (on_cold.steady_ns - off_cold.steady_ns).abs() / off_cold.steady_ns;
        assert!(
            drift <= 0.05,
            "{name}: pruned search must converge within 5% (drifted {:.2}%)",
            drift * 100.0
        );
        if gate {
            assert!(
                saved >= 0.30,
                "{name}: the gate workload must save >= 30% of simulated trials, \
                 got {:.1}% ({} pruned of {})",
                saved * 100.0,
                on_cold.trials_pruned,
                off_cold.configs_explored
            );
            assert_eq!(
                on_cold.steady_ns.to_bits(),
                off_cold.steady_ns.to_bits(),
                "{name}: the gate workload must select the unpruned baseline's plan"
            );
            assert_eq!(on_cold.best, off_cold.best, "{name}: gate winner drifted");
            assert_eq!(
                on_cold.configs_explored + on_cold.trials_pruned,
                off_cold.configs_explored,
                "{name}: simulated + pruned must cover the unpruned space"
            );
        }
        // Steady state: the warm model prunes at least as hard as the cold
        // pass's (it starts fully trained).
        let warm_saved =
            on_warm.trials_pruned as f64 / off_warm.configs_explored.max(1) as f64;
        predictor_rows.push(format!(
            "{{\"model\":\"{name}\",\"reps\":{reps},\"gate\":{gate},\
             \"on_cold_ms\":{:.1},\"on_warm_ms\":{:.1},\
             \"off_cold_ms\":{:.1},\"off_warm_ms\":{:.1},\
             \"trials_pruned\":{},\"trials_simulated\":{},\"unpruned_trials\":{},\
             \"trials_saved_frac\":{saved:.3},\"warm_trials_saved_frac\":{warm_saved:.3},\
             \"steady_drift_frac\":{drift:.5},\"predictor_updates\":{},\
             \"predicted_vs_measured_mae_us\":{:.2}}}",
            min_ms(&on_cold_ms),
            min_ms(&on_warm_ms),
            min_ms(&off_cold_ms),
            min_ms(&off_warm_ms),
            on_cold.trials_pruned,
            on_cold.configs_explored,
            off_cold.configs_explored,
            on_cold.predictor_updates,
            on_cold.predicted_vs_measured_mae / 1e3,
        ));
    }

    // Multi-device placement search: the same exploration on 1/2/4-device
    // nvlink nodes. Single-device placement is always a candidate, so the
    // multi-device winner can never be slower than the devices=1 steady
    // state; the wall-clock row shows what the extra placement dimension
    // costs the driver.
    let mut device_rows = Vec::new();
    {
        // Compute-bound regime (large batch, moderate hidden): per-device
        // GEMM time scales with the batch share, so placement genuinely
        // moves the steady state.
        let mut cfg = Model::SubLstm.default_config(256);
        cfg.seq_len = 8;
        cfg.hidden = 256;
        cfg.input = 256;
        cfg.vocab = 1000;
        let built = Model::SubLstm.build(&cfg);
        let mut single_steady: Option<f64> = None;
        for devices in [1usize, 2, 4] {
            let topo = node_topology(&devices.to_string(), "nvlink", &dev)
                .expect("benchmark node parses");
            let opts = AstraOptions {
                dims: Dims { fusion: false, kernel: false, streams: false, alloc: false },
                faults: FaultPlan::none(),
                ..Default::default()
            };
            let reps = 3;
            let mut wall = Vec::with_capacity(reps);
            let mut report: Option<Report> = None;
            for _ in 0..reps {
                let mut astra = Astra::with_topology(&built.graph, &topo, opts.clone());
                let t0 = Instant::now();
                let r = astra.optimize().expect("placement exploration succeeds");
                wall.push(t0.elapsed().as_secs_f64() * 1e3);
                if let Some(prev) = &report {
                    assert_eq!(
                        prev.steady_ns.to_bits(),
                        r.steady_ns.to_bits(),
                        "devices={devices}: repeated exploration drifted"
                    );
                    assert_eq!(prev.best, r.best, "devices={devices}: winner drifted");
                }
                report = Some(r);
            }
            let r = report.expect("at least one rep ran");
            match single_steady {
                None => {
                    assert_eq!(r.placements_explored, 0, "one device has no placement space");
                    single_steady = Some(r.steady_ns);
                }
                Some(s1) => {
                    assert!(r.placements_explored > 1, "multi-device must explore placements");
                    assert!(
                        r.steady_ns <= s1,
                        "devices={devices}: single placement is a candidate, so the winner \
                         can never be slower than devices=1 ({:.0} vs {s1:.0})",
                        r.steady_ns
                    );
                }
            }
            let util: Vec<String> =
                r.device_utilization.iter().map(|u| format!("{u:.3}")).collect();
            device_rows.push(format!(
                "{{\"devices\":{devices},\"wall_ms\":{:.1},\"reps\":{reps},\
                 \"steady_ns\":{:.0},\"placement\":\"{}\",\"placements_explored\":{},\
                 \"configs_explored\":{},\"cost_per_throughput\":{:.0},\
                 \"device_utilization\":[{}]}}",
                min_ms(&wall),
                r.steady_ns,
                r.best.placement.label(),
                r.placements_explored,
                r.configs_explored,
                r.cost_per_throughput,
                util.join(","),
            ));
        }
    }

    println!(
        "{{\n\"host_cpus\":{host_cpus},\n\"driver\":[\n{}\n],\n\"verify_overhead\":[\n{}\n],\n\"predictor\":[\n{}\n],\n\"devices_sweep\":[\n{}\n]\n}}",
        driver_rows.join(",\n"),
        verify_rows.join(",\n"),
        predictor_rows.join(",\n"),
        device_rows.join(",\n"),
    );
}
