//! Bit-identity of incremental simulation.
//!
//! The sim cache is only sound if a run resumed from an engine checkpoint
//! is *indistinguishable* from the same run simulated cold — same total
//! time to the last bit, same spans, same event times, same fault
//! accounting. These tests pin that contract on real model schedules
//! (every clock mode, faults on and off), and then at the driver level:
//! `Astra::optimize` must produce bit-identical reports with the cache on,
//! off, and at any worker count.

use astra::core::{
    build_units, emit_schedule, Astra, AstraOptions, Dims, ExecConfig, KeyCtx, PlanContext,
    ProbeSpec, Report, SimCache,
};
use astra::gpu::{ClockMode, DeviceSpec, Engine, FaultPlan, RunResult, Schedule};
use astra::models::Model;

fn tiny(model: Model) -> astra::models::BuiltModel {
    let mut c = model.default_config(8);
    c.hidden = 64;
    c.input = 64;
    c.vocab = 128;
    c.seq_len = 3;
    c.layers = c.layers.min(2);
    model.build(&c)
}

/// A realistic fused 2-stream schedule with unit boundaries, as the
/// exploration driver emits them.
fn model_schedule(model: Model) -> Schedule {
    let built = tiny(model);
    let ctx = PlanContext::new(&built.graph);
    let mut cfg = ExecConfig::baseline();
    cfg.num_streams = 2;
    let units = build_units(&ctx, &cfg).expect("baseline config is valid");
    for (i, u) in units.iter().enumerate() {
        cfg.streams.insert(u.id, i % 2);
    }
    let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
    assert!(!sched.boundaries().is_empty(), "emit_schedule marks unit boundaries");
    sched
}

/// Order-stable digest of every observable bit of a run.
fn run_fingerprint(r: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    fold(r.total_ns.to_bits());
    fold(r.num_launches as u64);
    fold(r.num_records as u64);
    fold(r.profiling_overhead_ns.to_bits());
    fold(u64::from(r.faults.timing_spikes));
    fold(u64::from(r.faults.launch_retries));
    fold(u64::from(r.faults.alloc_retries));
    fold(u64::from(r.faults.straggler_streams));
    for (ev, t) in r.event_ns.iter() {
        fold(u64::from(ev.0));
        fold(t.to_bits());
    }
    for s in &r.spans {
        fold(s.label.len() as u64);
        fold(s.stream.0 as u64);
        fold(s.start_ns.to_bits());
        fold(s.end_ns.to_bits());
        fold(s.cmd_idx as u64);
    }
    h
}

/// Every clock mode the engine supports: the pinned base clock and two
/// autoboost jitter seeds (distinct seeds are distinct RNG streams, so
/// together they cover "jitter state must survive the checkpoint").
const CLOCKS: [ClockMode; 3] =
    [ClockMode::Fixed, ClockMode::Autoboost { seed: 7 }, ClockMode::Autoboost { seed: 1913 }];

#[test]
fn resumed_runs_match_cold_runs_bitwise() {
    let dev = DeviceSpec::p100();
    for model in [Model::SubLstm, Model::Scrnn] {
        let sched = model_schedule(model);
        for clock in CLOCKS {
            for faults in [FaultPlan::none(), FaultPlan::chaos(11)] {
                let salt = 5;
                let cold = Engine::with_faults(&dev, clock, faults, salt)
                    .run(&sched)
                    .expect("cold run");

                // Capture at every unit boundary in one instrumented run;
                // instrumentation must not perturb the result.
                let caps: Vec<usize> = sched.boundaries().iter().map(|&(i, _)| i).collect();
                let (instrumented, checkpoints) =
                    Engine::with_faults(&dev, clock, faults, salt)
                        .run_incremental(&sched, None, &caps)
                        .expect("instrumented run");
                assert_eq!(
                    run_fingerprint(&cold),
                    run_fingerprint(&instrumented),
                    "{model}/{clock:?}: capturing changed the run"
                );
                assert!(!checkpoints.is_empty());

                // Resuming from every checkpoint reproduces the cold run
                // bit-for-bit.
                for ck in &checkpoints {
                    let (resumed, _) = Engine::with_faults(&dev, clock, faults, salt)
                        .run_incremental(&sched, Some(ck), &[])
                        .expect("resumed run");
                    assert_eq!(
                        cold.total_ns.to_bits(),
                        resumed.total_ns.to_bits(),
                        "{model}/{clock:?}/faults={}: total_ns diverged resuming at cmd {}",
                        !faults.is_none(),
                        ck.cmd_idx()
                    );
                    assert_eq!(
                        run_fingerprint(&cold),
                        run_fingerprint(&resumed),
                        "{model}/{clock:?}/faults={}: run diverged resuming at cmd {}",
                        !faults.is_none(),
                        ck.cmd_idx()
                    );
                }
            }
        }
    }
}

#[test]
fn sim_cache_round_trip_is_bit_identical() {
    // Through the SimCache front door: miss, absorb, then a hit that
    // replays the full-run memo — same bits as the cold run.
    let dev = DeviceSpec::p100();
    let sched = model_schedule(Model::Scrnn);
    for clock in CLOCKS {
        let mut cache = SimCache::new();
        let plan = FaultPlan::none();
        let ctx = KeyCtx::new(&dev, clock, &plan);
        let (resume, caps) = cache.probe_and_plan_ctx(&sched, &ctx, 0);
        assert!(resume.is_none(), "first probe must miss");
        let (cold, captured) = Engine::with_faults(&dev, clock, plan, 0)
            .run_incremental(&sched, None, &caps)
            .expect("cold run");
        cache.absorb_ctx(&ctx, 0, captured);

        let (resume, caps2) = cache.probe_and_plan_ctx(&sched, &ctx, 1);
        let ck = resume.expect("repeat probe hits the memoized run");
        let (warm, _) = Engine::with_faults(&dev, clock, plan, 1)
            .run_incremental(&sched, Some(&ck), &caps2)
            .expect("warm run");
        assert_eq!(run_fingerprint(&cold), run_fingerprint(&warm), "{clock:?} warm diverged");
    }
}

fn report_fingerprint(r: &Report, index: &str) -> (u64, u64, u64, usize, String, String) {
    (
        r.native_ns.to_bits(),
        r.steady_ns.to_bits(),
        r.exploration_ns.to_bits(),
        r.configs_explored,
        format!("{:?}", r.best),
        index.to_owned(),
    )
}

fn optimize_with(model: Model, sim_cache: bool, workers: usize, faulted: bool) -> (Report, String) {
    let built = tiny(model);
    let dev = DeviceSpec::p100();
    let opts = AstraOptions {
        dims: Dims::all(),
        workers,
        sim_cache,
        clock: if faulted { ClockMode::Autoboost { seed: 5 } } else { ClockMode::Fixed },
        faults: if faulted { FaultPlan::chaos(11) } else { FaultPlan::none() },
        ..Default::default()
    };
    let mut astra = Astra::new(&built.graph, &dev, opts);
    let r = astra.optimize().expect("optimize runs");
    let index = format!("{:?}", astra.profile_index());
    (r, index)
}

#[test]
fn driver_results_are_invariant_to_the_sim_cache() {
    // Cache on vs off, sequential vs 4 workers, clean and under chaos:
    // every timing, the winning config, and the profile index must be
    // bit-identical. Only wall-clock time (and the cache counters) may
    // differ.
    for faulted in [false, true] {
        let (cold, cold_idx) = optimize_with(Model::SubLstm, false, 1, faulted);
        let baseline = report_fingerprint(&cold, &cold_idx);
        assert_eq!(
            (cold.sim_cache_hits, cold.sim_cache_misses, cold.resumed_fraction),
            (0, 0, 0.0),
            "disabled cache must report zero counters"
        );
        for (sim_cache, workers) in [(true, 1), (true, 4), (false, 4)] {
            let (r, idx) = optimize_with(Model::SubLstm, sim_cache, workers, faulted);
            assert_eq!(
                report_fingerprint(&r, &idx),
                baseline,
                "faulted={faulted} cache={sim_cache} workers={workers} drifted from cold"
            );
            if sim_cache && workers == 1 {
                if faulted {
                    // Faulted checkpoints are salt-specific and every trial
                    // draws a fresh salt, so the cache engages (misses) but
                    // cannot legally share across trials.
                    assert!(r.sim_cache_misses > 0, "cache must still be probed under faults");
                } else {
                    assert!(r.sim_cache_hits > 0, "clean exploration must reuse checkpoints");
                    assert!(r.resumed_fraction > 0.0, "resumed work must be accounted");
                }
            }
            if !sim_cache {
                assert_eq!((r.sim_cache_hits, r.sim_cache_misses), (0, 0));
            }
        }
    }
}
