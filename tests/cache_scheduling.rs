//! The sim cache's contract at the driver level: a memo table of finished
//! runs.
//!
//! Each lookahead batch probes the memo table on the driver thread in
//! candidate order, fans its misses out over the workers, and absorbs
//! their memos in candidate order. None of that may be observable in the
//! results: the best plan, every timing, and every `Report` counter must
//! be bit-identical at any worker count and with the cache on or off.
//! These tests pin those contracts, plus the steady-state payoff the memo
//! exists for: a second optimization pass on the same `Astra` (the
//! paper's repeated-mini-batch regime) must replay nearly every simulated
//! run from its memo.

use astra::core::{Astra, AstraOptions, Dims, Report};
use astra::gpu::{ClockMode, DeviceSpec, FaultPlan};
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

/// Every observable field of a `Report`, bit-exact. Two runs that differ
/// anywhere here took a different decision somewhere.
fn full_fingerprint(r: &Report) -> String {
    format!(
        "native={:x} steady={:x} explo={:x} configs={} best={:?} \
         plan={}h/{}m sim={}h/{}m resumed={:x} faults={} retries={}",
        r.native_ns.to_bits(),
        r.steady_ns.to_bits(),
        r.exploration_ns.to_bits(),
        r.configs_explored,
        r.best,
        r.plan_cache_hits,
        r.plan_cache_misses,
        r.sim_cache_hits,
        r.sim_cache_misses,
        r.resumed_fraction.to_bits(),
        r.fault_events,
        r.retries,
    )
}

fn opts(workers: usize, sim_cache: bool, faulted: bool) -> AstraOptions {
    AstraOptions {
        dims: Dims::all(),
        workers,
        sim_cache,
        clock: if faulted { ClockMode::Autoboost { seed: 5 } } else { ClockMode::Fixed },
        faults: if faulted { FaultPlan::chaos(11) } else { FaultPlan::none() },
        ..Default::default()
    }
}

#[test]
fn reports_are_bit_identical_across_worker_counts() {
    // Every trial probes the pre-batch memo table in candidate order and
    // memos are absorbed in candidate order, so the full report, counters
    // included, is a pure function of the batch content, not of how many
    // threads ran it.
    for model in [Model::Scrnn, Model::SubLstm] {
        let built = tiny(model);
        let dev = DeviceSpec::p100();
        let mut base: Option<_> = None;
        for workers in [1usize, 4, 8] {
            let mut astra = Astra::new(&built.graph, &dev, opts(workers, true, false));
            let r = astra.optimize().expect("optimize runs");
            let fp = full_fingerprint(&r);
            match &base {
                None => base = Some(fp),
                Some(b) => assert_eq!(
                    &fp, b,
                    "{model}: report drifted between worker counts (workers={workers})"
                ),
            }
        }
    }
}

#[test]
fn steady_state_pass_resumes_from_full_run_memos() {
    // A second optimize() on the same Astra replays schedules the cold
    // pass already memoized end-to-end. With the memos resident, nearly
    // every warm trial must replay: >= 0.7 of its simulated commands.
    for model in [Model::Scrnn, Model::SubLstm] {
        let built = tiny(model);
        let dev = DeviceSpec::p100();
        let mut astra = Astra::new(&built.graph, &dev, opts(1, true, false));
        let cold = astra.optimize().expect("cold pass runs");
        let warm = astra.optimize().expect("warm pass runs");

        assert_eq!(
            cold.steady_ns.to_bits(),
            warm.steady_ns.to_bits(),
            "{model}: warm pass changed the outcome"
        );
        assert_eq!(cold.best, warm.best, "{model}: warm pass changed the winner");
        assert!(
            warm.resumed_fraction >= 0.7,
            "{model}: steady-state resumed_fraction {:.3} below the 0.7 floor",
            warm.resumed_fraction
        );
    }
}

#[test]
fn disabled_cache_forces_naive_order_and_zero_counters() {
    let built = tiny(Model::Scrnn);
    let dev = DeviceSpec::p100();
    let mut astra = Astra::new(&built.graph, &dev, opts(4, false, false));
    let r = astra.optimize().expect("optimize runs");
    assert_eq!((r.sim_cache_hits, r.sim_cache_misses), (0, 0));
    assert_eq!(r.resumed_fraction, 0.0);
}

#[test]
fn grouped_execution_is_invariant_under_fault_injection() {
    // Fault plans salt every trial differently, which defeats cross-trial
    // memo reuse, but the cache still probes and captures every trial. The
    // driver must produce the same report bits as the cache-off run, at
    // every worker count.
    let built = tiny(Model::SubLstm);
    let dev = DeviceSpec::p100();
    let mut uncached = Astra::new(&built.graph, &dev, opts(1, false, true));
    let baseline = uncached.optimize().expect("cache-off faulted run");
    for workers in [1usize, 4, 8] {
        let mut astra = Astra::new(&built.graph, &dev, opts(workers, true, true));
        let r = astra.optimize().expect("cached faulted run");
        assert_eq!(
            (r.steady_ns.to_bits(), r.configs_explored, format!("{:?}", r.best)),
            (baseline.steady_ns.to_bits(), baseline.configs_explored, format!("{:?}", baseline.best)),
            "workers={workers}: cached faulted exploration drifted from cache-off"
        );
        assert_eq!(r.fault_events, baseline.fault_events, "fault accounting drifted");
        assert_eq!(r.retries, baseline.retries, "retry accounting drifted");
    }
}
